"""Per-layer metrics of the traced run.

Times come from the boundary spans (see tracing.py).  Counts and ratios
come from the program's own metrics registry and the process-wide
fast-lane counters (``arc4kernel.STATS``, ``xdr.STATS``), read before
and after the traced timed phase.  Set-up metrics (SHA-1, Rabin, the
ARC4 key schedule, key negotiation) are read from the traced set-up.
"""

from __future__ import annotations

from repro.crypto import arc4kernel
from repro.rpc import xdr

CLIENT_CACHES = ("attrs", "access", "lookups")


def _flat(snapshot: dict) -> dict[str, float]:
    """Counters as numbers; histograms by their sum and count; gauges
    by value and peak."""
    flat = {}
    for name, value in snapshot.items():
        if isinstance(value, dict):
            for key in ("sum", "count", "value", "peak"):
                if key in value:
                    flat[f"{name}#{key}"] = value[key]
        elif isinstance(value, (int, float)):
            flat[name] = value
    return flat


def counters(workload) -> dict[str, float]:
    flat = _flat(workload.world.metrics.snapshot()["metrics"])
    for key, value in arc4kernel.STATS.snapshot().items():
        flat[f"arc4#{key}"] = value
    for key, value in xdr.STATS.snapshot().items():
        flat[f"xdr#{key}"] = value
    return flat


def tracker_sim_seconds(workload) -> dict[str, float]:
    """Simulated seconds per layer from the program's LayerTracker."""
    return {name: sim for name, (_cpu, sim)
            in workload.world.metrics.layers.breakdown().items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, setup_stats, before, after, ops: int,
              wall_s: float, layer_sim: dict | None) -> dict:
    """Every per-layer metric.  *layer_sim* is the program's own
    simulated seconds per layer, given only under synchronous delivery:
    there the network layer's share is its wire time."""
    def delta(name: str) -> float:
        return after.get(name, 0) - before.get(name, 0)

    def delta_prefix(prefix: str) -> float:
        return sum(delta(name) for name in after if name.startswith(prefix))

    def setup_calls(name: str) -> int:
        return setup_stats.get(name, (0, 0.0, 0.0))[0]

    def setup_self(name: str) -> float:
        return setup_stats.get(name, (0, 0.0, 0.0))[1]

    def setup_inclusive(name: str) -> float:
        return setup_stats.get(name, (0, 0.0, 0.0))[2]

    layer_s = tracer.layer_self_seconds()
    arc4_bytes = (delta("arc4#libcrypto_bytes") + delta("arc4#pyblock_bytes")
                  + delta("arc4#reference_bytes"))
    fast = delta("xdr#fast_packs") + delta("xdr#fast_unpacks")
    slow = delta("xdr#slow_packs") + delta("xdr#slow_unpacks")
    cache_hits = sum(delta(f"cache.{c}.hits") for c in CLIENT_CACHES)
    cache_misses = sum(delta(f"cache.{c}.misses") for c in CLIENT_CACHES)
    steps = delta("sched.steps")
    sessions = setup_calls("core.keyneg")
    metrics = {
        "crypto.host_s": (layer_s["crypto"], "s"),
        "crypto.arc4.bytes": (arc4_bytes, "bytes"),
        "crypto.arc4.reference_share": (
            _ratio(delta("arc4#reference_bytes"), arc4_bytes), "ratio"),
        "crypto.mac.calls": (tracer.calls("crypto.mac"), "count"),
        "crypto.mac.host_s": (tracer.self_seconds("crypto.mac"), "s"),
        "crypto.sha1.calls": (setup_calls("crypto.sha1"), "count"),
        "crypto.sha1.host_s": (setup_self("crypto.sha1"), "s"),
        "crypto.rabin.calls": (setup_calls("crypto.rabin"), "count"),
        "crypto.rabin.host_s": (setup_self("crypto.rabin"), "s"),
        "crypto.arc4.key_schedule_host_s": (
            setup_inclusive("crypto.arc4.key_schedule"), "s"),
        "crypto.blowfish.host_s": (
            tracer.self_seconds("crypto.blowfish"), "s"),
        "rpc.host_s": (layer_s["rpc"], "s"),
        "rpc.xdr.host_s": (tracer.self_seconds("rpc.xdr"), "s"),
        "rpc.xdr.fast_share": (_ratio(fast, fast + slow), "ratio"),
        "rpc.calls_per_op": (_ratio(delta("rpc.calls"), ops), "calls/op"),
        "rpc.retransmissions": (delta("rpc.retransmissions"), "count"),
        "rpc.window.waits": (delta("rpc.window.waits"), "count"),
        "nfs3.host_s": (layer_s["nfs3"], "s"),
        "nfs3.ops_per_op": (_ratio(delta_prefix("nfs3.ops."), ops),
                            "calls/op"),
        "nfs3.errors": (delta_prefix("nfs3.errors."), "count"),
        "core.channel.host_s": (layer_s["core.channel"], "s"),
        "core.channel.records": (delta("channel.records_sent"), "count"),
        "core.channel.bytes_per_record": (
            _ratio(tracer.sizes.get("core.channel.send", 0),
                   tracer.calls("core.channel.send")), "bytes"),
        "core.channel.mac_rejects": (delta("channel.mac_reject"), "count"),
        "core.client.host_s": (layer_s["core.client"], "s"),
        "core.client.cache_hit_ratio": (
            _ratio(cache_hits, cache_hits + cache_misses), "ratio"),
        "core.client.readahead_hit_ratio": (
            _ratio(delta("client.readahead.hits"),
                   delta("client.readahead.hits")
                   + delta("client.readahead.misses")), "ratio"),
        "core.client.gather_writes_per_flush": (
            _ratio(delta("client.gather.writes"),
                   delta("client.gather.flushes")), "writes"),
        "core.server.host_s": (layer_s["core.server"], "s"),
        "core.server.lease_fanout_host_s": (
            tracer.inclusive_seconds("core.server.lease_fanout"), "s"),
        "core.server.invalidations_sent": (
            delta("server.invalidations_sent"), "count"),
        "core.server.queue_wait_sim_s": (
            delta("server.queue.wait_seconds#sum"), "s"),
        "core.server.queue_peak_depth": (
            after.get("server.queue.depth#peak", 0), "count"),
        "core.keyneg.host_s_per_session": (
            _ratio(setup_inclusive("core.keyneg"), sessions), "s"),
        "core.authserv.validate_host_s": (
            tracer.inclusive_seconds("core.authserv.validate"), "s"),
        "auth.validations": (delta("auth.validations"), "count"),
        "auth.cache.hit_ratio": (
            _ratio(delta("auth.cache.hits"),
                   delta("auth.cache.hits") + delta("auth.cache.misses")),
            "ratio"),
        "sim.sched.steps": (steps, "count"),
        "sim.sched.host_us_per_step": (
            _ratio(layer_s["sim.sched"], steps) * 1e6, "us"),
        "sim.network.host_s": (layer_s["sim.network"], "s"),
        "sim.network.bytes_per_op": (_ratio(delta("net.bytes"), ops),
                                     "bytes"),
        "sim.network.wire_sim_s": (
            delta("net.pipelined.wire_seconds")
            + (layer_sim or {}).get("network", 0.0), "s"),
        "sim.network.medium_wait_sim_s": (
            delta("net.medium_wait_seconds#sum"), "s"),
        "sim.disk.syncs": (delta("disk.syncs"), "count"),
        "sim.disk.writes_per_op": (_ratio(delta("disk.writes"), ops),
                                   "writes"),
        "kernel.host_s": (layer_s["kernel"], "s"),
        "fs.host_s": (layer_s["fs"], "s"),
        "obs.host_s": (layer_s["obs"], "s"),
        "trace.unattributed_share": (
            max(0.0, 1.0 - _ratio(tracer.top_level_s, wall_s)), "ratio"),
    }
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()}
