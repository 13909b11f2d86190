"""The ``bench fleet`` figure: aggregate throughput vs. fleet size.

Not a paper figure — the paper measures one server — but the paper's
architecture *predicts* this one: because the namespace composes out of
ordinary symlinks and no server knows the others exist, capacity should
scale by adding servers, with clients spread across shards by the
consistent-hash placement.  The figure fixes the client population and
sweeps the server count; aggregate ops/s rises until the clients (not
the servers) are the bottleneck, and per-shard p99 falls as each shard's
queue drains faster than it fills.

Two phases per run, both fully simulated and deterministic per seed:

* **namespace** — a real client machine mounts the fleet's signed
  namespace through the untrusted replica tier and resolves every
  provisioned name, verifying each symlink against the placement the
  fleet recorded at provision time.
* **data path** — N closed-loop clients on the shared load driver
  (:class:`~repro.load.harness.LoadDriver`: think, call, repeat) drive
  their names' owning shards through each shard's bounded request
  queue.  This module only builds the topology: the fleet, its
  namespace, per-shard queues, and one client slot per load client.

:func:`run_tamper_demo` is the security half of the figure: the fastest
mirror of the namespace serves bit-flipped blobs, and the client bans it
on the first digest mismatch while every resolved link stays correct —
demotion costs a round trip, never a byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..kernel.world import World
from ..load.harness import (
    ClientSlot,
    LoadDriver,
    LoadReport,
    ShardReport,
    lookup_path,
    seed_world_readable,
)
from ..load.workload import DEFAULT_MIX, OpMix
from ..sim.network import NetworkParameters


@dataclass
class FleetLoadConfig:
    """One fleet run: topology, namespace size, and the offered load."""

    servers: int = 4
    clients: int = 16
    ops_per_client: int = 20
    seed: int = 2026
    #: Mean think time between a client's operations.  Short on purpose:
    #: the sweep wants the *servers* to be the bottleneck at small fleet
    #: sizes, so adding shards shows up as aggregate throughput.
    think_time: float = 0.002
    io_size: int = 4096
    mix: OpMix = DEFAULT_MIX
    #: Provisioned names (directories spread over shards by the ring).
    names: int = 32
    #: Untrusted mirrors of the namespace image.
    mirrors: int = 2
    workers: int = 2
    service_time: float = 0.005
    max_depth: int = 64
    rpc_timeout: float = 1.0
    encrypt: bool = True


@dataclass
class FleetReport(LoadReport):
    """One fleet run's outcome, all figures in simulated seconds."""

    servers: int = 0
    #: Namespace-tier counters (fleet.replica.*) from the resolve phase.
    namespace: dict = field(default_factory=dict)
    #: Symlinks resolved through the replica tier, all verified.
    names_resolved: int = 0

    def worst_shard_p99(self) -> float:
        return max((s.p99 for s in self.shards if s.latencies), default=0.0)


def provision_data_names(fleet, count: int) -> dict[str, str]:
    """Provision ``proj00``, ``proj01``, ...: each a directory on its
    owning shard holding a world-readable ``data`` file.  Returns each
    name's certified link target."""
    targets = {}
    for index in range(count):
        name = f"proj{index:02d}"
        targets[name] = fleet.provision(name)
        seed_world_readable(fleet.shard_for(name).fs, f"/{name}/data")
    return targets


def dial_shard_clients(driver: LoadDriver, fleet, client_names: list[str],
                       tally=ShardReport) -> dict[str, ShardReport]:
    """One slot per client name, dialed at the name's owning shard.

    Builds one ``tally(location)`` per shard (counting the names it
    owns) and returns them by location, in fleet order.  Each name's
    ``data`` file is looked up once, through the first session that
    needs it; the slot's operations all target that one file.
    """
    shards = {shard.location: tally(shard.location)
              for shard in fleet.shards}
    for location in fleet.assignments.values():
        shards[location].names += 1
    dial = driver.dialer()
    handles: dict[str, bytes] = {}
    for name in client_names:
        shard = fleet.shard_for(name)
        session = dial(shard.location, shard.path)
        if name not in handles:
            handles[name] = lookup_path(session, name, "data")
        shards[shard.location].clients += 1
        driver.slots.append(ClientSlot(session, [handles[name]],
                                       shards[shard.location]))
    return shards


def resolve_names(world: World, fleet, hostname: str,
                  targets: dict[str, str]):
    """Mount the namespace through the replica tier on a new client
    machine and read every name's link.  Returns the machine and the
    names whose link is not their certified target."""
    client = world.add_client(hostname, with_disk=False)
    fleet.attach(client)
    process = client.root_process()
    prefix = f"/sfs/{fleet.namespace_path.mount_name}"
    wrong = [name for name, target in targets.items()
             if process.readlink(f"{prefix}/{name}") != target]
    return client, wrong


class FleetHarness(LoadDriver):
    """Owns the world, the fleet, and one client slot per load client."""

    def __init__(self, config: FleetLoadConfig) -> None:
        world = World(seed=config.seed)
        metrics = world.metrics
        super().__init__(
            config, world, world.enable_concurrency(seed=config.seed),
            "fleet", op_seconds=metrics.histogram("fleet.op_seconds"),
            shard_ops=metrics.family("fleet.shard.ops"),
        )
        world.enable_contention()
        self.fleet = world.add_fleet(config.servers)
        self.targets = provision_data_names(self.fleet, config.names)
        self.names = list(self.targets)
        self.fleet.publish(mirrors=config.mirrors)
        # Every name must resolve through the replica tier to the
        # placement recorded at provision time.
        _client, wrong = resolve_names(world, self.fleet, "bench-client",
                                       self.targets)
        if wrong:
            raise AssertionError(f"namespace resolved {wrong} wrongly")
        self.names_resolved = len(self.names)
        self.queues = {
            shard.location: shard.server.enable_queueing(
                max_depth=config.max_depth, workers=config.workers,
                service_time=config.service_time,
            )
            for shard in self.fleet.shards
        }
        self._shard_reports = dial_shard_clients(
            self, self.fleet,
            [self.names[index % len(self.names)]
             for index in range(config.clients)],
        )

    def _new_report(self) -> FleetReport:
        return FleetReport(
            servers=self.config.servers, clients=self.config.clients,
            shards=list(self._shard_reports.values()),
            names_resolved=self.names_resolved,
        )

    def _collect(self, report: FleetReport) -> None:
        for location, queue in self.queues.items():
            self._shard_reports[location].peak_queue_depth = queue.peak_depth
        metrics = self.world.metrics
        report.namespace = {
            key: metrics.counter(f"fleet.replica.{key}").value
            for key in ("fetches", "failovers", "demotions", "bans",
                        "corrupt_blobs", "backoff_waits")
        }

    run = LoadDriver.run_closed_loop


# -- the tamper demonstration ----------------------------------------------


@dataclass
class TamperReport:
    """Outcome of resolving the namespace past a tampering mirror."""

    names_resolved: int = 0
    wrong_links: int = 0
    corrupt_blobs: int = 0
    bans: int = 0
    failovers: int = 0
    banned_replicas: list[str] = field(default_factory=list)
    replicas: list[dict] = field(default_factory=list)


def run_tamper_demo(seed: int = 2026, names: int = 6,
                    mirrors: int = 2) -> TamperReport:
    """The fastest mirror serves bit-flipped blobs; the client bans it
    on the first digest mismatch and every resolved link stays correct.

    The tampering mirror is *preferred* by construction — the CA and the
    honest mirrors sit behind WAN links while the tamperer is on the
    LAN — so the demotion is exercised on the primary path, not a
    fallback nobody takes.
    """
    world = World(seed=seed)
    fleet = world.add_fleet(2, name="fleet")
    expected = {}
    for index in range(names):
        name = f"proj{index:02d}"
        expected[name] = fleet.provision(name)
    fleet.publish(mirrors=mirrors)
    wan = NetworkParameters.wan()
    world.set_link_params(fleet.ca.location, wan)
    for location in fleet.mirror_locations[1:]:
        world.set_link_params(location, wan)
    tamperer = fleet.mirror_locations[0]
    store = world.servers[tamperer].master._ro[
        fleet.namespace_path.hostid].store.image.store
    for digest, blob in list(store.items()):
        store[digest] = bytes([blob[0] ^ 0x01]) + blob[1:]

    client, wrong = resolve_names(world, fleet, "victim", expected)
    report = TamperReport(names_resolved=len(expected) - len(wrong),
                          wrong_links=len(wrong))
    replica_set = client.sfscd.replica_sets[fleet.namespace_path.hostid]
    report.replicas = replica_set.stats()
    report.banned_replicas = [entry["name"] for entry in report.replicas
                              if entry["banned"]]
    metrics = world.metrics
    report.corrupt_blobs = metrics.counter(
        "fleet.replica.corrupt_blobs").value
    report.bans = metrics.counter("fleet.replica.bans").value
    report.failovers = metrics.counter("fleet.replica.failovers").value
    return report
