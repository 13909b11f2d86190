"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload smallfile-sync --seed 1 \
        --seconds 16 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
makes the traced run and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A run record with
provenance, simulated facts and a digest goes to ``--record``; the
traced run also writes its spans to ``--spans`` (Chrome trace-event
JSON).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from measure import (PROBE_ROUNDS, at_reference_speed,
                     calibration_seconds, digest, nearest_rank, provenance)

ROOT = Path(__file__).resolve().parent.parent
#: Where run records and span files go unless told otherwise.
OUT_DIR = ROOT / ".perfbench"
#: A simulated percentile with no finite value (too many failed ops).
NO_LATENCY_MS = 1e12


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="run record path (default .perfbench/runs/)")
    parser.add_argument("--spans", type=Path, default=None,
                        help="span file of the traced run "
                             "(default .perfbench/spans/)")
    return parser.parse_args(argv)


def run_epochs(workload, count: int):
    """Run *count* epochs, timing each."""
    from workloads import Epoch

    workload.epoch_count = count
    epochs = []
    for index in range(count):
        probe = calibration_seconds(max(1, PROBE_ROUNDS // count))
        cpu0, sim0, wall0 = (time.process_time(), workload.clock.now,
                             time.perf_counter())
        ops = workload.epoch(index)
        epochs.append(Epoch(ops, time.process_time() - cpu0,
                            workload.clock.now - sim0,
                            time.perf_counter() - wall0, probe))
    return epochs


def raw_us_per_op(epochs) -> float:
    """CPU microseconds of the timed phase per op."""
    return (sum(e.cpu_s for e in epochs)
            / sum(len(e.ops) for e in epochs) * 1e6)


def host_us_per_op(epochs) -> float:
    """CPU microseconds per op at the reference host's speed.

    The host's speed drifts by 20-25% over tens of minutes as
    neighbours come and go, and the calibration loop run in slices
    between the epochs drifts with it.  Scaling by the loop's reference time over its time
    in this run removes most of that drift, as ROADMAP item 1 asks
    ("after dividing by a fixed calibration loop timed in the same
    job")."""
    return at_reference_speed(raw_us_per_op(epochs),
                              statistics.mean(e.probe_s for e in epochs))


def _percentile_ms(latencies, q: float) -> float:
    value = nearest_rank(latencies, q) * 1000.0
    return value if math.isfinite(value) else NO_LATENCY_MS


def simulated_summary(epochs) -> dict:
    """Simulated facts of the timed phase: a pure function of the seed
    and the epoch count."""
    ops = [op for epoch in epochs for op in epoch.ops]
    ok = [op for op in ops if op.outcome == "ok"]
    # A failed, refused or unfinished op misses every latency limit.
    latencies = sorted(op.latency if op.outcome == "ok" else math.inf
                       for op in ops)
    sim_s = sum(epoch.sim_s for epoch in epochs)
    p99_ms = _percentile_ms(latencies, 0.99)
    facts = [(index, op.kind, op.latency, op.outcome)
             for index, op in enumerate(ops)]
    facts.append(("sim_s", sim_s))
    return {
        "samples": len(ops),
        "sim_ops_per_s": len(ok) / sim_s if sim_s > 0 else 0.0,
        "sim_p50_ms": _percentile_ms(latencies, 0.50),
        "sim_p99_ms": p99_ms,
        "samples_beyond_p99": sum(1 for v in latencies
                                  if v * 1000.0 > p99_ms),
        "sim_seconds": sim_s,
        "digest": digest(facts),
    }


def _counts(epochs) -> tuple[int, int]:
    ops = [op for epoch in epochs for op in epoch.ops]
    return len(ops), sum(1 for op in ops if op.outcome != "ok")


def check_integrity(workload, before: dict, after: dict) -> None:
    """Every workload: no byte through the reference ARC4 kernel (the
    fast lane silently off is a bug, not a slowdown) and no record
    failing its MAC."""
    reference = after["arc4#reference_bytes"] - before["arc4#reference_bytes"]
    if reference:
        workload.fail(f"{reference} ARC4 bytes took the reference kernel")
    rejects = (after.get("channel.mac_reject", 0)
               - before.get("channel.mac_reject", 0))
    if rejects:
        workload.fail(f"{rejects} channel records failed their MAC")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(cls, args) -> tuple[dict, dict, list]:
    """The untraced run: end-to-end metrics."""
    import layers

    workload = cls(args.seed)
    setup_s, setup_detail = workload.setup()
    before = layers.counters(workload)
    epochs = run_epochs(workload, workload.epochs(args.seconds))
    check_integrity(workload, before, layers.counters(workload))
    workload.check()
    attempted, failed = _counts(epochs)
    sim = simulated_summary(epochs)
    if sim["samples"] < 1000:
        workload.fail(f"only {sim['samples']} ops, fewer than 1000")
    metrics = {
        "host_us_per_op": _metric(host_us_per_op(epochs), "us"),
        "setup_s": _metric(setup_s, "s"),
        "sim_ops_per_s": _metric(sim["sim_ops_per_s"], "ops/s"),
        "sim_p50_ms": _metric(sim["sim_p50_ms"], "ms"),
        "sim_p99_ms": _metric(sim["sim_p99_ms"], "ms"),
        "op_ok_share": _metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB"),
    }
    record = {
        "setup": setup_detail,
        "epochs": [{"ops": len(e.ops), "cpu_s": e.cpu_s, "sim_s": e.sim_s,
                    "wall_s": e.wall_s, "probe_s": e.probe_s}
                   for e in epochs],
        "raw_us_per_op": raw_us_per_op(epochs),
        "simulated": sim,
        "facts": workload.facts(),
        "op_error_share": failed / attempted,
        "attempted": attempted, "failed": failed,
    }
    return metrics, record, workload.failures


def run_traced(cls, args) -> tuple[dict, dict, list]:
    """The traced run: half the epochs untraced, then a fresh world built
    and run with boundary wrappers installed for the same epochs.  The
    overhead compares the CPU time of identical simulated work."""
    import layers
    from tracing import Tracer

    baseline = cls(args.seed)
    baseline.build()
    untraced = run_epochs(baseline, max(baseline.min_epochs,
                                        baseline.epochs(args.seconds) // 2))
    del baseline
    gc.collect()

    tracer = Tracer()
    tracer.install()
    try:
        workload = cls(args.seed, tracer=tracer)
        workload.build()
        setup_stats = tracer.snapshot()
        tracer.reset()
        workload.world.metrics.layers.reset()
        before = layers.counters(workload)
        traced = run_epochs(workload, len(untraced))
        after = layers.counters(workload)
        # Simulated seconds per layer from the program's own tracker
        # hold only where delivery is synchronous (ROADMAP item 5).
        layer_sim = (None if workload.world.pipelining
                     else layers.tracker_sim_seconds(workload))
    finally:
        tracer.uninstall()
    check_integrity(workload, before, after)
    workload.check()
    attempted, failed = _counts(traced)
    untraced_us, traced_us = host_us_per_op(untraced), host_us_per_op(traced)
    metrics = layers.per_layer(tracer, setup_stats, before, after,
                               ops=attempted,
                               wall_s=sum(e.wall_s for e in traced),
                               layer_sim=layer_sim)
    metrics["trace.overhead"] = _metric(traced_us / untraced_us - 1.0,
                                        "ratio")
    spans_path = args.spans or (
        OUT_DIR / "spans" / f"{cls.name}-seed{args.seed}.json")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    recorded = tracer.write_chrome_trace(spans_path, {
        "workload": cls.name, "seed": args.seed,
        "op_ids": workload.synchronous})
    record = {
        "attempted": attempted, "failed": failed,
        "untraced_epochs": len(untraced), "traced_epochs": len(traced),
        "untraced_host_us_per_op": untraced_us,
        "traced_host_us_per_op": traced_us,
        "spans_file": str(spans_path), "spans_recorded": recorded,
        "span_stats": _span_stats(tracer.snapshot()),
        "setup_span_stats": _span_stats(setup_stats),
        "layer_sim_s": layer_sim,
    }
    return metrics, record, workload.failures


def _span_stats(snapshot: dict) -> dict:
    return {name: {"calls": calls, "self_s": self_s, "inclusive_s": incl}
            for name, (calls, self_s, incl) in snapshot.items()}


def _fixed_hash_seed() -> None:
    """Re-execute under PYTHONHASHSEED=0 (same process, no child).

    String hashing is randomized per process by default, which changes
    dict and set layouts and so moves host timings between runs of one
    seed; a fixed hash seed removes that source of spread."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    _fixed_hash_seed()
    args = _arguments(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    calibration_before = calibration_seconds()
    runner = run_traced if args.trace else run_timed
    metrics, record, failures = runner(cls, args)
    record.update({
        "workload": cls.name, "trace": args.trace, "seconds": args.seconds,
        "provenance": provenance(ROOT, args.seed),
        "calibration_s": {"before": calibration_before,
                          "after": calibration_seconds()},
        "metrics": metrics, "failures": failures,
    })
    record_path = args.record or (OUT_DIR / "runs" / (
        f"{cls.name}-seed{args.seed}-trace{args.trace}.json"))
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    for name, metric in metrics.items():
        print(f"{cls.name}  {name:36s} {metric['value']:14.6g} "
              f"{metric['unit']}")
    if "simulated" in record:
        sim = record["simulated"]
        print(f"{cls.name}  simulated: {sim['samples']} ops, "
              f"{sim['samples_beyond_p99']} beyond p99, "
              f"digest {sim['digest'][:16]}")
    for message in failures:
        print(f"{cls.name}  CHECK FAILED: {message}")
    result = {
        "correct": not failures,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
