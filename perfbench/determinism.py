"""Determinism check: the same seed twice gives the same simulated run.

    python3 perfbench/determinism.py --workload crowd --seed 31337

Runs ``run.py --trace 0`` twice, each in a fresh process, and compares
the two run records: the provenance must allow comparison, and the
simulated metrics and the digest of the run's simulated facts must be
identical.  Host metrics are not compared.  Exit status 0 when the runs
agree, 1 when they differ.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SIMULATED = ("sim_ops_per_s", "sim_p50_ms", "sim_p99_ms")

sys.path.insert(0, str(HERE))
from measure import comparable  # noqa: E402


def _run(workload: str, seed: int, seconds: float, record: Path) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--record", str(record)],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=600)
    return json.loads(record.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    out = ROOT / ".perfbench" / "determinism"
    out.mkdir(parents=True, exist_ok=True)
    first, second = (
        _run(args.workload, args.seed, args.seconds,
             out / f"{args.workload}-seed{args.seed}-{n}.json")
        for n in (1, 2))
    problems = []
    reason = comparable(first["provenance"], second["provenance"])
    if reason:
        problems.append(f"runs are not comparable: {reason}")
    for name in SIMULATED:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            problems.append(f"{name}: {a!r} != {b!r}")
    for key in ("digest", "samples", "sim_seconds"):
        a, b = first["simulated"][key], second["simulated"][key]
        if a != b:
            problems.append(f"{key}: {a!r} != {b!r}")
    for line in problems:
        print(f"{args.workload} seed {args.seed}: {line}")
    if not problems:
        print(f"{args.workload} seed {args.seed}: identical simulated "
              f"metrics, digest {first['simulated']['digest'][:16]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
