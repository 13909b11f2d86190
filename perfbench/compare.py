"""Compare two sets of run records, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds ``run.py --trace 0`` records (``--record`` files).
For every workload and end-to-end metric it prints both medians, the
base's quartile spread as a share of its median, and the change against
the bound in BENCHMARK.json.  It refuses (exit 2) to compare runs whose
provenance differs in fast kernel, fast-lane flags or interpreter: those
are different programs, not a slowdown.  Exit 1 when a metric is worse
than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from measure import comparable  # noqa: E402


def _load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob(
        "*.json"))]
    return [r for r in records if r.get("trace") == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    base, new = _load(args.base), _load(args.new)
    if not base or not new:
        print("compare: no trace-0 run records found", file=sys.stderr)
        return 2
    reference = base[0]["provenance"]
    for record in base + new:
        reason = comparable(reference, record["provenance"])
        if reason:
            print(f"compare: refusing, {reason}", file=sys.stderr)
            return 2
    values = defaultdict(lambda: ([], []))
    for side, records in enumerate((base, new)):
        for record in records:
            for name, metric in record["metrics"].items():
                values[(record["workload"], name)][side].append(
                    metric["value"])
    worse = 0
    for metric in spec["end_to_end"]:
        for workload in sorted({w for w, _ in values}):
            old, cur = values.get((workload, metric["name"]), ([], []))
            if not old or not cur:
                continue
            old_median, cur_median = (statistics.median(old),
                                      statistics.median(cur))
            spread = 0.0
            if len(old) >= 2 and old_median:
                q1, _, q3 = statistics.quantiles(old, n=4)
                spread = (q3 - q1) / old_median
            change = (cur_median / old_median - 1.0) if old_median else 0.0
            if metric["better"] == "higher":
                change = -change
            verdict = "worse" if change > metric["bound"] else "ok"
            worse += verdict == "worse"
            print(f"{workload:15s} {metric['name']:15s} "
                  f"{old_median:12.6g} -> {cur_median:12.6g} "
                  f"{metric['unit']:6s} worse by {change:+7.2%} "
                  f"(bound {metric['bound']:.0%}, base spread "
                  f"{spread:.2%}, n={len(old)}/{len(cur)}) {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
