"""Golden digests of the load-driven bench figures.

Each figure below is a pure function of its seed in simulated time:
throughput, percentiles, per-shard splits, replica counters, SLO
transitions and policy actions.  The digests were frozen from the
implementation before the figures' load harnesses were folded onto one
driver, so any change in rng draw order, spawn order, op or think
seeds, or what a report counts shows up here as a mismatch.

Two parts of the figure data are left out because they mix in host CPU
time and so differ between two identical runs: the fast-lane ``perf``
counters (added by ``run_figures``, not by the figure runner) and the
control figure's ``artifact.collector`` (merged registry snapshots whose
``layers`` section carries per-layer host CPU seconds; their metrics
sections are simulated-time only and equal run to run).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.__main__ import (
    run_auth,
    run_control,
    run_fleet,
    run_pipeline,
    run_scale,
)

GOLDEN = {
    "scale": "8871796713037368b62449dcd705260a7102a890c0441b21bb0415a74199d66c",
    "fleet": "9caaa6ce6e67b8160ad5a1d0ca48dd62e9bb9080d0a3ee441504658fdf3d8406",
    "control": "518c4f18fb46210c4060e5e2fbcf357cf928e7e3ae15cd4fed750ce3f36dc452",
    "auth": "72a7f3cf60b1d58405a908d18833483b41f776c9fa321a33063ebaf0b854c294",
    "pipeline": "4f87d0c2e5dd460266038ef845a19778bb0ad37f829c46dd5229b617a8b38f05",
}

RUNNERS = {
    "scale": run_scale,
    "fleet": run_fleet,
    "control": run_control,
    "auth": run_auth,
    "pipeline": run_pipeline,
}


def figure_digest(name: str) -> str:
    _table, data = RUNNERS[name](True)
    data = dict(data)
    data.pop("perf", None)
    if name == "control":
        artifact = dict(data["artifact"])
        artifact.pop("collector")
        data["artifact"] = artifact
    encoded = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_figure_data_matches_golden(name):
    assert figure_digest(name) == GOLDEN[name]
