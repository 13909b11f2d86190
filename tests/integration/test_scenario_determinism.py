"""Two runs of one scenario seed write the same metrics.

A scenario's digest covers its outcome but not its metrics snapshot, so
a histogram that mixes host CPU time into simulated seconds would let
two identical runs disagree without any digest noticing.  Every shipped
deck is run twice at one seed in the same process; the two metrics
sections must be equal, instrument by instrument.  The per-layer
``layers`` section is left out on purpose: it attributes host CPU time
and differs between any two runs.
"""

import pytest

from repro.scenario import load_library, run_scenario

SEED = 2026


@pytest.mark.parametrize("name", sorted(load_library()))
def test_two_runs_of_one_seed_write_identical_metrics(name):
    spec = load_library()[name]
    first = run_scenario(spec, seed=SEED).artifact["metrics"]["metrics"]
    second = run_scenario(spec, seed=SEED).artifact["metrics"]["metrics"]
    differing = sorted(key for key in first.keys() | second.keys()
                       if first.get(key) != second.get(key))
    assert not differing, f"metrics differ between runs: {differing}"
