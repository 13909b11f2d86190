"""Multi-client load generation for the concurrent simulation engine.

:mod:`repro.load.workload` defines *what* each simulated client does
(operation mixes, seeded operation streams).  :mod:`repro.load.harness`
holds the one load driver, :class:`~repro.load.harness.LoadDriver`,
which runs a topology's clients closed-loop, phased or open-loop and
reports throughput plus exact latency percentiles, and the set-up
helpers every topology shares.  :class:`LoadHarness` is its
single-server topology (N sessions against one queued server), which
the scale and pipeline figures and the scenario engine use; the fleet
and control-plane figures build multi-server topologies on the same
driver.  Everything is deterministic per seed: latencies are simulated
time, interleavings come from the scheduler's seeded rng, and no
wall-clock value enters a report.
"""

from .workload import OpMix, OpStream
from .harness import LoadConfig, LoadHarness, LoadReport, WorkloadPhase

__all__ = [
    "LoadConfig",
    "LoadHarness",
    "LoadReport",
    "OpMix",
    "OpStream",
    "WorkloadPhase",
]
