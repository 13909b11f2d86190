"""Benchmark time accounting.

Reported time = real CPU seconds spent executing the workload (protocol
marshaling, cryptography, cache logic — the costs the paper attributes to
SFS's user-level implementation and software encryption) + simulated
device seconds accumulated on the virtual clock (network latency and
bandwidth, disk seeks and transfers).

This hybrid keeps runs fast while preserving the paper's benchmark
*shape*: latency-bound phases are dominated by simulated network round
trips, sync-write phases by simulated disk time, and SFS's relay/crypto
overhead by genuine CPU time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..sim.clock import Clock


@dataclass
class Measurement:
    """One timed span."""

    name: str
    cpu_seconds: float
    sim_seconds: float

    @property
    def total(self) -> float:
        return self.cpu_seconds + self.sim_seconds

    def __str__(self) -> str:
        return (f"{self.name}: {self.total:.4f}s "
                f"(cpu {self.cpu_seconds:.4f} + sim {self.sim_seconds:.4f})")


class Timer:
    """Measures named spans against a wall timer and a virtual clock,
    keeping the flat :class:`Measurement` records benchmarks report on."""

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self.measurements: list[Measurement] = []

    def measure(self, name: str, fn) -> Measurement:
        """Run *fn* and record its cpu + simulated time."""
        sim0 = self._clock.now
        cpu0 = time.perf_counter()
        fn()
        cpu = time.perf_counter() - cpu0
        measurement = Measurement(name, cpu, self._clock.now - sim0)
        self.measurements.append(measurement)
        return measurement

    def total(self) -> float:
        return sum(m.total for m in self.measurements)

    def by_name(self) -> dict[str, Measurement]:
        return {m.name: m for m in self.measurements}


def format_table(title: str, columns: list[str],
                 rows: list[tuple]) -> str:
    """Render a paper-style results table as text."""
    widths = [len(c) for c in columns]
    rendered_rows = []
    for row in rows:
        rendered = [
            f"{cell:.3f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        widths = [max(w, len(cell)) for w, cell in zip(widths, rendered)]
        rendered_rows.append(rendered)
    lines = [title]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(rendered, widths)))
    return "\n".join(lines)
