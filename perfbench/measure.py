"""Shared measurement helpers: percentiles, digests, provenance."""

from __future__ import annotations

import hashlib
import math
import platform
import subprocess
import time
from pathlib import Path

#: Keys in the table one calibration round builds and reads (~3 MB).
CALIBRATION_KEYS = 20_000
#: Rounds of the calibration loop timed before and after every run.
CALIBRATION_ROUNDS = 4
#: Rounds the timed phase runs in all, in equal slices before each epoch
#: (about 0.9 s of CPU).
PROBE_ROUNDS = 72
#: CPU seconds of one round on the reference host (a 2-core x86
#: container, CPython 3.11); host times are scaled to this speed.
ROUND_REFERENCE_S = 0.0125


def at_reference_speed(cpu_s: float, round_s: float) -> float:
    """*cpu_s* scaled to the reference host's speed, where a calibration
    round took *round_s* CPU seconds around the same time."""
    return cpu_s * ROUND_REFERENCE_S / round_s


def nearest_rank(ordered: list[float], q: float) -> float:
    """Exact nearest-rank percentile of pre-sorted values."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def calibration_seconds(rounds: int = CALIBRATION_ROUNDS) -> float:
    """CPU seconds per round of a fixed pure-Python loop: how fast this
    host runs interpreter code right now.  A round hashes, allocates and
    looks up keys in a table larger than a core's private caches, as the
    program does, so the loop slows with a neighbour that contends for
    caches or memory and not only with one that takes the core; a pure
    arithmetic loop tracked the workloads' speed about half as well.
    Timed before and after every run, before every epoch and before
    every timed set-up step, so a reader can tell a slow host, or a
    noisy neighbour, from slow code."""
    start = time.process_time()
    acc = 0
    for _ in range(rounds):
        x, keys = 12345, []
        for _ in range(CALIBRATION_KEYS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            keys.append(x)
        table = {key: (key, index) for index, key in enumerate(keys)}
        for key in reversed(keys):
            acc = (acc * 31 + table[key][1]) & 0xFFFFFFFF
    elapsed = time.process_time() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed / rounds


def digest(facts) -> str:
    """SHA-256 over the repr of simulated facts (never host timings)."""
    hasher = hashlib.sha256()
    for fact in facts:
        hasher.update(repr(fact).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _commit(root: Path) -> str:
    if not (root / ".git").exists():  # never look above the checkout
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(root: Path, seed: int) -> dict:
    """Everything that makes two runs comparable or not.

    ``fast_kernel`` and ``flags`` identify the program: a libcrypto ->
    pyblock ARC4 fallback, or a fast lane switched off, is a different
    program, not a slowdown, and :func:`comparable` refuses to mix them.
    """
    from repro.crypto import arc4kernel, backend

    return {
        "seed": seed,
        "commit": _commit(root),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "fast_kernel": arc4kernel.FAST_KERNEL,
        "flags": {
            "use_fast_sha1": backend.use_fast_sha1,
            "use_fast_arc4": backend.use_fast_arc4,
            "use_fast_marshal": backend.use_fast_marshal,
        },
    }


def comparable(a: dict, b: dict) -> str | None:
    """Why two runs' provenance forbids comparing them, or None."""
    for key in ("fast_kernel", "flags", "python", "implementation"):
        if a.get(key) != b.get(key):
            return f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
    return None
