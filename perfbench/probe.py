"""A fixed reference computation that measures how fast the machine runs now.

The benchmark shares its machine with other tenants.  On the 2-vCPU machine
it was tuned on, their load slowed all work by up to 1.9x, for seconds to
minutes at a time, and the program and this probe slowed by the same factor.
Timing the probe next to each timed part lets the benchmark report times
at one reference machine speed, so that such load is not read as a change
in the program.

The probe does the kind of work the program does (small dense complex
solves, Python loops over floats, float formatting) and uses no spinfp
code, so no change to spinfp can change it.
"""

from __future__ import annotations

import time

import numpy as np

# the probe's fastest time on the machine the benchmark was tuned on; times
# are reported as if the machine ran at that speed
REFERENCE_S = 0.0056
SAMPLES = 3
_SOLVES = 600

_RNG = np.random.default_rng(20240817)
_MATRICES = (_RNG.standard_normal((16, 8, 8)) + 1j * _RNG.standard_normal((16, 8, 8))
             + 8.0 * np.eye(8))
_RHS = np.ones(8, dtype=complex)


def _work() -> str:
    rows = []
    for index in range(_SOLVES):
        x = np.linalg.solve(_MATRICES[index % 16], _RHS)
        rows.append(tuple(float(v) for v in x.real))
    return ",".join(format(v, ".17g") for row in rows[:60] for v in row)


def probe_seconds() -> float:
    """The fastest of a few runs of the reference computation."""
    best = float("inf")
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def at_reference_speed(seconds: float, probe_before: float, probe_after: float) -> float:
    """Rescale a time taken between two probes to the reference machine speed."""
    return seconds * 2.0 * REFERENCE_S / (probe_before + probe_after)
