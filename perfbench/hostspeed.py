"""Host speed probe: rescale wall times to a reference host speed.

A shared host runs this process at full speed or markedly slower for
stretches of seconds to minutes (frequency modes, neighbours on the same
cores).  That moves a plain wall-clock median by tens of percent between two
runs of the same code, far more than the changes the benchmark should see.

So a fixed unit of work, which belongs to the benchmark and not to the
program, is timed right before and right after every timed operation, and
each wall time is rescaled to a host on which one unit takes
PROBE_UNIT_REF_S:

    scaled = wall * PROBE_UNIT_REF_S / mean(unit time before, unit time after)

A change to the program moves `scaled` exactly as it moves `wall`, because
the unit does not depend on the program.  A change of host speed moves both
the wall time and the unit time, and cancels.  The unit mixes two kinds of
work the analyses do: small Python functions on tuples of floats (an RK4
step on scalars) and numpy linear algebra on 3x3 arrays.  Of the candidates
tried, these two tracked the analyses' own speed best across host modes; a
plain arithmetic loop tracked it worst.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

PROBE_UNIT_REF_S = 2.0e-4   # one unit on a 2-core x86_64 VM, between its fast and slow modes
PROBE_SHARE = 0.10          # probe time after an operation, as a share of it
PROBE_MIN_S = 0.002

_MATRIX = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.2], [0.0, 0.2, 3.0]])


def _field(y: tuple) -> tuple:
    return (math.cos(y[2]) * 1.2, math.sin(y[2]) * 1.2, 0.3 - 0.1 * y[0])


def _rk4(y: tuple, h: float) -> tuple:
    k1 = _field(y)
    k2 = _field(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
    k3 = _field(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
    k4 = _field(tuple(a + h * b for a, b in zip(y, k3)))
    return tuple(a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e)
                 for a, b, c, d, e in zip(y, k1, k2, k3, k4))


def probe_unit() -> float:
    """One unit of fixed work, about half of each kind."""
    y = (0.0, 0.0, 0.1)
    for _ in range(14):
        y = _rk4(y, 0.01)
    m = _MATRIX
    for _ in range(3):
        u, _, vt = np.linalg.svd(m)
        m = (u @ vt) * 0.5 + _MATRIX
        np.linalg.eigvalsh(m + m.T)
    return y[0] + float(m[0, 0])


def probe(seconds: float) -> float:
    """Wall seconds per probe unit, over at least `seconds` of whole units.

    One untimed unit first brings the probe's code and data back into the
    caches the operation before it used, and the garbage collector is off, so
    that neither the size of the program's heap nor its cache footprint
    reaches the probe.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        probe_unit()
        units = 0
        start = time.perf_counter()
        while True:
            probe_unit()
            units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds:
                return elapsed / units
    finally:
        if gc_was_enabled:
            gc.enable()


class Scaler:
    """Times operations between probes and rescales them to the reference host speed."""

    def __init__(self):
        self.unit_before = probe(PROBE_MIN_S)
        self.units: list[float] = []

    def measure(self, operation) -> tuple[float, float]:
        """Run operation(); return its wall seconds and its scaled seconds."""
        start = time.perf_counter()
        operation()
        wall = time.perf_counter() - start
        unit_after = probe(max(PROBE_MIN_S, PROBE_SHARE * wall))
        unit = 0.5 * (self.unit_before + unit_after)
        self.unit_before = unit_after
        self.units.append(unit)
        return wall, wall * PROBE_UNIT_REF_S / unit
