"""Fixed-step RK4, finite-difference Jacobians and linearization probes, small dense spectra."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import DivergenceError

FD_STEP = 1e-6

# Dense eigenvalue extraction is only meant for the small matrices that show
# up here (3x3 error systems, 6x6 separation blocks).
MAX_EIG_SIZE = 8

VectorField = Callable[[float, tuple], Sequence[float]]
T = TypeVar("T")


def rk4_step(field: VectorField, t: float, x: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step of size h on a flat tuple of floats."""
    hh = 0.5 * h
    k1 = field(t, x)
    # tuple([...]) rather than tuple(genexpr): same values, no generator frame.
    k2 = field(t + hh, tuple([a + hh * b for a, b in zip(x, k1)]))
    k3 = field(t + hh, tuple([a + hh * b for a, b in zip(x, k2)]))
    k4 = field(t + h, tuple([a + h * b for a, b in zip(x, k3)]))
    h6 = h / 6.0
    return tuple([
        a + h6 * (b + 2.0 * (c + d) + e)
        for a, b, c, d, e in zip(x, k1, k2, k3, k4)
    ])


def once_per_time(fn: Callable[[float], T]) -> Callable[[float], T]:
    """fn, run again only when t differs from the previous call's: rk4_step
    asks for its midpoint time twice in a row, and its end time is usually
    the next step's start, so a stage-time lookup runs about twice per step."""
    last_t = math.nan
    last = None

    def at(t: float) -> T:
        nonlocal last_t, last
        if t != last_t:
            last = fn(t)
            last_t = t
        return last

    return at


def integrate(
    field: VectorField,
    x0: Sequence[float],
    t0: float,
    t1: float,
    dt: float,
    after_step: Callable[[float, tuple], tuple] | None = None,
) -> tuple[list[float], list[tuple]]:
    """Integrate xdot = field(t, x) from t0 to t1 with fixed-step RK4.

    The grid is t0 + i*dt for i < n = ceil((t1 - t0)/dt - 1e-9), closed by
    t1 itself, so the last step may be short and the last time is exactly t1.
    after_step(t, x) runs once after each step, with t the step's end time,
    and the state it returns is carried forward.  Returns (times, states)
    with states[i] the state at times[i], including t0.

    Raises:
        DivergenceError: a state component became NaN/Inf.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t1 < t0:
        raise ValueError(f"t1 must be >= t0, got [{t0}, {t1}]")
    n = int(math.ceil((t1 - t0) / dt - 1e-9))
    times = [t0 + i * dt for i in range(n)] + [t1]
    x = tuple(float(c) for c in x0)
    states = [x]
    for i in range(n):
        t = times[i + 1]
        x = rk4_step(field, times[i], x, t - times[i])
        if not all(map(math.isfinite, x)):
            raise DivergenceError(t)
        if after_step is not None:
            x = after_step(t, x)
        states.append(x)
    return times, states


def max_pairwise_distance(mats: Sequence[np.ndarray]) -> float:
    """Largest Frobenius norm of the difference between any two matrices."""
    worst = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            worst = max(worst, float(np.linalg.norm(mats[i] - mats[j])))
    return worst


@dataclass(frozen=True)
class ErrorField:
    """Time-dependent vector field on error coordinates, with its dimension."""

    rate: Callable[[float, tuple], Sequence[float]]
    dim: int

    def __call__(self, t: float, w: tuple) -> Sequence[float]:
        return self.rate(t, w)


def linearize_error_field(field: ErrorField, times) -> list[np.ndarray]:
    """Central-difference Jacobian of the field at the origin (step FD_STEP),
    one column per coordinate, per time.  The field sees each shifted point
    as a tuple of floats.  Each matrix is C-ordered, as np.column_stack
    builds it: np.linalg.norm sums a difference of two Jacobians in memory
    order, so a transposed layout moves drifts at roundoff.

    Raises:
        DivergenceError: at a probe time where the linearization has a
            non-finite entry.
    """
    rate, origin = field.rate, (0.0,) * field.dim
    h2 = 2.0 * FD_STEP
    mats = []
    for t in times:
        cols = []
        for j in range(field.dim):
            hi = rate(t, origin[:j] + (FD_STEP,) + origin[j + 1:])
            lo = rate(t, origin[:j] + (-FD_STEP,) + origin[j + 1:])
            cols.append([(a - b) / h2 for a, b in zip(hi, lo)])
        jac = np.array(list(zip(*cols)), dtype=float)
        if not np.all(np.isfinite(jac)):
            raise DivergenceError(t, "error-field linearization is not finite")
        mats.append(jac)
    return mats


def probe_times(times) -> list:
    """times as a list, checked to hold the two probe times that a drift
    between linearizations needs."""
    times = list(times)
    if len(times) < 2:
        raise ValueError("need at least two probe times")
    return times


def time_invariance_probe(field: ErrorField, times) -> float:
    """Max pairwise Frobenius deviation between linearizations along the run.

    Near zero exactly when the linearized error dynamics are frozen in time;
    the hallmark of an invariant design around a constant-input reference.
    """
    return max_pairwise_distance(linearize_error_field(field, probe_times(times)))


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues, stored sorted by (real, imag) for stable output."""

    values: tuple[complex, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.values, key=lambda z: (z.real, z.imag)))
        object.__setattr__(self, "values", ordered)

    def __len__(self) -> int:
        return len(self.values)

    def max_real(self) -> float:
        return max(z.real for z in self.values)

    def union(self, other: "Spectrum") -> "Spectrum":
        return Spectrum(self.values + other.values)


def eigenvalues(matrix: np.ndarray) -> Spectrum:
    """All eigenvalues (with multiplicity) of a small dense matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    if m.shape[0] > MAX_EIG_SIZE:
        raise ValueError(f"matrix size {m.shape[0]} exceeds cap {MAX_EIG_SIZE}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    return Spectrum(tuple(complex(z) for z in np.linalg.eigvals(m)))


def spectrum_match_distance(a: Spectrum, b: Spectrum) -> float:
    """Greedy minimal-distance multiset matching between two spectra.

    Repeatedly pairs the globally closest remaining eigenvalues and returns
    the largest matched distance.  Spectra must have equal size.
    """
    if len(a) != len(b):
        raise ValueError(f"spectrum sizes differ: {len(a)} vs {len(b)}")
    left = list(a.values)
    right = list(b.values)
    worst = 0.0
    while left:
        best = None
        for i, za in enumerate(left):
            for j, zb in enumerate(right):
                d = abs(za - zb)
                if best is None or d < best[0]:
                    best = (d, i, j)
        worst = max(worst, best[0])
        left.pop(best[1])
        right.pop(best[2])
    return worst
