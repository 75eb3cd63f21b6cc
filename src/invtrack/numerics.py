"""Fixed-step RK4, finite-difference Jacobians and linearization probes, small dense spectra."""

from __future__ import annotations

import functools
import linecache
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import DivergenceError, ScenarioError

FD_STEP = 1e-6

# The most RK4 steps one fixed-step grid may take.  The simulate command
# peaks at about 0.2 KB per step (ru_maxrss at --t-end 300, 300 000 steps:
# 96 MB, 34 MB of it before the run; the run's 18 floats and its grid time,
# while the CSV is written in blocks of fixed size), so the cap bounds a
# run near 0.25 GB; the default scenario takes 30 000 steps.
MAX_STEPS = 1_000_000

# Dense eigenvalue extraction is only meant for the small matrices that show
# up here (3x3 error systems, 6x6 separation blocks).
MAX_EIG_SIZE = 8

VectorField = Callable[[float, tuple], Sequence[float]]
T = TypeVar("T")


@functools.cache
def compiled_rk4_step(n: int) -> Callable:
    """rk4_step on states of length n, as straight-line code compiled on
    first use (as dataclasses builds __init__): a per-component loop spent
    about as long on its own bookkeeping as a small field on its physics.
    Its source is registered with linecache, so inspect.getsource reads it,
    and with it the inliner, which splices it into generated_run's runs."""

    def each(term: str) -> str:
        return "".join(term.format(i=i) + ", " for i in range(n))

    # The operations and their order are the byte contract, held by a test
    # to a per-component loop: stage points x + hh*k (x + h*k for the last),
    # result x + h/6*(k1 + 2*(k2 + k3) + k4).
    source = (
        "def rk4_step(field, t, x, h):\n"
        "    hh = 0.5 * h\n"
        f"    ({each('x{i}')}) = x\n"
        f"    ({each('a{i}')}) = field(t, x)\n"
        f"    ({each('b{i}')}) = field(t + hh, ({each('x{i} + hh * a{i}')}))\n"
        f"    ({each('c{i}')}) = field(t + hh, ({each('x{i} + hh * b{i}')}))\n"
        f"    ({each('d{i}')}) = field(t + h, ({each('x{i} + h * c{i}')}))\n"
        "    h6 = h / 6.0\n"
        f"    return ({each('x{i} + h6 * (a{i} + 2.0 * (b{i} + c{i}) + d{i})')})\n"
    )
    filename = f"<rk4_step n={n}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["rk4_step"]


def rk4_step(field: VectorField, t: float, x: tuple, h: float) -> tuple:
    """One classical Runge-Kutta step of size h on a flat tuple of floats,
    run as compiled_rk4_step(len(x)).  A field that returns more or fewer
    components than x has raises ValueError.
    """
    return compiled_rk4_step(len(x))(field, t, x, h)


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


def step_count(t0: float, t1: float, dt: float) -> int:
    """Steps n = ceil((t1 - t0)/dt - 1e-9) of the grid t0 + i*dt (i < n)
    closed by t1 itself, so the last step may be short.

    Raises:
        ScenarioError: when n is not finite or exceeds MAX_STEPS, before
            anything is allocated.
    """
    steps = (t1 - t0) / dt - 1e-9
    if not steps <= MAX_STEPS:
        raise ScenarioError(
            f"integration over [{t0:.6g}, {t1:.6g}] at step {dt!r} needs {steps:.9g} "
            f"RK4 steps, more than the cap of {MAX_STEPS}"
        )
    return int(math.ceil(steps))


def grid(t0: float, t1: float, dt: float) -> list[float]:
    """The fixed-step grid t0 + i*dt (i < n = step_count(t0, t1, dt)) closed
    by t1 itself, so the last step may be short and the last time is
    exactly t1."""
    return [t0 + i * dt for i in range(step_count(t0, t1, dt))] + [t1]


def rk4_run(parts: Callable, reference, coords, a, b) -> Callable:
    """The package's one RK4 grid loop, on the model that parts(reference,
    coords, a, b) returns as (rate, row, after): run(w, times) integrates
    w' = rate(t, w) by classical RK4 over the grid times from the state w at
    times[0], carrying w = after(t1, w) forward after each step to t1 (after
    raises on a state the model cannot go on from), and returns one flat
    array('d') of row(t, w) at each grid time t in turn.  The row at a
    step's start comes first, so that generated code computes it with the
    step's first stage, which shares its time and state.  integrate_ep runs
    this as written, simulate and the EKF as generated_run generates it."""
    rate, row, after = parts(reference, coords, a, b)

    def run(w, times):
        buf = array("d")
        t = times[0]
        for t1 in times[1:]:
            r = row(t, w)
            buf.extend(r)
            w = rk4_step(rate, t, w, t1 - t)
            w = after(t1, w)
            t = t1
        r = row(t, w)
        buf.extend(r)
        return buf

    return run


@functools.cache
def generated_run(parts: Callable, p: int, n: int) -> Callable:
    """rk4_run on parts, generated for p landmarks and an n-float state w
    and called without parts: parts, compiled_rk4_step(n) and all they call
    inlined, w and each loop over coords unrolled (see inline.inline_cores).
    Generated on the first run with p landmarks, never at import or parse
    time: the inliner is imported then."""
    from .inline import inline_cores

    unrolled = {"coords": [(f"lx{i}", f"ly{i}") for i in range(p)], "w": [f"w{i}" for i in range(n)]}
    cores = {"parts": parts, "rk4_step": compiled_rk4_step(n)}
    return functools.partial(inline_cores(rk4_run, cores, unrolled), parts)


def max_pairwise_distance(mats: Sequence[np.ndarray]) -> float:
    """Largest Frobenius norm of the difference between any two matrices,
    with no numpy warning: inf when a norm overflows, and NaN when two
    matrices hold the same infinity at one entry.  Each norm is the ravel,
    dot and sqrt that np.linalg.norm runs, without its Python dispatch."""
    norms = [0.0]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, a in enumerate(mats):
            for b in mats[i + 1:]:
                d = (a - b).ravel("K")
                norms.append(math.sqrt(d.dot(d)))
    return float(np.max(norms))  # which, unlike max(), keeps a NaN


@dataclass(frozen=True)
class ErrorField:
    """Time-dependent vector field on error coordinates, with its dimension."""

    rate: Callable[[float, tuple], Sequence[float]]
    dim: int


def linearize_error_field(field: ErrorField, times) -> list[np.ndarray]:
    """Central-difference Jacobian of the field at the origin (step FD_STEP),
    one column per coordinate, per time.  The field sees each shifted point
    as a tuple of floats.  Each matrix is C-ordered, as np.column_stack
    builds it: max_pairwise_distance sums a difference of two Jacobians in
    memory order, so a transposed layout moves drifts at roundoff.

    Raises:
        DivergenceError: at a probe time where the linearization has a
            non-finite entry.
    """
    rate, origin = field.rate, (0.0,) * field.dim
    shifted = [
        (origin[:j] + (FD_STEP,) + origin[j + 1:], origin[:j] + (-FD_STEP,) + origin[j + 1:])
        for j in range(field.dim)
    ]
    h2 = 2.0 * FD_STEP
    mats = []
    for t in times:
        cols = []
        for up, down in shifted:
            hi = rate(t, up)
            lo = rate(t, down)
            cols.append([(a - b) / h2 for a, b in zip(hi, lo)])
        jac = np.array(cols, dtype=float).T.copy()
        if not np.isfinite(jac).all():
            raise DivergenceError(t, "error-field linearization is not finite")
        mats.append(jac)
    return mats


def probe_times(times) -> list:
    """times as a list, checked to hold the two distinct probe times that a
    drift between linearizations needs: at one time only it is 0 whatever
    the field."""
    times = list(times)
    if len(set(times)) < 2:
        raise ValueError("need at least two probe times that differ")
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
