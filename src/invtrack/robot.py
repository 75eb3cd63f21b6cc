"""Wheeled robot model: unicycle kinematics and squared-range landmark
outputs as bare-float cores, and the residual that certifies their
left-translation symmetry, which both observer and controller exploit: a
left translation moves the pose and the landmarks and leaves the body-frame
input and the range outputs unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import se2
from .errors import GeometryError
from .se2 import GroupElement

# A landmark set is collinear when the smallest singular value of the
# centered coordinates falls below this fraction of the largest.
COLLINEARITY_RTOL = 1e-8


class RobotInput(NamedTuple):
    """Forward speed u (m/s) and steering ratio v (rad/m); heading rate is u*v."""

    u: float
    v: float


@dataclass(frozen=True)
class LandmarkSet:
    """Fixed world-frame landmark positions.

    At least three landmarks, not all on one line: that guarantees the
    body-frame Gram matrix stays invertible from every robot position.
    """

    coords: tuple[tuple[float, float], ...]

    def __post_init__(self):
        coords = tuple((float(x), float(y)) for x, y in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 3:
            raise GeometryError(f"need at least 3 landmarks, got {len(coords)}")
        arr = np.asarray(coords, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise GeometryError("landmark coordinates must be finite")
        centered = arr - arr.mean(axis=0)
        svals = np.linalg.svd(centered, compute_uv=False)
        if svals[-1] <= COLLINEARITY_RTOL * max(svals[0], 1e-300):
            raise GeometryError("landmarks are collinear (or coincident)")

    def __len__(self) -> int:
        return len(self.coords)


def dynamics_values(theta: float, u: float, v: float) -> tuple[float, float, float]:
    """Bare-float core of dynamics(): no input check.  cos and sin are
    statements of their own, so that generated code that already took them
    at this heading (simulate's row) reuses them."""
    c = math.cos(theta)
    s = math.sin(theta)
    return (u * c, u * s, u * v)


def non_finite_input(u: float, v: float) -> ValueError:
    """The error that names the non-finite input (u, v), the one wording of
    it: finite_input raises it, and so do the raise-guards of observer_rate
    and the EKF rate, which build no RobotInput while the input is finite
    and which the inliner takes as they stand."""
    return ValueError(f"input has non-finite components: {RobotInput(u, v)}")


def finite_input(inp: RobotInput) -> RobotInput:
    """inp itself, once both components are checked to be finite."""
    if not (math.isfinite(inp.u) and math.isfinite(inp.v)):
        raise non_finite_input(inp.u, inp.v)
    return inp


def dynamics(g: GroupElement, inp: RobotInput) -> tuple[float, float, float]:
    """Unicycle state derivative (xdot, ydot, thetadot) = (u cos, u sin, u v)."""
    u, v = finite_input(inp)
    return dynamics_values(g.theta, u, v)


def measure_values(x: float, y: float, coords: tuple) -> tuple[float, ...]:
    """Squared distances from (x, y) to each landmark in coords, as a bare
    tuple with no check."""
    # tuple([...]) rather than tuple(genexpr): same values, no generator frame.
    return tuple([(x - lx) ** 2 + (y - ly) ** 2 for lx, ly in coords])


def invariance_residual(
    g0: GroupElement,
    g: GroupElement,
    inp: RobotInput,
    lm: LandmarkSet,
) -> float:
    """Max-norm defect of the dynamics and output equivariance under g0.

    Exactly zero in real arithmetic; a nonzero value beyond roundoff means
    the model and the group action are out of step.
    """
    u, v = finite_input(inp)
    c = math.cos(g0.theta)
    s = math.sin(g0.theta)
    moved = se2.compose(g0, g)
    # The base velocity rotated by g0.theta must be the moved pose's velocity.
    fx, fy, fth = dynamics_values(g.theta, u, v)
    mx, my, mth = dynamics_values(moved.theta, u, v)
    dyn_res = max(abs(mx - (fx * c - fy * s)), abs(my - (fx * s + fy * c)), abs(mth - fth))
    # Landmarks rotated by g0.theta, then translated, are seen at unchanged ranges.
    moved_coords = [(lx * c - ly * s + g0.x, lx * s + ly * c + g0.y) for lx, ly in lm.coords]
    y_base = measure_values(g.x, g.y, lm.coords)
    y_moved = measure_values(moved.x, moved.y, moved_coords)
    out_res = max(abs(a - b) for a, b in zip(y_moved, y_base))
    return max(dyn_res, out_res)
