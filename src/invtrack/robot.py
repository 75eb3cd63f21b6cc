"""Wheeled robot model: unicycle kinematics, squared-range landmark outputs,
and the left-translation symmetry that both observer and controller exploit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import se2
from .errors import GeometryError
from .se2 import GroupElement, TangentVector

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


@dataclass(frozen=True)
class Measurement:
    """Squared distances to each landmark, in m^2."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        for i, v in enumerate(vals):
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"measurement entry {i} must be finite and >= 0, got {v}")


def dynamics_values(theta: float, u: float, v: float) -> tuple[float, float, float]:
    """Bare-float core of dynamics(): no input check."""
    return (u * math.cos(theta), u * math.sin(theta), u * v)


def finite_input(inp: RobotInput) -> RobotInput:
    """inp itself, once both components are checked to be finite."""
    if not (math.isfinite(inp.u) and math.isfinite(inp.v)):
        raise ValueError(f"input has non-finite components: {inp}")
    return inp


def dynamics(g: GroupElement, inp: RobotInput) -> tuple[float, float, float]:
    """Unicycle state derivative (xdot, ydot, thetadot) = (u cos, u sin, u v)."""
    u, v = finite_input(inp)
    return dynamics_values(g.theta, u, v)


def measure_values(x: float, y: float, coords: tuple) -> tuple[float, ...]:
    """Squared distances from (x, y) to each landmark in coords, as a bare
    tuple; the unvalidated core of measure()."""
    # tuple([...]) rather than tuple(genexpr): same values, no generator frame.
    return tuple([(x - lx) ** 2 + (y - ly) ** 2 for lx, ly in coords])


def measure(g: GroupElement, lm: LandmarkSet) -> Measurement:
    """Squared distance from the robot position to every landmark."""
    return Measurement(measure_values(g.x, g.y, lm.coords))


def transform_landmarks(g0: GroupElement, lm: LandmarkSet) -> LandmarkSet:
    """Rotate and translate every landmark by the planar transformation g0."""
    c = math.cos(g0.theta)
    s = math.sin(g0.theta)
    return LandmarkSet(
        tuple((lx * c - ly * s + g0.x, lx * s + ly * c + g0.y) for lx, ly in lm.coords)
    )


def act(
    g0: GroupElement,
    g: GroupElement,
    inp: RobotInput,
    lm: LandmarkSet,
    y: Measurement,
) -> tuple[GroupElement, RobotInput, LandmarkSet, Measurement]:
    """Apply the symmetry: left-translate the state, move the landmarks,
    leave the body-frame input and the range outputs untouched."""
    return (se2.compose(g0, g), inp, transform_landmarks(g0, lm), y)


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
    y_base = measure(g, lm)
    moved_g, moved_inp, moved_lm, _ = act(g0, g, inp, lm, y_base)
    f_moved = dynamics(moved_g, moved_inp)
    f_base = dynamics(g, inp)
    f_transported = se2.transport_tangent(g0, TangentVector(*f_base))
    dyn_res = max(
        abs(f_moved[0] - f_transported.vx),
        abs(f_moved[1] - f_transported.vy),
        abs(f_moved[2] - f_transported.omega),
    )
    y_moved = measure(moved_g, moved_lm)
    out_res = max(abs(a - b) for a, b in zip(y_moved.values, y_base.values))
    return max(dyn_res, out_res)
