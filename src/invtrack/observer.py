"""Symmetry-preserving pose observer driven by squared-range outputs.

The correction is built from quantities that do not change when the whole
scene (robot, estimate, landmarks) is rotated and translated together:
landmark positions expressed in the estimated body frame, and the mismatch
between predicted and measured squared ranges.  The payoff is that the
estimation-error dynamics, written in the body frame, are linearized by a
matrix that depends only on the input (u, v) and never on where the robot
actually is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeometryError
from .robot import LandmarkSet, RobotInput, non_finite_input
from .se2 import GroupElement

# Reject the correction when the 2x2 Gram matrix of body-frame landmark
# coordinates is this badly conditioned: the inverse is then meaningless.
MAX_CONDITION = 1e8


@dataclass(frozen=True)
class ObserverGains:
    """Positive observer gains: l1 along-track, l2 cross-track, l3 heading."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        for name in ("l1", "l2", "l3"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"gain {name} must be positive and finite, got {val}")


def gram_condition(a: float, b: float, d: float) -> float:
    """Condition number of the symmetric 2x2 Gram matrix [[a, b], [b, d]].

    Infinite when the matrix is singular or indefinite.  Straight-line,
    with one return, so that closed_loop's generated code can inline it.
    """
    mean = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), b)
    lo = mean - radius
    return math.inf if lo <= 0.0 else (mean + radius) / lo


def _check_condition(cond: float) -> None:
    if not (cond < MAX_CONDITION):
        raise GeometryError(
            f"body-frame landmark Gram matrix is ill-conditioned: "
            f"condition number {cond:.3e} exceeds {MAX_CONDITION:.3e}"
            if cond == cond else
            "body-frame landmark geometry is not finite: "
            "the estimate's landmark offsets overflowed"
        )


def body_frame_landmarks(x_hat: GroupElement, lm: LandmarkSet) -> np.ndarray:
    """Landmark coordinates seen from the estimated pose, shape (2, p): each
    landmark offset rotated into the estimated body frame, one column each."""
    c = math.cos(x_hat.theta)
    s = math.sin(x_hat.theta)
    cols = np.empty((2, len(lm)))
    for i, (lx, ly) in enumerate(lm.coords):
        dx = lx - x_hat.x
        dy = ly - x_hat.y
        cols[0, i] = dx * c + dy * s
        cols[1, i] = -dx * s + dy * c
    return cols


def gain_matrix(
    bf: np.ndarray,
    inp: RobotInput,
    gains: ObserverGains,
) -> np.ndarray:
    """Output-injection gain L = -1/2 * W (I I^T)^-1 I, shape (3, p), for the
    body-frame landmark coordinates I = bf of shape (2, p).

    Satisfies L @ (-2 I^T) = W for every estimate and landmark set, which is
    what pins the linearized error dynamics to a constant matrix.

    Raises:
        GeometryError: Gram matrix condition number reaches MAX_CONDITION.
    """
    gram = bf @ bf.T
    _check_condition(gram_condition(gram[0, 0], gram[0, 1], gram[1, 1]))
    # 3x2 weight matrix pairing the two Gram-normalized output directions
    # with the three error components.  The (3, 2) entry must be +u*l3: it
    # makes the heading row of the linearized error system damp e_y, and the
    # opposite sign turns the (e_y, e_theta) block into a saddle.
    u, v = inp
    au = abs(u)
    weights = np.array(
        [
            [au * gains.l1, u * v],
            [-u * v, au * gains.l2],
            [0.0, u * gains.l3],
        ]
    )
    return -0.5 * weights @ np.linalg.inv(gram) @ bf


def observer_rate(
    xh: float,
    yh: float,
    thh: float,
    u: float,
    v: float,
    coords: Sequence[tuple[float, float]],
    values: Sequence[float],
    gains: ObserverGains,
) -> tuple[float, float, float]:
    """Bare-float core of observer_field: estimate (xh, yh, thh), input
    (u, v), landmark coordinates and measured squared ranges, one per landmark.

    Raises:
        ValueError: non-finite input.
        GeometryError: Gram matrix condition number reaches MAX_CONDITION.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise non_finite_input(u, v)
    ct = math.cos(thh)
    st = math.sin(thh)
    a = b = d = 0.0
    w1 = w2 = 0.0
    for (lx, ly), lam in zip(coords, values):
        dx = lx - xh
        dy = ly - yh
        ix = dx * ct + dy * st
        iy = -dx * st + dy * ct
        a += ix * ix
        b += ix * iy
        d += iy * iy
        eps = dx * dx + dy * dy - lam
        w1 += ix * eps
        w2 += iy * eps
    _check_condition(gram_condition(a, b, d))
    det = a * d - b * b
    s1 = (d * w1 - b * w2) / det
    s2 = (-b * w1 + a * w2) / det
    # Correction in the estimated body frame: -L @ eps = 1/2 * W @ s.
    au = abs(u)
    c1 = 0.5 * (au * gains.l1 * s1 + u * v * s2)
    c2 = 0.5 * (-u * v * s1 + au * gains.l2 * s2)
    c3 = 0.5 * (u * gains.l3 * s2)
    return (
        u * ct + (c1 * ct - c2 * st),
        u * st + (c1 * st + c2 * ct),
        u * v + c3,
    )


def observer_field(
    x_hat: GroupElement,
    inp: RobotInput,
    lm: LandmarkSet,
    values: Sequence[float],
    gains: ObserverGains,
) -> tuple[float, float, float]:
    """Estimate derivative: model flow plus the body-frame output correction,
    given the measured squared ranges, one per landmark.

    Equals the plain model dynamics whenever the estimate reproduces the
    measurement exactly.
    """
    if len(values) != len(lm):
        raise ValueError(f"measurement length {len(values)} != landmark count {len(lm)}")
    return observer_rate(x_hat.x, x_hat.y, x_hat.theta, inp.u, inp.v, lm.coords, values, gains)


def obs_error_matrix(u: float, v: float, gains: ObserverGains) -> np.ndarray:
    """Linearized body-frame estimation-error dynamics.

    Depends only on u (the steering ratio v cancels against the weight
    matrix), so it is frozen along any constant-input reference.  Eigenvalues
    are -|u| l1 and the roots of s^2 + |u| l2 s + u^2 l3.  Zero when u = 0.
    """
    if not (math.isfinite(u) and math.isfinite(v)):
        raise ValueError(f"input must be finite, got ({u}, {v})")
    au = abs(u)
    return np.array(
        [
            [-au * gains.l1, 0.0, 0.0],
            [0.0, -au * gains.l2, u],
            [0.0, -u * gains.l3, 0.0],
        ]
    )
