"""Tracking controller built on the invariant (body-frame) tracking error.

The error between the reference pose and the actual (or estimated) pose is
taken in the group, eta = inverse(g_ref) * g, so the feedback law depends on
the reference only through its input (u_r, v_r).  Around any constant-input
reference with u_r != 0 the loop matrix below is constant and Hurwitz for
positive gains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import se2
from .errors import DegenerateReferenceError


@dataclass(frozen=True)
class ControllerGains:
    """Positive feedback gains: k1 on eta_x, k2 on eta_y, k3 on eta_theta."""

    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"gain {name} must be positive and finite, got {val}")


def relative_pose(
    xr: float, yr: float, thr: float, x: float, y: float, th: float
) -> tuple[float, float, float]:
    """Invariant tracking error inverse(g_ref) * g of the pose (x, y, th)
    against the reference (xr, yr, thr), heading wrapped to (-pi, pi]."""
    c = math.cos(thr)
    s = math.sin(thr)
    dx = x - xr
    dy = y - yr
    return (dx * c + dy * s, -dx * s + dy * c, se2.normalize_angle(th - thr))


def feedback_values(
    eta_x: float,
    eta_y: float,
    eta_theta: float,
    u_r: float,
    v_r: float,
    gains: ControllerGains,
) -> tuple[float, float]:
    """Tracking feedback: the applied (u, v) for the error eta, which is the
    reference input exactly when eta = 0.

    sign(u_r) multiplies the odd terms so the same gains work driving
    forward or in reverse.  A reference with u_r = 0 never moves and the
    heading error is then uncontrollable, so it is rejected outright.

    Raises:
        ValueError: non-finite reference input.
        DegenerateReferenceError: u_r = 0.
    """
    if not (math.isfinite(u_r) and math.isfinite(v_r)):
        raise ValueError(f"reference input must be finite, got ({u_r}, {v_r})")
    if u_r == 0.0:
        raise DegenerateReferenceError("feedback requires u_r != 0")
    sgn = 1.0 if u_r > 0.0 else -1.0
    au = abs(u_r)
    u = u_r - u_r * v_r * eta_y - au * gains.k1 * eta_x
    v = (
        v_r
        + v_r * sgn * gains.k1 * eta_x
        + (v_r * v_r - gains.k2) * eta_y
        - sgn * gains.k3 * eta_theta
    )
    return (u, v)


def ctrl_loop_matrix(u_r: float, v_r: float, gains: ControllerGains) -> np.ndarray:
    """Linearization of the closed tracking loop around zero error.

    Constant whenever (u_r, v_r) is constant; eigenvalues are -|u_r| k1 and
    the roots of s^2 + |u_r| k3 s + u_r^2 k2.  Zero matrix when u_r = 0.
    """
    if not (math.isfinite(u_r) and math.isfinite(v_r)):
        raise ValueError(f"reference input must be finite, got ({u_r}, {v_r})")
    au = abs(u_r)
    return np.array(
        [
            [-au * gains.k1, 0.0, 0.0],
            [-u_r * v_r, 0.0, u_r],
            [0.0, -u_r * gains.k2, -au * gains.k3],
        ]
    )
