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

from .se2 import normalize_angle
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
    eth = normalize_angle(th - thr)  # a call statement, which the inliner splices
    return (dx * c + dy * s, -dx * s + dy * c, eth)


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
    # The factors that read only the reference input and the gains, each a
    # statement of its own: generated code that runs the feedback twice at
    # one stage time computes them once.
    uv = u_r * v_r
    k1u = au * gains.k1
    k1v = v_r * sgn * gains.k1
    k2v = v_r * v_r - gains.k2
    k3s = sgn * gains.k3
    u = u_r - uv * eta_y - k1u * eta_x
    v = v_r + k1v * eta_x + k2v * eta_y - k3s * eta_theta
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
