"""Planar rigid transformations: exact SE(2) group arithmetic.

Group elements are (x, y, theta) triples acting on the plane by rotation
and translation.  Tangent vectors (vx, vy, omega) live in the body frame.
Headings are kept on the principal interval (-pi, pi] by every operation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

TAU = 2.0 * math.pi

# Below this heading magnitude the exp coefficient functions switch to their
# series expansions; the direct formulas lose precision near 0.
SMALL_ANGLE = 1e-7


class GroupElement(NamedTuple):
    """Planar pose: position (x, y) in meters, heading theta in radians."""

    x: float
    y: float
    theta: float


class TangentVector(NamedTuple):
    """Body-frame velocity: (vx, vy) in m/s, omega in rad/s."""

    vx: float
    vy: float
    omega: float


IDENTITY = GroupElement(0.0, 0.0, 0.0)


def normalize_angle(theta: float) -> float:
    """Wrap an angle to the interval (-pi, pi].  Straight-line, with one
    return, so that closed_loop's generated code can inline it."""
    wrapped = math.remainder(theta, TAU)
    return wrapped + TAU if wrapped <= -math.pi else wrapped


def _check_finite_tangent(xi: TangentVector) -> None:
    if not (math.isfinite(xi.vx) and math.isfinite(xi.vy) and math.isfinite(xi.omega)):
        raise ValueError(f"tangent vector has non-finite components: {xi}")


def compose_values(
    ax: float, ay: float, ath: float, bx: float, by: float, bth: float
) -> tuple[float, float, float]:
    """Bare-float core of compose: the group product of (ax, ay, ath) and
    (bx, by, bth), heading wrapped to (-pi, pi]."""
    ca = math.cos(ath)
    sa = math.sin(ath)
    return (bx * ca - by * sa + ax, bx * sa + by * ca + ay, normalize_angle(ath + bth))


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b: apply b in the frame of a."""
    return GroupElement(*compose_values(*a, *b))


def exp(xi: TangentVector) -> GroupElement:
    """Exponential map: pose reached after unit time at constant body velocity xi."""
    _check_finite_tangent(xi)
    w = xi.omega
    if abs(w) < SMALL_ANGLE:
        # sin(w)/w and (1-cos(w))/w to second order
        a = 1.0 - w * w / 6.0
        b = 0.5 * w
    else:
        a = math.sin(w) / w
        b = (1.0 - math.cos(w)) / w
    return GroupElement(
        a * xi.vx - b * xi.vy,
        b * xi.vx + a * xi.vy,
        normalize_angle(w),
    )


def relative_rate_values(
    ax: float, ay: float, ath: float, a0: float, a1: float, a2: float,
    bx: float, by: float, bth: float, b0: float, b1: float, b2: float,
) -> tuple[float, float, float]:
    """Coordinate time-derivative of the relative pose inverse(a)*b, for the
    poses a = (ax, ay, ath) and b = (bx, by, bth) moving at the world-frame
    coordinate rates (a0, a1, a2) and (b0, b1, b2), each (xdot, ydot,
    thetadot).  Differentiating the components of inverse(a)*b directly
    gives an exact expression with no quotient of small differences, which
    keeps finite-difference oracles clean.
    """
    c = math.cos(ath)
    s = math.sin(ath)
    dxb = bx - ax
    dyb = by - ay
    ex = dxb * c + dyb * s
    ey = -dxb * s + dyb * c
    rvx = b0 - a0
    rvy = b1 - a1
    return (rvx * c + rvy * s + a2 * ey, -rvx * s + rvy * c - a2 * ex, b2 - a2)
