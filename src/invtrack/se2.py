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


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b: apply b in the frame of a."""
    ca = math.cos(a.theta)
    sa = math.sin(a.theta)
    return GroupElement(
        b.x * ca - b.y * sa + a.x,
        b.x * sa + b.y * ca + a.y,
        normalize_angle(a.theta + b.theta),
    )


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


def relative_rate(
    a: GroupElement,
    a_rate: tuple[float, float, float],
    b: GroupElement,
    b_rate: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Coordinate time-derivative of the relative pose inverse(a)*b.

    a_rate and b_rate are the world-frame coordinate rates (xdot, ydot,
    thetadot) of the two poses.  Differentiating the components of
    inverse(a)*b directly gives an exact expression with no quotient of
    small differences, which keeps finite-difference oracles clean.
    """
    c = math.cos(a.theta)
    s = math.sin(a.theta)
    dxb = b.x - a.x
    dyb = b.y - a.y
    ex = dxb * c + dyb * s
    ey = -dxb * s + dyb * c
    rvx = b_rate[0] - a_rate[0]
    rvy = b_rate[1] - a_rate[1]
    wa = a_rate[2]
    return (
        rvx * c + rvy * s + wa * ey,
        -rvx * s + rvy * c - wa * ex,
        b_rate[2] - a_rate[2],
    )
