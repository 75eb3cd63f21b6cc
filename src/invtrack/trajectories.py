"""Reference trajectories for the planar robot.

A constant body-frame input (u, v) drives the pose along a one-parameter
subgroup: a straight line when v = 0, otherwise a circle of radius 1/|v|
traversed at heading rate u*v.  Such references are exactly the ones whose
tracking-error linearization is frozen in time, so they get a closed form
here; everything else is integrated.

Every trajectory has one bare-float core, sample(t) -> (x, y, theta, u, v),
which the closed loop and the EKF read at each stage time; pose(t) boxes
its first three entries.
"""

from __future__ import annotations

import bisect
import math
from math import isfinite
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from . import se2
from .errors import DivergenceError
from .robot import RobotInput, finite_input
from .se2 import IDENTITY, GroupElement, TangentVector


class ReferenceTrajectory(Protocol):
    """Time-indexed reference pose and the input that generates it."""

    def sample(self, t: float) -> tuple[float, float, float, float, float]: ...

    def pose(self, t: float) -> GroupElement: ...

    def input(self, t: float) -> RobotInput: ...


@dataclass(frozen=True)
class PermanentTrajectory:
    """Pose start * exp(t * (u, 0, u*v)): line for v = 0, circle otherwise."""

    u: float
    v: float
    start: GroupElement = IDENTITY

    def __post_init__(self):
        if not (math.isfinite(self.u) and math.isfinite(self.v)):
            raise ValueError("trajectory input must be finite")
        # sample() runs at two stage times of every simulation step; cache
        # the constant input and the constants of the pose's closed form
        # (chord radius u/omega and the start rotation).
        object.__setattr__(self, "_input", RobotInput(self.u, self.v))
        omega = self.u * self.v
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_ratio", self.u / omega if omega != 0.0 else 0.0)
        object.__setattr__(self, "_cs", math.cos(self.start.theta))
        object.__setattr__(self, "_ss", math.sin(self.start.theta))

    def sample(self, t: float) -> tuple[float, float, float, float, float]:
        # Closed form of start * exp(t * (u, 0, u v)): a circular arc of
        # turning rate omega = u v, or a straight segment when omega = 0.
        omega: float = self._omega  # type: ignore[attr-defined]
        if omega != 0.0:
            phi = omega * t
            ratio: float = self._ratio  # type: ignore[attr-defined]
            ex = ratio * math.sin(phi)
            ey = ratio * (1.0 - math.cos(phi))
        else:
            phi = 0.0
            ex = self.u * t
            ey = 0.0
        cs: float = self._cs  # type: ignore[attr-defined]
        ss: float = self._ss  # type: ignore[attr-defined]
        return (
            self.start.x + ex * cs - ey * ss,
            self.start.y + ex * ss + ey * cs,
            se2.normalize_angle(self.start.theta + phi),
            self.u,
            self.v,
        )

    def pose(self, t: float) -> GroupElement:
        return GroupElement(*self.sample(t)[:3])

    def input(self, t: float) -> RobotInput:
        return self._input  # type: ignore[attr-defined]

    def period(self) -> float | None:
        """Time per full revolution for circles; None for straight lines."""
        rate = self.u * self.v
        if rate == 0.0:
            return None
        return 2.0 * math.pi / abs(rate)


@dataclass(frozen=True)
class Segment:
    """One leg of a piecewise reference: constant (u, v) for a duration."""

    u: float
    v: float
    duration: float

    def __post_init__(self):
        if not (self.duration > 0.0 and math.isfinite(self.duration)):
            raise ValueError(f"segment duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class PiecewiseTrajectory:
    """Concatenation of constant-input legs; input is right-continuous at switches.

    Past the last switch time the final leg is extended indefinitely.
    """

    segments: tuple[Segment, ...]
    start: GroupElement = IDENTITY
    _starts: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _poses: tuple[GroupElement, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValueError("need at least one segment")
        starts = [0.0]
        poses = [self.start]
        for seg in self.segments:
            motion = se2.exp(
                TangentVector(seg.u * seg.duration, 0.0, seg.u * seg.v * seg.duration)
            )
            poses.append(se2.compose(poses[-1], motion))
            starts.append(starts[-1] + seg.duration)
        object.__setattr__(self, "_starts", tuple(starts))
        object.__setattr__(self, "_poses", tuple(poses))

    def _segment_index(self, t: float) -> int:
        idx = bisect.bisect_right(self._starts, t) - 1
        return min(max(idx, 0), len(self.segments) - 1)

    def sample(self, t: float) -> tuple[float, float, float, float, float]:
        i = self._segment_index(t)
        seg = self.segments[i]
        dt = t - self._starts[i]
        motion = se2.exp(TangentVector(seg.u * dt, 0.0, seg.u * seg.v * dt))
        return (*se2.compose(self._poses[i], motion), seg.u, seg.v)

    def pose(self, t: float) -> GroupElement:
        return GroupElement(*self.sample(t)[:3])

    def input(self, t: float) -> RobotInput:
        seg = self.segments[self._segment_index(t)]
        return RobotInput(seg.u, seg.v)


_POSE_STEP = 1e-3


class IntegratedTrajectory:
    """Reference generated by integrating an arbitrary input profile.

    input_fn(t) returns the pair (u, v), as a bare tuple or a RobotInput.
    The pose at t is computed by RK4 at a 1 ms step from the nearest
    previously evaluated time, so repeated monotone queries cost one short
    integration each.  The object is immutable apart from that cache and
    the input at the last stage time integrated.
    """

    def __init__(
        self,
        input_fn: Callable[[float], tuple[float, float]],
        start: GroupElement = IDENTITY,
    ):
        self._input_fn = input_fn
        self._times: list[float] = [0.0]
        self._knots: list[tuple[float, float, float]] = [tuple(map(float, start))]
        self._last_input: tuple[float, float, float, float] = (math.nan, 0.0, 0.0, 0.0)

    def input(self, t: float) -> RobotInput:
        # Read straight from the profile: a pose query here would move the
        # knots that later queries integrate from.
        return RobotInput(*self._input_fn(t))

    def pose(self, t: float) -> GroupElement:
        return GroupElement(*self.sample(t)[:3])

    def sample(self, t: float) -> tuple[float, float, float, float, float]:
        if t < 0.0:
            raise ValueError(f"time must be >= 0, got {t}")
        i = bisect.bisect_right(self._times, t) - 1
        t0 = self._times[i]
        x, y, th = self._knots[i]
        tb, ub, vb, wb = self._last_input
        if t0 != t:
            # numerics.integrate's RK4 on its grid (t0 + k*_POSE_STEP, closed
            # by t), with rk4_step's stage times and combine, fused for the
            # unicycle: the field reads only the heading, so the position
            # stages are never formed, and k2 and k3 share the time ta + hh
            # and so the heading rate w2.  The input at the last end stage
            # (tb, ub, vb, wb) serves a first stage only at exactly the same
            # time (the next step's, or the next query's when it starts from
            # this one's knot), and the sampled input when tb == t.  A
            # non-finite input has a non-finite heading rate u*v, so the rate
            # alone is checked on the way; finite_input words the error (and
            # passes a finite input whose rate overflowed).
            input_fn = self._input_fn
            cos = math.cos
            sin = math.sin
            n = int(math.ceil((t - t0) / _POSE_STEP - 1e-9))
            ta = t0
            for k in range(1, n + 1):
                te = t0 + k * _POSE_STEP if k < n else t
                h = te - ta
                hh = 0.5 * h
                if ta == tb:
                    u1, w1 = ub, wb
                else:
                    u1, v1 = input_fn(ta)
                    w1 = u1 * v1
                    if not isfinite(w1):
                        finite_input(RobotInput(u1, v1))
                c1 = cos(th)
                s1 = sin(th)
                u2, v2 = input_fn(ta + hh)
                w2 = u2 * v2
                if not isfinite(w2):
                    finite_input(RobotInput(u2, v2))
                th2 = th + hh * w1
                c2 = cos(th2)
                s2 = sin(th2)
                th3 = th + hh * w2
                c3 = cos(th3)
                s3 = sin(th3)
                tb = ta + h
                ub, vb = input_fn(tb)
                wb = ub * vb
                if not isfinite(wb):
                    finite_input(RobotInput(ub, vb))
                th4 = th + h * w2
                c4 = cos(th4)
                s4 = sin(th4)
                h6 = h / 6.0
                x = x + h6 * (u1 * c1 + 2.0 * (u2 * c2 + u2 * c3) + ub * c4)
                y = y + h6 * (u1 * s1 + 2.0 * (u2 * s2 + u2 * s3) + ub * s4)
                th = th + h6 * (w1 + 2.0 * (w2 + w2) + wb)
                if not (isfinite(x) and isfinite(y) and isfinite(th)):
                    raise DivergenceError(te)
                ta = te
            self._last_input = (tb, ub, vb, wb)
            th = se2.normalize_angle(th)
            self._times.insert(i + 1, t)
            self._knots.insert(i + 1, (x, y, th))
        if tb != t:
            ub, vb = self._input_fn(t)
            if not isfinite(ub * vb):
                finite_input(RobotInput(ub, vb))
        return (x, y, th, ub, vb)


def permanence_probe(inputs: Sequence[RobotInput]) -> float:
    """How far the invariant input drifts from its initial value over a run.

    For this system the input (u, v) is itself the invariant quantity.  Zero
    exactly on a permanent trajectory; positive as soon as the input changes.
    """
    if len(inputs) == 0:
        raise ValueError("need at least one sample")
    u0, v0 = inputs[0]
    return max(math.hypot(u - u0, v - v0) for u, v in inputs)
