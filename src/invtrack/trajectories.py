"""Reference trajectories for the planar robot.

A constant body-frame input (u, v) drives the pose along a one-parameter
subgroup: a straight line when v = 0, otherwise a circle of radius 1/|v|
traversed at heading rate u*v.  Such references are exactly the ones whose
tracking-error linearization is frozen in time, so they get a closed form
here; everything else is integrated.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from . import se2
from .numerics import integrate
from .robot import RobotInput, dynamics
from .se2 import IDENTITY, GroupElement, TangentVector


class ReferenceTrajectory(Protocol):
    """Time-indexed reference pose and the input that generates it."""

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
        # pose() runs millions of times per simulation; cache the constants
        # of its closed form (chord radius u/omega and the start rotation).
        omega = self.u * self.v
        object.__setattr__(self, "_omega", omega)
        object.__setattr__(self, "_ratio", self.u / omega if omega != 0.0 else 0.0)
        object.__setattr__(self, "_cs", math.cos(self.start.theta))
        object.__setattr__(self, "_ss", math.sin(self.start.theta))

    def pose(self, t: float) -> GroupElement:
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
        return GroupElement(
            self.start.x + ex * cs - ey * ss,
            self.start.y + ex * ss + ey * cs,
            se2.normalize_angle(self.start.theta + phi),
        )

    def input(self, t: float) -> RobotInput:
        return RobotInput(self.u, self.v)

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

    def pose(self, t: float) -> GroupElement:
        i = self._segment_index(t)
        seg = self.segments[i]
        dt = t - self._starts[i]
        motion = se2.exp(TangentVector(seg.u * dt, 0.0, seg.u * seg.v * dt))
        return se2.compose(self._poses[i], motion)

    def input(self, t: float) -> RobotInput:
        seg = self.segments[self._segment_index(t)]
        return RobotInput(seg.u, seg.v)


class IntegratedTrajectory:
    """Reference generated by integrating an arbitrary input profile.

    pose(t) is computed by RK4 from the nearest previously evaluated time,
    so repeated monotone queries cost one short integration each.  The object
    is immutable apart from that cache.
    """

    def __init__(
        self,
        input_fn: Callable[[float], RobotInput],
        start: GroupElement = IDENTITY,
        step: float = 1e-3,
    ):
        if step <= 0.0:
            raise ValueError(f"step must be positive, got {step}")
        self._input_fn = input_fn
        self._step = float(step)
        self._times: list[float] = [0.0]
        self._knots: list[GroupElement] = [start]

    def input(self, t: float) -> RobotInput:
        return self._input_fn(t)

    def _rate(self, t: float, w: tuple) -> tuple[float, float, float]:
        return dynamics(GroupElement(w[0], w[1], w[2]), self._input_fn(t))

    def pose(self, t: float) -> GroupElement:
        if t < 0.0:
            raise ValueError(f"time must be >= 0, got {t}")
        i = bisect.bisect_right(self._times, t) - 1
        t0 = self._times[i]
        if t0 == t:
            return self._knots[i]
        _, states = integrate(self._rate, self._knots[i], t0, t, self._step)
        w = states[-1]
        pose = GroupElement(w[0], w[1], se2.normalize_angle(w[2]))
        self._times.insert(i + 1, t)
        self._knots.insert(i + 1, pose)
        return pose


def permanence_probe(
    poses: Sequence[GroupElement],
    inputs: Sequence[RobotInput],
) -> float:
    """How far the invariant input drifts from its initial value over a run.

    For this system the input (u, v) is itself the invariant quantity, so the
    poses only enter as the alignment check.  Zero exactly on a permanent
    trajectory; positive as soon as the input changes.
    """
    if len(poses) != len(inputs):
        raise ValueError(f"series lengths differ: {len(poses)} poses, {len(inputs)} inputs")
    if len(inputs) == 0:
        raise ValueError("need at least one sample")
    u0, v0 = inputs[0]
    return max(math.hypot(u - u0, v - v0) for u, v in inputs)
