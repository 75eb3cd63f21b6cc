"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from invtrack.robot import LandmarkSet, RobotInput
from invtrack.se2 import GroupElement
from invtrack.trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    Segment,
)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def signed(lo, hi):
    return st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)), floats(lo, hi))


# Headings anywhere, or within 1e-6 of the +-pi wrap on either side.
HEADINGS = st.one_of(
    floats(-math.pi, math.pi),
    floats(0.0, 1e-6).map(lambda d: math.pi - d),
    floats(0.0, 1e-6).map(lambda d: -math.pi + d),
)


@st.composite
def landmark_sets(draw, max_count=12, min_count=3):
    # Jittered, evenly spread bearings leave every angular gap below pi, so
    # the centre lies inside the hull and the set is never collinear.
    count = draw(st.integers(min_count, max_count))
    step = 2.0 * math.pi / count
    cx, cy = draw(floats(-5.0, 5.0)), draw(floats(-5.0, 5.0))
    pts = []
    for i in range(count):
        bearing = i * step + draw(floats(-0.25, 0.25)) * step
        radius = draw(floats(3.0, 20.0))
        pts.append((cx + radius * math.cos(bearing), cy + radius * math.sin(bearing)))
    return LandmarkSet(tuple(pts))


SPEEDS = signed(0.2, 3.0)
STEERS = st.one_of(st.just(0.0), signed(0.1, 2.0))


@st.composite
def references(draw):
    # A permanent, piecewise or integrated (wobbling) reference.
    start = GroupElement(draw(floats(-5.0, 5.0)), draw(floats(-5.0, 5.0)), draw(HEADINGS))
    kind = draw(st.sampled_from(("permanent", "piecewise", "wobble")))
    if kind == "permanent":
        return PermanentTrajectory(draw(SPEEDS), draw(STEERS), start)
    if kind == "piecewise":
        legs = draw(st.lists(st.builds(Segment, SPEEDS, STEERS, floats(0.2, 1.5)),
                             min_size=1, max_size=4))
        return PiecewiseTrajectory(tuple(legs), start)
    u, v, amp, rate = draw(SPEEDS), draw(STEERS), draw(floats(0.1, 0.4)), draw(floats(0.5, 2.0))
    return IntegratedTrajectory(lambda t: RobotInput(u, v + amp * math.sin(rate * t)), start)
