"""Hypothesis strategies shared by the property tests."""

import math

from hypothesis import strategies as st

from invtrack.robot import LandmarkSet


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
def landmark_sets(draw, max_count=12):
    # Jittered, evenly spread bearings leave every angular gap below pi, so
    # the centre lies inside the hull and the set is never collinear.
    count = draw(st.integers(3, max_count))
    step = 2.0 * math.pi / count
    cx, cy = draw(floats(-5.0, 5.0)), draw(floats(-5.0, 5.0))
    pts = []
    for i in range(count):
        bearing = i * step + draw(floats(-0.25, 0.25)) * step
        radius = draw(floats(3.0, 20.0))
        pts.append((cx + radius * math.cos(bearing), cy + radius * math.sin(bearing)))
    return LandmarkSet(tuple(pts))
