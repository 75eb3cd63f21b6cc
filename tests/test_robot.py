import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invtrack import robot
from invtrack.errors import GeometryError
from invtrack.robot import LandmarkSet, RobotInput, dynamics, invariance_residual
from invtrack.se2 import GroupElement, IDENTITY
from oracles import measure
from strategies import HEADINGS, floats, landmark_sets, signed

STANDARD = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))
POSES = st.builds(GroupElement, floats(-5.0, 5.0), floats(-5.0, 5.0), HEADINGS)
ROTATIONS = st.builds(lambda th: GroupElement(0.0, 0.0, th), HEADINGS)


class TestLandmarkSet:
    def test_len_and_array(self):
        assert len(STANDARD) == 3
        assert np.asarray(STANDARD.coords).shape == (3, 2)

    def test_rejects_too_few(self):
        with pytest.raises(GeometryError):
            LandmarkSet(((0.0, 0.0), (1.0, 0.0)))

    def test_rejects_collinear(self):
        with pytest.raises(GeometryError):
            LandmarkSet(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))

    def test_rejects_collinear_horizontal(self):
        with pytest.raises(GeometryError):
            LandmarkSet(((0.0, 1.0), (1.0, 1.0), (5.0, 1.0), (9.0, 1.0)))

    def test_accepts_generic_quadrilateral(self):
        LandmarkSet(((0.0, 0.0), (4.0, 0.2), (3.0, 5.0), (-1.0, 2.0)))

    def test_rejects_non_finite(self):
        with pytest.raises(GeometryError):
            LandmarkSet(((0.0, 0.0), (1.0, math.inf), (0.0, 1.0)))


class TestDynamics:
    def test_at_rest(self):
        assert dynamics(GroupElement(3.0, 1.0, 0.4), RobotInput(0.0, 0.7)) == (0.0, 0.0, 0.0)

    def test_straight_from_origin(self):
        assert dynamics(IDENTITY, RobotInput(1.0, 0.0)) == (1.0, 0.0, 0.0)

    def test_quarter_heading(self):
        dx, dy, dth = dynamics(GroupElement(0.0, 0.0, math.pi / 2), RobotInput(2.0, 1.0))
        assert abs(dx) < 1e-15
        assert abs(dy - 2.0) < 1e-15
        assert dth == 2.0


class TestMeasure:
    def test_at_landmark(self):
        assert measure(GroupElement(10.0, 0.0, 1.2), STANDARD)[0] == 0.0

    def test_origin_345(self):
        lm = LandmarkSet(((3.0, 4.0), (0.0, 1.0), (1.0, 0.0)))
        assert measure(IDENTITY, lm)[0] == 25.0

    def test_heading_independent(self):
        a = measure(GroupElement(1.0, 2.0, 0.0), STANDARD)
        b = measure(GroupElement(1.0, 2.0, 2.5), STANDARD)
        assert a == b

    def test_measure_values_matches_measure(self):
        # The scene helper's tuple against the same ranges in numpy.
        g = GroupElement(0.3, -0.8, 0.2)
        dense = np.sum((np.asarray(STANDARD.coords) - (g.x, g.y)) ** 2, axis=1)
        assert measure(g, STANDARD) == pytest.approx(dense, rel=1e-15)


class TestInvariance:
    def test_identity_residual_zero(self):
        g = GroupElement(0.5, -0.5, 0.9)
        assert invariance_residual(IDENTITY, g, RobotInput(1.0, 0.5), STANDARD) == 0.0

    @given(
        g0=POSES,
        g=POSES,
        inp=st.builds(RobotInput, signed(0.1, 2.0), floats(-2.0, 2.0)),
        lm=landmark_sets(),
    )
    def test_random_actions(self, g0, g, inp, lm):
        # Every left translation, headings at the +-pi wrap included,
        # commutes with the model and leaves the ranges.
        assert invariance_residual(g0, g, inp, lm) < 1e-9

    @given(
        g0=ROTATIONS,
        g=POSES,
        inp=st.builds(RobotInput, signed(0.1, 2.0), floats(-2.0, 2.0)),
        lm=landmark_sets(),
    )
    def test_pure_rotations(self, g0, g, inp, lm):
        # A rotation about the origin moves both the pose and the landmarks.
        assert invariance_residual(g0, g, inp, lm) < 1e-9

    def test_detects_a_broken_symmetry(self, monkeypatch):
        # Negative control: the residual is not vacuous.  A velocity fixed in
        # the world frame, or an output that reads the world position, is not
        # equivariant, and the residual sees it.
        g0 = GroupElement(1.0, -2.0, 0.7)
        g = GroupElement(0.5, 0.3, -0.4)
        inp = RobotInput(1.2, 0.3)
        assert invariance_residual(g0, g, inp, STANDARD) < 1e-9
        with monkeypatch.context() as patch:
            patch.setattr(robot, "dynamics_values", lambda theta, u, v: (u, 0.0, u * v))
            assert invariance_residual(g0, g, inp, STANDARD) > 1e-3
        with monkeypatch.context() as patch:
            patch.setattr(robot, "measure_values", lambda x, y, coords: (x, y))
            assert invariance_residual(g0, g, inp, STANDARD) > 1e-3
