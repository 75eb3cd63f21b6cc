import math

import numpy as np
import pytest

from invtrack import se2
from invtrack.errors import GeometryError
from invtrack.robot import (
    LandmarkSet,
    Measurement,
    RobotInput,
    act,
    dynamics,
    invariance_residual,
    measure,
    measure_values,
    transform_landmarks,
)
from invtrack.se2 import GroupElement, IDENTITY

STANDARD = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))


def random_pose(rng):
    return GroupElement(
        float(rng.uniform(-5, 5)), float(rng.uniform(-5, 5)), float(rng.uniform(-3, 3))
    )


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


class TestMeasurement:
    def test_values_coerced_to_float(self):
        m = Measurement((1, 2, 3))
        assert m.values == (1.0, 2.0, 3.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Measurement((1.0, -0.5, 2.0))


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
        m = measure(GroupElement(10.0, 0.0, 1.2), STANDARD)
        assert m.values[0] == 0.0

    def test_origin_345(self):
        lm = LandmarkSet(((3.0, 4.0), (0.0, 1.0), (1.0, 0.0)))
        assert measure(IDENTITY, lm).values[0] == 25.0

    def test_heading_independent(self):
        a = measure(GroupElement(1.0, 2.0, 0.0), STANDARD)
        b = measure(GroupElement(1.0, 2.0, 2.5), STANDARD)
        assert a.values == b.values

    def test_measure_values_matches_measure(self):
        g = GroupElement(0.3, -0.8, 0.2)
        assert measure_values(g.x, g.y, STANDARD.coords) == measure(g, STANDARD).values


class TestAction:
    def test_identity_action(self):
        g = GroupElement(1.0, 2.0, 0.3)
        inp = RobotInput(1.0, 0.5)
        y = measure(g, STANDARD)
        g2, inp2, lm2, y2 = act(IDENTITY, g, inp, STANDARD, y)
        assert g2 == g and inp2 == inp and y2 == y
        assert lm2.coords == STANDARD.coords

    def test_action_composes(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            g0, g1 = random_pose(rng), random_pose(rng)
            g = random_pose(rng)
            inp = RobotInput(1.0, -0.2)
            y = measure(g, STANDARD)
            once = act(se2.compose(g0, g1), g, inp, STANDARD, y)
            twice = act(g0, *act(g1, g, inp, STANDARD, y))
            assert abs(once[0].x - twice[0].x) < 1e-9
            assert abs(once[0].y - twice[0].y) < 1e-9
            assert abs(se2.normalize_angle(once[0].theta - twice[0].theta)) < 1e-12
            for a, b in zip(once[2].coords, twice[2].coords):
                assert abs(a[0] - b[0]) < 1e-9 and abs(a[1] - b[1]) < 1e-9

    def test_transform_landmarks_quarter_turn(self):
        lm = transform_landmarks(GroupElement(0.0, 0.0, math.pi / 2), STANDARD)
        x, y = lm.coords[0]
        assert abs(x - 0.0) < 1e-14 and abs(y - 10.0) < 1e-14


class TestInvariance:
    def test_identity_residual_zero(self):
        g = GroupElement(0.5, -0.5, 0.9)
        assert invariance_residual(IDENTITY, g, RobotInput(1.0, 0.5), STANDARD) == 0.0

    def test_random_actions(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            g0, g = random_pose(rng), random_pose(rng)
            inp = RobotInput(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            assert invariance_residual(g0, g, inp, STANDARD) < 1e-9

    def test_pure_rotations(self):
        rng = np.random.default_rng(23)
        g = GroupElement(1.0, -2.0, 0.4)
        inp = RobotInput(1.2, 0.3)
        for _ in range(50):
            g0 = GroupElement(0.0, 0.0, float(rng.uniform(-math.pi, math.pi)))
            assert invariance_residual(g0, g, inp, STANDARD) < 1e-9
