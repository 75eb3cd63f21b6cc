import math

import numpy as np
import pytest

from invtrack import se2
from invtrack.numerics import integrate
from invtrack.robot import RobotInput, dynamics
from invtrack.se2 import GroupElement, IDENTITY, TangentVector
from invtrack.trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    Segment,
    permanence_probe,
)


def dynamics_residual(traj, t, h=1e-6):
    """Angle-wrap-aware finite difference of pose against the model field."""
    plus, minus = traj.pose(t + h), traj.pose(t - h)
    fd = (
        (plus.x - minus.x) / (2 * h),
        (plus.y - minus.y) / (2 * h),
        se2.normalize_angle(plus.theta - minus.theta) / (2 * h),
    )
    model = dynamics(traj.pose(t), traj.input(t))
    return max(abs(a - b) for a, b in zip(fd, model))


class TestPermanent:
    def test_straight_line(self):
        traj = PermanentTrajectory(1.0, 0.0)
        for t in (0.0, 0.5, 2.0, 17.3):
            p = traj.pose(t)
            assert abs(p.x - t) < 1e-12 and p.y == 0.0 and p.theta == 0.0

    def test_unit_circle_closure(self):
        traj = PermanentTrajectory(1.0, 1.0)
        p = traj.pose(2 * math.pi)
        assert math.hypot(p.x, p.y) < 1e-10
        assert abs(se2.normalize_angle(p.theta)) < 1e-10

    def test_matches_group_route(self):
        # pose(t) must agree with start * exp(t * (u, 0, u v)) computed
        # through the generic group operations.
        start = GroupElement(0.4, -1.2, 0.9)
        traj = PermanentTrajectory(1.0, 0.5, start)
        for t in np.linspace(0.0, 40.0, 313):
            direct = traj.pose(float(t))
            via_exp = se2.compose(
                start, se2.exp(TangentVector(1.0 * t, 0.0, 0.5 * t))
            )
            assert abs(direct.x - via_exp.x) < 1e-12
            assert abs(direct.y - via_exp.y) < 1e-12
            assert abs(se2.normalize_angle(direct.theta - via_exp.theta)) < 1e-12

    def test_dynamics_consistency(self):
        for traj in (PermanentTrajectory(1.0, 0.0), PermanentTrajectory(1.0, 0.5)):
            worst = max(dynamics_residual(traj, t) for t in np.linspace(0.01, 25.0, 1000))
            assert worst < 1e-8

    def test_period(self):
        assert PermanentTrajectory(1.0, 0.0).period() is None
        assert abs(PermanentTrajectory(1.0, 0.5).period() - 4 * math.pi) < 1e-12

    def test_input_constant(self):
        traj = PermanentTrajectory(1.0, 0.5)
        assert traj.input(0.0) == RobotInput(1.0, 0.5)
        assert traj.input(123.4) == RobotInput(1.0, 0.5)

    def test_input_invariant_under_left_translation(self):
        base = PermanentTrajectory(1.0, 0.5, GroupElement(1.0, 2.0, 0.3))
        moved = PermanentTrajectory(1.0, 0.5, se2.compose(GroupElement(-2.0, 0.7, 1.9), base.start))
        assert base.input(3.3) == moved.input(3.3)


class TestPiecewise:
    def test_pose_continuous_at_switch(self):
        traj = PiecewiseTrajectory(
            (Segment(1.0, 0.0, 2.0), Segment(1.0, 0.8, 3.0)), IDENTITY
        )
        before = traj.pose(2.0 - 1e-9)
        after = traj.pose(2.0 + 1e-9)
        assert abs(before.x - after.x) < 1e-8
        assert abs(before.y - after.y) < 1e-8

    def test_input_right_continuous(self):
        traj = PiecewiseTrajectory(
            (Segment(1.0, 0.0, 2.0), Segment(0.5, 0.8, 3.0)), IDENTITY
        )
        assert traj.input(2.0) == RobotInput(0.5, 0.8)
        assert traj.input(1.999999) == RobotInput(1.0, 0.0)

    def test_extends_past_last_segment(self):
        traj = PiecewiseTrajectory((Segment(1.0, 0.0, 1.0),), IDENTITY)
        p = traj.pose(5.0)
        assert abs(p.x - 5.0) < 1e-12

    def test_first_segment_matches_permanent(self):
        pw = PiecewiseTrajectory((Segment(1.0, 0.5, 10.0),), IDENTITY)
        perm = PermanentTrajectory(1.0, 0.5)
        for t in (0.0, 1.0, 7.5):
            a, b = pw.pose(t), perm.pose(t)
            assert abs(a.x - b.x) < 1e-12 and abs(a.y - b.y) < 1e-12

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            Segment(1.0, 0.0, 0.0)


class TestIntegrated:
    def test_matches_permanent_for_constant_input(self):
        traj = IntegratedTrajectory(lambda t: RobotInput(1.0, 0.5), IDENTITY)
        perm = PermanentTrajectory(1.0, 0.5)
        for t in (0.0, 0.3, 1.7, 4.0, 2.2):
            a, b = traj.pose(t), perm.pose(t)
            assert abs(a.x - b.x) < 1e-8
            assert abs(a.y - b.y) < 1e-8
            assert abs(se2.normalize_angle(a.theta - b.theta)) < 1e-8

    def test_dynamics_consistency_wobble(self):
        traj = IntegratedTrajectory(
            lambda t: RobotInput(1.0, 0.5 + 0.3 * math.sin(t)), IDENTITY
        )
        for t in (0.5, 1.5, 3.0):
            assert dynamics_residual(traj, t, h=1e-5) < 1e-6

    def test_revisiting_earlier_times_is_consistent(self):
        traj = IntegratedTrajectory(lambda t: RobotInput(1.0, 0.5), IDENTITY)
        late = traj.pose(5.0)
        early = traj.pose(1.0)
        again = traj.pose(5.0)
        assert late == again
        perm = PermanentTrajectory(1.0, 0.5)
        assert abs(early.x - perm.pose(1.0).x) < 1e-8

    def test_pose_from_a_knot_matches_one_direct_integration(self):
        def wobble(t):
            return RobotInput(1.0, 0.5 + 0.3 * math.sin(t))

        traj = IntegratedTrajectory(wobble, IDENTITY)
        traj.pose(0.4567)  # leaves a knot the next query starts from
        t = 1.23456        # not a multiple of the step
        got = traj.pose(t)

        def rate(tt, w):
            return dynamics(GroupElement(w[0], w[1], w[2]), wobble(tt))

        _, states = integrate(rate, (0.0, 0.0, 0.0), 0.0, t, 1e-3)
        x, y, theta = states[-1]
        assert abs(got.x - x) <= 1e-12
        assert abs(got.y - y) <= 1e-12
        assert abs(se2.normalize_angle(got.theta - theta)) <= 1e-12

    def test_non_finite_input_rejected(self):
        traj = IntegratedTrajectory(lambda t: RobotInput(1.0, math.inf if t > 0.5 else 0.5))
        assert traj.pose(0.4).x > 0.0
        with pytest.raises(ValueError, match=r"^input has non-finite components: RobotInput\(u=1\.0, v=inf\)$"):
            traj.pose(0.6)


class TestPermanenceProbe:
    def test_zero_for_constant_input(self):
        traj = PermanentTrajectory(1.0, 0.5)
        ts = np.linspace(0, 10, 50)
        assert permanence_probe([traj.input(float(t)) for t in ts]) == 0.0

    def test_sinusoid_amplitude(self):
        ts = np.linspace(0, 2 * math.pi, 1001)
        inputs = [RobotInput(1.0, 0.5 + 0.3 * math.sin(float(t))) for t in ts]
        probe = permanence_probe(inputs)
        assert abs(probe - 0.3) < 1e-5

    def test_switch_detected(self):
        traj = PiecewiseTrajectory(
            (Segment(1.0, 0.0, 1.0), Segment(1.0, 0.7, 1.0)), IDENTITY
        )
        ts = [0.0, 0.5, 1.0, 1.5]
        assert permanence_probe([traj.input(t) for t in ts]) > 0.5

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="need at least one sample"):
            permanence_probe([])
