import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invtrack import se2
from invtrack.errors import DivergenceError
from invtrack.numerics import integrate
from invtrack.robot import RobotInput, dynamics
from invtrack.se2 import GroupElement, IDENTITY, TangentVector
from invtrack.trajectories import (
    _POSE_STEP,
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    Segment,
    permanence_probe,
)
from oracles import IntegratedTrajectoryOracle
from strategies import HEADINGS, floats, signed


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


def wobble(u, v, amplitude, rate):
    """The v_wobble input profile of a scenario: (u, v + a sin(rate t))."""

    def input_fn(t):
        return RobotInput(u, v + amplitude * math.sin(rate * t))

    return input_fn


@st.composite
def query_times(draw):
    """Pose queries starting at t = 0, then times on and off the 1 ms grid,
    repeats of an earlier time and returns to before the last knot."""
    times = [0.0]
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("grid", "off", "repeat", "back")))
        if kind == "grid":
            t = draw(st.integers(0, 250)) * _POSE_STEP
        elif kind == "off":
            t = draw(floats(0.0, 0.25))
        elif kind == "repeat":
            t = draw(st.sampled_from(times))
        else:
            t = draw(floats(0.0, max(times)))
        times.append(t)
    return times


class TestFusedPose:
    @given(
        u=signed(0.2, 3.0),
        v=st.one_of(st.just(0.0), floats(-1.0, 1.0)),
        amplitude=floats(0.1, 0.5),
        rate=floats(0.5, 2.0),
        x=floats(-5.0, 5.0),
        y=floats(-5.0, 5.0),
        theta=HEADINGS,
        times=query_times(),
    )
    def test_matches_integrate_oracle(self, u, v, amplitude, rate, x, y, theta, times):
        # The fused unicycle step does numerics.integrate's arithmetic on
        # its grid, so every pose and every knot it keeps is bit-identical.
        input_fn = wobble(u, v, amplitude, rate)
        start = GroupElement(x, y, theta)
        fused = IntegratedTrajectory(input_fn, start)
        oracle = IntegratedTrajectoryOracle(input_fn, start)
        for t in times:
            assert fused.pose(t) == oracle.pose(t)
        assert fused._times == oracle._times
        assert fused._knots == oracle._knots

    def test_one_input_call_per_stage_time(self):
        calls = []

        def counting(t):
            calls.append(t)
            return RobotInput(1.0, 0.5 + 0.3 * math.sin(t))

        # The second query starts from the first one's knot, whose end-stage
        # input it reuses: 20 steps, one call at t = 0, then two per step.
        traj = IntegratedTrajectory(counting)
        traj.pose(0.01)
        traj.pose(0.02)
        assert len(calls) == 1 + 2 * 20
        assert len(set(calls)) == len(calls)

    def test_non_finite_input_at_a_midpoint_stage_only(self):
        ta, te = 2 * _POSE_STEP, 3 * _POSE_STEP
        mid = ta + 0.5 * (te - ta)

        def input_fn(t):
            return RobotInput(1.0, math.inf if t == mid else 0.5)

        message = r"^input has non-finite components: RobotInput\(u=1\.0, v=inf\)$"
        for cls in (IntegratedTrajectory, IntegratedTrajectoryOracle):
            with pytest.raises(ValueError, match=message):
                cls(input_fn).pose(0.01)

    def test_overflow_raises_divergence_at_the_step_end(self):
        # Finite inputs whose speed overflows the position on the fourth
        # step, the first one run at u = 1e308 throughout.
        def input_fn(t):
            return RobotInput(1e308 if t > 2.7e-3 else 1.0, 0.0)

        times = []
        for cls in (IntegratedTrajectory, IntegratedTrajectoryOracle):
            with pytest.raises(DivergenceError) as err:
                cls(input_fn).pose(0.01)
            times.append(err.value.time)
        assert times == [4 * _POSE_STEP, 4 * _POSE_STEP]


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
