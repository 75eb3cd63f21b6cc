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


# An input profile's two return forms: boxed, and the bare pair a scenario's
# v_wobble profile returns.
PROFILES = [RobotInput, lambda u, v: (u, v)]
NON_FINITE = r"^input has non-finite components: RobotInput\(u=1\.0, v=inf\)$"


def assert_one_bad_stage(bad):
    """A query over 10 steps whose input is non-finite only at time bad
    fails with the same words in the fused step and in the oracle, for
    either profile form."""
    for profile in PROFILES:
        def input_fn(t):
            return profile(1.0, math.inf if t == bad else 0.5)

        for cls in (IntegratedTrajectory, IntegratedTrajectoryOracle):
            with pytest.raises(ValueError, match=NON_FINITE):
                cls(input_fn).pose(0.01)


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
        # Each query's end stage is also the input it samples.
        traj = IntegratedTrajectory(counting)
        traj.pose(0.01)
        traj.pose(0.02)
        assert len(calls) == 1 + 2 * 20
        assert len(set(calls)) == len(calls)
        # A knot hit reuses the last end stage only at the same time.
        traj.sample(0.02)
        assert len(calls) == 1 + 2 * 20
        traj.sample(0.01)
        assert calls[-1] == 0.01 and len(calls) == 2 + 2 * 20

    def test_non_finite_input_at_a_midpoint_stage_only(self):
        ta, te = 2 * _POSE_STEP, 3 * _POSE_STEP
        assert_one_bad_stage(ta + 0.5 * (te - ta))

    @pytest.mark.parametrize("bad", [0.0, 3 * _POSE_STEP], ids=["first", "end"])
    def test_non_finite_input_at_the_first_or_an_end_stage_only(self, bad):
        # The first step's first stage, or the third step's end stage, which
        # the fourth step's first stage reuses.
        assert_one_bad_stage(bad)

    @pytest.mark.parametrize("profile", PROFILES, ids=["robot-input", "bare-pair"])
    def test_non_finite_input_sampled_at_a_knot(self, profile):
        traj = IntegratedTrajectory(lambda t: profile(1.0, math.inf))
        with pytest.raises(ValueError, match=NON_FINITE):
            traj.sample(0.0)

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


def bits(values):
    """The exact bit pattern of each value: 0.0 and -0.0 differ."""
    return [float(v).hex() for v in values]


@st.composite
def reference_factories(draw):
    """A zero-argument builder of a permanent, piecewise or integrated
    (v_wobble) reference, so that two copies can see the same queries."""
    start = GroupElement(draw(floats(-5.0, 5.0)), draw(floats(-5.0, 5.0)), draw(HEADINGS))
    u, v = draw(signed(0.2, 3.0)), draw(st.one_of(st.just(0.0), floats(-1.0, 1.0)))
    kind = draw(st.sampled_from(("permanent", "piecewise", "integrated")))
    if kind == "permanent":
        return lambda: PermanentTrajectory(u, v, start)
    if kind == "piecewise":
        # Legs short enough that query_times() crosses the switches.
        legs = tuple(draw(st.lists(
            st.builds(Segment, signed(0.2, 3.0), floats(-1.0, 1.0), floats(0.02, 0.2)),
            min_size=1, max_size=4,
        )))
        return lambda: PiecewiseTrajectory(legs, start)
    input_fn = wobble(u, v, draw(floats(0.1, 0.5)), draw(floats(0.5, 2.0)))
    return lambda: IntegratedTrajectory(input_fn, start)


class TestSample:
    @given(make=reference_factories(), times=query_times())
    def test_sample_is_pose_then_input(self, make, times):
        sampled, boxed = make(), make()
        for t in times:
            assert bits(sampled.sample(t)) == bits((*boxed.pose(t), *boxed.input(t)))

    @given(
        u=signed(0.2, 3.0),
        v=st.one_of(st.just(0.0), floats(-1.0, 1.0)),
        amplitude=floats(0.1, 0.5),
        rate=floats(0.5, 2.0),
        theta=HEADINGS,
        times=query_times(),
    )
    def test_bare_pair_profile_matches_robot_input_profile(self, u, v, amplitude, rate, theta, times):
        boxed_fn = wobble(u, v, amplitude, rate)

        def bare_fn(t):
            return tuple(boxed_fn(t))

        start = GroupElement(0.5, -0.5, theta)
        boxed = IntegratedTrajectory(boxed_fn, start)
        bare = IntegratedTrajectory(bare_fn, start)
        for t in times:
            assert bits(bare.sample(t)) == bits(boxed.sample(t))
        assert bare._times == boxed._times
        assert [bits(k) for k in bare._knots] == [bits(k) for k in boxed._knots]

    @given(
        x=st.integers(-5, 5),
        y=st.integers(-5, 5),
        theta=st.integers(-3, 3),
        build=st.sampled_from((
            lambda start: PermanentTrajectory(1.0, 0.5, start),
            lambda start: PiecewiseTrajectory((Segment(1.0, 0.5, 1.0),), start),
            lambda start: IntegratedTrajectory(wobble(1.0, 0.5, 0.3, 1.0), start),
        )),
    )
    def test_pose_at_zero_is_floats_for_an_integer_start(self, x, y, theta, build):
        pose = build(GroupElement(x, y, theta)).pose(0.0)
        assert [type(c) for c in pose] == [float, float, float]
        assert pose == (x, y, theta)


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
