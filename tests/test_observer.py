import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invtrack import se2
from invtrack.closed_loop import observer_error_field
from invtrack.controller import relative_pose
from invtrack.errors import GeometryError
from invtrack.numerics import eigenvalues, linearize_error_field
from invtrack.observer import (
    MAX_CONDITION,
    ObserverGains,
    body_frame_landmarks,
    gain_matrix,
    obs_error_matrix,
    observer_field,
    gram_condition,
)
from invtrack.robot import LandmarkSet, RobotInput, dynamics
from invtrack.se2 import GroupElement, IDENTITY
from invtrack.trajectories import PermanentTrajectory
from oracles import (
    body_frame_condition,
    cap_boundary_estimate,
    jacobian_fd_oracle,
    measure,
    output_error,
    transform_landmarks,
)
from strategies import HEADINGS, floats, landmark_sets, signed

GAINS = ObserverGains(1.0, 1.0, 1.0)
STANDARD = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))


def random_pose(rng, scale=4.0):
    return GroupElement(
        float(rng.uniform(-scale, scale)),
        float(rng.uniform(-scale, scale)),
        float(rng.uniform(-3, 3)),
    )


def random_landmarks(rng):
    while True:
        pts = tuple((float(rng.uniform(-12, 12)), float(rng.uniform(-12, 12))) for _ in range(3))
        try:
            return LandmarkSet(pts)
        except GeometryError:
            continue


class TestBodyFrameLandmarks:
    def test_identity_estimate(self):
        bf = body_frame_landmarks(IDENTITY, STANDARD)
        assert np.allclose(bf, np.asarray(STANDARD.coords).T)

    def test_quarter_turn(self):
        lm = LandmarkSet(((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)))
        bf = body_frame_landmarks(GroupElement(0.0, 0.0, math.pi / 2), lm)
        assert abs(bf[0, 0] - 0.0) < 1e-15
        assert abs(bf[1, 0] - (-1.0)) < 1e-15

    def test_invariant_under_simultaneous_action(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            g0 = random_pose(rng)
            x_hat = random_pose(rng)
            base = body_frame_landmarks(x_hat, STANDARD)
            moved = body_frame_landmarks(
                se2.compose(g0, x_hat), transform_landmarks(g0, STANDARD)
            )
            assert np.max(np.abs(base - moved)) < 1e-9

    def test_condition_number_matches_dense(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            x_hat = random_pose(rng)
            coords = body_frame_landmarks(x_hat, STANDARD)
            dense = np.linalg.cond(coords @ coords.T)
            assert body_frame_condition(x_hat, STANDARD) == pytest.approx(dense, rel=1e-9)

    def test_singular_gram_is_infinitely_conditioned(self):
        assert gram_condition(1.0, 1.0, 1.0) == math.inf
        assert gram_condition(0.0, 0.0, 0.0) == math.inf


class TestOutputError:
    def test_zero_at_truth(self):
        x = GroupElement(0.7, -0.3, 1.9)
        eps = output_error(x, STANDARD, measure(x, STANDARD))
        assert np.max(np.abs(eps)) == 0.0

    def test_hand_computed(self):
        lm = LandmarkSet(((3.0, 4.0), (0.0, 1.0), (1.0, 0.0)))
        y = (16.0, 1.0, 1.0)
        eps = output_error(IDENTITY, lm, y)
        assert abs(eps[0] - 9.0) < 1e-15

    def test_invariant_under_simultaneous_action(self):
        rng = np.random.default_rng(42)
        x = GroupElement(0.5, 0.2, -0.4)
        x_hat = GroupElement(0.6, 0.1, -0.3)
        y = measure(x, STANDARD)
        base = output_error(x_hat, STANDARD, y)
        for _ in range(20):
            g0 = random_pose(rng)
            moved = output_error(
                se2.compose(g0, x_hat), transform_landmarks(g0, STANDARD), y
            )
            assert np.max(np.abs(base - moved)) < 1e-8

    def test_first_order_expansion(self):
        # Small body-frame position errors of the estimate enter the output
        # error through -2 I^T.
        x = GroupElement(0.3, -0.8, 0.6)
        y = measure(x, STANDARD)
        bf = body_frame_landmarks(x, STANDARD)

        def out_err(e):
            x_hat = se2.compose(x, GroupElement(e[0], e[1], 0.0))
            return output_error(x_hat, STANDARD, y)

        jac = jacobian_fd_oracle(out_err, np.zeros(2))
        assert np.max(np.abs(jac - (-2.0 * bf.T))) < 1e-6


class TestGainMatrix:
    def test_defining_identity_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            x_hat = random_pose(rng)
            lm = random_landmarks(rng)
            inp = RobotInput(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
            bf = body_frame_landmarks(x_hat, lm)
            L = gain_matrix(bf, inp, GAINS)
            # The design equation: L (-2 I^T) equals the weight matrix.
            target = L @ (-2.0 * bf.T)
            u, v = inp.u, inp.v
            au = abs(u)
            weights = np.array([
                [au * GAINS.l1, u * v],
                [-u * v, au * GAINS.l2],
                [0.0, u * GAINS.l3],
            ])
            assert np.max(np.abs(target - weights)) < 1e-10

    def test_zero_input_zero_gain(self):
        bf = body_frame_landmarks(IDENTITY, STANDARD)
        L = gain_matrix(bf, RobotInput(0.0, 0.0), GAINS)
        assert np.max(np.abs(L)) == 0.0

    def test_scaling_homogeneity(self):
        # Doubling all landmark offsets doubles I and halves L.
        bf = body_frame_landmarks(IDENTITY, STANDARD)
        doubled = LandmarkSet(tuple((2 * x, 2 * y) for x, y in STANDARD.coords))
        bf2 = body_frame_landmarks(IDENTITY, doubled)
        inp = RobotInput(1.0, 0.5)
        L = gain_matrix(bf, inp, GAINS)
        L2 = gain_matrix(bf2, inp, GAINS)
        assert np.max(np.abs(L2 - 0.5 * L)) < 1e-12

    def test_degenerate_geometry_raises(self):
        # A landmark set may be valid globally yet nearly collinear as seen
        # from far away: from 1e7 m the Gram condition number is about 1.5e12,
        # well past the cap.
        bf = body_frame_landmarks(GroupElement(1e7, 0.0, 0.0), STANDARD)
        with pytest.raises(GeometryError):
            gain_matrix(bf, RobotInput(1.0, 0.0), GAINS)
        # The scalar observer field applies the same cap to the same Gram.
        x_hat = GroupElement(1e7, 0.0, 0.0)
        with pytest.raises(GeometryError):
            observer_field(x_hat, RobotInput(1.0, 0.0), STANDARD, measure(x_hat, STANDARD),
                           GAINS)


    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_default_cap_boundary(self, side):
        # An estimate whose Gram condition number is 1e-3 relative below
        # (side -1) or above (side +1) the cap; test_closed_loop's
        # test_gram_near_the_cap_through_the_run runs both through simulate's run.
        x_hat = cap_boundary_estimate(side, STANDARD)
        cond = body_frame_condition(x_hat, STANDARD)
        assert abs(cond / (MAX_CONDITION * (1.0 + side * 1e-3)) - 1.0) < 1e-6
        inp = RobotInput(1.0, 0.5)
        y = measure(GroupElement(0.0, 0.0, 0.0), STANDARD)
        bf = body_frame_landmarks(x_hat, STANDARD)
        if side < 0.0:
            gain_matrix(bf, inp, GAINS)
            observer_field(x_hat, inp, STANDARD, y, GAINS)
            return
        with pytest.raises(GeometryError) as from_gain:
            gain_matrix(bf, inp, GAINS)
        with pytest.raises(GeometryError) as from_field:
            observer_field(x_hat, inp, STANDARD, y, GAINS)
        assert str(from_gain.value) == str(from_field.value)
        assert "exceeds 1.000e+08" in str(from_gain.value)


@st.composite
def observer_scenes(draw):
    lm = draw(landmark_sets())
    truth = GroupElement(draw(floats(-8.0, 8.0)), draw(floats(-8.0, 8.0)), draw(HEADINGS))
    # The position offset of at least 1e-3 keeps the estimate off the truth.
    x_hat = GroupElement(
        truth.x + draw(signed(1e-3, 1.0)), truth.y + draw(signed(1e-3, 1.0)), draw(HEADINGS)
    )
    inp = RobotInput(draw(signed(0.2, 3.0)), draw(st.one_of(st.just(0.0), signed(0.1, 2.0))))
    return x_hat, inp, lm, measure(truth, lm)


class TestObserverField:
    @given(scene=observer_scenes())
    def test_correction_is_gain_matrix_times_output_error(self, scene):
        # observer_field (the form the simulation runs) and gain_matrix (the
        # form the gain identity certifies) apply the same correction.
        x_hat, inp, lm, y = scene
        field = np.array(observer_field(x_hat, inp, lm, y, GAINS))
        model = np.array(dynamics(x_hat, inp))
        diff = field - model
        c, s = math.cos(x_hat.theta), math.sin(x_hat.theta)
        body = np.array([c * diff[0] + s * diff[1], -s * diff[0] + c * diff[1], diff[2]])
        L = gain_matrix(body_frame_landmarks(x_hat, lm), inp, GAINS)
        correction = -L @ output_error(x_hat, lm, y)
        scale = max(np.max(np.abs(correction)), np.max(np.abs(model)))
        assert np.max(np.abs(body - correction)) <= 1e-12 * scale


    def test_model_replication_at_truth(self):
        x = GroupElement(0.4, 0.9, -1.2)
        inp = RobotInput(1.0, 0.5)
        field = observer_field(x, inp, STANDARD, measure(x, STANDARD), GAINS)
        assert np.max(np.abs(np.array(field) - np.array(dynamics(x, inp)))) < 1e-12

    def test_equivariance(self):
        # Acting on estimate and landmarks transports the field.
        rng = np.random.default_rng(44)
        x = GroupElement(0.2, -0.1, 0.5)
        x_hat = GroupElement(0.3, 0.05, 0.6)
        inp = RobotInput(1.0, 0.5)
        y = measure(x, STANDARD)
        base = observer_field(x_hat, inp, STANDARD, y, GAINS)
        for _ in range(20):
            g0 = random_pose(rng)
            moved = observer_field(
                se2.compose(g0, x_hat), inp, transform_landmarks(g0, STANDARD), y, GAINS
            )
            c, s = math.cos(g0.theta), math.sin(g0.theta)
            expected = (
                base[0] * c - base[1] * s,
                base[0] * s + base[1] * c,
                base[2],
            )
            assert max(abs(a - b) for a, b in zip(moved, expected)) < 1e-9

    def test_error_norm_decreasing(self):
        # A slightly wrong estimate must correct itself initially.
        x = GroupElement(1.0, 0.5, 0.3)
        delta = GroupElement(0.01, -0.02, 0.015)
        x_hat = se2.compose(delta, x)
        inp = RobotInput(1.0, 0.5)
        y = measure(x, STANDARD)

        h = 1e-6
        dx = dynamics(x, inp)
        dxh = observer_field(x_hat, inp, STANDARD, y, GAINS)
        e0 = relative_pose(*x, *x_hat)
        x1 = GroupElement(x.x + h * dx[0], x.y + h * dx[1], x.theta + h * dx[2])
        xh1 = GroupElement(x_hat.x + h * dxh[0], x_hat.y + h * dxh[1], x_hat.theta + h * dxh[2])
        e1 = relative_pose(*x1, *xh1)
        n0 = sum(c * c for c in e0)
        n1 = sum(c * c for c in e1)
        assert n1 < n0

    def test_accepts_plain_sequence(self):
        x = GroupElement(0.4, 0.9, -1.2)
        inp = RobotInput(1.0, 0.5)
        y = measure(x, STANDARD)
        a = observer_field(x, inp, STANDARD, y, GAINS)
        assert observer_field(x, inp, STANDARD, list(y), GAINS) == a
        assert observer_field(x, inp, STANDARD, np.array(y), GAINS) == a

    def test_measurement_length_mismatch(self):
        with pytest.raises(ValueError):
            observer_field(IDENTITY, RobotInput(1.0, 0.0), STANDARD, (1.0, 2.0), GAINS)


class TestErrorMatrix:
    def test_zero_input(self):
        assert np.all(obs_error_matrix(0.0, 0.4, GAINS) == 0.0)

    def test_standard_spectrum(self):
        spec = eigenvalues(obs_error_matrix(1.0, 0.5, GAINS))
        expected = sorted(
            [complex(-1.0, 0.0), complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2)],
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(spec.values, expected):
            assert abs(got - want) < 1e-9

    def test_independent_of_steering(self):
        a = obs_error_matrix(1.0, 0.0, GAINS)
        b = obs_error_matrix(1.0, 0.9, GAINS)
        assert np.array_equal(a, b)

    def test_matches_nonlinear_error_dynamics(self):
        # The decisive check for the correction's sign structure: finite
        # differences of the true estimation-error flow along the reference.
        for u_r, v_r in ((1.0, 0.5), (1.0, 0.0), (-0.7, 0.4)):
            traj = PermanentTrajectory(u_r, v_r)
            field = observer_error_field(traj, STANDARD, GAINS)
            for jac in linearize_error_field(field, (0.0, 0.9)):
                assert np.max(np.abs(jac - obs_error_matrix(u_r, v_r, GAINS))) < 1e-5

    def test_matrix_is_landmark_free(self):
        # Same fd check against a different landmark set: the linearized
        # error dynamics cannot see which landmarks produced them.
        lm = LandmarkSet(((1.0, 3.0), (-2.0, 0.5), (4.0, -1.0), (0.0, -3.0)))
        traj = PermanentTrajectory(1.0, 0.5)
        field = observer_error_field(traj, lm, GAINS)
        (jac,) = linearize_error_field(field, [0.0])
        assert np.max(np.abs(jac - obs_error_matrix(1.0, 0.5, GAINS))) < 1e-5
