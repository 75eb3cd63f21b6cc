import math

import numpy as np
import pytest

from invtrack import se2
from invtrack.closed_loop import controller_error_field
from invtrack.controller import ControllerGains, ctrl_loop_matrix, feedback_values, relative_pose
from invtrack.errors import DegenerateReferenceError
from invtrack.numerics import eigenvalues, linearize_error_field
from invtrack.se2 import GroupElement, IDENTITY
from invtrack.trajectories import PermanentTrajectory
from oracles import inverse, jacobian_fd_oracle

GAINS = ControllerGains(1.0, 1.0, 1.0)


def tracking_error(g_ref, g):
    return relative_pose(*g_ref, *g)


class TestGains:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ControllerGains(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            ControllerGains(1.0, -2.0, 1.0)


class TestTrackingError:
    def test_zero_on_reference(self):
        g = GroupElement(1.0, -2.0, 0.7)
        assert tracking_error(g, g) == (0.0, 0.0, 0.0)

    def test_identity_reference(self):
        eta = tracking_error(IDENTITY, GroupElement(1.0, 2.0, 0.3))
        assert eta == (1.0, 2.0, 0.3)

    def test_invariant_under_left_translation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            g0 = GroupElement(*rng.uniform(-4, 4, 3))
            gr = GroupElement(*rng.uniform(-4, 4, 3))
            g = GroupElement(*rng.uniform(-4, 4, 3))
            base = tracking_error(gr, g)
            moved = tracking_error(se2.compose(g0, gr), se2.compose(g0, g))
            assert abs(base[0] - moved[0]) < 1e-12
            assert abs(base[1] - moved[1]) < 1e-12
            assert abs(se2.normalize_angle(base[2] - moved[2])) < 1e-12

    def test_matches_group_route(self):
        gr = GroupElement(2.0, -1.0, 1.1)
        g = GroupElement(2.5, -0.4, 0.8)
        via_ops = se2.compose(inverse(gr), g)
        eta = tracking_error(gr, g)
        assert abs(eta[0] - via_ops.x) < 1e-14
        assert abs(eta[1] - via_ops.y) < 1e-14
        assert abs(eta[2] - via_ops.theta) < 1e-14


class TestFeedback:
    def test_pure_feedforward_at_zero_error(self):
        assert feedback_values(0.0, 0.0, 0.0, 1.0, 0.5, GAINS) == (1.0, 0.5)

    def test_hand_computed_case(self):
        u, v = feedback_values(0.1, 0.2, 0.05, 1.0, 0.0, GAINS)
        assert abs(u - 0.9) < 1e-15
        assert abs(v - (-0.25)) < 1e-15

    def test_linear_coefficients_by_fd(self):
        # The feedback law's partials at zero error are the stated linear
        # coefficients; checked against the closed-loop matrix columns.
        u_r, v_r = 1.0, 0.5

        jac = jacobian_fd_oracle(lambda e: feedback_values(*e, u_r, v_r, GAINS), np.zeros(3))
        assert abs(jac[0, 0] - (-abs(u_r) * GAINS.k1)) < 1e-9
        assert abs(jac[0, 1] - (-u_r * v_r)) < 1e-9
        assert abs(jac[0, 2]) < 1e-9
        assert abs(jac[1, 1] - (v_r * v_r - GAINS.k2)) < 1e-9
        assert abs(jac[1, 2] - (-GAINS.k3)) < 1e-9

    def test_degenerate_reference(self):
        with pytest.raises(DegenerateReferenceError):
            feedback_values(0.1, 0.0, 0.0, 0.0, 0.5, GAINS)

    def test_reverse_reference_speed(self):
        assert feedback_values(0.0, 0.0, 0.0, -1.0, 0.2, GAINS) == (-1.0, 0.2)


class TestLoopMatrix:
    def test_zero_reference_speed(self):
        assert np.all(ctrl_loop_matrix(0.0, 0.3, GAINS) == 0.0)

    def test_standard_spectrum(self):
        spec = eigenvalues(ctrl_loop_matrix(1.0, 0.5, GAINS))
        expected = sorted(
            [complex(-1.0, 0.0), complex(-0.5, -math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2)],
            key=lambda z: (z.real, z.imag),
        )
        for got, want in zip(spec.values, expected):
            assert abs(got - want) < 1e-9

    def test_matches_nonlinear_error_dynamics(self):
        # Independent oracle route: finite differences through the exact
        # relative-rate of the plant against its reference trajectory.
        for u_r, v_r in ((1.0, 0.5), (1.0, 0.0), (-0.8, 0.3)):
            traj = PermanentTrajectory(u_r, v_r)
            field = controller_error_field(traj, GAINS)
            for jac in linearize_error_field(field, (0.0, 1.3)):
                assert np.max(np.abs(jac - ctrl_loop_matrix(u_r, v_r, GAINS))) < 1e-5

    def test_stable_for_various_gains(self):
        for gains in (ControllerGains(2.0, 1.0, 0.5), ControllerGains(0.3, 4.0, 2.0)):
            spec = eigenvalues(ctrl_loop_matrix(1.0, 0.5, gains))
            assert spec.max_real() < 0.0
