import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from invtrack import mech
from invtrack.errors import DivergenceError
from invtrack.mech import (
    PROJECTION_DEFECT_CAP,
    SMALL_ROTATION,
    EpSystem,
    damping_force,
    ep_rate_values,
    error_linearization_drift,
    gravity_gradient_force,
    integrate_ep,
    inv_right_jacobian_values,
    orthonormality_defect,
    project_attitude,
    rotation_exp_values,
    spin_feedforward,
    tracking_error_field,
)
from invtrack.numerics import linearize_error_field
from oracles import (
    assert_close,
    assert_rates_close,
    bits,
    damping_oracle,
    ep_dynamics_oracle,
    ep_error_field_oracle,
    ep_error_matrix,
    ep_oracle_run,
    gravity_gradient_oracle,
    hat,
    integrate,
    inv_right_jacobian,
    jacobian_fd_oracle,
    project_rotation,
    rotation_exp,
    rotation_exp_oracle,
)
from strategies import floats

EPS = np.finfo(float).eps

INERTIA = np.diag([1.0, 2.0, 3.0])
EYE = np.eye(3)
# Symmetric positive definite with nonzero products of inertia.
FULL_INERTIA = np.array([[1.2, 0.1, -0.2], [0.1, 2.0, 0.3], [-0.2, 0.3, 2.9]])


def _flat(m):
    return tuple(np.asarray(m, dtype=float).ravel().tolist())


def _ep_rates(attitude, velocity, inertia, torque):
    # ep_rate_values on arrays: (attitude rate (3, 3), velocity rate (3,)).
    rates = ep_rate_values(
        tuple(np.asarray(attitude).ravel().tolist()) + tuple(np.asarray(velocity).tolist()),
        tuple(np.asarray(inertia).ravel().tolist()),
        tuple(np.linalg.inv(inertia).ravel().tolist()), tuple(np.asarray(torque).tolist()),
    )
    return np.array(rates[:9]).reshape(3, 3), np.array(rates[9:])


def vee(m):
    # Inverse of hat: the vector w with hat(w) = m for skew-symmetric m.
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def kinetic_energy(s):
    return 0.5 * float(s.velocity @ s.inertia @ s.velocity)


def _vectors(lo, hi):
    return st.tuples(floats(lo, hi), floats(lo, hi), floats(lo, hi)).map(np.array)


@st.composite
def inertias(draw):
    # B B^T + 3 I, scaled: symmetric positive definite, generally non-diagonal.
    b = np.array(draw(st.lists(floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
    return draw(floats(0.1, 5.0)) * (b @ b.T + 3.0 * np.eye(3))


# Unit directions scaled to lengths below SMALL_ROTATION, just above it,
# across J_r^-1's 1e-5 series switch, and up to 3.
_DIRECTIONS = _vectors(-1.0, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1).map(
    lambda v: v / np.linalg.norm(v)
)
ROTATION_VECTORS = st.builds(
    lambda d, mag: d * mag,
    _DIRECTIONS,
    st.one_of(
        floats(0.0, 0.9 * SMALL_ROTATION),
        floats(1.1 * SMALL_ROTATION, 1e-7),
        floats(5e-6, 2e-5),
        floats(0.0, 3.0),
    ),
)

FORCES = st.one_of(
    st.none(),
    _vectors(0.1, 1.0).map(damping_force),
    st.builds(
        gravity_gradient_force, floats(0.1, 2.0),
        _vectors(-1.0, 1.0).filter(lambda a: np.linalg.norm(a) > 0.1),
    ),
)


class TestRotations:
    def test_hat_vee_roundtrip(self):
        w = np.array([0.3, -1.2, 2.0])
        assert np.allclose(vee(hat(w)), w)

    def test_hat_antisymmetric(self):
        m = hat(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(m, -m.T)

    def test_exp_zero(self):
        assert np.allclose(rotation_exp(np.zeros(3)), EYE)

    def test_exp_quarter_turn_about_z(self):
        R = rotation_exp(np.array([0.0, 0.0, math.pi / 2]))
        assert np.allclose(R @ np.array([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)

    def test_exp_is_rotation(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            R = rotation_exp(rng.uniform(-3, 3, 3))
            assert orthonormality_defect(R) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_exp_small_angle_branch(self):
        w = np.array([1e-9, -2e-9, 1e-9])
        R = rotation_exp(w)
        assert np.allclose(R, EYE + hat(w), atol=1e-15)

    def test_inv_right_jacobian_identity_at_zero(self):
        assert np.allclose(inv_right_jacobian(np.zeros(3)), EYE)

    def test_inv_right_jacobian_matches_fd(self):
        # Defining property: d/dt exp(zeta(t)) = exp(zeta) * hat(Jr(zeta) zetadot),
        # so inv_right_jacobian maps body rates back to coordinate rates.
        rng = np.random.default_rng(62)
        for _ in range(10):
            zeta = rng.uniform(-1.5, 1.5, 3)
            zdot = rng.uniform(-1, 1, 3)
            h = 1e-6
            Rp = rotation_exp(zeta + h * zdot)
            Rm = rotation_exp(zeta - h * zdot)
            R = rotation_exp(zeta)
            body_rate = vee(R.T @ ((Rp - Rm) / (2 * h)))
            back = inv_right_jacobian(zeta) @ body_rate
            assert np.max(np.abs(back - zdot)) < 1e-6

    def test_project_rotation(self):
        rng = np.random.default_rng(63)
        R = rotation_exp(np.array([0.4, -0.2, 1.0]))
        noisy = R + rng.normal(scale=1e-4, size=(3, 3))
        fixed = _project(noisy)
        assert orthonormality_defect(fixed) < 1e-12
        assert np.max(np.abs(fixed - R)) < 1e-3


def _project(m):
    # project_attitude on a 3x3 array, with no velocity behind the attitude.
    return np.array(project_attitude(0.0, tuple(np.asarray(m).ravel().tolist()))).reshape(3, 3)


@st.composite
def near_rotations(draw):
    # A rotation plus a perturbation whose defect is within the accepted cap.
    rotation = rotation_exp(draw(_vectors(-3.0, 3.0)))
    e = np.array(draw(st.lists(floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
    m = rotation + draw(floats(0.0, PROJECTION_DEFECT_CAP / 3.0)) * e
    assume(orthonormality_defect(m) <= PROJECTION_DEFECT_CAP)
    return m


class TestProjection:
    @given(m=near_rotations())
    def test_matches_svd_oracle(self, m):
        # The bound is the SVD's own error: against an extended-precision
        # polar factor the polar iteration lands within about 1 ulp of 1,
        # the SVD oracle within about 25.
        fixed = _project(m)
        assert np.max(np.abs(fixed - project_rotation(m))) <= 32 * EPS
        assert orthonormality_defect(fixed) < 1e-15

    def test_reflection_raises(self):
        with pytest.raises(DivergenceError, match="reflection.*reduce dt") as info:
            project_attitude(0.25, tuple((-rotation_exp(np.array([0.4, -0.2, 1.0]))).ravel()))
        assert info.value.time == 0.25

    def test_defect_beyond_cap_raises(self):
        m = rotation_exp(np.array([0.4, -0.2, 1.0])) * (1.0 + 2.0 * PROJECTION_DEFECT_CAP)
        with pytest.raises(DivergenceError, match="exceeds.*reduce dt") as info:
            project_attitude(0.5, tuple(m.ravel()))
        assert info.value.time == 0.5

    def test_coarse_step_raises_in_run(self):
        # A one-second step turns the body by about 1.2 rad: RK4 leaves the
        # rotation group by more than the cap, and the run stops there.
        s = EpSystem(EYE, np.array([0.4, 1.0, -0.6]), INERTIA)
        with pytest.raises(DivergenceError, match="reduce dt") as info:
            integrate_ep(s, 4.0, 1.0)
        assert info.value.time == 1.0

    def test_defect_of_a_stack_is_the_max_over_members(self):
        rng = np.random.default_rng(64)
        stack = np.array([
            rotation_exp(rng.uniform(-3, 3, 3)) + rng.normal(scale=1e-6, size=(3, 3))
            for _ in range(20)
        ])
        assert orthonormality_defect(stack) == max(orthonormality_defect(m) for m in stack)


class TestDynamics:
    @given(
        inertia=inertias(),
        force=FORCES,
        zeta=_vectors(-3.0, 3.0),
        xi=_vectors(-2.0, 2.0),
        u=_vectors(-1.0, 1.0),
    )
    # A velocity whose gyroscopic rates are subnormal.
    @example(
        inertia=np.array([[4.0, 0.0, 0.5], [0.0, 4.0, 1.0], [0.5, 1.0, 4.25]]),
        force=None,
        zeta=np.zeros(3),
        xi=np.array([0.0, 0.0, 7.148872729818409e-158]),
        u=np.zeros(3),
    )
    def test_ep_rate_values_match_oracle(self, inertia, force, zeta, xi, u):
        att = rotation_exp(zeta)
        want_att, want_vel = ep_dynamics_oracle(att, xi, inertia, force, u)
        torque = u if force is None else np.array(force(_flat(att), _flat(xi))) + u
        got_att, got_vel = _ep_rates(att, xi, inertia, torque)
        assert_close(got_att, want_att)
        assert_rates_close(got_vel, want_vel)
        # With no torque the velocity rate is the gyroscopic term alone.
        _, gyro = _ep_rates(att, xi, inertia, np.zeros(3))
        assert_rates_close(gyro, np.linalg.solve(inertia, np.cross(inertia @ xi, xi)))

    def test_matches_oracle_run(self):
        s = EpSystem(rotation_exp(np.array([0.3, -0.5, 1.1])), np.array([0.4, 1.0, -0.6]),
                     FULL_INERTIA)
        times, attitudes, velocities = integrate_ep(s, 0.2, 1e-3)
        want_t, want_att, want_vel = ep_oracle_run(s, 0.2, 1e-3)
        assert times.tolist() == want_t.tolist()
        assert_close(attitudes, want_att)
        assert_close(velocities, want_vel)

    @given(inertia=inertias(), zeta=_vectors(-3.0, 3.0), xi=_vectors(-2.0, 2.0),
           dt=floats(1e-3, 0.6), steps=st.integers(1, 12), part=floats(0.05, 0.95))
    def test_run_is_integrate_bit_for_bit(self, inertia, zeta, xi, dt, steps, part):
        # integrate_ep is rk4_run on _free_body as written: the integrate
        # oracle of the zero-torque rate with project_attitude after every
        # step, bit for bit, and the same error where a coarse step leaves
        # the rotation group.  The last step is short.
        s = EpSystem(rotation_exp(zeta), xi, inertia)
        t_end = (steps - 1 + part) * dt

        def rate(t, w):
            return ep_rate_values(w, s.inertia_flat, s.inertia_inv_flat, (0.0, 0.0, 0.0))

        w0 = _flat(s.attitude) + _flat(s.velocity)
        try:
            times, states = integrate(rate, w0, 0.0, t_end, dt, project_attitude, state="rigid-body state")
        except DivergenceError as err:
            with pytest.raises(DivergenceError) as got:
                integrate_ep(s, t_end, dt)
            assert (str(got.value), got.value.time) == (str(err), err.time)
            return
        got_t, attitudes, velocities = integrate_ep(s, t_end, dt)
        assert bits(got_t) == bits(times)
        got = np.hstack((attitudes.reshape(-1, 9), velocities))
        assert [bits(row) for row in got.tolist()] == [bits(w) for w in states]

    def test_refuses_a_forced_body(self):
        # A forced body's tracking error goes through tracking_error_field.
        s = EpSystem(EYE, np.array([0.4, 1.0, -0.6]), INERTIA, damping_force([0.5, 0.4, 0.3]))
        with pytest.raises(ValueError, match="free body only, got force model .*damping_force"):
            integrate_ep(s, 0.2, 1e-3)

    def test_principal_axis_spin_is_equilibrium(self):
        for axis in range(3):
            xi = np.zeros(3)
            xi[axis] = 1.3
            s = EpSystem(EYE, xi, INERTIA)
            _, vdot = _ep_rates(s.attitude, s.velocity, s.inertia, np.zeros(3))
            assert np.max(np.abs(vdot)) < 1e-14

    def test_gyroscopic_term_conserves_energy_rate(self):
        xi = np.array([0.4, 1.0, -0.6])
        _, acc = _ep_rates(EYE, xi, INERTIA, np.zeros(3))
        # Power of the bilinear term is zero: xi^T I acc = xi . (I xi x xi).
        assert abs(xi @ INERTIA @ acc) < 1e-12

    def test_attitude_rate_is_body_frame(self):
        xi = np.array([0.1, 0.2, 0.3])
        s = EpSystem(EYE, xi, INERTIA)
        att_dot, _ = _ep_rates(s.attitude, s.velocity, s.inertia, np.zeros(3))
        assert np.allclose(att_dot, hat(xi))

    def test_free_body_conserves_energy(self):
        s = EpSystem(EYE, np.array([0.4, 1.0, -0.6]), INERTIA)
        e0 = kinetic_energy(s)
        times, attitudes, velocities = integrate_ep(s, 10.0, 1e-3)
        energies = 0.5 * np.einsum("ni,ij,nj->n", velocities, INERTIA, velocities)
        assert np.max(np.abs(energies - e0)) / e0 < 1e-8
        assert max(orthonormality_defect(a) for a in attitudes[:: 500]) < 1e-9

    def test_damped_body_loses_energy(self):
        s = EpSystem(EYE, np.array([0.4, 1.0, -0.6]), INERTIA, damping_force([0.5, 0.4, 0.3]))
        _, _, velocities = ep_oracle_run(s, 5.0, 1e-3)
        energies = 0.5 * np.einsum("ni,ij,nj->n", velocities, INERTIA, velocities)
        assert np.all(np.diff(energies) < 0.0)

    def test_feedforward_holds_spin(self):
        # Damping ignores attitude, so one constant torque keeps the body at
        # xi_r exactly; the integrator should agree to roundoff.  The torque
        # rides on the damping as one force model.
        xi_r = np.array([0.4, 1.0, -0.6])
        damping = damping_force([0.5, 0.4, 0.3])
        u_r = spin_feedforward(EpSystem(EYE, xi_r, INERTIA, damping), _flat(EYE))

        def held(att, xi):
            return tuple(f + u for f, u in zip(damping(att, xi), u_r))

        _, _, velocities = ep_oracle_run(EpSystem(EYE, xi_r, INERTIA, held), 2.0, 1e-3)
        assert np.max(np.abs(velocities - xi_r)) < 1e-9

    def test_feedforward_free_body_principal_axis(self):
        s = EpSystem(EYE, np.array([0.0, 0.0, 2.0]), INERTIA)
        assert np.allclose(spin_feedforward(s, EYE), 0.0)

    def test_rejects_bad_attitude(self):
        with pytest.raises(ValueError):
            EpSystem(np.eye(3) * 2.0, np.zeros(3), INERTIA)

    def test_rejects_indefinite_inertia(self):
        with pytest.raises(ValueError):
            EpSystem(EYE, np.zeros(3), np.diag([1.0, -1.0, 1.0]))


class TestLinearizationDrift:
    XI_R = np.array([0.4, 1.0, -0.6])

    @given(
        inertia=inertias(),
        xi=_vectors(-2.0, 2.0),
        zeta=_vectors(-3.0, 3.0),
        damping=st.one_of(st.none(), _vectors(0.1, 1.0)),
    )
    def test_attitude_free_force_is_exactly_frozen(self, inertia, xi, zeta, damping):
        # The lemma on any body: with no force or a velocity-only one, the
        # error field at the origin never sees the reference attitude, so
        # every probe time gives the same fd matrix bit for bit.
        force = None if damping is None else damping_force(damping)
        s = EpSystem(rotation_exp(zeta), xi, inertia, force)
        assert error_linearization_drift(s, [0.0, 0.7, 1.9, 3.1]) == 0.0

    def test_velocity_only_force_is_frozen(self):
        s = EpSystem(EYE, self.XI_R, INERTIA, damping_force([0.5, 0.4, 0.3]))
        assert error_linearization_drift(s, [0.0, 1.0, 2.0]) < 1e-6

    def test_free_body_is_frozen(self):
        s = EpSystem(EYE, self.XI_R, INERTIA)
        assert error_linearization_drift(s, [0.0, 1.0, 2.0]) < 1e-6

    def test_attitude_force_drifts(self):
        s = EpSystem(
            EYE, self.XI_R, INERTIA, gravity_gradient_force(1.0, [0.0, 0.0, 1.0])
        )
        assert error_linearization_drift(s, [0.0, 1.0, 2.0]) > 1e-2

    def test_attitude_force_drifts_at_two_times(self):
        s = EpSystem(
            EYE, self.XI_R, INERTIA, gravity_gradient_force(1.0, [0.0, 0.0, 1.0])
        )
        assert error_linearization_drift(s, [0.0, 1.5]) > 1e-2

    def test_needs_two_times(self):
        s = EpSystem(EYE, self.XI_R, INERTIA)
        with pytest.raises(ValueError, match="need at least two probe times"):
            error_linearization_drift(s, [0.0])

    def test_reference_attitude_once_per_probe_time(self, monkeypatch):
        seen = []

        def counting(s, attitude_r, _feedforward=spin_feedforward):
            seen.append(attitude_r)
            return _feedforward(s, attitude_r)

        monkeypatch.setattr(mech, "spin_feedforward", counting)
        s = EpSystem(EYE, self.XI_R, INERTIA, gravity_gradient_force(1.0, [0.0, 0.0, 1.0]))
        times = [0.0, 1.0, 2.0]
        error_linearization_drift(s, times)
        # The twelve fd evaluations at a probe time share one reference
        # attitude (a row-major 9-tuple) and one feedforward.
        assert len(seen) == len(times)
        for t, att_r in zip(times, seen):
            assert np.array_equal(np.reshape(att_r, (3, 3)), EYE @ rotation_exp(t * self.XI_R))


# Force parameters: (kind, damping D, strength s, axis a), kind None for the free body.
FORCE_PARAMS = st.one_of(
    st.just((None, None, 0.0, (0.0, 0.0, 1.0))),
    _vectors(0.1, 1.0).map(lambda d: ("damping", d, 0.0, (0.0, 0.0, 1.0))),
    st.builds(
        lambda s, a: ("gravity", None, s, a),
        floats(0.1, 2.0),
        _vectors(-1.0, 1.0).filter(lambda a: np.linalg.norm(a) > 0.1),
    ),
)


def _force_pair(kind, damping, strength, axis):
    # The package's force model and its numpy form.
    if kind == "damping":
        return damping_force(damping), damping_oracle(damping)
    if kind == "gravity":
        return gravity_gradient_force(strength, axis), gravity_gradient_oracle(strength, axis)
    return None, None


def _field_scale(s, damping, strength):
    # Size of the terms that the velocity rate sums and cancels: the
    # gyroscopic term through I and I^-1 at velocities up to |xi_r| + 1,
    # the force and the damping.
    inertia_inv = np.linalg.inv(s.inertia)
    gyro = np.max(np.abs(s.inertia)) * np.max(np.abs(inertia_inv)) * (
        2.0 + np.max(np.abs(s.velocity))
    ) ** 2
    d = 0.0 if damping is None else float(np.max(damping))
    return 1.0 + gyro + strength * np.max(np.abs(inertia_inv)) + d


class TestFloatCores:
    @given(w=ROTATION_VECTORS)
    def test_rotation_exp_matches_numpy_form(self, w):
        # The entries are at most 1 and the two forms differ only in how
        # K @ K is summed: within 8 ulp of 1 (largest seen: 3).
        got = np.array(rotation_exp_values(*w)).reshape(3, 3)
        assert np.max(np.abs(got - rotation_exp_oracle(w))) <= 8 * EPS
        assert np.array_equal(rotation_exp(w), got)

    @given(w=ROTATION_VECTORS)
    def test_inv_right_jacobian_matches_numpy_form(self, w):
        # coeff * K @ K grows like |w|^2: within 8 ulp of 1 + |w|^2 (largest seen: 2).
        got = np.array(inv_right_jacobian_values(*w)).reshape(3, 3)
        assert np.max(np.abs(got - inv_right_jacobian(w))) <= 8 * EPS * (1.0 + float(w @ w))

    @given(damping=_vectors(0.1, 1.0), zeta=_vectors(-3.0, 3.0), xi=_vectors(-2.0, 2.0))
    def test_damping_matches_minus_d_xi(self, damping, zeta, xi):
        # The same products in the same order: equal, tolerance 0.
        got = damping_force(damping)(_flat(rotation_exp(zeta)), _flat(xi))
        assert isinstance(got, tuple) and len(got) == 3
        assert np.array_equal(got, -damping * xi)

    @given(
        strength=floats(0.1, 2.0),
        axis=_vectors(-1.0, 1.0).filter(lambda a: np.linalg.norm(a) > 0.1),
        zeta=_vectors(-3.0, 3.0),
        xi=_vectors(-2.0, 2.0),
    )
    def test_gravity_gradient_matches_cross_product(self, strength, axis, zeta, xi):
        # R^T e_z is R's last row and np.cross takes the same two products
        # per entry: equal, tolerance 0.
        att = rotation_exp(zeta)
        got = gravity_gradient_force(strength, axis)(_flat(att), _flat(xi))
        want = strength * np.cross(att.T @ np.array([0.0, 0.0, 1.0]), axis / np.linalg.norm(axis))
        assert isinstance(got, tuple) and len(got) == 3
        assert np.array_equal(got, want)


class TestTrackingErrorField:
    @given(
        inertia=inertias(),
        xi_r=_vectors(-2.0, 2.0),
        force=FORCE_PARAMS,
        zeta0=_vectors(-3.0, 3.0),
        zeta=ROTATION_VECTORS,
        dxi=_vectors(-1.0, 1.0),
        t=floats(0.0, 4.0),
    )
    def test_matches_numpy_field(self, inertia, xi_r, force, zeta0, zeta, dxi, t):
        # The float field against its numpy body (Rodrigues, J_r^-1 and the
        # force on 3x3 arrays), within 8 ulp of the size of the cancelling
        # velocity-rate terms (largest seen: 0.65).
        kind, damping, strength, axis = force
        model, oracle_model = _force_pair(*force)
        s = EpSystem(rotation_exp(zeta0), xi_r, inertia, model)
        w = _flat(zeta) + _flat(dxi)
        got = tracking_error_field(s).rate(t, w)
        want = ep_error_field_oracle(s, oracle_model).rate(t, w)
        assert isinstance(got, tuple) and len(got) == 6
        assert np.max(np.abs(np.array(got) - want)) <= 8 * EPS * _field_scale(s, damping, strength)

    @given(
        inertia=inertias(),
        xi_r=_vectors(-2.0, 2.0),
        force=FORCE_PARAMS.filter(lambda f: f[0] is not None),
        zeta0=_vectors(-3.0, 3.0),
    )
    def test_linearization_matches_closed_form(self, inertia, xi_r, force, zeta0):
        # The fd linearization at each probe time is A(t) of ep_error_matrix,
        # for the damped body (A frozen) and the tilted one (A turns with
        # R_r(t)); fd truncation and roundoff stay within 1e-9 of the term
        # size (largest seen: 4.6e-11).
        kind, damping, strength, axis = force
        s = EpSystem(rotation_exp(zeta0), xi_r, inertia, _force_pair(*force)[0])
        times = [0.0, 0.7, 1.9]
        scale = _field_scale(s, damping, strength)
        for t, m in zip(times, linearize_error_field(tracking_error_field(s), times)):
            a = ep_error_matrix(s, t, damping, strength, axis)
            assert np.max(np.abs(m - a)) <= 1e-9 * scale

    @given(
        inertia=inertias(),
        xi_r=_vectors(-2.0, 2.0),
        force=FORCE_PARAMS.filter(lambda f: f[0] is not None),
        zeta0=_vectors(-3.0, 3.0),
        t=floats(0.0, 4.0),
    )
    def test_linearization_matches_numpy_body(self, inertia, xi_r, force, zeta0, t):
        # linearize_error_field on tuples gives the numpy fd body's array at
        # the origin bit for bit and in the same C order, for the damped and
        # the tilted body.
        s = EpSystem(rotation_exp(zeta0), xi_r, inertia, _force_pair(*force)[0])
        field = tracking_error_field(s)
        want = jacobian_fd_oracle(lambda w: field.rate(t, w), np.zeros(6))
        (got,) = linearize_error_field(field, [t])
        assert got.flags.c_contiguous and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_default_bodies_match_closed_form(self):
        # mech-lemma's default bodies at its default probe times.
        xi_r = np.array([0.4, 1.0, -0.6])
        times = [0.0, 1.0, 2.0, 3.0]
        for force, args in (
            (damping_force([0.5, 0.4, 0.3]), ([0.5, 0.4, 0.3], 0.0, (0.0, 0.0, 1.0))),
            (gravity_gradient_force(1.0, [0.0, 0.0, 1.0]), (None, 1.0, (0.0, 0.0, 1.0))),
        ):
            s = EpSystem(EYE, xi_r, INERTIA, force)
            for t, m in zip(times, linearize_error_field(tracking_error_field(s), times)):
                assert np.max(np.abs(m - ep_error_matrix(s, t, *args))) < 1e-9
