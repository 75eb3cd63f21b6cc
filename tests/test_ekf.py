import copy
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from invtrack import ekf
from invtrack.ekf import (
    DEFAULT_INITIAL_COVARIANCE,
    DEFAULT_MEASUREMENT_NOISE,
    DEFAULT_PROCESS_NOISE,
    PSD_FLOOR,
    ekf_jacobians,
    keep_psd,
    riccati_values,
    run_along_reference,
    time_variance_probe,
)
from invtrack.errors import DivergenceError
from invtrack.numerics import grid, integrate, once_per_time
from invtrack.robot import LandmarkSet, RobotInput, dynamics
from invtrack.se2 import GroupElement, IDENTITY
from invtrack.trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    Segment,
)
from oracles import (
    assert_close,
    assert_rates_close,
    bits,
    ekf_field_oracle,
    ekf_oracle_run,
    jacobian_fd_oracle,
    measure,
    rotation_exp,
)
from strategies import HEADINGS, floats, landmark_sets, references, signed

STANDARD = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))
DEFAULT_NOISE = {
    "q": DEFAULT_PROCESS_NOISE,
    "r": DEFAULT_MEASUREMENT_NOISE,
    "p0": DEFAULT_INITIAL_COVARIANCE,
}


def _upper(P):
    # The EKF state's six covariance entries (p00, p01, p02, p11, p12, p22).
    return np.asarray(P)[np.triu_indices(3)].tolist()


def _full(upper):
    # The symmetric 3x3 matrix whose upper triangle is upper.
    return np.asarray(upper)[[0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(3, 3)


def _riccati(x_hat, P, inp, lm, y, q, r):
    # riccati_values on arrays: (x_hat rate (3,), P rate (3, 3)).
    rates = riccati_values(
        (x_hat.x, x_hat.y, x_hat.theta, *_upper(P)), inp.u, inp.v, lm.coords, y, q, 1.0 / r
    )
    return np.array(rates[:3]), _full(rates[3:])


def _spd(draw, n, scale):
    # B B^T + n I, scaled: symmetric positive definite with condition number
    # at most n + 1 for entries of B in [-1, 1], and exactly symmetric.
    b = np.array(draw(st.lists(floats(-1.0, 1.0), min_size=n * n, max_size=n * n)))
    b = b.reshape(n, n)
    a = b @ b.T
    return scale * (0.5 * (a + a.T) + n * np.eye(n))


@st.composite
def riccati_cases(draw):
    lm = draw(landmark_sets(max_count=8))
    x_hat = GroupElement(draw(floats(-8.0, 8.0)), draw(floats(-8.0, 8.0)), draw(HEADINGS))
    truth = GroupElement(x_hat.x + draw(floats(-0.5, 0.5)), x_hat.y + draw(floats(-0.5, 0.5)), 0.0)
    inp = RobotInput(draw(signed(0.2, 3.0)), draw(st.one_of(st.just(0.0), signed(0.1, 2.0))))
    P = _spd(draw, 3, draw(floats(1e-3, 1.0)))
    q = draw(floats(1e-4, 1e-2))
    r = draw(floats(1e-3, 1.0))
    return x_hat, P, inp, lm, measure(truth, lm), q, r


class TestState:
    def test_rejects_negative_covariance(self):
        traj = PermanentTrajectory(1.0, 0.5)
        with pytest.raises(ValueError):
            run_along_reference(traj, STANDARD, 0.1, 1e-3, q=1e-3, r=1e-2, p0=-0.1)


def _guard_raises(P):
    w = (0.0, 0.0, 0.0, *_upper(P))
    try:
        assert keep_psd(0.0, w) is w
    except DivergenceError:
        return True
    return False


@st.composite
def near_floor_covariances(draw):
    # Q diag(lam) Q^T, made exactly symmetric, with lam_min within 1e-9 of
    # PSD_FLOOR or of 0 (either side, down to 1e-17 away) and the other
    # two eigenvalues in [s / 100, s].
    s = draw(floats(1e-3, 1.0))
    centre = draw(st.sampled_from((PSD_FLOOR, 0.0)))
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(floats(-17.0, -9.0))
    lam = np.diag([centre + offset, s * draw(floats(0.01, 1.0)), s * draw(floats(0.01, 1.0))])
    q = rotation_exp(np.array([draw(floats(-3.0, 3.0)) for _ in range(3)]))
    p = q @ lam @ q.T
    return 0.5 * (p + p.T)


class TestPsdGuard:
    # The guard and eigvalsh may disagree only within roundoff of the floor;
    # the largest gap seen over 600k such draws was 2.1 eps ||P||.
    BAND = 1e-14

    @given(P=near_floor_covariances())
    def test_agrees_with_eigvalsh(self, P):
        lam_min = float(np.min(np.linalg.eigvalsh(P)))
        assume(abs(lam_min - PSD_FLOOR) > self.BAND * np.linalg.norm(P, 2))
        assert _guard_raises(P) == (lam_min < PSD_FLOOR)

    def test_two_negative_eigenvalues_raise(self):
        # Eigenvalues (5, -1, -1) / 100: det > 0 and a positive diagonal, so
        # only the 2x2 minors see it.
        assert _guard_raises(np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0], [2.0, 2.0, 1.0]]) / 100)


class TestJacobians:
    def test_zero_input_zero_f(self):
        F, _ = ekf_jacobians(GroupElement(1.0, 2.0, 0.5), RobotInput(0.0, 0.0), STANDARD)
        assert np.max(np.abs(F)) == 0.0

    def test_h_row_hand_computed(self):
        lm = LandmarkSet(((3.0, 4.0), (0.0, 1.0), (1.0, 0.0)))
        _, H = ekf_jacobians(IDENTITY, RobotInput(1.0, 0.0), lm)
        assert np.allclose(H[0], [-6.0, -8.0, 0.0])

    def test_matches_fd_of_model(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            g = GroupElement(*rng.uniform(-3, 3, 3))
            inp = RobotInput(float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
            F, H = ekf_jacobians(g, inp, STANDARD)

            def model(w):
                return np.asarray(dynamics(GroupElement(w[0], w[1], w[2]), inp))

            def output(w):
                return np.asarray(measure(GroupElement(w[0], w[1], w[2]), STANDARD))

            point = np.array([g.x, g.y, g.theta])
            assert np.max(np.abs(jacobian_fd_oracle(model, point) - F)) < 1e-6
            assert np.max(np.abs(jacobian_fd_oracle(output, point) - H)) < 1e-6


class TestField:
    @given(case=riccati_cases())
    def test_riccati_values_match_oracle(self, case):
        x_hat, P, inp, lm, y, q, r = case
        want_x, want_p = ekf_field_oracle(
            x_hat, P, inp, lm, y, q * np.eye(3), r * np.eye(len(lm))
        )
        got_x, got_p = _riccati(x_hat, P, inp, lm, y, q, r)
        assert_rates_close(got_x, want_x)
        assert_rates_close(got_p, want_p)
        # The rate holds one value per off-diagonal pair, so its expansion
        # is symmetric by construction.
        assert np.array_equal(P, P.T)
        assert np.array_equal(got_p, got_p.T)

    def test_non_finite_input_rejected(self):
        # riccati_values checks nothing: the run's stages reject a
        # non-finite input before calling it, here from the first stage on.
        class InfiniteSteering(PermanentTrajectory):
            def sample(self, t):
                return (*super().sample(t)[:3], self.u, math.inf)

        with pytest.raises(ValueError, match="input has non-finite components"):
            run_along_reference(
                InfiniteSteering(1.0, 0.5), STANDARD, t_end=0.1, dt=1e-3, **DEFAULT_NOISE
            )

    def test_pure_model_on_exact_measurement(self):
        g = GroupElement(0.5, -0.5, 0.8)
        inp = RobotInput(1.0, 0.5)
        xdot, _ = _riccati(g, np.eye(3) * 1e-2, inp, STANDARD, measure(g, STANDARD), 1e-3, 1e-2)
        assert np.max(np.abs(xdot - np.asarray(dynamics(g, inp)))) < 1e-12

    def test_scalar_riccati_fixed_point(self):
        # 1-D analogue with F = 0 and direct measurement (H = 1): the Riccati
        # flow pdot = q - p^2 / r settles at sqrt(q r).
        q, r = 0.04, 0.25

        def field(t, p):
            return (q - p[0] * p[0] / r,)

        _, states = integrate(field, (1.0,), 0.0, 60.0, 1e-2)
        assert abs(states[-1][0] - math.sqrt(q * r)) < 1e-8

    def test_state_holds_the_upper_triangle(self):
        # Nine components: the estimate and the six distinct entries of P.
        g = GroupElement(0.5, -0.5, 0.8)
        w = (g.x, g.y, g.theta, *_upper(np.eye(3) * 1e-2))
        y = measure(g, STANDARD)
        assert len(w) == len(riccati_values(w, 1.0, 0.5, STANDARD.coords, y, 1e-3, 1e2)) == 9

    def test_covariance_rate_symmetric(self):
        # Holds by construction on the expanded nine-entry rate.
        g = GroupElement(0.5, -0.5, 0.8)
        y = measure(GroupElement(0.52, -0.48, 0.81), STANDARD)
        _, pdot = _riccati(g, np.eye(3) * 1e-2, RobotInput(1.0, 0.5), STANDARD, y, 1e-3, 1e-2)
        assert np.array_equal(pdot, pdot.T)


class TestRun:
    @pytest.mark.parametrize("u", [1.0, -1.0])
    def test_matches_oracle_run(self, u):
        # Distinct non-default noise levels, four landmarks, forward and
        # reverse driving, starting across the heading wrap.
        lm = LandmarkSet(((9.0, 1.0), (-2.0, 8.0), (-7.0, -6.0), (4.0, -9.0)))
        traj = PermanentTrajectory(u, 0.5, GroupElement(1.0, -2.0, math.pi - 1e-3))
        q, r, p0 = 1.7e-3, 2.3e-2, 5e-3
        run = run_along_reference(traj, lm, 0.3, 1e-3, q=q, r=r, p0=p0)
        times, estimates, covariances = ekf_oracle_run(
            traj, lm, 0.3, 1e-3, q * np.eye(3), r * np.eye(4), p0 * np.eye(3)
        )
        assert run.times.tolist() == times.tolist()
        assert_close(run.estimates, estimates)
        assert_close(run.covariances, covariances)

    def test_non_finite_reference_input_rejected(self):
        class NanInput(PermanentTrajectory):
            def sample(self, t):
                x, y, th, u, v = super().sample(t)
                return (x, y, th, math.nan if t > 0.01 else u, v)

        traj = NanInput(1.0, 0.5)
        with pytest.raises(ValueError, match="input has non-finite components"):
            run_along_reference(traj, STANDARD, t_end=0.1, dt=1e-3, **DEFAULT_NOISE)

    def test_estimate_stays_on_reference(self):
        traj = PermanentTrajectory(1.0, 0.5)
        run = run_along_reference(traj, STANDARD, t_end=2.0, dt=1e-3, **DEFAULT_NOISE)
        ref = traj.pose(2.0)
        final = run.estimates[-1]
        assert abs(final[0] - ref.x) < 1e-6
        assert abs(final[1] - ref.y) < 1e-6

    def test_coarse_step_diverges_cleanly(self):
        # The initial covariance transient relaxes on a sub-millisecond
        # timescale, so a centisecond step leaves the PSD cone immediately.
        traj = PermanentTrajectory(1.0, 0.5)
        with pytest.raises(DivergenceError, match="reduce dt") as info:
            run_along_reference(traj, STANDARD, t_end=1.0, dt=1e-2, **DEFAULT_NOISE)
        assert info.value.time == 0.01

    def test_inputs_checked_once_at_start(self):
        traj = PermanentTrajectory(1.0, 0.5)
        with pytest.raises(ValueError, match="p0 must be positive and finite, got -1"):
            run_along_reference(traj, STANDARD, t_end=0.1, dt=1e-3, q=1e-3, r=1e-2, p0=-1)

    def test_reference_lookup_once_per_stage_time(self):
        calls = []

        class Counting(PermanentTrajectory):
            def sample(self, t):
                calls.append(t)
                return super().sample(t)

        # dt = 2^-10 keeps every stage time exact, so each step's end stage
        # also serves the next step's first: the initial pose, one lookup at
        # t = 0, then two per step (midpoint, end).
        run = run_along_reference(
            Counting(1.0, 0.5), STANDARD, t_end=1.0 / 16, dt=2.0**-10, **DEFAULT_NOISE
        )
        steps = len(run.times) - 1
        assert len(calls) == 2 + 2 * steps
        assert sorted(set(calls[1:])) == sorted(calls[1:])

    def test_covariance_stays_symmetric_psd(self):
        traj = PermanentTrajectory(1.0, 0.5)
        run = run_along_reference(traj, STANDARD, t_end=3.0, dt=1e-3, **DEFAULT_NOISE)
        for P in run.covariances:
            assert np.array_equal(P, P.T)
            assert np.min(np.linalg.eigvalsh(P)) > 0.0


def _called_rate(traj, lm, q, r):
    """_riccati_rate's rate as written, with its core calls."""
    return ekf._riccati_rate(once_per_time(traj.sample), lm.coords, q, 1.0 / r)


def _integrated_run(traj, lm, q, r, w0, t0, t_end, dt):
    """Oracle: the filter's run as integrate of _riccati_rate's rate with its
    core calls and keep_psd after every step; the flat list of the states."""
    rate = _called_rate(traj, lm, q, r)
    _, states = integrate(rate, w0, t0, t_end, dt, keep_psd, state="EKF state")
    return [c for w in states for c in w]


def _template_run(traj, lm, q, r, w0, t0, t_end, dt):
    """_filter_run as written, with its calls of the rate, rk4_step and keep_psd."""
    return ekf._filter_run(once_per_time(traj.sample), lm.coords, q, 1.0 / r)(w0, grid(t0, t_end, dt))


def _generated_run(traj, lm, q, r, w0, t0, t_end, dt):
    """The run run_along_reference calls, generated for the landmark count."""
    run = ekf._generated_run(len(lm))(once_per_time(traj.sample), lm.coords, q, 1.0 / r)
    return run(w0, grid(t0, t_end, dt))


def _run_outcome(run, traj, *args):
    """run on a fresh copy of traj (an integrated reference keeps the knots
    it has integrated) as the bits of its nine floats per grid time, or as
    the class, message, time and cause class of what it raised."""
    try:
        buf = run(copy.deepcopy(traj), *args)
    except (ValueError, ArithmeticError) as err:
        return (type(err), str(err), getattr(err, "time", None), type(err.__cause__))
    return ("ok", bits(buf))


class _NanInput(PermanentTrajectory):
    def sample(self, t):
        return (*super().sample(t)[:3], math.nan, 0.5)


_P0 = (1e-2, 0.0, 0.0, 1e-2, 0.0, 1e-2)
# Each way the run fails: (traj, t, w) and the class, message, time and
# cause class of what a run from w at t on 0.01 s steps raises.
ERROR_PATHS = {
    "nan-reference-input": (
        _NanInput(1.0, 0.5), 0.25, (0.0, 0.0, 0.0, *_P0),
        (ValueError, "input has non-finite components: RobotInput(u=nan, v=0.5)", None,
         type(None)),
    ),
    "estimate-past-1.3e154": (
        PermanentTrajectory(1.0, 0.5), 0.25, (2e154, 0.0, 0.0, *_P0),
        (DivergenceError, "EKF state diverged at t=0.25", 0.25, OverflowError),
    ),
    # P off the cone stays off it: keep_psd raises at the step's end time.
    "p-leaves-the-cone": (
        PermanentTrajectory(1.0, 0.5), 0.25, (0.0, 0.0, 0.0, -1e-3, 0.0, 0.0, 1e-2, 0.0, 1e-2),
        (DivergenceError,
         "EKF integration unstable (P must be positive semidefinite); reduce dt at t=0.26",
         0.26, type(None)),
    ),
    # On a parked reference, with the estimate on it, p00 = 1e200 squares
    # to inf in the first stage's rate and to NaN after it, while no
    # estimate squares out of range: the state is NaN at the step's end.
    "non-finite-state": (
        PermanentTrajectory(0.0, 0.0), 0.25, (0.0, 0.0, 0.0, 1e200, 0.0, 0.0, 1e-2, 0.0, 1e-2),
        (DivergenceError, "EKF state diverged at t=0.26", 0.26, type(None)),
    ),
}


class TestGeneratedRun:
    # run_along_reference runs _filter_run as generated code: the rate,
    # rk4_step, keep_psd and the cores inlined, with what the two midpoint
    # stages share computed once.  It must be integrate, bit for bit.
    @pytest.mark.parametrize("p", [*range(3, 13), 33, 40])
    @given(
        data=st.data(),
        traj=references(),
        est=st.tuples(floats(-8.0, 8.0), floats(-8.0, 8.0), HEADINGS),
        p0=floats(1e-3, 1e-1),
        q=floats(1e-4, 1e-2),
        r=floats(1e-1, 10.0),
        dt=floats(1e-3, 1e-2),
        steps=st.integers(1, 10),
        part=floats(0.05, 0.95),
    )
    def test_run_is_integrate_bit_for_bit(self, p, data, traj, est, p0, q, r, dt, steps, part):
        # t_end is not a multiple of dt, so the last step is short.  Every
        # landmark count that landmark_sets draws, and two larger ones, gets
        # its own generated run.
        lm = data.draw(landmark_sets(p, p))
        args = (lm, q, r, (*est, p0, 0.0, 0.0, p0, 0.0, p0), 0.0, (steps - 1 + part) * dt, dt)
        want = _run_outcome(_integrated_run, traj, *args)
        assert _run_outcome(_template_run, traj, *args) == want
        assert _run_outcome(_generated_run, traj, *args) == want

    @pytest.mark.parametrize("p", [3, 12, 40])
    def test_no_core_is_called_by_name(self, p):
        # Every call of the rate, the step, the check and the cores is
        # inlined, riccati_values' own call of dynamics_values included.
        # The names are listed, not read from ekf._CORES, so a core left out
        # of it shows here.
        ring = tuple((10.0 * math.cos(0.1 + k), 10.0 * math.sin(0.1 + k)) for k in range(p))
        run = ekf._generated_run(p)(once_per_time(PermanentTrajectory(1.0, 0.5).sample), ring, 1e-3, 1e2)
        called = {
            "_riccati_rate", "rk4_step", "measure_values", "riccati_values", "dynamics_values",
            "keep_psd",
        }
        assert not called & set(run.__code__.co_names)
        written = ekf._filter_run(None, ring, 1e-3, 1e2)
        assert run.__code__ is not written.__code__

    @pytest.mark.parametrize("traj", [
        PermanentTrajectory(-1.2, 0.4, GroupElement(1.0, -2.0, math.pi - 1e-7)),
        PiecewiseTrajectory((Segment(-1.0, 0.3, 0.02), Segment(-0.7, -0.5, 1.0))),
        IntegratedTrajectory(lambda t: RobotInput(-1.1, 0.3 + 0.2 * math.sin(1.3 * t))),
    ], ids=["permanent", "piecewise", "wobble"])
    def test_each_kind_in_reverse_with_a_short_last_step(self, traj):
        # Every kind of reference, driven backwards, on 1.3 ms steps that
        # end 0.05 s with a short one (39 steps): the run equals its oracle.
        w0 = (1.0, -2.0, 3.0, 5e-3, 0.0, 0.0, 5e-3, 0.0, 5e-3)
        args = (STANDARD, 1.7e-3, 2.3e-2, w0, 0.0, 0.05, 1.3e-3)
        want = _run_outcome(_integrated_run, traj, *args)
        assert want[0] == "ok" and len(want[1]) == 40 * 9
        assert _run_outcome(_generated_run, traj, *args) == want

    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_error_paths_through_the_run(self, case):
        # Each way the filter fails, met by the run from the case's time and
        # state, raises what integrate raised, with its time and cause.
        traj, t, w, want = ERROR_PATHS[case]
        args = (STANDARD, 1e-3, 1e-2, w, t, t + 0.02, 0.01)
        got = _run_outcome(_generated_run, traj, *args)
        assert got == _run_outcome(_integrated_run, traj, *args)
        assert got == want

    def test_generated_once_per_landmark_count(self):
        ekf._generated_run.cache_clear()
        traj = PermanentTrajectory(1.0, 0.5)
        square = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0)))
        for lm in (STANDARD, square, STANDARD, square):
            run_along_reference(traj, lm, t_end=0.01, dt=1e-3, **DEFAULT_NOISE)
        info = ekf._generated_run.cache_info()
        assert (info.misses, info.hits) == (2, 2)  # p = 3 and p = 4, each generated once


class TestErrorMatrix:
    def test_zero_case(self):
        # With u = 0 and a zero gain, F - L H vanishes.
        F, H = ekf_jacobians(IDENTITY, RobotInput(0.0, 0.0), STANDARD)
        m = F - np.zeros((3, 3)) @ H
        assert np.max(np.abs(m)) == 0.0

    def test_probe_count_is_checked_before_the_run(self, monkeypatch):
        def no_run(*args):
            raise AssertionError("the filter ran")

        monkeypatch.setattr(ekf, "run_along_reference", no_run)
        with pytest.raises(ValueError, match="need at least two probe times"):
            time_variance_probe(PermanentTrajectory(1.0, 0.5), STANDARD, [0.5])

    def test_time_variance_along_circle(self):
        traj = PermanentTrajectory(1.0, 0.5)
        quarter = traj.period() / 4.0
        probe = time_variance_probe(traj, STANDARD, [0.0, quarter], dt=1e-3)
        assert probe > 0.1
