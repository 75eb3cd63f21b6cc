import copy
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from invtrack import closed_loop, observer, se2
from invtrack.closed_loop import (
    Scenario,
    SimulationResult,
    closed_loop_error_field,
    controller_error_field,
    observer_error_field,
    separation_matrix,
    simulate,
)
from invtrack.controller import ControllerGains, ctrl_loop_matrix, relative_pose
from invtrack.errors import DegenerateReferenceError, DivergenceError, GeometryError
from invtrack.numerics import (
    eigenvalues,
    generated_run,
    grid,
    linearize_error_field,
    once_per_time,
    rk4_run,
    spectrum_match_distance,
    time_invariance_probe,
)
from invtrack.observer import ObserverGains, obs_error_matrix, observer_field
from invtrack.robot import LandmarkSet, RobotInput, dynamics, measure_values
from invtrack.se2 import GroupElement, IDENTITY
from invtrack.trajectories import (
    IntegratedTrajectory,
    PermanentTrajectory,
    PiecewiseTrajectory,
    Segment,
)
from oracles import (
    bits,
    boxed_feedback,
    cap_boundary_estimate,
    composed_controller_error_field,
    composed_error_field,
    composed_observer_error_field,
    integrate,
    jacobian_fd_oracle,
    outcome,
    relative_rate,
    transform_landmarks,
)
from strategies import HEADINGS, floats, landmark_sets, references, signed

KG = ControllerGains(1.0, 1.0, 1.0)
OG = ObserverGains(1.0, 1.0, 1.0)
STANDARD = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))


def standard_scenario(**overrides):
    kwargs = dict(
        trajectory=PermanentTrajectory(1.0, 0.5),
        landmarks=STANDARD,
        controller_gains=KG,
        observer_gains=OG,
        initial_pose=IDENTITY,
        initial_estimate=IDENTITY,
        t_end=30.0,
        dt=1e-3,
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestScenarioValidation:
    def test_rejects_vanishing_reference_speed(self):
        with pytest.raises(ValueError):
            standard_scenario(
                trajectory=IntegratedTrajectory(
                    lambda t: RobotInput(0.0, 0.3), IDENTITY
                ),
                t_end=10.0,
            )

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            standard_scenario(dt=0.0)

    @pytest.mark.parametrize("trajectory, times", [
        (PermanentTrajectory(1.0, 0.5), [0.0]),
        (PiecewiseTrajectory((Segment(1.0, 0.5, 10.0), Segment(2.0, -0.5, 5.0))),
         closed_loop._input_grid(30.0)),
        (IntegratedTrajectory(lambda t: RobotInput(1.0, 0.5 + 0.3 * math.sin(t)), IDENTITY),
         closed_loop._input_grid(30.0)),
    ], ids=["permanent", "piecewise", "integrated"])
    def test_samples_the_input_once_per_time(self, monkeypatch, trajectory, times):
        # A permanent reference's one constant input is looked up and checked
        # once; any other reference's at each of the 257 grid times.
        kind = type(trajectory)
        original = kind.input
        calls = []

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(kind, "input", counting)
        sc = standard_scenario(trajectory=trajectory)
        assert calls == times
        assert sc.grid_inputs == tuple(original(trajectory, t) for t in times)

    def test_vanishing_constant_input_is_named_at_zero(self):
        with pytest.raises(ValueError, match=r"^reference input u vanishes near t=0$"):
            standard_scenario(trajectory=PermanentTrajectory(1e-13, 0.5))


class TestSimulate:
    def test_exact_start_stays_exact(self):
        sc = standard_scenario(t_end=2.0)
        res = simulate(sc)
        assert np.max(np.abs(res.tracking_errors)) < 1e-9
        assert np.max(np.abs(res.estimation_errors)) < 1e-9

    def test_perturbed_start_converges(self):
        start = se2.compose(IDENTITY, GroupElement(0.05, -0.05, 0.05))
        est = se2.compose(start, GroupElement(-0.04, 0.03, -0.02))
        sc = standard_scenario(initial_pose=start, initial_estimate=est, t_end=20.0)
        res = simulate(sc)
        assert np.linalg.norm(res.tracking_errors[-1]) < 1e-3
        assert np.linalg.norm(res.estimation_errors[-1]) < 1e-3

    def test_grid_and_shapes(self):
        sc = standard_scenario(t_end=0.5, dt=0.1)
        res = simulate(sc)
        assert res.times[0] == 0.0 and res.times[-1] == 0.5
        assert len(res.times) == 6
        for series in (res.poses, res.estimates, res.references,
                       res.tracking_errors, res.estimation_errors):
            assert series.shape == (6, 3)
        assert res.inputs.shape == (6, 2)

    def test_partial_final_step(self):
        sc = standard_scenario(t_end=0.25, dt=0.1)
        res = simulate(sc)
        assert res.times[-1] == 0.25
        assert abs(res.times[-1] - res.times[-2] - 0.05) < 1e-12

    def test_equivariance_of_runs(self):
        # Left-translating everything translates the pose series and leaves
        # both error series unchanged.
        g0 = GroupElement(3.0, -2.0, 1.1)
        start = GroupElement(0.1, 0.05, -0.03)
        est = GroupElement(0.12, 0.02, 0.0)
        base = simulate(standard_scenario(
            initial_pose=start, initial_estimate=est, t_end=1.0, dt=1e-2))
        moved = simulate(standard_scenario(
            trajectory=PermanentTrajectory(1.0, 0.5, g0),
            landmarks=transform_landmarks(g0, STANDARD),
            initial_pose=se2.compose(g0, start),
            initial_estimate=se2.compose(g0, est),
            t_end=1.0,
            dt=1e-2,
        ))
        assert np.max(np.abs(base.tracking_errors - moved.tracking_errors)) < 1e-9
        assert np.max(np.abs(base.estimation_errors - moved.estimation_errors)) < 1e-9
        # Pose series transported by g0.
        c, s = math.cos(g0.theta), math.sin(g0.theta)
        moved_back_x = (
            c * (moved.poses[:, 0] - g0.x) + s * (moved.poses[:, 1] - g0.y)
        )
        assert np.max(np.abs(moved_back_x - base.poses[:, 0])) < 1e-9

    def test_divergence_reported_with_time(self):
        # Huge gains and a far-off estimate fling the estimate away until the
        # body-frame Gram matrix crosses the condition cap at t = 0.25: this
        # raises a timestamped GeometryError, which the ValueError clause
        # accepts.  test_divergence_box_reports_time pins the 1e6 box itself.
        sc = standard_scenario(
            initial_pose=GroupElement(0.5, 0.5, 0.5),
            initial_estimate=GroupElement(30.0, 30.0, 2.0),
            controller_gains=ControllerGains(1e6, 1e6, 1e6),
            observer_gains=ObserverGains(1e6, 1e6, 1e6),
            t_end=5.0,
            dt=0.5,
        )
        with pytest.raises((DivergenceError, ValueError)):
            simulate(sc)

    def test_geometry_error_names_the_time(self):
        # Driving straight away from a unit-sized landmark triangle, the
        # body-frame Gram matrix crosses the 1e8 condition cap near t = 0.86.
        start = GroupElement(3000.0, 0.0, 0.0)
        sc = standard_scenario(
            trajectory=PermanentTrajectory(2000.0, 0.0, start),
            landmarks=LandmarkSet(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))),
            initial_pose=start,
            initial_estimate=start,
            t_end=10.0,
            dt=0.01,
        )
        with pytest.raises(GeometryError, match=r"\(at t=0\.8[56]\)"):
            simulate(sc)

    def test_zero_speed_leg_names_the_time(self):
        # A stop shorter than t_end/256 slips between the Scenario's input
        # checks; the feedback's u_r = 0 error then keeps its class and gains
        # the time, and is not reported as a divergence.
        traj = PiecewiseTrajectory(
            (Segment(1.0, 0.0, 0.05), Segment(0.0, 0.0, 0.002), Segment(1.0, 0.0, 10.0))
        )
        sc = standard_scenario(trajectory=traj, t_end=2.0, dt=1e-3)
        with pytest.raises(DegenerateReferenceError, match=r"u_r != 0 \(at t=0\.05\)$"):
            simulate(sc)

    def test_divergence_box_reports_time(self):
        # A 1e5 m/s reference seen by landmarks millions of metres away: the
        # state stays finite but leaves the 1e6 box after the third step.
        sc = standard_scenario(
            trajectory=PermanentTrajectory(1e5, 0.0),
            landmarks=LandmarkSet(((-1e6, -1e6), (3e6, 0.0), (0.0, 3e6))),
            dt=0.01,
        )
        with pytest.raises(DivergenceError, match=r"^closed-loop state diverged at t=0\.03$") as info:
            simulate(sc)
        assert info.value.time == 0.03


def composed_rate(traj, lm, kg, og):
    """Oracle: the closed-loop right-hand side composed from the public
    layers, each building and validating its own boxed values."""

    def rate(t, w):
        g = GroupElement(w[0], w[1], w[2])
        gh = GroupElement(w[3], w[4], w[5])
        g_ref = traj.pose(t)
        ref_inp = traj.input(t)
        inp = boxed_feedback(relative_pose(*g_ref, *gh), ref_inp, kg)
        y = measure_values(g.x, g.y, lm.coords)
        dg = dynamics(g, inp)
        try:
            dgh = observer_field(gh, inp, lm, y, og)
        except GeometryError as err:
            raise GeometryError(f"{err} (at t={t:.6g})") from err
        return (dg[0], dg[1], dg[2], dgh[0], dgh[1], dgh[2])

    return rate


def composed_simulate(sc):
    """Oracle: simulate() assembled from composed_rate and the boxed layers
    (no divergence box; the runs it is compared on stay bounded)."""
    traj = sc.trajectory
    kg = sc.controller_gains
    rate = composed_rate(traj, sc.landmarks, kg, sc.observer_gains)
    w0 = tuple(sc.initial_pose) + tuple(sc.initial_estimate)
    times, states = integrate(rate, w0, 0.0, sc.t_end, sc.dt)
    refs, etas, epss, inputs = [], [], [], []
    for t, w in zip(times, states):
        g = GroupElement(w[0], w[1], w[2])
        gh = GroupElement(w[3], w[4], w[5])
        g_ref = traj.pose(t)
        ref_inp = traj.input(t)
        refs.append(g_ref)
        etas.append(relative_pose(*g_ref, *g))
        epss.append(relative_pose(*g, *gh))
        inputs.append(boxed_feedback(relative_pose(*g_ref, *gh), ref_inp, kg))
    w_rows = np.asarray(states)
    return SimulationResult(
        np.asarray(times), w_rows[:, 0:3], w_rows[:, 3:6], np.asarray(refs),
        np.asarray(etas), np.asarray(epss), np.asarray(inputs),
    )


GAINS = st.tuples(floats(0.2, 5.0), floats(0.2, 5.0), floats(0.2, 5.0))
# The fd linearization's noise floor, relative to max|A|.  Over 3000 random
# draws of test_linearization_is_the_separation_matrix, its gap to
# separation_matrix read at most 5.8e-9 on every kind of reference, and
# time_invariance_probe on a permanent one at most 7.2e-9.
FD_FLOOR = 5e-8


def _called_pair(traj, lm, kg, og):
    """_loop_pair's rate, row and after as written, with their core calls:
    the rate is the one the fd probes evaluate."""
    return closed_loop._loop_pair(once_per_time(traj.sample), lm.coords, kg, og)


def _fresh_process(code):
    """The stdout of code run in a fresh interpreter on this package."""
    src = os.path.dirname(os.path.dirname(closed_loop.__file__))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src}).stdout


class _NanInput(PermanentTrajectory):
    def sample(self, t):
        return (*super().sample(t)[:3], math.nan, 0.5)


_ORIGIN = (0.0,) * 6
# Each way the loop rate fails: (traj, landmarks, kg, og, t, w) and the
# class and message it raises.
ERROR_PATHS = {
    "ill-conditioned-gram": (
        PermanentTrajectory(1.0, 0.5),
        LandmarkSet(((5000.0, 0.0), (5001.0, 0.0), (5000.0, 1.0))), KG, OG, 0.25, _ORIGIN,
        (GeometryError, "body-frame landmark Gram matrix is ill-conditioned: condition "
                        "number 1.125e+08 exceeds 1.000e+08 (at t=0.25)"),
    ),
    "u_r-zero": (
        PiecewiseTrajectory((Segment(0.0, 0.0, 1.0),)), STANDARD, KG, OG, 0.5, _ORIGIN,
        (DegenerateReferenceError, "feedback requires u_r != 0 (at t=0.5)"),
    ),
    "nan-reference-input": (
        _NanInput(1.0, 0.5), STANDARD, KG, OG, 0.25, _ORIGIN,
        (ValueError, "reference input must be finite, got (nan, 0.5)"),
    ),
    "input-overflow": (
        PermanentTrajectory(1.0, 0.5), STANDARD, ControllerGains(1e308, 1.0, 1.0), OG, 0.0,
        (10.0, 0.0, 0.0, 10.0, 0.0, 0.0),
        (DivergenceError, "closed-loop input diverged at t=0"),
    ),
    "inf-stage-heading": (
        PermanentTrajectory(1.0, 0.5), STANDARD, KG, OG, 0.25, (0.0,) * 5 + (math.inf,),
        (DivergenceError, "closed-loop state diverged at t=0.25"),
    ),
    "coordinate-past-1.3e154": (
        PermanentTrajectory(1.0, 0.5), STANDARD, KG, OG, 0.25, (2e154,) + (0.0,) * 5,
        (DivergenceError, "closed-loop state diverged at t=0.25"),
    ),
}


class TestFusedRate:
    @given(
        traj=references(),
        lm=landmark_sets(),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        pose=st.tuples(floats(-8.0, 8.0), floats(-8.0, 8.0), HEADINGS),
        est=st.tuples(floats(-8.0, 8.0), floats(-8.0, 8.0), HEADINGS),
        t=floats(0.0, 3.0),
        h=floats(1e-3, 0.1),
    )
    def test_matches_composed_rate(self, traj, lm, kg, og, pose, est, t, h):
        # The stage times of one RK4 step, so the memoized reference lookup
        # is hit and missed in the order simulate() meets it.
        fused, _, _ = _called_pair(traj, lm, kg, og)
        oracle = composed_rate(traj, lm, kg, og)
        w = pose + est
        for s in (t, t + 0.5 * h, t + 0.5 * h, t + h):
            try:
                want = oracle(s, w)
            except GeometryError as err:
                with pytest.raises(GeometryError) as got:
                    fused(s, w)
                assert str(got.value) == str(err)
                continue
            # Same arithmetic in the same order: equal, not merely close.
            assert bits(fused(s, w)) == bits(want)

    def test_a_wrapper_bound_to_a_core_is_never_called(self, monkeypatch):
        # A functools.wraps wrapper bound to a core's name before generation
        # (as a tracer binds one) is unwrapped: the run never calls it and
        # its code is the same.  _at_time, which names the time of a
        # GeometryError, is still called, not inlined: the run's first stage
        # at t = 0.25 meets the Gram cap.
        def bound_run():
            generated_run.cache_clear()
            reference = once_per_time(PermanentTrajectory(1.0, 0.5).sample)
            return generated_run(closed_loop._loop_pair, len(FAR), 6)(reference, FAR.coords, KG, OG)

        calls = []

        def wrapped(original):
            @functools.wraps(original)
            def wrapper(*args):
                calls.append(original.__name__)
                return original(*args)
            return wrapper

        plain = bound_run()
        monkeypatch.setattr(closed_loop, "relative_pose", wrapped(closed_loop.relative_pose))
        monkeypatch.setattr(observer, "_check_condition", wrapped(observer._check_condition))
        run = bound_run()
        generated_run.cache_clear()
        assert run.__code__.co_code == plain.__code__.co_code
        assert "_at_time" in run.__code__.co_names
        with pytest.raises(GeometryError, match=r"\(at t=0\.25\)$"):
            run(_ORIGIN, [0.25, 0.26])
        assert calls == []

    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_error_paths_match_the_oracle(self, case):
        # Each way the rate fails raises the class and message ERROR_PATHS
        # names, on the rate as written, which the fd probes evaluate;
        # test_error_paths_through_the_run holds simulate's run to it.
        traj, lm, kg, og, t, w, want = ERROR_PATHS[case]
        rate, _, _ = _called_pair(traj, lm, kg, og)
        assert outcome(rate, t, w)[:2] == want

    def test_not_generated_at_import_or_parse(self):
        # setup_s covers importing the CLI and parsing a scenario: neither
        # may pay for a generated closed-loop run or EKF rate.
        code = (
            "import sys\n"
            "import invtrack.cli\n"
            "from invtrack import numerics\n"
            "from invtrack.scenario import parse_scenario\n"
            "parse_scenario({})\n"
            "print(numerics.generated_run.cache_info().currsize, 'invtrack.inline' in sys.modules)\n"
        )
        assert _fresh_process(code) == "0 False\n"

    def test_only_simulate_imports_the_inliner(self, tmp_path):
        # separation and invariance linearize the rate as written, so a
        # one-shot run of either never compiles the inliner; simulate does.
        code = (
            "import sys\n"
            "from invtrack import cli\n"
            f"out = {str(tmp_path)!r}\n"
            "for command in ('separation', 'invariance'):\n"
            "    assert cli.main([command, '--out', out]) == 0\n"
            "print('invtrack.inline' in sys.modules)\n"
            "assert cli.main(['simulate', '--t-end', '0.01', '--out', out]) == 0\n"
            "print('invtrack.inline' in sys.modules)\n"
        )
        want = "separation: pass\ninvariance: pass\nFalse\nsimulate: pass\nTrue\n"
        assert _fresh_process(code) == want

    def test_non_finite_stage_state_is_a_divergence(self):
        # An RK stage can carry a heading of inf before the run checks the
        # step; the rate names the stage time instead of a math domain error.
        rate, _, _ = _called_pair(PermanentTrajectory(1.0, 0.5), STANDARD, KG, OG)
        with pytest.raises(DivergenceError) as info:
            rate(0.25, (0.0, 0.0, 0.0, 0.0, 0.0, math.inf))
        assert str(info.value) == "closed-loop state diverged at t=0.25"
        assert info.value.time == 0.25
        assert isinstance(info.value.__cause__, ValueError)

    def test_value_error_on_a_finite_state_is_kept(self):
        rate, _, _ = _called_pair(_NanInput(1.0, 0.5), STANDARD, KG, OG)
        with pytest.raises(ValueError, match="reference input must be finite"):
            rate(0.25, (0.0,) * 6)

    def test_overflowing_input_of_a_finite_state_is_a_divergence(self):
        # The state and the reference are finite, but a huge gain overflows
        # the feedback's (u, v) on an estimate 10 m ahead of the reference
        # (which starts at the origin), and the observer rejects that input.
        kg = ControllerGains(1e308, 1.0, 1.0)
        rate, _, _ = _called_pair(PermanentTrajectory(1.0, 0.5), STANDARD, kg, OG)
        with pytest.raises(DivergenceError) as info:
            rate(0.0, (10.0, 0.0, 0.0, 10.0, 0.0, 0.0))
        assert str(info.value) == "closed-loop input diverged at t=0"
        assert info.value.time == 0.0
        assert isinstance(info.value.__cause__, ValueError)

    def test_reference_lookup_once_per_stage_time(self):
        calls = []

        class Counting(PermanentTrajectory):
            def sample(self, t):
                calls.append(t)
                return super().sample(t)

        # dt = 1/8 keeps every stage time exact, so each step's end stage
        # also serves the sample row and the next step's first stage: one
        # lookup at t = 0, then two per step (midpoint, end).
        res = simulate(standard_scenario(trajectory=Counting(1.0, 0.5), t_end=1.0, dt=0.125))
        steps = len(res.times) - 1
        assert len(calls) == 1 + 2 * steps
        assert sorted(set(calls)) == sorted(calls)


def _integrated_run(traj, lm, kg, og, w0, t0, t_end, dt):
    """Oracle: simulate's run as the integrate oracle of _loop_pair's rate
    with its core calls, the 1e6 box after every step and the row at every
    grid time, the row at a time before the step from it; the flat list of
    (t, *w, *row(t, w)[7:]) at each grid time, t and w integrate's."""
    rate, row, _ = _called_pair(traj, lm, kg, og)
    rows = [row(t0, w0)]

    def after_step(t, w):
        for c in w:
            if not abs(c) <= closed_loop.DIVERGENCE_LIMIT:
                raise DivergenceError(t, "closed-loop state diverged")
        rows.append(row(t, w))
        return w

    times, states = integrate(rate, w0, t0, t_end, dt, after_step, state="closed-loop state")
    return [v for t, w, r in zip(times, states, rows) for v in (t, *w, *r[7:])]


def _written_run(traj, lm, kg, og, w0, t0, t_end, dt):
    """rk4_run on _loop_pair as written, with its calls of the rate, row,
    after and rk4_step."""
    run = rk4_run(closed_loop._loop_pair, once_per_time(traj.sample), lm.coords, kg, og)
    return run(w0, grid(t0, t_end, dt))


def _generated_run(traj, lm, kg, og, w0, t0, t_end, dt):
    """The run simulate calls, generated for the landmark count."""
    run = generated_run(closed_loop._loop_pair, len(lm), 6)(
        once_per_time(traj.sample), lm.coords, kg, og
    )
    return run(w0, grid(t0, t_end, dt))


def _run_outcome(run, traj, *args):
    """run on a fresh copy of traj (an integrated reference keeps the knots
    it has integrated) as the bits of its 18 floats per grid time, or as the
    class, message, time and cause class of what it raised."""
    try:
        buf = run(copy.deepcopy(traj), *args)
    except (ValueError, ArithmeticError) as err:
        return (type(err), str(err), getattr(err, "time", None), type(err.__cause__))
    return ("ok", bits(buf))


class TestGeneratedRun:
    # simulate runs rk4_run on _loop_pair as generated code: the rate, the
    # row, the box, rk4_step and the cores inlined, with what stages at one
    # time share computed once.  rk4_run as written must be the integrate
    # oracle plus the row, and the generated run rk4_run as written, bit
    # for bit.
    @pytest.mark.parametrize("p", [*range(3, 13), 33, 40])
    @given(
        data=st.data(),
        traj=references(),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        pose=st.tuples(floats(-8.0, 8.0), floats(-8.0, 8.0), HEADINGS),
        est=st.tuples(floats(-8.0, 8.0), floats(-8.0, 8.0), HEADINGS),
        dt=floats(0.005, 0.05),
        steps=st.integers(1, 10),
        part=floats(0.05, 0.95),
    )
    def test_run_is_integrate_and_row_bit_for_bit(self, p, data, traj, kg, og, pose, est, dt, steps, part):
        # t_end is not a multiple of dt, so the last step is short.
        lm = data.draw(landmark_sets(p, p))
        # Every call of the law, its cores and the step is inlined.
        run = generated_run(closed_loop._loop_pair, p, 6)(
            once_per_time(traj.sample), lm.coords, kg, og
        )
        called = {
            "_loop_pair", "rk4_run", "rk4_step", "relative_pose", "normalize_angle", "feedback_values",
            "measure_values", "observer_rate", "gram_condition", "_check_condition",
            "dynamics_values",
        }
        assert not called & set(run.__code__.co_names)
        args = (lm, kg, og, pose + est, 0.0, (steps - 1 + part) * dt, dt)
        written = _run_outcome(_written_run, traj, *args)
        assert written == _run_outcome(_integrated_run, traj, *args)
        assert _run_outcome(_generated_run, traj, *args) == written

    @pytest.mark.parametrize("traj", [
        PermanentTrajectory(-1.2, 0.4, GroupElement(1.0, -2.0, math.pi - 1e-7)),
        PiecewiseTrajectory((Segment(-1.0, 0.3, 0.2), Segment(-0.7, -0.5, 1.0))),
        IntegratedTrajectory(lambda t: RobotInput(-1.1, 0.3 + 0.2 * math.sin(1.3 * t))),
    ], ids=["permanent", "piecewise", "wobble"])
    def test_each_kind_in_reverse_with_a_short_last_step(self, traj):
        # Every kind of reference, driven backwards, on 0.037 s steps that
        # end 0.5 s with a short one: the run equals its oracle.
        args = (STANDARD, KG, OG, (0.1, -0.1, 0.05, 0.05, 0.0, -0.05), 0.0, 0.5, 0.037)
        want = _run_outcome(_integrated_run, traj, *args)
        assert want[0] == "ok" and len(want[1]) == 15 * 18
        assert _run_outcome(_generated_run, traj, *args) == want

    @pytest.mark.parametrize("case", sorted(ERROR_PATHS))
    def test_error_paths_through_the_run(self, case):
        # Each way the rate fails, met by the run that simulate calls at the
        # case's time and state, raises what integrate and the row raised,
        # with its time and cause: the row at that time runs first, as in
        # simulate, so an input fault surfaces there without a time suffix.
        traj, lm, kg, og, t, w, _ = ERROR_PATHS[case]
        args = (lm, kg, og, w, t, t + 0.02, 0.01)
        got = _run_outcome(_generated_run, traj, *args)
        assert got == _run_outcome(_integrated_run, traj, *args)
        assert got[0] != "ok"

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_gram_near_the_cap_through_the_run(self, side):
        # The estimates of test_observer's test_default_cap_boundary, their
        # Gram condition number 1e-3 relative below (side -1) or above
        # (side +1) MAX_CONDITION, met by the run's inlined _check_condition
        # over one short step from the true pose at the estimate: the run
        # gives integrate's outcome, which above the cap is the
        # GeometryError at the step's start.
        traj = PermanentTrajectory(1.0, 0.5)
        w = (*cap_boundary_estimate(side, STANDARD),) * 2
        args = (STANDARD, KG, OG, w, 0.25, 0.25 + 1e-4, 1e-4)
        got = _run_outcome(_generated_run, traj, *args)
        assert got == _run_outcome(_integrated_run, traj, *args)
        if side < 0.0:
            assert got[0] == "ok" and len(got[1]) == 2 * 18
        else:
            assert got[:2] == (GeometryError, "body-frame landmark Gram matrix is ill-conditioned: "
                               "condition number 1.001e+08 exceeds 1.000e+08 (at t=0.25)")

    @pytest.mark.parametrize("test", [
        "test_divergence_reported_with_time",
        "test_geometry_error_names_the_time",
        "test_zero_speed_leg_names_the_time",
        "test_divergence_box_reports_time",
    ])
    def test_simulate_error_scenes_keep_their_error(self, test, monkeypatch):
        # TestSimulate's four error scenes, run through simulate and through
        # the integrate oracle, raise the same class, message, time and cause.
        # Each scene is taken from its own test, which runs as it stands.
        scenes = []

        def recorded(sc):
            scenes.append(sc)
            return closed_loop.simulate(sc)

        monkeypatch.setattr(sys.modules[__name__], "simulate", recorded)
        getattr(TestSimulate(), test)()
        (sc,) = scenes
        w0 = tuple(map(float, sc.initial_pose + sc.initial_estimate))
        args = (sc.landmarks, sc.controller_gains, sc.observer_gains, w0, 0.0, sc.t_end, sc.dt)
        want = _run_outcome(_integrated_run, sc.trajectory, *args)
        try:
            closed_loop.simulate(sc)
        except (ValueError, ArithmeticError) as err:
            got = (type(err), str(err), getattr(err, "time", None), type(err.__cause__))
        assert want[0] != "ok" and got == want

    def test_generated_once_per_landmark_count(self):
        generated_run.cache_clear()
        square = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0)))
        for lm in (STANDARD, square, STANDARD, square):
            simulate(standard_scenario(landmarks=lm, t_end=0.1, dt=0.05))
        info = generated_run.cache_info()
        assert (info.misses, info.hits) == (2, 2)  # p = 3 and p = 4, each generated once


# simulate's bytes per step: the run's 18 floats (144 bytes) in an array
# that grows by a sixteenth, and the grid's 32 (a list entry and a float).
# Measured with tracemalloc on 100 to 400 steps: 186 bytes per step plus
# at most 1.5 KB; at 20 000 steps, 3 719 744 bytes (186.0 per step).
BYTES_PER_STEP = 192
FIXED_BYTES = 4096


class TestSimulateMemory:
    def test_peak_bytes_per_step(self):
        # tracemalloc, not RSS: the same count on every run.  It records a
        # traceback for each float the generated run makes (about 10 ms a
        # step), so this run is 200 steps long; the first simulate, outside
        # the trace, generates the run.
        sc = standard_scenario(t_end=200 / 1024, dt=1 / 1024,
                               initial_estimate=GroupElement(0.1, -0.1, 0.05))
        simulate(sc)
        tracemalloc.start()
        try:
            res = simulate(sc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.times) == 201
        assert peak <= BYTES_PER_STEP * 200 + FIXED_BYTES

    def test_every_series_is_a_view_of_one_buffer(self):
        res = simulate(standard_scenario(t_end=20.0))
        assert len(res.times) == 20_001
        buf = res.times
        while isinstance(buf, np.ndarray):
            buf = buf.base
        buf = getattr(buf, "obj", buf)  # np.frombuffer's base may be a memoryview
        assert isinstance(buf, array)
        # The seven series tile the buffer: each is a view into it, and
        # together they hold its 18 floats per step once.
        whole = np.frombuffer(buf)
        fields = [getattr(res, name) for name in SimulationResult.__dataclass_fields__]
        for field in fields:
            assert np.shares_memory(field, whole)
        assert sum(field.size for field in fields) == whole.size == 18 * 20_001
        assert sys.getsizeof(buf) <= 144 * 20_001 * 17 // 16 + FIXED_BYTES


ERRORS = st.tuples(floats(-0.5, 0.5), floats(-0.5, 0.5), floats(-0.5, 0.5))
# Error headings also within 1e-6 of the +-pi wrap.
WRAPPED_ERRORS = st.tuples(
    floats(-0.5, 0.5), floats(-0.5, 0.5), st.one_of(floats(-0.5, 0.5), HEADINGS)
)
# A unit landmark triangle 5 km from every drawn reference: the Gram cap trips.
FAR = LandmarkSet(((5000.0, 0.0), (5001.0, 0.0), (5000.0, 1.0)))


class TestFusedErrorField:
    @given(
        traj=references(),
        lm=landmark_sets(),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        eta=ERRORS,
        eps=ERRORS,
        t=floats(0.0, 3.0),
        h=floats(1e-3, 0.1),
    )
    def test_matches_composed_error_field(self, traj, lm, kg, og, eta, eps, t, h):
        # closed_loop_error_field runs _loop_pair's rate as written, the law
        # that simulate's generated run inlines; the layer-by-layer
        # composition is its oracle.  Probed at the stage times of one RK4
        # step, so the shared reference memo is hit and missed as in a run.
        # The state comes as a numpy array and, as linearize_error_field
        # passes it, as a tuple of floats.
        fused = closed_loop_error_field(traj, lm, kg, og).rate
        oracle = composed_error_field(traj, lm, kg, og).rate
        for w in (np.array(eta + eps), tuple(eta + eps)):
            for s in (t, t + 0.5 * h, t + 0.5 * h, t + h):
                try:
                    want = oracle(s, w)
                except GeometryError as err:
                    with pytest.raises(GeometryError) as got:
                        fused(s, w)
                    assert str(got.value) == f"{err} (at t={s:.6g})"
                    continue
                # Same arithmetic in the same order: equal, not merely close.
                assert np.array_equal(fused(s, w), want)

    @given(
        traj=references(),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        eta=WRAPPED_ERRORS,
        t=floats(0.0, 3.0),
        h=floats(1e-3, 0.1),
    )
    def test_controller_field_matches_composed(self, traj, kg, eta, t, h):
        # controller_error_field runs on the bare-float cores; the boxed
        # composition is its oracle, probed at one RK4 step's stage times.
        core = controller_error_field(traj, kg).rate
        oracle = composed_controller_error_field(traj, kg).rate
        for w in (np.array(eta), tuple(eta)):
            for s in (t, t + 0.5 * h, t + 0.5 * h, t + h):
                assert np.array_equal(core(s, w), oracle(s, w))

    @given(
        traj=references(),
        lm=st.one_of(landmark_sets(), st.just(FAR)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        eps=WRAPPED_ERRORS,
        t=floats(0.0, 3.0),
        h=floats(1e-3, 0.1),
    )
    def test_observer_field_matches_composed(self, traj, lm, og, eps, t, h):
        # observer_error_field runs on the bare-float cores; the boxed
        # composition is its oracle, down to the timestamped cap message.
        core = observer_error_field(traj, lm, og).rate
        oracle = composed_observer_error_field(traj, lm, og).rate
        for w in (np.array(eps), tuple(eps)):
            for s in (t, t + 0.5 * h, t + 0.5 * h, t + h):
                try:
                    want = oracle(s, w)
                except GeometryError as err:
                    with pytest.raises(GeometryError) as got:
                        core(s, w)
                    assert str(got.value) == str(err)
                    continue
                assert np.array_equal(core(s, w), want)

    @given(
        traj=references(),
        lm=st.one_of(landmark_sets(), st.just(FAR)),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        t=floats(0.0, 3.0),
    )
    def test_jacobian_matches_numpy_body(self, traj, lm, kg, og, t):
        # linearize_error_field on tuples gives the numpy fd body's array at
        # the origin bit for bit and in the same C order, on all three error
        # fields, and raises the same timestamped GeometryError.
        for field in (
            controller_error_field(traj, kg),
            observer_error_field(traj, lm, og),
            closed_loop_error_field(traj, lm, kg, og),
        ):
            try:
                want = jacobian_fd_oracle(lambda w: field.rate(t, w), np.zeros(field.dim))
            except GeometryError as err:
                with pytest.raises(GeometryError) as got:
                    linearize_error_field(field, [t])
                assert str(got.value) == str(err)
                assert str(err).endswith(f" (at t={t:.6g})")
                continue
            (got,) = linearize_error_field(field, [t])
            assert got.flags.c_contiguous and got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_geometry_error_is_timestamped(self):
        # 5 km from a unit landmark triangle the Gram condition number is
        # past the cap; the fused field names the time, as simulate() does.
        traj = PermanentTrajectory(1.0, 0.0, GroupElement(5000.0, 0.0, 0.0))
        lm = LandmarkSet(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(GeometryError) as want:
            composed_error_field(traj, lm, KG, OG).rate(0.25, np.zeros(6))
        with pytest.raises(GeometryError) as got:
            closed_loop_error_field(traj, lm, KG, OG).rate(0.25, np.zeros(6))
        assert str(got.value) == f"{want.value} (at t=0.25)"

    def test_observer_field_geometry_error_is_timestamped(self):
        # The observer's own error field, which invariance and ekf-compare
        # linearize first, names the time in the same words.
        traj = PermanentTrajectory(1.0, 0.0, GroupElement(5000.0, 0.0, 0.0))
        lm = LandmarkSet(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        with pytest.raises(GeometryError) as want:
            composed_error_field(traj, lm, KG, OG).rate(0.25, np.zeros(6))
        with pytest.raises(GeometryError) as got:
            observer_error_field(traj, lm, OG).rate(0.25, np.zeros(3))
        assert str(got.value) == f"{want.value} (at t=0.25)"

    @staticmethod
    def count_lookups(kind, args, monkeypatch):
        calls, ranges = [], []

        class Counting(kind):
            def sample(self, t):
                calls.append(t)
                return super().sample(t)

        def counting_ranges(x, y, coords):
            ranges.append((x, y))
            return measure_values(x, y, coords)

        # Every fd evaluation at a probe time (twelve in the closed loop, six
        # in the controller and observer fields) shares one trajectory query,
        # and a repeated probe time does not query it again.
        times = [0.0, 1.0, 1.0, 2.5]
        traj = Counting(*args)
        for field in (
            closed_loop_error_field(traj, STANDARD, KG, OG),
            controller_error_field(traj, KG),
            observer_error_field(traj, STANDARD, OG),
        ):
            calls.clear()
            linearize_error_field(field, times)
            assert calls == [0.0, 1.0, 2.5]
        # The observer field reads the reference's own ranges once per time too.
        monkeypatch.setattr(closed_loop, "measure_values", counting_ranges)
        linearize_error_field(observer_error_field(kind(*args), STANDARD, OG), times)
        sample = kind(*args).sample
        assert ranges == [sample(t)[:2] for t in (0.0, 1.0, 2.5)]

    def test_one_reference_lookup_per_probe_time(self, monkeypatch):
        self.count_lookups(PermanentTrajectory, (1.0, 0.5), monkeypatch)

    def test_one_integrated_reference_lookup_per_probe_time(self, monkeypatch):
        self.count_lookups(IntegratedTrajectory, (lambda t: (1.0, 0.5 + 0.2 * math.sin(t)),), monkeypatch)


class TestSimulateRegimes:
    # Reverse driving (u_r < 0) and starts straddling the heading wrap at
    # +-pi: the fused run converges and equals the composed oracle exactly.
    @pytest.mark.parametrize(
        "traj, pose, est",
        [
            (PermanentTrajectory(-1.0, 0.5), GroupElement(0.1, -0.1, 0.1),
             GroupElement(-0.05, 0.1, 0.0)),
            (PermanentTrajectory(-1.2, 0.0, GroupElement(2.0, 1.0, -math.pi + 1e-9)),
             GroupElement(2.1, 0.9, math.pi - 0.05), GroupElement(1.9, 1.1, -math.pi + 0.08)),
            (PermanentTrajectory(1.0, 0.5, GroupElement(1.0, -2.0, math.pi)),
             GroupElement(1.05, -2.0, -math.pi + 0.05), GroupElement(1.0, -1.95, math.pi - 0.04)),
        ],
        ids=["reverse", "reverse-line-across-wrap", "forward-across-wrap"],
    )
    def test_converges_and_matches_composed(self, traj, pose, est):
        sc = standard_scenario(
            trajectory=traj,
            controller_gains=ControllerGains(2.0, 2.0, 2.0),
            observer_gains=ObserverGains(2.0, 2.0, 2.0),
            initial_pose=pose,
            initial_estimate=est,
            t_end=15.0,
            dt=0.01,
        )
        res = simulate(sc)
        # The wrapped heading errors start small although the raw headings
        # differ by nearly 2 pi.
        assert abs(res.tracking_errors[0, 2]) < 0.2
        assert abs(res.estimation_errors[0, 2]) < 0.2
        assert np.linalg.norm(res.tracking_errors[-1]) < 1e-4
        assert np.linalg.norm(res.estimation_errors[-1]) < 1e-4
        want = composed_simulate(sc)
        for name in SimulationResult.__dataclass_fields__:
            assert np.array_equal(getattr(res, name), getattr(want, name)), name


class TestErrorFields:
    def test_origin_is_equilibrium(self):
        traj = PermanentTrajectory(1.0, 0.5)
        for field in (
            controller_error_field(traj, KG),
            observer_error_field(traj, STANDARD, OG),
            closed_loop_error_field(traj, STANDARD, KG, OG),
        ):
            out = field.rate(0.7, np.zeros(field.dim))
            assert np.max(np.abs(out)) < 1e-12

    def test_probe_small_on_permanent(self):
        traj = PermanentTrajectory(1.0, 0.5)
        times = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert time_invariance_probe(controller_error_field(traj, KG), times) < 1e-6
        assert time_invariance_probe(observer_error_field(traj, STANDARD, OG), times) < 1e-6
        assert (
            time_invariance_probe(closed_loop_error_field(traj, STANDARD, KG, OG), times)
            < 1e-6
        )

    def test_probe_small_on_line(self):
        traj = PermanentTrajectory(1.0, 0.0)
        times = [0.0, 1.0, 2.5, 4.0]
        assert (
            time_invariance_probe(closed_loop_error_field(traj, STANDARD, KG, OG), times)
            < 1e-6
        )

    def test_probe_large_on_wobble(self):
        traj = IntegratedTrajectory(
            lambda t: RobotInput(1.0, 0.5 + 0.3 * math.sin(t)), IDENTITY
        )
        times = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        probe = time_invariance_probe(closed_loop_error_field(traj, STANDARD, KG, OG), times)
        assert probe > 1e-2

    @given(
        traj=references(),
        lm=landmark_sets(6),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        times=st.lists(floats(0.0, 5.0), min_size=2, max_size=4, unique=True),
    )
    def test_linearization_is_the_separation_matrix(self, traj, lm, kg, og, times):
        # The paper's claim, one level below a drift threshold: at every probe
        # time the closed loop's fd linearization is separation_matrix at
        # that time's reference input, whatever the reference.  So it is
        # frozen exactly when the input is constant, as on a permanent one.
        field = closed_loop_error_field(traj, lm, kg, og)
        try:
            jacobians = linearize_error_field(field, times)
        except GeometryError:
            assume(False)
        for t, jac in zip(times, jacobians):
            inp = traj.input(t)
            want = separation_matrix(inp.u, inp.v, kg, og)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(jac - want)) <= FD_FLOOR * scale
        if isinstance(traj, PermanentTrajectory):  # one input, so one scale
            assert time_invariance_probe(field, times) <= FD_FLOOR * scale

    @given(
        traj=references().filter(lambda r: not isinstance(r, PiecewiseTrajectory)),
        lm=landmark_sets(6),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
        times=st.lists(floats(0.0, 5.0), min_size=2, max_size=4, unique=True),
    )
    def test_spectrum_is_frozen_at_constant_speed(self, traj, lm, kg, og, times):
        # Along a permanent or wobbling reference u_r is constant and v_r
        # enters separation_matrix at two off-diagonal entries only, so the
        # spectrum, though not the matrix, is the same at every probe time:
        # the fd spectra match within the fd floor.  A spectrum whose exact
        # eigenvalues nearly coincide is skipped: an fd error d moves those
        # by about sqrt(d).  Over 1000 draws the rest matched within 8.4e-9
        # of max|A|.
        field = closed_loop_error_field(traj, lm, kg, og)
        try:
            jacobians = linearize_error_field(field, times)
        except GeometryError:
            assume(False)
        inp = traj.input(times[0])
        exact = separation_matrix(inp.u, inp.v, kg, og)
        scale = np.max(np.abs(exact))
        ev = np.linalg.eigvals(exact)
        assume(min(abs(a - b) for i, a in enumerate(ev) for b in ev[i + 1:]) >= 1e-3 * scale)
        spectra = [eigenvalues(jac) for jac in jacobians]
        for spectrum in spectra[1:]:
            assert spectrum_match_distance(spectra[0], spectrum) <= FD_FLOOR * scale

    def test_spectrum_moves_when_the_speed_does(self):
        # The negative control: a piecewise reference whose speed goes from
        # 1 to 2 m/s moves the spectrum far past the fd floor.
        traj = PiecewiseTrajectory((Segment(1.0, 0.3, 1.0), Segment(2.0, 0.3, 5.0)))
        field = closed_loop_error_field(traj, STANDARD, KG, OG)
        before, after = (eigenvalues(jac) for jac in linearize_error_field(field, [0.5, 2.0]))
        scale = np.max(np.abs(separation_matrix(2.0, 0.3, KG, OG)))
        assert spectrum_match_distance(before, after) > 0.1 * scale

    def test_probe_needs_two_times(self):
        traj = PermanentTrajectory(1.0, 0.5)
        with pytest.raises(ValueError, match="need at least two probe times"):
            time_invariance_probe(controller_error_field(traj, KG), [0.0])


class TestSeparation:
    def test_block_structure(self):
        m = separation_matrix(1.0, 0.5, KG, OG)
        assert m.shape == (6, 6)
        assert np.max(np.abs(m[3:, :3])) == 0.0
        assert np.max(np.abs(m[:3, :3] - ctrl_loop_matrix(1.0, 0.5, KG))) < 1e-12
        assert np.max(np.abs(m[3:, 3:] - obs_error_matrix(1.0, 0.5, OG))) < 1e-12

    def test_spectrum_is_union(self):
        m = separation_matrix(1.0, 0.5, KG, OG)
        union = eigenvalues(ctrl_loop_matrix(1.0, 0.5, KG)).union(
            eigenvalues(obs_error_matrix(1.0, 0.5, OG))
        )
        assert spectrum_match_distance(eigenvalues(m), union) < 1e-6

    def test_zero_reference_speed(self):
        assert np.all(separation_matrix(0.0, 0.5, KG, OG) == 0.0)

    @given(
        u=signed(1e-6, 1e6),
        v1=floats(-1e6, 1e6),
        v2=floats(-1e6, 1e6),
        kg=GAINS.map(lambda k: ControllerGains(*k)),
        og=GAINS.map(lambda k: ObserverGains(*k)),
    )
    def test_steering_enters_at_two_entries_only(self, u, v1, v2, kg, og):
        # v_r reaches the matrix only at (1, 0) and (0, 4), each -u v_r;
        # every other entry is the same bits for any two steering rates.  So
        # the spectrum depends on u alone.  It is not compared here: numpy's
        # eigvals on the two matrices differs in the last bits (up to
        # 6.8e-13 relative in 2000 draws).
        m1 = separation_matrix(u, v1, kg, og)
        m2 = separation_matrix(u, v2, kg, og)
        moved = np.zeros((6, 6), dtype=bool)
        moved[1, 0] = moved[0, 4] = True
        assert bits(m1[~moved]) == bits(m2[~moved])
        for m, v in ((m1, v1), (m2, v2)):
            assert bits(m[moved]) == bits([-u * v, -u * v])

    def test_matches_full_closed_loop_fd(self):
        traj = PermanentTrajectory(1.0, 0.5)
        field = closed_loop_error_field(traj, STANDARD, KG, OG)
        predicted = separation_matrix(1.0, 0.5, KG, OG)
        for jac in linearize_error_field(field, (0.0, math.pi / 2, math.pi)):
            assert np.max(np.abs(jac - predicted)) < 1e-4

    def test_cross_block_matches_fd_of_feedback(self):
        # Oracle: the coupling block is the Jacobian, at zero error, of the
        # tracking-error rate when only the estimate (hence the feedback) is
        # perturbed and the true pose sits on the reference.
        def fd_cross_block(u_r, v_r, kg):
            dref = dynamics(IDENTITY, RobotInput(u_r, v_r))

            def through_estimate(e):
                dg = dynamics(IDENTITY, boxed_feedback(e, RobotInput(u_r, v_r), kg))
                return np.asarray(relative_rate(IDENTITY, dref, IDENTITY, dg))

            return jacobian_fd_oracle(through_estimate, np.zeros(3))

        rng = np.random.default_rng(61)
        for _ in range(200):
            u_r = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1.0, 1.0]))
            v_r = float(rng.uniform(-2.0, 2.0))
            kg = ControllerGains(*rng.uniform(0.2, 4.0, 3))
            m = separation_matrix(u_r, v_r, kg, OG)
            assert np.max(np.abs(m[:3, 3:] - fd_cross_block(u_r, v_r, kg))) <= 1e-8

    def test_cross_block_nonzero(self):
        # Estimation error must actually leak into the tracking loop;
        # otherwise the triangular claim would be vacuous.
        m = separation_matrix(1.0, 0.5, KG, OG)
        assert np.max(np.abs(m[:3, 3:])) > 0.1
