import functools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invtrack import numerics
from invtrack.closed_loop import Scenario, _loop_pair, simulate
from invtrack.controller import ControllerGains
from invtrack.ekf import _riccati_rate, run_along_reference
from invtrack.errors import DivergenceError, GeometryError, ScenarioError
from invtrack.numerics import (
    ErrorField,
    Spectrum,
    eigenvalues,
    generated_run,
    linearize_error_field,
    max_pairwise_distance,
    once_per_time,
    probe_times,
    rk4_run,
    rk4_step,
    spectrum_match_distance,
    step_count,
    time_invariance_probe,
)

from invtrack.observer import ObserverGains
from invtrack.robot import LandmarkSet
from invtrack.se2 import IDENTITY
from invtrack.trajectories import PermanentTrajectory

from oracles import (
    bits,
    integrate,
    linearize_error_field_oracle,
    max_pairwise_distance_oracle,
    rk4_step_oracle,
)
from strategies import floats


class TestIntegrate:
    def test_zero_field_constant(self):
        _, states = integrate(lambda t, x: (0.0, 0.0), (3.0, -1.0), 0.0, 2.0, 0.1)
        assert states[-1] == (3.0, -1.0)

    def test_exponential_growth(self):
        _, states = integrate(lambda t, x: x, (1.0,), 0.0, 1.0, 1e-3)
        assert abs(states[-1][0] - math.e) < 1e-9

    def test_exponential_decay_relative(self):
        _, states = integrate(lambda t, x: (-x[0],), (1.0,), 0.0, 10.0, 1e-3)
        assert abs(states[-1][0] - math.exp(-10)) < 1e-9 * math.exp(-10)

    def test_final_time_hit_exactly(self):
        times, _ = integrate(lambda t, x: (0.0,), (0.0,), 0.0, 0.25, 0.1)
        assert times[-1] == 0.25

    def test_divergence_detected(self):
        with pytest.raises(DivergenceError) as err:
            integrate(lambda t, x: (x[0] * x[0],), (1.0,), 0.0, 3.0, 1e-2)
        assert err.value.time > 0.0

    def test_fourth_order_convergence(self):
        # Halving dt should shrink the global error by about 16x.
        def field(t, x):
            return (math.cos(t) * x[0],)

        exact = math.exp(math.sin(2.0))
        errs = []
        for dt in (0.05, 0.025):
            _, states = integrate(field, (1.0,), 0.0, 2.0, dt)
            errs.append(abs(states[-1][0] - exact))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_rk4_step_matches_taylor(self):
        out = rk4_step(lambda t, x: x, 0.0, (1.0,), 0.1)
        series = sum(0.1**k / math.factorial(k) for k in range(5))
        assert abs(out[0] - series) < 1e-12

    def test_grid_is_exact_and_closed_by_t1(self):
        # 0.03 does not divide 0.25 - 0.05: the grid is t0 + i*dt, then t1.
        times, states = integrate(lambda t, x: (1.0,), (0.0,), 0.05, 0.25, 0.03)
        assert times[:-1] == [0.05 + i * 0.03 for i in range(7)]
        assert times[-1] == 0.25
        assert len(states) == len(times)
        assert abs(states[-1][0] - 0.2) < 1e-15

    def test_after_step_runs_once_per_step_and_is_carried(self):
        seen = []

        def halve(t, x):
            seen.append(t)
            return (0.5 * x[0],)

        times, states = integrate(lambda t, x: (0.0,), (1.0,), 0.0, 1.0, 0.25, halve)
        assert seen == times[1:]
        assert states == [(0.5**i,) for i in range(5)]

    def test_divergence_reports_the_step_time(self):
        def blow_up(t, x):
            return (math.inf if t >= 0.6 else 0.0,)

        with pytest.raises(DivergenceError) as err:
            integrate(blow_up, (0.0,), 0.0, 1.0, 0.25)
        # The step from 0.5 is the first to see the infinite rate; it ends at 0.75.
        assert err.value.time == 0.75

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError):
            integrate(lambda t, x: x, (1.0,), 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate(lambda t, x: x, (1.0,), 1.0, 0.0, 0.1)

    def test_divergence_names_the_state(self):
        with pytest.raises(DivergenceError, match=r"^EKF state diverged at t=0\.25$"):
            integrate(lambda t, x: (math.inf,), (0.0,), 0.0, 1.0, 0.25, state="EKF state")
        with pytest.raises(DivergenceError, match=r"^state diverged at t=0\.25$"):
            integrate(lambda t, x: (math.inf,), (0.0,), 0.0, 1.0, 0.25)

    @pytest.mark.parametrize("dt", [5e-324, 1e-300, 1e-9])
    def test_too_many_steps_fail_before_the_first(self, dt):
        def never(t, x):
            raise AssertionError("no step may run")

        with pytest.raises(ScenarioError, match=r"^integration over \[0, 1\] at step "):
            integrate(never, (0.0,), 0.0, 1.0, dt)


class TestStepCount:
    def test_ceil_of_the_step_ratio_less_1e_9(self):
        assert step_count(0.0, 0.25, 0.1) == 3  # a short last step
        assert step_count(0.0, 0.3, 0.1) == 3  # 0.3 / 0.1 = 2.9999999999999996
        assert step_count(0.0, 1.0 + 1e-12, 0.1) == 10  # a sliver joins the last step
        assert step_count(2.0, 2.0, 0.1) == 0
        assert step_count(0.0, 1000.0, 1e-3) == numerics.MAX_STEPS

    @pytest.mark.parametrize(
        "t0, t1, dt, steps",
        [
            (0.0, 0.01, 5e-324, "inf"),
            (0.0, 1.0, 1e-300, "1e+300"),
            (0.0, 1e9, 1e-3, "1e+12"),
            (0.0, 4.7e12, 1e-3, "4.7e+15"),
            (0.0, math.nan, 1e-3, "nan"),
            (0.0, 1000.002, 1e-3, "1000002"),
        ],
    )
    def test_refuses_a_count_past_the_cap(self, t0, t1, dt, steps):
        with pytest.raises(ScenarioError) as err:
            step_count(t0, t1, dt)
        assert str(err.value) == (
            f"integration over [{t0:.6g}, {t1:.6g}] at step {dt!r} needs {steps} RK4 steps, "
            f"more than the cap of {numerics.MAX_STEPS}"
        )


# Thirds of drawn floats have full mantissas, so that any change in the order
# of the step's operations moves bits.
_MESSY = floats(-3e3, 3e3).map(lambda v: v / 3.0)
_ODD = st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324))


@st.composite
def _values(draw, n):
    """n values, up to two of them a signed zero, NaN, an infinity or the
    smallest subnormal: the generated step must give the oracle's bits."""
    values = draw(st.lists(_MESSY, min_size=n, max_size=n))
    if n:
        for i, v in draw(st.lists(st.tuples(st.integers(0, n - 1), _ODD), max_size=2)):
            values[i] = v
    return values


@st.composite
def _recording_fields(draw, n):
    """A field whose rates mix the state, the time and drawn constants, in
    the container the draw picks, and which records every (t, x) it sees."""
    wrap = draw(st.sampled_from((tuple, list, np.array)))
    coef, bias = draw(_values(n)), draw(_values(n))
    seen = []

    def field(t, x):
        seen.append((t, x))
        return wrap([c * x[(i + 1) % n] + b * t for i, (c, b) in enumerate(zip(coef, bias))])

    return field, seen


class TestRk4Step:
    @given(data=st.data(), n=st.integers(0, 12), t=_MESSY,
           h=st.one_of(floats(3e-9, 3.0).map(lambda v: v / 3.0), st.sampled_from((0.1, 0.3, 1e-3))))
    def test_matches_the_per_component_loop_bit_for_bit(self, data, n, t, h):
        x = tuple(data.draw(_values(n)))
        field, seen = data.draw(_recording_fields(n))
        with np.errstate(all="ignore"):  # numpy scalars warn on NaN and inf
            got = rk4_step(field, t, x, h)
            got_seen = list(seen)
            seen.clear()
            want = rk4_step_oracle(field, t, x, h)
        assert type(got) is tuple and bits(got) == bits(want)
        assert [type(v) for v in got] == [type(v) for v in want]
        # The field sees the same four stage times and points, bit for bit.
        assert [bits((s,) + p) for s, p in got_seen] == [bits((s,) + p) for s, p in seen]

    def test_empty_state(self):
        calls = []
        assert rk4_step(lambda t, x: calls.append(t) or [], 0.0, (), 0.5) == ()
        assert calls == [0.0, 0.25, 0.25, 0.5]

    @pytest.mark.parametrize("rates", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
    def test_field_of_the_wrong_length_is_rejected(self, rates):
        with pytest.raises(ValueError):
            rk4_step(lambda t, x: rates, 0.0, (0.0, 0.0, 0.0), 0.1)

    def test_field_errors_pass_through(self):
        err = ValueError("the field's own fault")

        def field(t, x):
            raise err

        with pytest.raises(ValueError) as caught:
            rk4_step(field, 0.0, (0.0, 0.0), 0.1)
        assert caught.value is err

    def test_rk4_run_steps_through_the_module_global(self, monkeypatch):
        # Per-layer tracing counts numerics.rk4_step by replacing the global.
        calls = []

        def counted(field, t, x, h):
            calls.append(t)
            return rk4_step(field, t, x, h)

        monkeypatch.setattr(numerics, "rk4_step", counted)
        times = numerics.grid(0.05, 0.25, 0.03)
        rk4_run(_logged_parts, lambda t, x: (1.0, -x[0]), [], 1.0, None)((0.0, 1.0), times)
        assert len(calls) == len(times) - 1
        assert calls == times[:-1]


def _logged_parts(rate, log, scale, _):
    """parts for rk4_run on a plain rate: (t, *w) as the row, and after
    scaling w[1] by scale; each call of the three logged in order."""
    def logged_rate(t, w):
        log.append(("rate", t))
        return rate(t, w)

    def row(t, w):
        log.append(("row", t, w))
        return (t, *w)

    def after(t, w):
        log.append(("after", t, w))
        return (w[0], scale * w[1])

    return logged_rate, row, after


class TestRk4Run:
    def test_rows_before_steps_and_after_carried(self):
        # The row at each grid time comes before the step from it, and after
        # runs at each step's end time on the stepped state; what it
        # returns is carried on and sampled.
        log = []
        times = numerics.grid(0.0, 0.25, 0.1)  # a short last step
        buf = rk4_run(_logged_parts, lambda t, x: (1.0, 0.0), log, 0.5, None)((0.0, 8.0), times)
        want = []
        for t, t1 in zip(times, times[1:]):
            want += [("row", t), ("rate", t), ("rate", t + 0.5 * (t1 - t)), ("rate", t + 0.5 * (t1 - t)),
                     ("rate", t1), ("after", t1)]
        assert [e[:2] for e in log] == want + [("row", times[-1])]
        rows = [e[2] for e in log if e[0] == "row"]
        assert [w[1] for w in rows] == [8.0, 4.0, 2.0, 1.0]
        assert [e[2][1] for e in log if e[0] == "after"] == [8.0, 4.0, 2.0]
        assert list(buf) == [v for t, w in zip(times, rows) for v in (t, *w)]


class TestGeneratedRun:
    def test_generated_once_per_parts_and_landmark_count(self):
        # simulate and run_along_reference each generate their run of
        # rk4_run through the one owner, once per parts and landmark count:
        # p = 3 and p = 4 for both parts are 4 misses, and the second round
        # 4 hits.
        numerics.generated_run.cache_clear()
        traj = PermanentTrajectory(1.0, 0.5)
        gains = (ControllerGains(1.0, 1.0, 1.0), ObserverGains(1.0, 1.0, 1.0))
        three = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))
        square = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, 0.0), (0.0, -10.0)))
        for lm in (three, square, three, square):
            simulate(Scenario(traj, lm, *gains, IDENTITY, IDENTITY, t_end=0.1, dt=0.05))
            run_along_reference(traj, lm, t_end=0.01, dt=1e-3, q=1e-3, r=1e-2, p0=1e-2)
        info = numerics.generated_run.cache_info()
        assert (info.misses, info.hits) == (4, 4)

    def test_inlines_rk4_run_under_a_wrapper_bound_to_its_name(self, monkeypatch):
        # A tracer rebinds numerics.rk4_run to a timing wrapper with a
        # closure, which the inliner would refuse as a template: it unwraps
        # the template first and inlines the function wrapped.
        original = rk4_run

        @functools.wraps(original)
        def timed(*args):
            return original(*args)

        monkeypatch.setattr(numerics, "rk4_run", timed)
        numerics.generated_run.cache_clear()
        traj = PermanentTrajectory(1.0, 0.5)
        lm = LandmarkSet(((10.0, 0.0), (0.0, 10.0), (-10.0, -10.0)))
        gains = (ControllerGains(1.0, 1.0, 1.0), ObserverGains(1.0, 1.0, 1.0))
        assert len(simulate(Scenario(traj, lm, *gains, IDENTITY, IDENTITY, t_end=0.1, dt=0.05)).times) == 3
        numerics.generated_run.cache_clear()

    @pytest.mark.parametrize("p", [3, 12])
    @pytest.mark.parametrize("parts, n", [(_loop_pair, 6), (_riccati_rate, 9)])
    def test_namespace_holds_only_what_the_code_reads(self, parts, n, p):
        # The globals of each generated run are the names its code objects,
        # nested ones included, load, plus __builtins__: the functions it
        # inlined are not among them.
        run = generated_run(parts, p, n).func
        read, todo = set(), [run.__code__]
        while todo:
            code = todo.pop()
            read.update(code.co_names)
            todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        namespace = set(run.__globals__)
        assert "__builtins__" in namespace and namespace - {"__builtins__"} <= read
        assert {"math", "array", "DivergenceError", "non_finite_input"} <= namespace
        assert not namespace & {"rk4_step", "dynamics_values", "measure_values", parts.__name__}


class TestOncePerTime:
    def test_one_call_per_run_of_equal_times(self):
        calls = []

        def fn(t):
            calls.append(t)
            return [t]  # a new object per call

        at = once_per_time(fn)
        times = (0.0, 0.5, 0.5, 1.0, 1.0, 1.0, 0.5, 0.0)
        results = [at(t) for t in times]
        assert calls == [0.0, 0.5, 1.0, 0.5, 0.0]
        # Each result is the object fn returned, passed through unchanged.
        assert [r[0] for r in results] == list(times)
        assert results[1] is results[2] and results[3] is results[5]
        assert results[6] is not results[1]

    def test_three_stage_times_per_rk4_step(self):
        calls = []
        at = once_per_time(lambda t: calls.append(t) or t)
        rk4_step(lambda t, x: (at(t),), 0.0, (0.0,), 0.5)
        assert calls == [0.0, 0.25, 0.5]

    def test_raising_call_is_not_kept(self):
        calls = []

        def fn(t):
            calls.append(t)
            if len(calls) == 1:
                raise ValueError("first call fails")
            return t

        at = once_per_time(fn)
        with pytest.raises(ValueError):
            at(1.0)
        assert at(1.0) == 1.0
        assert calls == [1.0, 1.0]


class TestPairwiseDistance:
    def test_largest_pair_wins(self):
        mats = [np.zeros((2, 2)), np.eye(2), 3.0 * np.eye(2)]
        assert max_pairwise_distance(mats) == pytest.approx(3.0 * math.sqrt(2.0))

    def test_single_matrix_is_zero(self):
        assert max_pairwise_distance([np.eye(3)]) == 0.0

    @staticmethod
    def same_as_the_norm_oracle(mats):
        # Bit for bit with np.linalg.norm on each pair, NaN included, and no
        # numpy warning, which the warnings filter would raise.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = max_pairwise_distance(mats)
            want = max_pairwise_distance_oracle(mats)
        assert type(got) is float
        assert bits([got]) == bits([want])
        return got

    @given(
        n=st.sampled_from([3, 6]),
        count=st.integers(1, 5),
        seed=st.integers(0, 2 ** 32 - 1),
        scale=st.sampled_from([1e-300, 1e-6, 1.0, 1e150, 1e300]),
    )
    def test_matches_the_norm_oracle(self, n, count, seed, scale):
        rng = np.random.default_rng(seed)
        self.same_as_the_norm_oracle(list(rng.standard_normal((count, n, n)) * scale))

    def test_overflow_is_inf(self):
        # One difference of 1e300 squares past float range in the dot.
        a, b = np.zeros((6, 6)), np.zeros((6, 6))
        a[2, 3] = 1e300
        assert self.same_as_the_norm_oracle([a, b, np.eye(6)]) == math.inf

    def test_shared_infinity_is_nan(self):
        a, b = np.eye(3), 2.0 * np.eye(3)
        a[0, 1] = b[0, 1] = math.inf
        assert math.isnan(self.same_as_the_norm_oracle([a, b]))

    def test_nan_entries_are_nan(self):
        a = np.eye(6)
        a[5, 0] = math.nan
        assert math.isnan(self.same_as_the_norm_oracle([np.zeros((6, 6)), a, np.eye(6)]))
        assert self.same_as_the_norm_oracle([a]) == 0.0


def _shifted(fn, point):
    # An ErrorField whose linearization at the origin is fn's Jacobian at
    # point: fn is taken at point + w.
    return ErrorField(lambda t, w: fn(tuple(p + c for p, c in zip(point, w))), len(point))


class TestJacobian:
    def test_linear_map_exact(self):
        m = np.array([[1.0, 2.0], [-3.0, 0.5]])
        (jac,) = linearize_error_field(_shifted(lambda x: m @ x, (0.3, -0.7)), [0.0])
        assert np.max(np.abs(jac - m)) < 1e-10

    def test_scalar_square(self):
        (jac,) = linearize_error_field(_shifted(lambda x: (x[0] ** 2,), (3.0,)), [0.0])
        assert abs(jac[0, 0] - 6.0) < 1e-6

    def test_sine_at_origin(self):
        (jac,) = linearize_error_field(ErrorField(lambda t, w: (math.sin(w[0]),), 1), [0.0])
        assert abs(jac[0, 0] - 1.0) < 1e-10

    def test_rejects_non_finite_output(self):
        with pytest.raises(DivergenceError, match="^error-field linearization is not finite"):
            linearize_error_field(ErrorField(lambda t, w: (float("nan"),), 1), [0.0])

    def test_fn_sees_float_tuples_and_the_result_is_c_ordered(self):
        seen = []

        def rate(t, w):
            seen.append(w)
            x0, x1 = 0.5 + w[0], -2.0 + w[1]
            return (x0 * x1, x0 + 2.0 * x1, 3.0 * x0)

        (jac,) = linearize_error_field(ErrorField(rate, 2), [0.0])
        assert len(seen) == 4
        assert all(type(w) is tuple and all(type(c) is float for c in w) for w in seen)
        assert seen == [(1e-6, 0.0), (-1e-6, 0.0), (0.0, 1e-6), (0.0, -1e-6)]
        assert jac.shape == (3, 2) and jac.dtype == np.float64 and jac.flags.c_contiguous
        assert np.max(np.abs(jac - [[-2.0, 0.5], [1.0, 2.0], [3.0, 0.0]])) < 1e-9

    @given(
        dim=st.sampled_from([1, 3, 6]),
        seed=st.integers(0, 2 ** 32 - 1),
        times=st.lists(floats(-5.0, 5.0), min_size=1, max_size=3),
    )
    def test_matches_the_zip_built_oracle(self, dim, seed, times):
        # A nonlinear field with a time-varying linearization: the same bits
        # as the Jacobian gathered through zip, and C-ordered.
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((dim, dim))

        def rate(t, w):
            return tuple(math.sin(t * a + b) * math.exp(c) for a, b, c in zip(m @ w, w, m.T @ w))

        field = ErrorField(rate, dim)
        got = linearize_error_field(field, times)
        want = linearize_error_field_oracle(field, times)
        assert len(got) == len(want) == len(times)
        for g, w in zip(got, want):
            assert g.flags.c_contiguous and g.dtype == np.float64 and g.shape == (dim, dim)
            assert bits(g.ravel()) == bits(w.ravel())


class TestProbes:
    def test_probe_times_needs_two(self):
        with pytest.raises(ValueError, match="need at least two probe times"):
            probe_times([0.0])
        with pytest.raises(ValueError, match="need at least two probe times"):
            time_invariance_probe(ErrorField(lambda t, w: w, 1), iter([0.0]))
        assert probe_times(iter([0.0, 1.0])) == [0.0, 1.0]
        # At one time only the drift is 0 whatever the field, frozen or not.
        changing = ErrorField(lambda t, w: (t * w[0],), 1)
        for times in ([2.0, 2.0], [0.0, -0.0], [1.5, 1.5, 1.5]):
            with pytest.raises(ValueError, match="need at least two probe times that differ"):
                probe_times(times)
            with pytest.raises(ValueError, match="need at least two probe times that differ"):
                time_invariance_probe(changing, times)
        assert probe_times([0.0, 0.0, 1.0]) == [0.0, 0.0, 1.0]

    def test_non_finite_linearization_names_the_probe_time(self):
        # Finite at t = 0, a rate of inf * w past t = 1.
        field = ErrorField(lambda t, w: (w[0] * (math.inf if t > 1.0 else 2.0),), 1)
        with pytest.raises(DivergenceError) as info:
            linearize_error_field(field, [0.0, 2.5])
        assert str(info.value) == "error-field linearization is not finite at t=2.5"
        assert info.value.time == 2.5

    def test_value_error_inside_the_field_passes_through(self):
        # Only a non-finite linearization is a divergence; a ValueError the
        # field raises is the field's own.
        field = ErrorField(lambda t, w: (math.log(w[0] + 1.0 - t),), 1)
        with pytest.raises(ValueError, match="^math domain error$"):
            linearize_error_field(field, [0.0, 1.5])

    def test_package_errors_pass_through(self):
        def rate(t, w):
            raise GeometryError("condition number 1e+09 exceeds 1.000e+08 (at t=0)")

        with pytest.raises(GeometryError, match=r"^condition number"):
            linearize_error_field(ErrorField(rate, 2), [0.0, 1.0])


class TestSpectrum:
    def test_sorted_on_construction(self):
        s = Spectrum((1 + 0j, -2 + 1j, -2 - 1j))
        assert s.values[0] == -2 - 1j
        assert s.values[-1] == 1 + 0j

    def test_union_is_multiset(self):
        a = Spectrum((-1 + 0j,))
        b = Spectrum((-1 + 0j, 2 + 0j))
        u = a.union(b)
        assert len(u) == 3
        assert sum(1 for z in u.values if z == -1) == 2

    def test_max_real(self):
        assert Spectrum((-3 + 2j, -0.25 + 0j)).max_real() == -0.25


class TestEigenvalues:
    def test_diagonal(self):
        s = eigenvalues(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose([z.real for z in s.values], [1, 2, 3])
        assert all(z.imag == 0 for z in s.values)

    def test_rotation_generator(self):
        s = eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert abs(s.values[0] - (-1j)) < 1e-12
        assert abs(s.values[1] - 1j) < 1e-12

    def test_companion_of_s2_plus_s_plus_1(self):
        m = np.array([[0.0, 1.0], [-1.0, -1.0]])
        s = eigenvalues(m)
        expected = sorted(np.roots([1, 1, 1]), key=lambda z: (z.real, z.imag))
        for got, want in zip(s.values, expected):
            assert abs(got - want) < 1e-12

    def test_block_triangular_spectrum_is_union(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            b = rng.normal(size=(3, 3))
            cross = rng.normal(size=(3, 3))
            full = np.block([[a, cross], [np.zeros((3, 3)), b]])
            d = spectrum_match_distance(
                eigenvalues(full), eigenvalues(a).union(eigenvalues(b))
            )
            assert d < 1e-8

    def test_conjugate_closure(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            s = eigenvalues(rng.normal(size=(5, 5)))
            conjugated = Spectrum(tuple(z.conjugate() for z in s.values))
            assert spectrum_match_distance(s, conjugated) < 1e-9

    def test_rejects_big_matrix(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(9))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigenvalues(np.zeros((2, 3)))


class TestAbscissaAndMatch:
    def test_abscissa_diagonal(self):
        assert eigenvalues(np.diag([-1.0, -2.0])).max_real() == -1.0

    def test_abscissa_zero_matrix(self):
        assert eigenvalues(np.zeros((3, 3))).max_real() == 0.0

    def test_abscissa_damped_oscillator(self):
        m = np.array([[0.0, 1.0], [-1.0, -1.0]])
        assert abs(eigenvalues(m).max_real() + 0.5) < 1e-12

    def test_match_distance_zero_for_permutation(self):
        a = Spectrum((1 + 2j, 1 - 2j, -3 + 0j))
        b = Spectrum((-3 + 0j, 1 - 2j, 1 + 2j))
        assert spectrum_match_distance(a, b) < 1e-15

    def test_match_distance_detects_shift(self):
        a = Spectrum((0j, 1 + 0j))
        b = Spectrum((0j, 1.5 + 0j))
        assert abs(spectrum_match_distance(a, b) - 0.5) < 1e-15

    def test_match_distance_requires_same_size(self):
        with pytest.raises(ValueError):
            spectrum_match_distance(Spectrum((0j,)), Spectrum((0j, 1 + 0j)))
