import math

import numpy as np
import pytest

from invtrack.errors import DivergenceError, GeometryError
from invtrack.numerics import (
    ErrorField,
    Spectrum,
    eigenvalues,
    integrate,
    linearize_error_field,
    max_pairwise_distance,
    once_per_time,
    probe_times,
    rk4_step,
    spectrum_match_distance,
    time_invariance_probe,
)


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


class TestProbes:
    def test_probe_times_needs_two(self):
        with pytest.raises(ValueError, match="need at least two probe times"):
            probe_times([0.0])
        with pytest.raises(ValueError, match="need at least two probe times"):
            time_invariance_probe(ErrorField(lambda t, w: w, 1), iter([0.0]))
        assert probe_times(iter([0.0, 1.0])) == [0.0, 1.0]

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
