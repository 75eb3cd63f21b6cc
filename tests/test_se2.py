import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invtrack import se2
from invtrack.se2 import GroupElement, IDENTITY, TangentVector
from invtrack.robot import dynamics_values
from oracles import bits, compose, inverse, log, relative_rate
from strategies import HEADINGS, SPEEDS, STEERS, floats

ELEMENTS = st.builds(GroupElement, floats(-10.0, 10.0), floats(-10.0, 10.0), HEADINGS)


def close(a: GroupElement, b: GroupElement, tol=1e-12) -> bool:
    dth = se2.normalize_angle(a.theta - b.theta)
    return abs(a.x - b.x) < tol and abs(a.y - b.y) < tol and abs(dth) < tol


class TestCompose:
    def test_identity_left_and_right(self):
        g = GroupElement(1.5, -2.0, 0.7)
        assert close(se2.compose(IDENTITY, g), g)
        assert close(se2.compose(g, IDENTITY), g)

    def test_hand_computed_case(self):
        # Frame at (1,0) facing +y; a step of (1,0) in that frame lands at (1,1).
        out = se2.compose(GroupElement(1.0, 0.0, math.pi / 2), GroupElement(1.0, 0.0, 0.0))
        assert close(out, GroupElement(1.0, 1.0, math.pi / 2), tol=1e-15)

    @given(g=ELEMENTS)
    def test_inverse_axiom_random(self, g):
        assert close(se2.compose(g, inverse(g)), IDENTITY, tol=1e-12)
        assert close(se2.compose(inverse(g), g), IDENTITY, tol=1e-12)

    @given(a=ELEMENTS, b=ELEMENTS, c=ELEMENTS)
    def test_associativity_random(self, a, b, c):
        left = se2.compose(se2.compose(a, b), c)
        right = se2.compose(a, se2.compose(b, c))
        assert close(left, right, tol=1e-12)

    def test_angle_stays_normalized(self):
        g = se2.compose(GroupElement(0, 0, 3.0), GroupElement(0, 0, 3.0))
        assert -math.pi < g.theta <= math.pi


class TestInverse:
    def test_identity(self):
        assert inverse(IDENTITY) == IDENTITY

    def test_pure_translation(self):
        assert close(inverse(GroupElement(1.0, 2.0, 0.0)), GroupElement(-1.0, -2.0, 0.0))

    @given(g=ELEMENTS)
    def test_involution(self, g):
        assert close(inverse(inverse(g)), g)


class TestExp:
    def test_zero(self):
        assert se2.exp(TangentVector(0.0, 0.0, 0.0)) == IDENTITY

    def test_pure_translation(self):
        g = se2.exp(TangentVector(2.5, -1.0, 0.0))
        assert close(g, GroupElement(2.5, -1.0, 0.0))

    def test_half_turn_arc(self):
        # Unit forward speed with a half-turn of rotation traces a semicircle
        # of radius 1/pi, ending at (0, 2/pi).
        g = se2.exp(TangentVector(1.0, 0.0, math.pi))
        assert close(g, GroupElement(0.0, 2.0 / math.pi, math.pi), tol=1e-14)

    def test_matches_ode_integration(self):
        # exp(xi) is the unit-time flow of the left-invariant field g * xi.
        from oracles import integrate

        xi = TangentVector(0.8, -0.3, 1.7)

        def field(t, w):
            c, s = math.cos(w[2]), math.sin(w[2])
            return (
                xi.vx * c - xi.vy * s,
                xi.vx * s + xi.vy * c,
                xi.omega,
            )

        _, states = integrate(field, (0.0, 0.0, 0.0), 0.0, 1.0, 1e-4)
        g = se2.exp(xi)
        assert abs(g.x - states[-1][0]) < 1e-9
        assert abs(g.y - states[-1][1]) < 1e-9
        assert abs(se2.normalize_angle(g.theta - states[-1][2])) < 1e-9

    def test_small_angle_branch_continuity(self):
        # Straddle the series/exact switch.  The residual jump is the
        # cancellation noise of (1 - cos w)/w in the exact branch, bounded
        # by ulp(1)/w, which is what the series branch is there to avoid.
        a = se2.exp(TangentVector(1.0, 1.0, 1e-7 - 1e-12))
        b = se2.exp(TangentVector(1.0, 1.0, 1e-7 + 1e-12))
        assert abs(a.x - b.x) < 1e-9 and abs(a.y - b.y) < 1e-9

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            se2.exp(TangentVector(math.nan, 0.0, 0.0))


class TestLog:
    def test_identity(self):
        assert log(IDENTITY) == TangentVector(0.0, 0.0, 0.0)

    @given(vx=floats(-5.0, 5.0), vy=floats(-5.0, 5.0), omega=HEADINGS)
    def test_roundtrip_random(self, vx, vy, omega):
        xi = TangentVector(vx, vy, omega)
        if abs(omega) == math.pi:
            # exp lands on the branch cut, where log is not unique.
            with pytest.raises(ValueError, match="exactly pi"):
                log(se2.exp(xi))
            return
        back = log(se2.exp(xi))
        assert abs(back.vx - xi.vx) < 1e-9
        assert abs(back.vy - xi.vy) < 1e-9
        assert abs(back.omega - xi.omega) < 1e-9

    def test_near_branch_point(self):
        g = GroupElement(0.0, 2.0 / math.pi, math.pi - 1e-9)
        xi = log(g)
        assert abs(xi.vx - 1.0) < 1e-6
        assert abs(xi.vy - 0.0) < 1e-6
        assert abs(xi.omega - (math.pi - 1e-9)) < 1e-12

    def test_branch_point_raises(self):
        with pytest.raises(ValueError, match="exactly pi"):
            log(GroupElement(0.0, 2.0 / math.pi, math.pi))

    def test_small_angle_branch(self):
        g = se2.exp(TangentVector(1.0, -2.0, 1e-9))
        xi = log(g)
        assert abs(xi.vx - 1.0) < 1e-9
        assert abs(xi.vy + 2.0) < 1e-9


class TestNormalizeAngle:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            (0.0, 0.0),
            (math.pi, math.pi),
            (-math.pi, math.pi),
            (3 * math.pi, math.pi),
            (2 * math.pi, 0.0),
            (-0.1, -0.1),
        ],
    )
    def test_cases(self, raw, expected):
        out = se2.normalize_angle(raw)
        assert abs(out - expected) < 1e-12
        assert -math.pi < out <= math.pi

    def test_range_random(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            out = se2.normalize_angle(float(rng.uniform(-50, 50)))
            assert -math.pi < out <= math.pi


class TestRelativeRate:
    def test_matches_finite_differences(self):
        # The relative-pose rate formula is the oracle every linearization
        # check in this package leans on, so it gets its own oracle here:
        # numerically differentiate a^-1(t) b(t) along smooth curves.
        def a_of(t):
            return GroupElement(math.sin(t), t * t, 0.7 * t)

        def a_dot(t):
            return (math.cos(t), 2 * t, 0.7)

        def b_of(t):
            return GroupElement(2 * math.cos(t), -t, -0.4 * t + 0.2)

        def b_dot(t):
            return (-2 * math.sin(t), -1.0, -0.4)

        h = 1e-6
        for t in (0.0, 0.5, 1.3, 2.9):
            got = se2.relative_rate_values(*a_of(t), *a_dot(t), *b_of(t), *b_dot(t))
            plus = se2.compose(inverse(a_of(t + h)), b_of(t + h))
            minus = se2.compose(inverse(a_of(t - h)), b_of(t - h))
            fd = (
                (plus.x - minus.x) / (2 * h),
                (plus.y - minus.y) / (2 * h),
                se2.normalize_angle(plus.theta - minus.theta) / (2 * h),
            )
            for g_i, f_i in zip(got, fd):
                assert abs(g_i - f_i) < 1e-8

    def test_zero_when_moving_together(self):
        g = GroupElement(1.0, 2.0, 0.5)
        rate = (0.3, -0.2, 0.9)
        out = se2.relative_rate_values(*g, *rate, *g, *rate)
        # Equal poses with equal world rates still leave a rotational
        # coupling only through the relative offset, which is zero here.
        assert max(abs(c) for c in out) < 1e-15


class TestBareFloatCores:
    @given(a=ELEMENTS, b=ELEMENTS, ua=SPEEDS, va=STEERS, ub=SPEEDS, vb=STEERS)
    def test_cores_are_the_boxed_oracles_bit_for_bit(self, a, b, ua, va, ub, vb):
        # Headings on both sides of the +-pi wrap, and unicycle rates that
        # drive forward or in reverse (u < 0): compose_values, the compose
        # wrapper and relative_rate_values run the boxed forms' operations.
        want = compose(a, b)
        assert bits(se2.compose_values(*a, *b)) == bits(want)
        boxed = se2.compose(a, b)
        assert type(boxed) is GroupElement and bits(boxed) == bits(want)
        da = dynamics_values(a.theta, ua, va)
        db = dynamics_values(b.theta, ub, vb)
        got = se2.relative_rate_values(*a, *da, *b, *db)
        assert bits(got) == bits(relative_rate(a, da, b, db))
