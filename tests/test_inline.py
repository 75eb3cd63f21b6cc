import math
import sys
import types

import pytest

from invtrack.inline import InlineError, inline_cores

OFFSET = 1.0


def _scaled(x, k):
    """x times k, then plus OFFSET."""
    y = x * k
    return y + OFFSET


def _two_returns(x, k):
    if x > 0.0:
        return x
    return x * k


def _nested(x, k):
    def note(v):
        pass

    note(x)
    return x * k


def _magnitude(x, k):
    return abs(x) * k


def _summed(xs):
    total = 0.0
    for x in xs:
        total += x
    return total


# The same source as _scaled, read against another module's OFFSET.
_shifted = types.FunctionType(_scaled.__code__, {**globals(), "OFFSET": 2.0}, "_shifted")


# The toy templates: core calls in a function bound to the gain k, or to a
# sequence xs that is unrolled.
def _toy(k):
    def f(x):
        y = _scaled(x, k)
        return y
    return f


def _refused(k):
    def f(x):
        y = _two_returns(x, k)
        z = _nested(x, k)
        return y + z
    return f


def _clashing(k):
    def f(x):
        y = _scaled(x, k)
        z = _shifted(x, k)
        return y + z
    return f


def _binding(k):
    def f(x):
        OFFSET = 0.0
        y = _scaled(x, k)
        return y + OFFSET
    return f


def _toy_abs(k):
    def f(x):
        y = _magnitude(x, k)
        return y
    return f


# _toy_abs's source, read in a module that shadows the builtin abs.
_shadowing = types.FunctionType(_toy_abs.__code__, {**globals(), "abs": math.fabs}, "_shadowing")


# _toy's source, read in a module that leaves OFFSET unbound.
_unbound = types.FunctionType(
    _toy.__code__, {k: v for k, v in globals().items() if k != "OFFSET"}, "_unbound"
)


def _defaulted(k=1.0):
    def f(x):
        y = _scaled(x, k)
        return y
    return f


def _keyword_defaulted(*, k=1.0):
    def f(x):
        y = _scaled(x, k)
        return y
    return f


def _enclosed():
    k = 3.0

    def template(x):
        y = _scaled(x, k)
        return y
    return template


def _toy_sum(xs):
    def f():
        s = _summed(xs)
        return s
    return f


class TestInlineCores:
    def test_inlines_a_straight_line_core(self):
        f = inline_cores(_toy, (_scaled,), {})(3.0)
        assert f(2.0) == _scaled(2.0, 3.0)
        # The core's statements, not a call: f reads OFFSET as a global and
        # never reads _scaled.
        assert "OFFSET" in f.__code__.co_names
        assert "_scaled" not in f.__code__.co_names + f.__code__.co_freevars

    def test_globals_are_read_when_the_outer_function_runs(self, monkeypatch):
        f = inline_cores(_toy, (_scaled,), {})(3.0)
        monkeypatch.setattr(sys.modules[__name__], "OFFSET", 2.0)
        assert f(2.0) == 8.0

    def test_unrolls_a_loop_over_the_named_elements(self):
        f = inline_cores(_toy_sum, (_summed,), {"xs": ["x0", "x1", "x2"]})((1.0, 2.0, 4.0))
        assert f() == 7.0
        assert {"x0", "x1", "x2"} <= set(f.__code__.co_freevars)
        with pytest.raises(ValueError):  # the elements are unpacked when bound
            inline_cores(_toy_sum, (_summed,), {"xs": ["x0", "x1"]})((1.0, 2.0, 4.0))

    def test_refuses_an_element_name_the_template_binds(self):
        with pytest.raises(InlineError, match="generated name 's' is already in use"):
            inline_cores(_toy_sum, (_summed,), {"xs": ["x0", "s"]})

    @pytest.mark.parametrize("core, rule", [
        (_two_returns, "must end in its one return"),
        (_nested, "FunctionDef is not a straight-line statement"),
    ])
    def test_refuses_a_core_that_is_not_straight_line(self, core, rule):
        with pytest.raises(InlineError, match=rule):
            inline_cores(_refused, (core,), {})

    def test_refuses_cores_whose_globals_clash(self):
        # _shifted reads another module's OFFSET, not the template module's.
        with pytest.raises(InlineError, match="global name 'OFFSET' is not the core's object"):
            inline_cores(_clashing, (_scaled, _shifted), {})

    def test_refuses_a_core_global_the_template_binds(self):
        with pytest.raises(InlineError, match="global name 'OFFSET' is bound by the template"):
            inline_cores(_binding, (_scaled,), {})

    def test_refuses_a_core_global_the_template_module_leaves_unbound(self):
        with pytest.raises(InlineError, match="global name 'OFFSET' is not the core's object"):
            inline_cores(_unbound, (_scaled,), {})

    def test_refuses_a_template_module_that_shadows_a_builtin(self):
        assert inline_cores(_toy_abs, (_magnitude,), {})(3.0)(-2.0) == 6.0
        with pytest.raises(InlineError, match="global name 'abs' is not the core's object"):
            inline_cores(_shadowing, (_magnitude,), {})

    @pytest.mark.parametrize("template", [_defaulted, _keyword_defaulted, _enclosed()])
    def test_refuses_a_template_with_defaults_or_a_closure(self, template):
        with pytest.raises(InlineError, match="may not have defaults or a closure"):
            inline_cores(template, (_scaled,), {})
