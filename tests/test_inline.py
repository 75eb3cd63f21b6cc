import dis
import math
import sys
import types

import pytest

from invtrack.inline import InlineError, inline_cores


def _inlined(template, unrolled=None):
    """inline_cores with no stand-ins: each call is found in the calling
    code's own module."""
    return inline_cores(template, {}, unrolled or {})


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


def _toy_abs_too(k):
    def f(x):
        y = _magnitude(x, k)
        return abs(y) * k
    return f


# _toy_abs's and _toy_abs_too's source, read in a module that shadows the
# builtin abs, which _magnitude reads in its own.
_shadowing = types.FunctionType(_toy_abs.__code__, {**globals(), "abs": math.fabs}, "_shadowing")
_shadowing_too = types.FunctionType(_toy_abs_too.__code__, {**globals(), "abs": math.fabs}, "_shadowing_too")


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


def _outer(x, k):
    """_scaled twice, through a nested core call."""
    y = _scaled(x, k)
    z = _scaled(y, k)
    return z


def _toy_nested(k):
    def f(x):
        y = _outer(x, k)
        return y
    return f


def _factory(k):
    def scale(x):
        y = _scaled(x, k)
        return y

    def shift(x):
        y = x + OFFSET
        return y

    return scale, shift


def _toy_factory(k):
    def f(x):
        scale, shift = _factory(k)
        y = scale(x * 2.0)
        z = shift(y)
        return z
    return f


CALLS = []


def _recorded(x):
    """x, with the call recorded: a plain-name call, so taken as pure."""
    CALLS.append(x)
    return x


def _squared(x, log, record):
    # record is a parameter, so its call is kept as a call, not inlined.
    y = record(x)
    log.append(y)
    return y * y


def _toy_twice(k):
    def f(x, log):
        a = _squared(x, log, _recorded)
        b = _squared(x, log, _recorded)
        return a + b
    return f


def _toy_loop(k):
    def f(xs):
        total = 0.0
        for x in xs:
            a = _scaled(x, k)
            b = _scaled(a, k)
            c = _scaled(b, k)
            total = total + c
        return total
    return f


def _bounded(limit):
    def check(xs):
        for x in xs:
            if not abs(x) <= limit:
                raise ValueError("past the limit")
        return xs

    return check


def _toy_check(limit):
    def f(xs):
        check = _bounded(limit)
        xs = check(xs)
        return xs
    return f


class TestInlineCores:
    def test_inlines_a_straight_line_core(self):
        f = _inlined(_toy)(3.0)
        assert f(2.0) == _scaled(2.0, 3.0)
        # The core's statements, not a call: f reads OFFSET as a global and
        # never reads _scaled.
        assert "OFFSET" in f.__code__.co_names
        assert "_scaled" not in f.__code__.co_names + f.__code__.co_freevars

    def test_namespace_holds_only_what_the_code_reads(self):
        # _scaled is read to inline it but never loaded by the code: only
        # OFFSET and the builtins are left in the generated globals.
        f = _inlined(_toy)(3.0)
        assert set(f.__globals__) == {"__builtins__", "OFFSET"}

    def test_globals_are_copied_when_the_function_is_generated(self, monkeypatch):
        # A global rebound after generation does not reach the generated
        # function, which reads its own copy; one generated after does.
        f = _inlined(_toy)(3.0)
        monkeypatch.setattr(sys.modules[__name__], "OFFSET", 2.0)
        assert f(2.0) == 7.0
        assert _inlined(_toy)(3.0)(2.0) == 8.0

    def test_unrolls_a_loop_over_the_named_elements(self):
        f = _inlined(_toy_sum, {"xs": ["x0", "x1", "x2"]})((1.0, 2.0, 4.0))
        assert f() == 7.0
        assert {"x0", "x1", "x2"} <= set(f.__code__.co_freevars)
        with pytest.raises(ValueError):  # the elements are unpacked when bound
            _inlined(_toy_sum, {"xs": ["x0", "x1"]})((1.0, 2.0, 4.0))

    def test_refuses_an_element_name_the_template_binds(self):
        with pytest.raises(InlineError, match="generated name 's' is already in use"):
            _inlined(_toy_sum, {"xs": ["x0", "s"]})

    @pytest.mark.parametrize("core, rule", [
        (_two_returns, "must end in its one return"),
        (_nested, "FunctionDef is not a straight-line statement"),
    ])
    def test_refuses_a_core_that_is_not_straight_line(self, core, rule):
        # core stands in for _toy's _scaled, as generated_run's core for rk4_step.
        with pytest.raises(InlineError, match=rule):
            inline_cores(_toy, {"_scaled": core}, {})

    def test_refuses_cores_whose_globals_clash(self):
        # _shifted's module binds OFFSET to another object than _scaled's.
        with pytest.raises(InlineError, match="global name 'OFFSET' is bound to another object in another module"):
            _inlined(_clashing)

    def test_refuses_a_core_global_the_template_binds(self):
        with pytest.raises(InlineError, match="global name 'OFFSET' is bound by the template"):
            _inlined(_binding)

    def test_a_core_reads_its_own_module(self):
        # The template's module leaves OFFSET unbound, or shadows the
        # builtin abs; the core reads its own module's OFFSET and abs.
        assert _inlined(_unbound)(3.0)(2.0) == _scaled(2.0, 3.0)
        assert _inlined(_toy_abs)(3.0)(-2.0) == _inlined(_shadowing)(3.0)(-2.0) == 6.0

    def test_refuses_a_template_module_that_shadows_a_builtin(self):
        # The template reads its module's abs, and _magnitude the builtin.
        assert _inlined(_toy_abs_too)(3.0)(-2.0) == 18.0
        with pytest.raises(InlineError, match="global name 'abs' is bound to another object in another module"):
            _inlined(_shadowing_too)

    @pytest.mark.parametrize("template", [_defaulted, _keyword_defaulted, _enclosed()])
    def test_refuses_a_template_with_defaults_or_a_closure(self, template):
        with pytest.raises(InlineError, match="may not have defaults or a closure"):
            _inlined(template)

    def test_inlines_a_core_that_a_core_calls(self):
        f = _inlined(_toy_nested)(3.0)
        assert f(2.0) == _outer(2.0, 3.0)
        assert not {"_outer", "_scaled"} & set(f.__code__.co_names)

    def test_inlines_the_functions_a_core_returns(self):
        # _factory defines and returns two functions; each call of one is
        # inlined, an expression argument bound to a name first.
        f = _inlined(_toy_factory)(3.0)
        assert f(2.0) == _toy_factory(3.0)(2.0) == 2.0 * 2.0 * 3.0 + 2.0 * OFFSET
        assert not {"_factory", "_scaled", "scale", "shift"} & set(f.__code__.co_names)

    def test_a_repeated_pure_statement_runs_once(self):
        # The second _squared call's pure statements repeat the first's and
        # are dropped; its method call log.append is not pure and runs again.
        f = _inlined(_toy_twice)(1.0)
        CALLS.clear()
        log = []
        assert f(3.0, log) == 18.0
        assert CALLS == [3.0] and log == [3.0, 3.0]

    def test_loop_locals_share_slots(self):
        # Names whose lives in the loop body do not overlap share a local:
        # the three calls' results and a, b, c take two slots.
        f = _inlined(_toy_loop)(2.0)
        assert f([1.0, 2.0]) == _toy_loop(2.0)([1.0, 2.0])
        assert f.__code__.co_varnames == ("xs", "total", "x", "v0", "v1")

    def test_drops_the_self_copy_of_a_check_that_returns_its_argument(self):
        # `xs = check(xs)` on unrolled elements leaves the raise-guards and
        # no `(x0, x1) = (x0, x1)`: x0 is stored once, where xs is unpacked.
        f = _inlined(_toy_check, {"xs": ["x0", "x1"]})(2.0)
        assert f((1.0, -2.0)) == (1.0, -2.0)
        with pytest.raises(ValueError, match="past the limit"):
            f((1.0, 3.0))
        stores = [i for i in dis.get_instructions(f) if i.opname == "STORE_FAST" and i.argval == "x0"]
        assert len(stores) == 1
