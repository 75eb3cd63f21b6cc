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


# The toy template: one core call, bound to the gain k.
_TOY = """
def bind(k):
    def f(x):
        y = core(x, k)
        return y
    return f
"""


def _inlined(core):
    return inline_cores(_TOY.replace("core", core.__name__), (core,), {}, "<toy>")


class TestInlineCores:
    def test_inlines_a_straight_line_core(self):
        f = _inlined(_scaled)(3.0)
        assert f(2.0) == _scaled(2.0, 3.0)
        # The core's statements, not a call: f reads OFFSET and never _scaled.
        assert "OFFSET" in f.__code__.co_freevars
        assert "_scaled" not in f.__code__.co_names + f.__code__.co_freevars

    def test_globals_are_read_when_the_outer_function_runs(self, monkeypatch):
        bind = _inlined(_scaled)
        monkeypatch.setattr(sys.modules[__name__], "OFFSET", 2.0)
        assert bind(3.0)(2.0) == 8.0

    @pytest.mark.parametrize("core, rule", [
        (_two_returns, "must end in its one return"),
        (_nested, "FunctionDef is not a straight-line statement"),
    ])
    def test_refuses_a_core_that_is_not_straight_line(self, core, rule):
        with pytest.raises(InlineError, match=rule):
            _inlined(core)

    def test_refuses_cores_whose_globals_clash(self):
        # The same source read against another module's OFFSET.
        shifted = types.FunctionType(_scaled.__code__, {**globals(), "OFFSET": 2.0}, "_shifted")
        template = _TOY.replace("y = core(x, k)", "y = _scaled(x, k)\n        z = _shifted(x, k)")
        with pytest.raises(InlineError, match="global name 'OFFSET' clashes"):
            inline_cores(template, (_scaled, shifted), {}, "<toy>")
