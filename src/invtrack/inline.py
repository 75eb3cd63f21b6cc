"""Code generation by inlining: a template function recompiled with each
call of a bare-float core replaced by the core's own statements.

closed_loop generates its right-hand side here, once per landmark count.
It imports this module on that first generation, not with the package, so
importing the package and parsing a scenario never compile it.
"""

from __future__ import annotations

import ast
import builtins
import functools
import inspect
import types
from typing import Callable


class InlineError(Exception):
    """A core that inline_cores refuses, named with the rule it breaks."""


# Expressions an inlined core may not hold: each binds names of its own or
# defers evaluation, so its statements could not be spliced in as they stand.
# A comprehension is unrolled when the core returns it; anywhere else it is barred.
_BARRED = (
    ast.Lambda, ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _renamed(node, names: dict):
    """A copy of a core's AST node in the caller's names: each name through
    `names`, to a name or, for a destructured element, a tuple of names."""
    if isinstance(node, list):
        return [_renamed(n, names) for n in node]
    if not isinstance(node, ast.AST):
        return node
    if isinstance(node, ast.Name):
        return _name_expr(names.get(node.id, node.id), node.ctx)
    return type(node)(**{f: _renamed(getattr(node, f, None), names) for f in node._fields})


def _name_expr(spec, ctx) -> ast.expr:
    if isinstance(spec, str):
        return ast.Name(spec, ctx)
    return ast.Tuple([_name_expr(s, ctx) for s in spec], ctx)


def _bind(target: ast.expr, spec, names: dict, where: str) -> None:
    """Destructure a loop target against one element's names."""
    if isinstance(target, ast.Name):
        names[target.id] = spec
        return
    if not isinstance(target, ast.Tuple) or isinstance(spec, str) or len(spec) != len(target.elts):
        raise InlineError(f"{where}: a loop target does not match its elements")
    for t, s in zip(target.elts, spec):
        _bind(t, s, names, where)


@functools.cache
def _definition(core: Callable) -> ast.FunctionDef:
    """The core's parsed source, read once per process: every pass copies
    from it through _renamed and none changes it."""
    return ast.parse(inspect.getsource(core)).body[0]


class _Inliner(ast.NodeTransformer):
    """inline_cores' pass over the template, one statement at a time."""

    def __init__(self, cores, env: dict, taken: set):
        self.cores = {core.__name__: core for core in cores}
        self.env = env  # the template's module globals, which the generated code reads
        self.taken = taken  # the names the template binds, and those generated
        self.sequences: dict[str, list] = {}  # name -> its elements' names
        self.calls = 0

    def fresh(self, name: str) -> str:
        if name in self.taken or name in self.env or hasattr(builtins, name):
            raise InlineError(f"generated name {name!r} is already in use")
        self.taken.add(name)
        return name

    def visit_Assign(self, node):
        value = node.value
        if not (isinstance(value, ast.Call) and getattr(value.func, "id", None) in self.cores):
            return node
        if len(node.targets) != 1 or value.keywords or not all(
            isinstance(a, ast.Name) for a in value.args
        ):
            raise InlineError(f"{value.func.id}: inline only `targets = core(names...)`")
        self.calls += 1
        return self._inline(self.cores[value.func.id], [a.id for a in value.args], node.targets[0])

    def _inline(self, core: Callable, args: list, target: ast.expr) -> list:
        where = f"{core.__module__}.{core.__qualname__}"
        fn = _definition(core)
        params = [p.arg for p in fn.args.args]
        if len(params) != len(args) or fn.args.vararg or fn.args.kwonlyargs or fn.args.kwarg:
            raise InlineError(f"{where}: the call must pass each parameter by position")
        body = fn.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]  # the docstring
        *stmts, ret = body
        if not isinstance(ret, ast.Return) or any(
            isinstance(n, ast.Return) for s in stmts for n in ast.walk(s)
        ):
            raise InlineError(f"{where}: a core must end in its one return")
        value = ret.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "tuple" and value.args:
            value = value.args[0]
        comprehension = isinstance(value, ast.ListComp)
        checked = stmts + [value.elt if comprehension else ret.value]
        if any(isinstance(n, _BARRED) for s in checked for n in ast.walk(s)):
            raise InlineError(f"{where}: a lambda, comprehension, := or yield binds or defers")
        names = dict(zip(params, args))
        stored = {
            n.id for s in stmts for n in ast.walk(s)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        if stored & names.keys():
            raise InlineError(f"{where}: a core may not assign to its parameters")
        for name in stored:
            names[name] = self.fresh(f"{name}_{self.calls}")
        # Globals and builtins: each name the core reads and neither takes nor
        # binds.  The generated code reads it from the template's module, so
        # that must bind it to the core's object, or leave a builtin unbound,
        # and the template must not bind it.
        bound = {n.id for n in ast.walk(ret) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        missing = object()
        for node in ast.walk(ast.Module(body, [])):
            name = getattr(node, "id", None)
            if name is None or name in names or name in bound:
                continue
            if name in self.taken:
                raise InlineError(f"{where}: global name {name!r} is bound by the template")
            if self.env.get(name, missing) is not core.__globals__.get(name, missing):
                raise InlineError(
                    f"{where}: global name {name!r} is not the core's object in the template's module"
                )
        out = self._block(stmts, names, where)
        if not comprehension:
            return out + [ast.Assign([target], _renamed(ret.value, names))]
        # A comprehension over unrolled sequences: one element per pass, each
        # bound to its own name, and the target names that sequence.
        gen = value.generators[0]
        if len(value.generators) > 1 or gen.ifs or not isinstance(target, ast.Name):
            raise InlineError(f"{where}: a returned comprehension must map one sequence to one name")
        elements = []
        for i, inner in enumerate(self._passes(gen.target, gen.iter, names, where)):
            elements.append(self.fresh(f"{target.id}{i}"))
            out.append(ast.Assign([ast.Name(elements[-1], ast.Store())], _renamed(value.elt, inner)))
        self.sequences[target.id] = elements
        return out

    def _block(self, stmts: list, names: dict, where: str) -> list:
        out = []
        for s in stmts:
            if isinstance(s, ast.For) and not s.orelse:
                for inner in self._passes(s.target, s.iter, names, where):
                    out += self._block(s.body, inner, where)
            elif isinstance(s, (ast.Assign, ast.AugAssign, ast.Expr)) or (
                isinstance(s, ast.If) and not s.orelse
                and len(s.body) == 1 and isinstance(s.body[0], ast.Raise)
            ):
                out.append(_renamed(s, names))
            else:
                raise InlineError(
                    f"{where}: {type(s).__name__} is not a straight-line statement or a raise-guard"
                )
        return out

    def _passes(self, target: ast.expr, it: ast.expr, names: dict, where: str):
        """The names of each unrolled pass of `for target in it`, where it is
        an unrolled sequence or a zip of two."""
        zipped = (
            isinstance(it, ast.Call) and getattr(it.func, "id", None) == "zip" and len(it.args) == 2
        )
        seqs = [self.sequences.get(names.get(getattr(q, "id", None)))
                for q in (it.args if zipped else [it])]
        if None in seqs:
            raise InlineError(f"{where}: a loop must run over unrolled sequences")
        for element in zip(*seqs) if zipped else seqs[0]:
            inner = dict(names)
            _bind(target, element, inner, where)
            yield inner


def inline_cores(template: Callable, cores, unrolled: dict[str, list]) -> Callable:
    """template, a function of module-level source, recompiled with every
    statement `targets = core(names...)` replaced by that core's own
    statements.

    A core is inlined only when it is a docstring, straight-line statements
    (assignments, expression statements such as a check call, raise-guards
    `if c: raise ...`, and loops over an unrolled sequence or a zip of two)
    and exactly one final return; anything else raises InlineError, as does
    a template with defaults or a closure, which the recompiled function
    would drop.  Parameters become the caller's names and each local gets
    the call's suffix.  unrolled maps a parameter of template to the names
    of its elements, each a name or a tuple of names, say
    {"coords": [("lx0", "ly0"), ...]}: the generated function unpacks it
    into them, and every loop over it, and a list comprehension that a core
    returns over it, runs once per element on those names.  The float
    operations and the raises run in the same order as the calls would.

    The generated code reads its globals from the template's module each
    time it runs, so a name rebound there, say to a tracer's wrapper,
    reaches the functions already returned.  Every global a core reads must
    therefore be bound there to the same object (and a builtin to nothing),
    and the template must not bind it: InlineError names one that is not.
    """
    if template.__defaults__ or template.__kwdefaults__ or template.__closure__:
        raise InlineError(f"{template.__qualname__}: a template may not have defaults or a closure")
    module = ast.parse(inspect.getsource(template))
    (outer,) = module.body
    # The names the template binds.
    taken = {a.arg for n in ast.walk(outer) if isinstance(n, ast.arguments) for a in n.args}
    for n in ast.walk(outer):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            taken.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.ExceptHandler)):
            taken.add(n.name)
    inliner = _Inliner(cores, template.__globals__, taken)
    unpack = []
    for seq, elements in unrolled.items():
        for element in elements:
            for name in (element,) if isinstance(element, str) else element:
                inliner.fresh(name)
        inliner.sequences[seq] = elements
        target = _name_expr(elements, ast.Store())
        unpack.append(ast.Assign([target], ast.Name(seq, ast.Load())))
    inliner.visit(outer)
    start = 0 if ast.get_docstring(outer) is None else 1
    outer.body[start:start] = unpack
    code = compile(ast.fix_missing_locations(module), f"<inlined {template.__qualname__}>", "exec")
    (outer_code,) = (c for c in code.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(outer_code, template.__globals__, template.__name__)
