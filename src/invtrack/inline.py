"""Code generation by inlining: a template function recompiled with each
call of a bare-float core replaced by the core's own statements.

closed_loop generates its right-hand side here, once per landmark count.
It imports this module on that first generation, not with the package, so
importing the package and parsing a scenario never compile it.
"""

from __future__ import annotations

import ast
import functools
import inspect
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
    new = type(node)(**{f: _renamed(getattr(node, f, None), names) for f in node._fields})
    return ast.copy_location(new, node)  # ast.unparse reads a statement's lineno


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
        raise InlineError(f"{where}: loop target {ast.unparse(target)} does not match its elements")
    for t, s in zip(target.elts, spec):
        _bind(t, s, names, where)


@functools.cache
def _definition(core: Callable) -> ast.FunctionDef:
    """The core's parsed source, read once per process: every pass copies
    from it through _renamed and none changes it."""
    return ast.parse(inspect.getsource(core)).body[0]


class _Inliner(ast.NodeTransformer):
    """inline_cores' pass over the template, one statement at a time."""

    def __init__(self, cores, reads: dict, taken: set):
        self.cores = {core.__name__: core for core in cores}
        self.reads = reads  # global name -> the module dict it is read from
        self.taken = taken  # the names the template binds, and those generated
        self.sequences: dict[str, list] = {}  # name -> its elements' names
        self.calls = 0

    def fresh(self, name: str) -> str:
        if name in self.taken or name in self.reads:
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
            raise InlineError(f"inline only `targets = core(names...)`, not {ast.unparse(node)}")
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
        # binds.  The template must not bind it, nor another core nor the
        # template read it as a different object.
        bound = {n.id for n in ast.walk(ret) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        for node in ast.walk(ast.Module(body, [])):
            name = getattr(node, "id", None)
            if name is None or name in names or name in bound:
                continue
            clash = name in self.taken
            if name in core.__globals__:
                read = self.reads.setdefault(name, core.__globals__)
                clash = clash or read[name] is not core.__globals__[name]
            if clash:
                raise InlineError(f"{where}: global name {name!r} clashes with another's")
        out = self._block(stmts, names, where)
        if not comprehension:
            return out + [ast.Assign([target], _renamed(ret.value, names), lineno=0)]
        # A comprehension over unrolled sequences: one element per pass, each
        # bound to its own name, and the target names that sequence.
        gen = value.generators[0]
        if len(value.generators) > 1 or gen.ifs or not isinstance(target, ast.Name):
            raise InlineError(f"{where}: a returned comprehension must map one sequence to one name")
        elements = []
        for i, inner in enumerate(self._passes(gen.target, gen.iter, names, where)):
            elements.append(self.fresh(f"{target.id}{i}"))
            out.append(ast.Assign([ast.Name(elements[-1], ast.Store())], _renamed(value.elt, inner), lineno=0))
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
    a name that a core reads as a global and the template binds, or that
    another core or the template reads as a different object.  Parameters
    become the caller's names and each local gets the call's suffix.
    unrolled maps a parameter of template to the names of its elements, each
    a name or a tuple of names, say {"coords": [("lx0", "ly0"), ...]}: the
    generated function unpacks it into them, and every loop over it, and a
    list comprehension that a core returns over it, runs once per element on
    those names.  The float operations and the raises run in the same order
    as the calls would.

    Each global the generated code reads is looked up in its own module (a
    core's __globals__, the template's) every time the returned outer
    function runs, not once at generation: a name rebound in between, say
    to a tracer's wrapper, reaches the functions it returns from then on.
    """
    module = ast.parse(inspect.getsource(template))
    (outer,) = module.body
    env = template.__globals__
    # The names the template binds, and the globals it reads from env.
    taken = {a.arg for n in ast.walk(outer) if isinstance(n, ast.arguments) for a in n.args}
    for n in ast.walk(outer):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
            taken.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.ExceptHandler)):
            taken.add(n.name)
    reads = {
        n.id: env for n in ast.walk(outer)
        if isinstance(n, ast.Name) and n.id in env and n.id not in taken
    }
    inliner = _Inliner(cores, reads, taken)
    unpack = []
    for seq, elements in unrolled.items():
        for element in elements:
            for name in (element,) if isinstance(element, str) else element:
                inliner.fresh(name)
        inliner.sequences[seq] = elements
        target = _name_expr(elements, ast.Store())
        unpack.append(ast.Assign([target], ast.Name(seq, ast.Load()), lineno=0))
    inliner.visit(outer)
    loaded = {n.id for n in ast.walk(outer) if isinstance(n, ast.Name)}
    modules = {name: reads[name] for name in sorted(reads.keys() & loaded)}
    lookup = inliner.fresh("_modules")
    lookups = ast.parse(
        "".join(f"{name} = {lookup}[{name!r}][{name!r}]\n" for name in modules)
    ).body
    start = 0 if ast.get_docstring(outer) is None else 1
    outer.body[start:start] = lookups + unpack
    namespace = {lookup: modules}
    exec(compile(ast.unparse(module), f"<inlined {template.__qualname__}>", "exec"), namespace)
    return namespace[outer.name]
