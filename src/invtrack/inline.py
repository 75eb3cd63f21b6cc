"""Code generation by inlining: a template function recompiled with each
call of a bare-float core replaced by the core's own statements, then with
each pure statement that repeats one already computed dropped.

closed_loop generates one form of its one law, `_loop_pair`, per landmark
count: simulate's whole run (`_loop_run`: every RK4 step with the rate's
four stages and the sample row inlined, so that values shared by stages at
one time are computed once); the fd probes of closed_loop_error_field
evaluate `_loop_pair`'s rate as written.  ekf generates the filter's whole
run (`_filter_run`: every RK4 step of its Riccati rate, with keep_psd).
Each imports this module on its first generation, not with the package, so
importing the package, parsing a scenario, `separation` and `invariance`
never compile it.
"""

from __future__ import annotations

import ast
import builtins
import collections
import functools
import heapq
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
    """A copy of an AST node in the caller's names: each name through
    `names`, to a name or, for an unrolled sequence, a tuple of names."""
    cls = type(node)
    if cls is ast.Name:
        return _name_expr(names.get(node.id, node.id), node.ctx)
    if cls is list:
        return [_renamed(n, names) for n in node]
    if not isinstance(node, ast.AST) or isinstance(node, _LEAVES):
        return node
    new = cls.__new__(cls)
    for f in cls._fields:
        setattr(new, f, _renamed(getattr(node, f, None), names))
    if cls is ast.ExceptHandler and node.name in names:
        new.name = names[node.name]
    return new


def _name_expr(spec, ctx) -> ast.expr:
    if isinstance(spec, str):
        return ast.Name(spec, ctx)
    return ast.Tuple([_name_expr(s, ctx) for s in spec], ctx)


def _spec(node):
    """The name, or nested tuple of names, that node spells; None for any
    other expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Tuple):
        specs = tuple(_spec(e) for e in node.elts)
        return None if None in specs else specs
    return None


def _flat(spec) -> list[str]:
    return [spec] if isinstance(spec, str) else [n for s in spec for n in _flat(s)]


def _bind(target: ast.expr, spec, names: dict, where: str) -> None:
    """Destructure a loop target against one element's names."""
    if isinstance(target, ast.Name):
        names[target.id] = spec
        return
    if not isinstance(target, ast.Tuple) or isinstance(spec, str) or len(spec) != len(target.elts):
        raise InlineError(f"{where}: a loop target does not match its elements")
    for t, s in zip(target.elts, spec):
        _bind(t, s, names, where)


# Nodes with no node worth visiting below them: contexts and operators.
_LEAVES = (ast.expr_context, ast.operator, ast.unaryop, ast.cmpop, ast.boolop)


def _walk(node):
    """Each AST node in node, which may be a list; a function's definition
    but not its body."""
    todo = list(node) if type(node) is list else [node]
    pop, push, extend = todo.pop, todo.append, todo.extend
    while todo:
        n = pop()
        cls = type(n)
        if cls is str or n is None:  # Global.names, a dict display's ** key
            continue
        yield n
        if cls is ast.Name or cls is ast.Constant or cls is ast.FunctionDef:
            continue
        for f in cls._fields:
            v = getattr(n, f, None)
            if type(v) is list:
                extend(v)
            elif isinstance(v, ast.AST) and not isinstance(v, _LEAVES):
                push(v)


def _stored(stmts) -> list[str]:
    """Each name the statements bind, once per binding; a nested function
    binds only its own name."""
    out = []
    for n in _walk(stmts):
        cls = type(n)
        if cls is ast.Name:
            if type(n.ctx) is ast.Store:
                out.append(n.id)
        elif (cls is ast.FunctionDef or cls is ast.ExceptHandler) and n.name:
            out.append(n.name)
    return out


def _is_guard(s) -> bool:
    """`if c: raise ...`"""
    return (isinstance(s, ast.If) and not s.orelse
            and len(s.body) == 1 and isinstance(s.body[0], ast.Raise))


@functools.cache
def _parts(fn: ast.FunctionDef, where: str) -> tuple:
    """fn, checked to be inlinable, as (statements, return, returned value,
    nested definitions, the names of those it returns, the names it binds
    (once per binding), the global names it reads), once per definition."""
    params = [p.arg for p in fn.args.args]
    if fn.args.vararg or fn.args.kwonlyargs or fn.args.kwarg:
        raise InlineError(f"{where}: the call must pass each parameter by position")
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    *stmts, ret = body
    if type(ret) is not ast.Return:  # a check: called only as a statement
        stmts, ret = body, None
    if any(type(n) is ast.Return for n in _walk(stmts)):
        raise InlineError(f"{where}: a core must end in its one return")
    if ret is None:
        return stmts, None, None, [], None, _stored(stmts), _globals(body, params)
    value = ret.value
    if type(value) is ast.Call and getattr(value.func, "id", None) == "tuple" and value.args:
        value = value.args[0]
    checked = stmts + [value.elt if type(value) is ast.ListComp else ret.value]
    if any(isinstance(n, _BARRED) for n in ast.walk(ast.Module(checked, []))):
        raise InlineError(f"{where}: a lambda, comprehension, := or yield binds or defers")
    # A core may define functions only to return them, as _loop_pair does.
    returned = _spec(ret.value)
    defs = [s for s in stmts if type(s) is ast.FunctionDef]
    if defs and (returned is None or {d.name for d in defs} != set(_flat(returned))):
        raise InlineError(f"{where}: FunctionDef is not a straight-line statement or a raise-guard")
    stored = _stored(stmts)
    if set(stored) & set(params):
        raise InlineError(f"{where}: a core may not assign to its parameters")
    return stmts, ret, value, defs, returned, stored, _globals(body, params)


def _globals(body: list, params: list) -> set:
    """The globals and builtins body reads: each name read that is not a
    parameter or bound anywhere in it, nested functions and comprehensions
    included."""
    local = set(params)
    names = set()
    for n in ast.walk(ast.Module(body, [])):
        if type(n) is ast.Name:
            (local if type(n.ctx) is ast.Store else names).add(n.id)
        elif type(n) is ast.arg:
            local.add(n.arg)
        elif type(n) in (ast.ExceptHandler, ast.FunctionDef) and n.name:
            local.add(n.name)
    return names - local


@functools.cache
def _definition(core: Callable) -> ast.FunctionDef:
    """The core's parsed source, read once per process: every pass copies
    from it through _renamed and none changes it."""
    return ast.parse(inspect.getsource(core)).body[0]


class _Inliner:
    """inline_cores' pass over the template, one statement at a time."""

    def __init__(self, cores, env: dict, taken: set, unrolled: dict):
        self.cores = {core.__name__: core for core in cores}
        self.env = env  # the template's module globals, which the generated code reads
        self.taken = taken  # the names the template binds, and those generated
        self.unrolled = unrolled  # parameter -> the names of its elements
        # name -> (definition, names, where) of a function that an inlined
        # core defined and returned: each call of it is inlined in turn.
        self.local: dict[str, tuple] = {}
        self.checked: set = set()  # the cores whose globals are checked
        self.calls = 0

    def fresh(self, name: str) -> str:
        if name in self.taken or name in self.env or hasattr(builtins, name):
            raise InlineError(f"generated name {name!r} is already in use")
        self.taken.add(name)
        return name

    def function(self, fn: ast.FunctionDef, names: dict) -> ast.FunctionDef:
        """A function of the template, inlined, with each unrolled parameter
        unpacked into its elements' names at the start."""
        names = dict(names)
        unpack = []
        for a in fn.args.args:
            names.pop(a.arg, None)
            if a.arg in self.unrolled:
                spec = names[a.arg] = self.unrolled[a.arg]
                unpack.append(ast.Assign([_name_expr(spec, ast.Store())], ast.Name(a.arg, ast.Load())))
        start = 0 if ast.get_docstring(fn) is None else 1
        fn.body = fn.body[:start] + unpack + self.block(fn.body[start:], names, fn.name, True)
        return fn

    def block(self, stmts: list, names: dict, where: str, template: bool = False) -> list:
        out = []
        for s in stmts:
            if type(s) in (ast.Assign, ast.Expr) and type(s.value) is ast.Call:
                inlined = self.call(s, names, where)
                if inlined is not None:
                    out += inlined
                    continue
            if isinstance(s, ast.For) and not s.orelse:
                seqs = self._sequences(s.iter, names)
                if seqs is not None:
                    for inner in self._passes(s.target, seqs, names, where):
                        out += self.block(s.body, inner, where, template)
                elif template:
                    body = self.block(s.body, names, where, template)
                    out.append(ast.For(_renamed(s.target, names), _renamed(s.iter, names), body, []))
                else:
                    raise InlineError(f"{where}: a loop must run over unrolled sequences")
            elif isinstance(s, ast.Try) and not s.orelse and not s.finalbody:
                # The handlers are copied as they stand, in the caller's names.
                body = self.block(s.body, names, where, template)
                out.append(ast.Try(body, _renamed(s.handlers, names), [], []))
            elif isinstance(s, ast.FunctionDef) and template:
                out.append(self.function(s, names))
            elif isinstance(s, ast.If) and template:
                body, orelse = (self.block(b, names, where, template) for b in (s.body, s.orelse))
                out.append(ast.If(_renamed(s.test, names), body, orelse))
            elif isinstance(s, (ast.Assign, ast.AugAssign, ast.Expr)) or _is_guard(s) or (
                template and isinstance(s, (ast.Return, ast.Raise))
            ):
                out.append(_renamed(s, names))
            else:
                raise InlineError(
                    f"{where}: {type(s).__name__} is not a straight-line statement or a raise-guard"
                )
        return out

    def call(self, s, names: dict, where: str) -> list | None:
        """The statements that replace `targets = f(args...)`, or the
        expression statement `f(args...)`, when f is a core or a function
        that an inlined core returned; None otherwise.  An argument that is
        not a name, or a tuple of names, is bound to a generated name first,
        in argument order, its own core calls inlined."""
        func = s.value.func
        name = names.get(func.id, func.id) if isinstance(func, ast.Name) else None
        if name in self.local:
            fn, outer, where = self.local[name]
            core = None
        elif name in self.cores and func.id not in names:
            core = self.cores[name]
            fn, outer, where = _definition(core), {}, f"{core.__module__}.{core.__qualname__}"
        else:
            return None
        targets = s.targets if type(s) is ast.Assign else [None]
        if len(targets) != 1 or s.value.keywords or any(isinstance(a, ast.Starred) for a in s.value.args):
            raise InlineError(f"{where}: inline only `targets = core(args...)` or `core(args...)`")
        params = [p.arg for p in fn.args.args]
        if len(params) != len(s.value.args):
            raise InlineError(f"{where}: the call must pass each parameter by position")
        self.calls += 1
        out = []
        inner = dict(outer)
        for param, arg in zip(params, s.value.args):
            node = _renamed(arg, names)
            spec = _spec(node)
            if spec is None and isinstance(node, ast.Tuple):
                spec = tuple(self._value(e, f"{param}_{self.calls}_{i}", out) for i, e in enumerate(node.elts))
            elif spec is None:
                spec = self._value(node, f"{param}_{self.calls}", out)
            inner[param] = spec
        target = targets[0]
        stmts, bound = self._inline(fn, core, inner, params, _renamed(target, names), where)
        if bound is not None:
            if not isinstance(target, ast.Name):
                raise InlineError(f"{where}: a returned comprehension must map one sequence to one name")
            names[target.id] = bound
        return self.block(out, {}, where) + stmts

    def _value(self, node: ast.expr, name: str, out: list) -> str:
        if isinstance(node, ast.Name):
            return node.id
        name = self.fresh(name)
        out.append(ast.Assign([ast.Name(name, ast.Store())], node))
        return name

    def _inline(self, fn: ast.FunctionDef, core, names: dict, params: list, target: ast.expr, where: str):
        """fn's statements in the caller's names, with its return assigned to
        target; and, when it returns a comprehension, the names of its
        elements, which target then names."""
        k = self.calls
        stmts, ret, value, defs, returned, stored, read = _parts(fn, where)
        # `a, b, c = param`, on a parameter given as a tuple of names, binds
        # a, b and c to those names: no statement is generated.
        counts = collections.Counter(stored)
        aliased: dict = {}
        for s in stmts:
            if not (type(s) is ast.Assign and len(s.targets) == 1 and type(s.value) is ast.Name
                    and s.value.id in params):
                continue
            given, spec = names[s.value.id], _spec(s.targets[0])
            if (isinstance(given, tuple) and isinstance(spec, tuple) and len(spec) == len(given)
                    and all(counts[n] == 1 for n in _flat(spec))):
                _bind(s.targets[0], given, aliased, where)
        if aliased:
            stmts = [s for s in stmts if not (type(s) is ast.Assign and set(_stored([s])) <= aliased.keys())]
        for name in dict.fromkeys(stored):
            names[name] = aliased[name] if name in aliased else self.fresh(f"{name}_{k}")
        if core is not None and core not in self.checked:
            self._check_globals(core, read, where)
            self.checked.add(core)
        for d in defs:
            self.local[names[d.name]] = (d, names, f"{where}.<locals>.{d.name}")
        out = self.block([s for s in stmts if s not in defs], names, where)
        if defs:
            bound = _spec(target)
            if bound is None or _shape(bound) != _shape(returned):
                raise InlineError(f"{where}: the functions a core returns must be bound to names")
            for t, d in zip(_flat(bound), _flat(returned)):
                self.local[t] = self.local[names[d]]
            return out, None
        if target is None:  # a call statement: the value is not kept
            value = None if ret is None else _renamed(ret.value, names)
            return out + ([] if value is None or _spec(value) is not None else [ast.Expr(value)]), None
        if ret is None:
            raise InlineError(f"{where}: a core must end in its one return")
        if type(value) is not ast.ListComp:
            value = _renamed(ret.value, names)
            if (type(target) is ast.Tuple and type(value) is ast.Tuple
                    and len(target.elts) == len(value.elts)
                    and not {n.id for n in _walk(value) if type(n) is ast.Name} & set(_flat(_spec(target) or ()))):
                return out + [ast.Assign([t], v) for t, v in zip(target.elts, value.elts)], None
            return out + [ast.Assign([target], value)], None
        # A comprehension over unrolled sequences: one element per pass, each
        # bound to its own name, and the target names that sequence.
        gen = value.generators[0]
        if len(value.generators) > 1 or gen.ifs or type(target) is not ast.Name:
            raise InlineError(f"{where}: a returned comprehension must map one sequence to one name")
        seqs = self._sequences(gen.iter, names)
        if seqs is None:
            raise InlineError(f"{where}: a loop must run over unrolled sequences")
        elements = []
        for i, inner in enumerate(self._passes(gen.target, seqs, names, where)):
            elements.append(self.fresh(f"{target.id}_{i}"))
            out.append(ast.Assign([ast.Name(elements[-1], ast.Store())], _renamed(value.elt, inner)))
        return out, tuple(elements)

    def _check_globals(self, core, read: set, where: str) -> None:
        """Each name the core reads and neither takes nor binds is a global or
        a builtin.  The generated code reads it from the template's module,
        so that must bind it to the core's object, or leave a builtin
        unbound, and the template must not bind it."""
        missing = object()
        for name in sorted(read):
            if name in self.taken:
                raise InlineError(f"{where}: global name {name!r} is bound by the template")
            if self.env.get(name, missing) is not core.__globals__.get(name, missing):
                raise InlineError(
                    f"{where}: global name {name!r} is not the core's object in the template's module"
                )

    @staticmethod
    def _sequences(it: ast.expr, names: dict) -> list | None:
        """The element names of what `for ... in it` runs over, one list per
        sequence of a zip, when each is an unrolled sequence; None otherwise."""
        zipped = isinstance(it, ast.Call) and getattr(it.func, "id", None) == "zip" and not it.keywords
        seqs = [names.get(q.id) if isinstance(q, ast.Name) else None for q in (it.args if zipped else [it])]
        return seqs if all(isinstance(q, tuple) for q in seqs) else None

    @staticmethod
    def _passes(target: ast.expr, seqs: list, names: dict, where: str):
        """The names of each unrolled pass of `for target in ...`."""
        for element in zip(*seqs) if len(seqs) > 1 else seqs[0]:
            inner = dict(names)
            _bind(target, element, inner, where)
            yield inner


class _Numbering:
    """Local value numbering of one function body: a pure statement whose
    value was already computed, from the same operands, since they were
    last bound, is dropped, and its names read the earlier ones.  So is a
    copy `a = b`, and a raise-guard or a check call already passed.

    Pure means built from names, constants, operators, attribute reads
    (the cores read fields of frozen values) and calls of a name or of a
    module's function, which the generated code calls only on plain
    values: the cores, math and the reference lookup are functions of their
    arguments.  A method call (rows.append) is not pure.  A statement that
    a try runs is numbered with those before it when every handler ends in a
    raise, since code after the try runs only if the whole body did."""

    def __init__(self, body: list, env: dict):
        self.env = env
        self.counts = collections.Counter(_stored(body))
        self.alias: dict[str, str] = {}

    def once(self, spec) -> bool:
        return all(self.counts[n] == 1 for n in _flat(spec))

    def scan(self, node) -> tuple[set, set, bool]:
        """node with its names read through the aliases, in place; the names
        it reads and binds, and whether it is pure."""
        reads, binds, pure = set(), set(), True
        for n in _walk(node):
            cls = type(n)
            if cls is ast.Name:
                n.id = self.alias.get(n.id, n.id)
                (binds if type(n.ctx) is ast.Store else reads).add(n.id)
            elif cls is ast.Call:
                f = n.func
                pure = pure and (type(f) is ast.Name or (
                    type(f) is ast.Attribute and type(f.value) is ast.Name
                    and isinstance(self.env.get(f.value.id), types.ModuleType)
                ))
            elif cls in _IMPURE:
                pure = False
        return reads, binds, pure

    def block(self, stmts: list, table: "_Table") -> list:
        out = []
        for s in stmts:
            cls = type(s)
            if cls is ast.Try and not s.orelse and not s.finalbody:
                for h in s.handlers:
                    self.scan(h)
                if all(type(h.body[-1]) is ast.Raise for h in s.handlers):
                    s.body = self.block(s.body, table)
                    if s.body:
                        out.append(s)
                    continue
                s.body = self.block(s.body, _Table())
                table.clear()
            elif cls is ast.For:
                self.scan(s.target)
                self.scan(s.iter)
                s.body = self.block(s.body, _Table())
                table.clear()
            elif cls is ast.Assign and len(s.targets) == 1:
                _, binds, _ = self.scan(s.targets[0])
                reads, _, pure = self.scan(s.value)
                spec = _spec(s.targets[0])
                if pure and spec is not None and self.once(spec):
                    key = _key(s.value)
                    known = table.known.get(key)
                    if known is not None and _shape(known) == _shape(spec):
                        self.alias.update(zip(_flat(spec), _flat(known)))
                        continue
                    if type(s.value) is ast.Name and isinstance(spec, str) and self.once(s.value.id):
                        self.alias[spec] = s.value.id
                        continue
                    table.kill(binds)
                    table.add(key, spec, reads | binds)
                else:
                    table.kill(binds)
            elif cls is ast.Expr or _is_guard(s):
                reads, binds, pure = self.scan(s)
                key = _key(s)
                if pure and key in table.known:
                    continue
                table.kill(binds)
                if pure:
                    table.add(key, (), reads)
            else:
                table.kill(self.scan(s)[1])
            out.append(s)
        return out


class _Table:
    """_Numbering's values computed so far: key -> the names holding it, and
    for each name the keys that read or hold it."""

    def __init__(self):
        self.known: dict = {}
        self.users: dict = collections.defaultdict(set)

    def add(self, key, spec, names: set) -> None:
        self.known[key] = spec
        for n in names:
            self.users[n].add(key)

    def kill(self, names: set) -> None:
        for n in names:
            for key in self.users.pop(n, ()):
                self.known.pop(key, None)

    def clear(self) -> None:
        self.known.clear()
        self.users.clear()


_IMPURE = (ast.Subscript, ast.Starred, *_BARRED)


def _key(node):
    """node's structure as nested tuples: equal exactly for the same
    expression on the same names (a constant by its repr, so 0.0 is not -0.0)."""
    cls = type(node)
    if cls is ast.Name:
        return node.id
    if cls is ast.Constant:
        return ("Constant", repr(node.value))
    if cls is list:
        return tuple(_key(n) for n in node)
    if isinstance(node, ast.AST):
        return (cls.__name__, *(_key(getattr(node, f, None)) for f in cls._fields if f != "ctx"))
    return node


def _shape(spec):
    return None if isinstance(spec, str) else tuple(_shape(s) for s in spec)


def _spans(stmts: list, at: list, spans: dict) -> None:
    """For each name in the statements, [first position, last position,
    read at the first, bound anywhere]: one position per statement of a try
    body and per other statement; a handler's reads fall at its try body's
    last position, where it may run.  Positions never decrease."""
    for s in stmts:
        if type(s) is ast.Try:
            _spans(s.body, at, spans)
            names = [(n.id, False) for n in _walk(s.handlers) if type(n) is ast.Name]
            pos = at[0] - 1
        else:
            names = [(n.id, type(n.ctx) is ast.Store) for n in _walk(s) if type(n) is ast.Name]
            if type(s) is ast.AugAssign:
                names.append((s.target.id, False))
            pos = at[0]
            at[0] += 1
        for name, stored in names:
            span = spans.get(name)
            if span is None:
                spans[name] = [pos, pos, not stored, stored]
                continue
            span[2] = span[2] or (pos == span[0] and not stored)
            span[1] = pos
            span[3] = span[3] or stored


def _coalesced(fn: ast.FunctionDef, taken: set) -> None:
    """fn with the names local to each top-level loop body renamed to fewer
    slots, v0, v1, ...: two names share one when the first is last read
    before the second is first bound.  A name qualifies when the body binds
    it before reading it and nothing outside the body names it.  Fewer
    local slots spare the interpreter EXTENDED_ARG on every local past the
    256th, which a fully inlined RK4 step reaches."""
    for loop in [s for s in fn.body if isinstance(s, ast.For)]:
        rest = [s for s in fn.body if s is not loop] + [loop.target, loop.iter]
        outside = {n.id for n in _walk(rest) if type(n) is ast.Name}
        spans: dict = {}
        _spans(loop.body, [0], spans)
        slots: list = []  # (last position read, slot name), least first
        renamed = {}
        count = 0
        # A name read at its first position is carried over from the last pass.
        for first, last, name in sorted(
            (first, last, name) for name, (first, last, read_first, bound) in spans.items()
            if bound and not read_first and name not in outside
        ):
            if slots and slots[0][0] < first:
                _, slot = heapq.heappop(slots)
            else:
                slot = f"v{count}"
                count += 1
                if slot in taken:
                    raise InlineError(f"generated name {slot!r} is already in use")
            renamed[name] = slot
            heapq.heappush(slots, (last, slot))
        for n in _walk(loop.body):
            if type(n) is ast.Name:
                n.id = renamed.get(n.id, n.id)


def _numbered(fn: ast.FunctionDef, env: dict, taken: set) -> None:
    """fn's body, and each nested function's on its own, value-numbered and
    then coalesced."""
    for n in _walk(fn.body):
        if type(n) is ast.FunctionDef:
            _numbered(n, env, taken)
    numbering = _Numbering(fn.body, env)
    fn.body = numbering.block(fn.body, _Table())
    for s in fn.body:
        if type(s) is not ast.FunctionDef:
            numbering.scan(s)
    _coalesced(fn, taken)



def inline_cores(template: Callable, cores, unrolled: dict[str, list]) -> Callable:
    """template, a function of module-level source, recompiled with every
    statement `targets = core(args...)` or `core(args...)` replaced by that
    core's own statements, then value-numbered (see _Numbering), and with
    the names local to a loop body sharing slots (see _coalesced).

    A core is inlined only when it is a docstring, straight-line statements
    (assignments, expression statements such as a check call, raise-guards
    `if c: raise ...`, loops over an unrolled sequence or a zip of two, and
    a try whose handlers are copied as they stand) and exactly one final
    return, or none for a check called as a statement; anything else raises
    InlineError, as does a template with
    defaults or a closure, which the recompiled function would drop.  Its
    own calls of cores are inlined too.  A core may also define functions
    and return them, as _loop_pair returns its rate and row: each later call
    of one is inlined like a core's, its free names read as the core's.

    Parameters become the caller's names and each local gets the call's
    suffix; an argument that is neither a name nor a tuple of names is bound
    to a generated name first, and `a, b = p` on a parameter given a tuple
    of names binds a and b to them.  unrolled maps a parameter of the
    template or of a function in it to the names of its elements, each a
    name or a tuple of names, say {"coords": [("lx0", "ly0"), ...]}: the
    function unpacks it into them, and every loop over it, and a list
    comprehension that a core returns over it, runs once per element on
    those names.  The float operations and the raises run in the same order
    as the calls would.

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
    specs = {
        param: tuple(e if isinstance(e, str) else tuple(e) for e in elements)
        for param, elements in unrolled.items()
    }
    inliner = _Inliner(cores, template.__globals__, taken, specs)
    for spec in specs.values():
        for name in _flat(spec):
            inliner.fresh(name)
    inliner.function(outer, {})
    _numbered(outer, template.__globals__, inliner.taken)
    code = compile(ast.fix_missing_locations(module), f"<inlined {template.__qualname__}>", "exec")
    (outer_code,) = (c for c in code.co_consts if isinstance(c, types.CodeType))
    return types.FunctionType(outer_code, template.__globals__, template.__name__)
