"""Per-layer tracing of invtrack from outside the package.

The tracer replaces every public function of the package, every public
method of its classes and every dataclass validation hook (__post_init__)
with a timing wrapper.  It patches the names that callers look up: a
function imported by several modules (``from .observer import
observer_field``) is replaced in each of them, so calls are caught whichever
module makes them.  Nothing under ``src/`` changes, and uninstall() puts the
originals back.

Memory stays bounded however many calls a run makes:

- every wrapped name is aggregated as calls, total time and self time (total
  minus the time of wrapped callees);
- full spans (name, start, end, parent, analysis id) are kept only for the
  analysis itself (depth 1, ``cli.main``) and the layers it enters directly
  (depth 2), up to MAX_SPANS.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import types

PACKAGE = "invtrack"
SPAN_DEPTH = 2
MAX_SPANS = 200_000
MODULES = (
    "se2", "numerics", "robot", "trajectories", "controller", "observer",
    "closed_loop", "ekf", "mech", "scenario", "reporting", "cli",
)


def _columns(args, kwargs) -> int:
    point = args[1] if len(args) > 1 else kwargs["point"]
    return len(point)


def _bytes(args, kwargs) -> int:
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


# Work counted from the arguments, beyond the call count.
_ARG_COUNTS = {"numerics.jacobian_fd": _columns, "reporting.write_text": _bytes}


class Tracer:
    """Install with install(), read ``stats`` and ``spans``, then uninstall()."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, arg_count]
        self.spans: list = []
        self.dropped_spans = 0
        self.analysis_id = None
        self._child = [0.0]        # time spent in wrapped callees, per open frame
        self._open_spans = [None]  # span ids of the open depth <= SPAN_DEPTH frames
        self._undo: list = []

    def _wrap(self, name: str, fn):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        arg_count = _ARG_COUNTS.get(name)
        child = self._child
        open_spans = self._open_spans
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(child)
            sid = None
            if depth <= SPAN_DEPTH:
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)
                    open_spans.append(sid)
                else:
                    self.dropped_spans += 1
            if arg_count is not None:
                rec[3] += arg_count(args, kwargs)
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child.pop()
                elapsed = end - start
                child[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - inner
                if sid is not None:
                    open_spans.pop()
                    spans[sid] = (name, start, end, open_spans[-1], self.analysis_id)

        return wrapper

    def install(self) -> "Tracer":
        mods = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        mods.append(importlib.import_module(PACKAGE))
        replaced: dict[int, object] = {}
        for mod in mods[:-1]:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType):
                    replaced[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(short, obj)
        # Rebind every module-level name that refers to a wrapped function.
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_class(self, short: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr == "__post_init__":
                name = f"{short}.{cls.__name__}"  # one call per validated construction
            elif attr.startswith("_"):
                continue
            else:
                name = f"{short}.{cls.__name__}.{attr}"
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(name, obj))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # Aggregates --------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def arg_count(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0, 0))[3]

    def matching(self, predicate) -> list[str]:
        return [n for n in self.stats if predicate(n)]
