"""Span tracing installed from outside the program under test.

:func:`install` replaces the public entry points of each ``repro`` layer
with timing wrappers — on the defining module or class *and* on every
loaded ``repro`` module that imported the function by name — so nothing
under ``src/`` changes.  Spans stay in memory; :meth:`Tracer.snapshot`
returns their per-layer aggregates and :meth:`Tracer.chrome_events` renders them
as Chrome trace events (which Perfetto opens).  :func:`restore` puts
every original back.

The tracer is single-threaded by design: the analyser runs with
``jobs=1`` in every workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable

#: Chrome-trace events kept per process; later spans are still
#: aggregated, only their individual events are dropped.
MAX_EVENTS = 200_000


def _tokens(args, kwargs, result, outer):
    return {"tokens": len(result)}


def _one(counter: str):
    def count(args, kwargs, result, outer):
        return {counter: 1}

    return count


def _solver(args, kwargs, result, outer):
    stats = getattr(result, "stats", None)
    return {"calls": 1, "vars": stats.variables if stats is not None else 0}


def _linker(args, kwargs, result, outer):
    units = args[0] if args else kwargs.get("units", ())
    return {"units": len(units)}


def _ownership(args, kwargs, result, outer):
    return {"functions": len(result)}


def _lower(args, kwargs, result, outer):
    # Each distinct function lowered is one ``fn:<name>`` key, so calls
    # per function can be derived without a second structure.
    fdef = args[0] if args else kwargs["fdef"]
    return {"calls": 1, "fn:" + str(getattr(fdef, "name", id(fdef))): 1}


def _render(args, kwargs, result, outer):
    return {"bytes": len(result.encode("utf-8"))}


def _cache_get(args, kwargs, result, outer):
    return {"misses": 1} if result is None else {"hits": 1}


def _constraints_before(args, kwargs):
    return len(args[0].constraints)


def _signature(args, kwargs, result, outer, before=0):
    out = {"signatures": 1}
    if outer:
        out["constraints"] = len(args[0].constraints) - before
    return out


def _analysis(args, kwargs, result, outer, before=0):
    return {"constraints": len(args[0].constraints) - before} if outer else {}


#: (layer, module, attribute path, counter, pre-call hook).  The
#: attribute path is ``func`` or ``Class.method``.  A counter maps
#: (args, kwargs, result, outermost-in-layer) to counter increments.
SPANS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("cfront.cpp", "repro.cfront.cpp", "preprocess", _one("calls"), None),
    ("cfront.clexer", "repro.cfront.clexer", "tokenize_c", _tokens, None),
    ("cfront.cparser", "repro.cfront.cparser", "parse_c", _one("calls"), None),
    ("cfront.cparser", "repro.cfront.cparser", "parse_c_resilient", _one("calls"), None),
    ("cfront.sema", "repro.cfront.sema", "Program.from_source", None, None),
    ("cfront.sema", "repro.cfront.sema", "Program.from_units", None, None),
    ("constinfer.analysis", "repro.constinfer.analysis",
     "ConstInference.make_signature", _signature, _constraints_before),
    ("constinfer.analysis", "repro.constinfer.analysis",
     "ConstInference.analyze_function", _analysis, _constraints_before),
    ("constinfer.engine", "repro.constinfer.engine", "run_mono", None, None),
    ("constinfer.engine", "repro.constinfer.engine", "run_poly", None, None),
    # ``repro.qual.solver.solve`` delegates to IndexedSystem.solve, which
    # the const-inference engine also calls directly.
    ("qual.solver", "repro.qual.solver", "IndexedSystem.solve", _solver, None),
    ("qual.flatcore", "repro.qual.flatcore", "solve_indexed", None, None),
    ("qual.flatcore", "repro.qual.flatcore", "FlatSystem.solve_masks", None, None),
    ("qual.poly", "repro.qual.poly", "generalize", _one("schemes"), None),
    ("whole.linker", "repro.whole.linker", "link_units", _linker, None),
    ("whole.ownership", "repro.whole.ownership", "ownership_for_linked", _ownership, None),
    ("flowsens.lower", "repro.flowsens.lower", "lower_function", _lower, None),
    ("flowsens.linear", "repro.flowsens.linear", "analyze_function_resources",
     _one("functions"), None),
    ("checker.engine", "repro.checker.engine", "check_program", None, None),
    ("checker.engine", "repro.checker.engine", "check_linked_program", None, None),
    ("checker.render", "repro.checker.render", "render_report", _render, None),
    ("constinfer.cache", "repro.constinfer.cache", "AnalysisCache.get", _cache_get, None),
    ("constinfer.cache", "repro.constinfer.cache", "AnalysisCache.put", None, None),
    ("serve.session", "repro.serve.session", "Session.did_change", None, None),
    ("serve.session", "repro.serve.session", "Session.analyze", None, None),
)

#: Count-only hooks (no span): which flat kernel actually ran.
COUNTS: tuple[tuple[str, str, str, str], ...] = (
    ("qual.flatcore", "repro.qual.flatcore", "_kernel_fast", "calls_numpy"),
    ("qual.flatcore", "repro.qual.flatcore", "_kernel_slow", "calls_stdlib"),
)


class Tracer:
    """In-memory spans with per-layer self time and counters."""

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.events: list[tuple[str, str, float, float]] = []
        self.dropped = 0
        self._stack: list[list[float]] = []
        self._depth: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, Counter[str]] = defaultdict(Counter)
        #: Time inside outermost spans (nothing traced encloses them).
        self.top_s = 0.0
        #: Durations of every call, per qualified name, in call order.
        self.durations: defaultdict[str, list[float]] = defaultdict(list)

    def wrap(self, layer: str, name: str, fn, counter=None, pre=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            before = pre(args, kwargs) if pre is not None else None
            outer = tracer._depth[layer] == 0
            tracer._depth[layer] += 1
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tracer._stack.pop()
                tracer._depth[layer] -= 1
                tracer.self_s[layer] += elapsed - frame[0]
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                else:
                    tracer.top_s += elapsed
                tracer.durations[name].append(elapsed)
                if len(tracer.events) < MAX_EVENTS:
                    tracer.events.append((layer, name, start - tracer.origin, elapsed))
                else:
                    tracer.dropped += 1
            if counter is not None:
                extra = () if pre is None else (before,)
                tracer.counts[layer].update(counter(args, kwargs, result, outer, *extra))
            return result

        return traced

    def count_only(self, layer: str, key: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[layer][key] += 1
            return fn(*args, **kwargs)

        return counted

    def snapshot(self) -> dict[str, Any]:
        """The aggregates so far, for subtracting a set-up phase."""
        return {
            "self_s": dict(self.self_s),
            "counts": {layer: dict(c) for layer, c in self.counts.items()},
            "top_s": self.top_s,
            "calls": {name: len(d) for name, d in self.durations.items()},
        }

    def chrome_events(self, pid: int = 1) -> list[dict[str, Any]]:
        return [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(elapsed * 1e6, 3),
                "pid": pid,
                "tid": 1,
            }
            for layer, name, start, elapsed in self.events
        ]


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) for ``func`` or ``Class.method``;
    class attributes are read from ``__dict__`` so a classmethod stays a
    classmethod."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, value


def install(tracer: Tracer, callers: tuple[str, ...] = ()) -> list[tuple[Any, str, Any]]:
    """Wrap every entry point in :data:`SPANS` and :data:`COUNTS`.

    References held by ``repro`` modules and by the modules named in
    ``callers`` are replaced too.  Returns the (owner, attribute,
    original) records :func:`restore` needs.  Importing the layer modules
    here means lazily imported modules are loaded before the traced
    entry point runs.
    """
    records: list[tuple[Any, str, Any]] = []
    replaced: dict[int, tuple[Any, Any]] = {}
    hooks = [(layer, m, p, ("span", c, pre)) for layer, m, p, c, pre in SPANS]
    hooks += [(layer, m, p, ("count", key, None)) for layer, m, p, key in COUNTS]
    for layer, module_name, path, (kind, extra, pre) in hooks:
        owner, attr, original = _resolve(module_name, path)
        name = f"{module_name.removeprefix('repro.')}.{path}"
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(layer, name, original.__func__, extra, pre))
        elif kind == "span":
            wrapped = tracer.wrap(layer, name, original, extra, pre)
        else:
            wrapped = tracer.count_only(layer, extra, original)
        setattr(owner, attr, wrapped)
        records.append((owner, attr, original))
        if not isinstance(owner, type):
            replaced[id(original)] = (original, wrapped)
    # Callers that imported a function by name hold their own reference.
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name.startswith("repro.") or module_name in callers):
            continue
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                records.append((module, attr, value))
    return records


def restore(records: list[tuple[Any, str, Any]]) -> None:
    """Undo :func:`install`, newest first."""
    for owner, attr, original in reversed(records):
        setattr(owner, attr, original)
