"""Per-layer metrics of a traced run, computed from the launcher's
summaries (see :mod:`launch`) and the client-observed times.

Times and counts are per operation of the workload: one cold CLI run,
one Table 1 pass, one daemon edit or one re-analysis.  The daemon's
set-up (its first ``analyze``) is subtracted.  A layer the workload
never enters reads 0.  The metric names and units are those of
``per_layer`` in BENCHMARK.json.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

#: Layers reported with a ``self_ms`` metric (span time minus the time
#: of the spans it encloses), named after the ``src/repro`` modules.
SELF_TIME_LAYERS = (
    "cfront.cpp",
    "cfront.clexer",
    "cfront.cparser",
    "cfront.sema",
    "constinfer.analysis",
    "constinfer.engine",
    "qual.solver",
    "qual.flatcore",
    "qual.poly",
    "whole.linker",
    "whole.ownership",
    "flowsens.lower",
    "flowsens.linear",
    "checker.engine",
    "checker.render",
    "constinfer.cache",
)

#: Counters, per operation: (metric, layer, tracer counter key).
COUNTERS = (
    ("cfront.cpp.calls", "cfront.cpp", "calls"),
    ("cfront.clexer.tokens", "cfront.clexer", "tokens"),
    ("cfront.cparser.calls", "cfront.cparser", "calls"),
    ("constinfer.analysis.signatures", "constinfer.analysis", "signatures"),
    ("constinfer.analysis.constraints", "constinfer.analysis", "constraints"),
    ("qual.solver.calls", "qual.solver", "calls"),
    ("qual.solver.vars", "qual.solver", "vars"),
    ("qual.flatcore.calls_numpy", "qual.flatcore", "calls_numpy"),
    ("qual.flatcore.calls_stdlib", "qual.flatcore", "calls_stdlib"),
    ("qual.poly.schemes", "qual.poly", "schemes"),
    ("whole.linker.units", "whole.linker", "units"),
    ("whole.ownership.functions", "whole.ownership", "functions"),
    ("flowsens.lower.calls", "flowsens.lower", "calls"),
    ("flowsens.linear.functions", "flowsens.linear", "functions"),
    ("checker.render.bytes", "checker.render", "bytes"),
    ("constinfer.cache.hits", "constinfer.cache", "hits"),
    ("constinfer.cache.misses", "constinfer.cache", "misses"),
)

_EMPTY = {"self_s": {}, "counts": {}, "top_s": 0.0, "calls": {}}
_DID_CHANGE = "serve.session.Session.did_change"
_ANALYZE = "serve.session.Session.analyze"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(
    summaries: list[dict],
    ops: int,
    traced_walls: list[float],
    traced_cpu: list[float],
    plain_cpu: list[float],
    requests: list[tuple[str, float]] | None = None,
    edits: bool = False,
) -> dict[str, float]:
    """The per-layer metrics.

    ``summaries`` are the launcher outputs of the traced processes,
    ``ops`` the operations they served, ``traced_walls`` the
    client-observed times of those operations, and ``traced_cpu`` and
    ``plain_cpu`` the analyser's CPU times of each operation, at the
    reference speed, with and without tracing.  ``requests`` (daemon only) holds the method
    (``did_change`` or ``analyze``) and client-observed latency of every
    traced request after the first ``analyze``, in order; ``edits``
    says whether the analyses followed edits or re-read an unchanged
    tree.
    """
    self_s: Counter[str] = Counter()
    counts: defaultdict[str, Counter[str]] = defaultdict(Counter)
    inside = 0.0
    lowered = 0
    for summary in summaries:
        final, mark = summary["final"], summary["mark"] or _EMPTY
        for layer, seconds in final["self_s"].items():
            self_s[layer] += seconds - mark["self_s"].get(layer, 0.0)
        for layer, values in final["counts"].items():
            before = mark["counts"].get(layer, {})
            for key, value in values.items():
                counts[layer][key] += value - before.get(key, 0)
        inside += final["top_s"] - mark["top_s"]
        if summary["mode"] == "cli":
            inside += summary["import_s"]
        lowered += sum(1 for key in final["counts"].get("flowsens.lower", {}) if key.startswith("fn:"))

    out: dict[str, float] = {
        "import.checker_cli_ms": _median(s["import_s"] for s in summaries) * 1000,
        "import.modules": summaries[-1]["modules"],
        "import.numpy_loaded": int(summaries[-1]["numpy_loaded"]),
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_ms"] = self_s[layer] * 1000 / ops
    for name, layer, key in COUNTERS:
        out[name] = counts[layer][key] / ops
    lookups = counts["constinfer.cache"]["hits"] + counts["constinfer.cache"]["misses"]
    out["constinfer.cache.hit_ratio"] = (
        counts["constinfer.cache"]["hits"] / lookups if lookups else 0.0
    )
    out["flowsens.lower.calls_per_function"] = (
        counts["flowsens.lower"]["calls"] / lowered if lowered else 0.0
    )
    out["cfront.cparser.parses_per_edit"] = 0.0
    for name in ("did_change_ms", "analyze_ms", "reanalyze_ms"):
        out[f"serve.session.{name}"] = 0.0
    out["serve.rpc_ms"] = 0.0
    if requests is not None:
        (summary,) = summaries
        skip = summary["mark"]["calls"]
        spans = {
            "did_change": iter(summary["durations"].get(_DID_CHANGE, [])[skip.get(_DID_CHANGE, 0) :]),
            "analyze": iter(summary["durations"][_ANALYZE][skip.get(_ANALYZE, 0) :]),
        }
        session_s: defaultdict[str, list[float]] = defaultdict(list)
        gaps = []
        for method, client_s in requests:
            span = next(spans[method])
            session_s[method].append(span)
            gaps.append(client_s - span)
        if edits:
            out["cfront.cparser.parses_per_edit"] = counts["cfront.cparser"]["calls"] / ops
            out["serve.session.did_change_ms"] = _median(session_s["did_change"]) * 1000
            out["serve.session.analyze_ms"] = _median(session_s["analyze"]) * 1000
        else:
            out["serve.session.reanalyze_ms"] = _median(session_s["analyze"]) * 1000
        out["serve.rpc_ms"] = _median(gaps) * 1000
    out["trace.coverage"] = inside / sum(traced_walls) if traced_walls else 0.0
    out["trace.overhead_ratio"] = (
        _median(traced_cpu) / _median(plain_cpu) - 1.0 if plain_cpu else 0.0
    )
    return out
