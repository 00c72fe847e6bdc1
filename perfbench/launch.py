"""Traced launcher: run an analyser entry point with span wrappers.

    python3 perfbench/launch.py --out FILE cli    -- <repro.checker arguments>
    python3 perfbench/launch.py --out FILE serve  -- <repro.serve arguments>
    python3 perfbench/launch.py --out FILE table1 -- <table1_child arguments>

Times the import of the entry module, installs the wrappers of
:mod:`tracer`, runs the entry point's ``main`` exactly as its own
``__main__`` would, restores every wrapped function, and writes the
per-layer aggregates to ``FILE`` and the spans as Chrome trace events to
``FILE`` with ``.trace.json`` in place of ``.json``.  In ``serve`` and
``table1`` mode the aggregates at the end of the first request (the
daemon's first ``analyze``, the Table 1 warm-up) are kept as well, so
the set-up can be subtracted.
"""

import importlib
import os
import sys
import time

ENTRY = {
    "cli": "repro.checker.cli",
    "serve": "repro.serve.cli",
    "table1": "table1_child",
}


def main() -> int:
    started = time.perf_counter()
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    head, rest = argv[:split], argv[split + 1 :]
    if len(head) != 3 or head[0] != "--out" or head[2] not in ENTRY:
        print(__doc__, file=sys.stderr)
        return 2
    out, mode = head[1], head[2]
    # Only modules every interpreter has loaded are used before the timed
    # import, so it starts from the state ``python -m repro.checker`` does.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

    begin = time.perf_counter()
    module = importlib.import_module(ENTRY[mode])
    import_s = time.perf_counter() - begin
    modules = len(sys.modules)
    numpy_loaded = "numpy" in sys.modules

    import json
    from pathlib import Path

    import tracer as tracing

    tracer = tracing.Tracer()
    records = tracing.install(tracer, callers=(ENTRY[mode],))
    marks = []
    if mode in ("serve", "table1"):
        # Keep the aggregates at the end of the first request (the
        # daemon's first ``analyze``, the Table 1 warm-up) so the
        # set-up can be subtracted.
        if mode == "serve":
            from repro.serve.session import Session as owner

            attr = "analyze"
        else:
            owner, attr = module, "one_pass"
        first = getattr(owner, attr)

        def marked(*args, **kwargs):
            result = first(*args, **kwargs)
            if not marks:
                marks.append(tracer.snapshot())
            return result

        setattr(owner, attr, marked)
        records.append((owner, attr, first))

    try:
        code = module.main(rest)
    finally:
        tracing.restore(records)
        summary = {
            "mode": mode,
            "import_s": import_s,
            "modules": modules,
            "numpy_loaded": numpy_loaded,
            "wall_s": time.perf_counter() - started,
            "mark": marks[0] if marks else None,
            "final": tracer.snapshot(),
            "durations": {
                name: values
                for name, values in tracer.durations.items()
                if name.startswith("serve.")
            },
            "dropped_events": tracer.dropped,
        }
        Path(out).write_text(json.dumps(summary))
        trace = {"traceEvents": tracer.chrome_events(), "displayTimeUnit": "ms"}
        Path(out).with_suffix(".trace.json").write_text(json.dumps(trace))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
