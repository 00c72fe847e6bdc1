"""The repository's benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload qlint-cold --seed 3 --seconds 12 --trace 0

Generates the workload's inputs from ``--seed``, runs it as a
closed-loop client for ``--seconds`` seconds, checks every operation's
output, and prints as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (see BENCHMARK.json); ``--trace 1``
instead runs a fixed number of operations, half of them under the span
launcher, and reports the per-layer metrics.  Workloads and metrics are
described in ``perfbench/NOTES.md``.

Inputs, reports and the Chrome traces of traced runs are written under
``.bench_work/`` in the checkout; only ``.bench_work/traces`` is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="input size (tiny: self-tests)"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no analyser sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from procs import SPEED, pin_to_one_cpu
    from workloads import BENCHMARK, WORKLOADS, Result, Run

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    pin_to_one_cpu()
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work, args.size)
    result = Result()
    try:
        with SPEED:
            WORKLOADS[args.workload](run, result)
    except (RuntimeError, ValueError, KeyError) as exc:
        # A child that died or answered an error or garbage: one failed
        # operation, and the run stops there.
        result.op([f"{type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not result.metrics:
        listed = BENCHMARK["per_layer" if args.trace else "end_to_end"]
        result.metrics = {m["name"]: (0.0, m["unit"]) for m in listed}

    for note in result.notes:
        print(note)
    for problem in result.run_problems + result.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
