"""The ``table1`` analysing process.

Imports the const-inference entry points, regenerates the Table 1
programs from the seed, and then answers each ``pass`` line on stdin with one pass over the programs
(``Program.from_source``, ``run_mono``, ``run_poly``) and a JSON line of
the Declared / Mono / Poly / Total counts and the pass's CPU seconds.
A ``warmup`` line does the same for the first program only.  Exits at
end of input.

    python3 perfbench/table1_child.py --seed 3 [--size tiny]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cfront.sema import Program  # noqa: E402
from repro.constinfer.engine import run_mono, run_poly  # noqa: E402

import inputs  # noqa: E402


def one_pass(sources: dict[str, str]) -> dict[str, list[int]]:
    counts = {}
    for name, text in sources.items():
        program = Program.from_source(text, name)
        mono = run_mono(program)
        poly = run_poly(program)
        counts[name] = [
            mono.declared_count(),
            mono.inferred_const_count(),
            poly.inferred_const_count(),
            mono.total_positions(),
        ]
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full")
    args = parser.parse_args(argv)
    sources = inputs.table1_sources(args.seed, args.size)
    first = dict(list(sources.items())[:1])
    for line in sys.stdin:
        command = line.strip()
        if command in ("pass", "warmup"):
            start = time.process_time()
            counts = one_pass(sources if command == "pass" else first)
            cpu_s = time.process_time() - start
            print(json.dumps({"counts": counts, "cpu_s": cpu_s}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
