"""Seeded inputs for every workload, their digests, and the recorded
fingerprints.

The generators live under ``src/`` (``repro.testkit.cgen`` and
``repro.benchsuite.generator``), so a change there would change what the
benchmark measures.  ``fingerprints.json`` records, per input generator,
the digest of its output for seeds 0-99.  Every run checks one of them:
its own seed's when it is recorded, otherwise that of ``seed % 100``;
a mismatch makes the run incorrect.  After a deliberate generator
change, refresh the file with::

    python3 perfbench/inputs.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"
RECORDED_SEEDS = range(100)

#: Tables 1 and 2 of the paper: name, lines, description and the
#: Declared / Mono / Poly / Total const counts.  The counts are both the
#: generator's target mix and the reference the output check compares
#: against; they are copied from the paper, not from ``src/``.
TABLE2: tuple[tuple[str, int, str, int, int, int, int], ...] = (
    ("woman-3.0a", 1496, "Replacement for man package", 50, 67, 72, 95),
    ("patch-2.5", 5303, "Apply a diff file to an original", 84, 99, 107, 148),
    ("m4-1.4", 7741, "Unix macro preprocessor", 88, 249, 262, 370),
    ("diffutils-2.7", 8741, "Collection of utilities for diffing files", 153, 209, 243, 372),
    ("ssh-1.2.26", 18620, "Secure shell", 147, 316, 347, 547),
    ("uucp-1.04", 36913, "Unix to unix copy package", 433, 1116, 1299, 1773),
)

#: Input sizes: ``full`` is what the benchmark measures, ``tiny`` is for
#: the self-tests.
SIZES = {
    "full": {"units": 40, "families": 60, "xtu_programs": 60, "table1": len(TABLE2)},
    "tiny": {"units": 3, "families": 4, "xtu_programs": 3, "table1": 1},
}

_XTU_NAMES = re.compile(r"\b(mk_buf|rel_buf|peek_buf|chain_rel|fn\d+_[a-z]+)\b")


def _src_on_path() -> None:
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def qlint_corpus(seed: int, size: str = "full") -> dict[str, str]:
    """The ``qlint-cold`` and ``daemon-edit`` corpus: one seeded cgen
    program of many units, each carrying the shared prototype header."""
    _src_on_path()
    from repro.testkit.cgen import generate_c_corpus

    spec = SIZES[size]
    corpus = generate_c_corpus(seed, n_units=spec["units"], n_families=spec["families"])
    return corpus.sources()


def xtu_corpus(seed: int, size: str = "full") -> tuple[dict[str, str], dict[str, frozenset[str]]]:
    """The ``whole-program`` corpus: seeded three-unit cross-TU resource
    programs side by side.  Every helper and function name gets the
    program's prefix so the programs link apart; returns the files and,
    per prefix, the linearity-pack findings the generator planted."""
    _src_on_path()
    from repro.testkit.cgen import generate_resource_xtu_program

    files: dict[str, str] = {}
    expected: dict[str, frozenset[str]] = {}
    for index in range(SIZES[size]["xtu_programs"]):
        prefix = f"p{index:02d}"
        program = generate_resource_xtu_program(seed * 100 + index)
        expected[prefix] = program.expected
        for name, text in program.units.items():
            files[f"{prefix}_{name}"] = _XTU_NAMES.sub(
                lambda m: f"{m.group(1)}_{prefix}", text
            )
    return files, expected


def table1_sources(seed: int, size: str = "full") -> dict[str, str]:
    """The Table 1 programs with the paper's position mixes, regenerated
    from ``seed``."""
    _src_on_path()
    from repro.benchsuite.generator import PositionMix, generate_benchmark

    out = {}
    for index, (name, lines, description, *counts) in enumerate(
        TABLE2[: SIZES[size]["table1"]]
    ):
        mix = PositionMix.from_table2(*counts)
        out[name] = generate_benchmark(name, (1101 + index) * 1000 + seed, mix, lines, description)
    return out


def edit_text(base: str, op: int, rng: random.Random) -> str:
    """A unit's text after the ``op``-th edit: its original text plus one
    new function.  ``op`` is in the function's name, so no two edits
    produce the same text and every edit is a cache miss."""
    return base + (
        f"\nint edit_probe_{op}(const char *s, int n) {{\n"
        "    int total = n;\n"
        "    if (s)\n"
        f"        total = total + s[0] + {rng.randrange(1000)};\n"
        "    return total;\n"
        "}\n"
    )


def digest(files: dict[str, str]) -> str:
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name].encode() + b"\0")
    return h.hexdigest()[:16]


def _xtu_digest(seed: int) -> str:
    files, expected = xtu_corpus(seed)
    planted = {f"{p}.expected": ",".join(sorted(e)) for p, e in expected.items()}
    return digest({**files, **planted})


#: Digest of each input generator's output for a seed.
GENERATORS = {
    "cgen-corpus": lambda seed: digest(qlint_corpus(seed)),
    "xtu-corpus": _xtu_digest,
    "table1": lambda seed: digest(table1_sources(seed)),
}
#: The generator behind each workload's inputs.
GENERATOR_OF = {
    "qlint-cold": "cgen-corpus",
    "daemon-edit": "cgen-corpus",
    "daemon-reanalyze": "cgen-corpus",
    "whole-program": "xtu-corpus",
    "table1": "table1",
}


def check_fingerprint(workload: str, seed: int) -> str | None:
    """A message when the inputs of ``workload`` no longer match their
    recorded digest, ``None`` when they do.  Seeds outside the recorded
    range are checked through ``seed % 100``, so a generator change
    shows whatever seed a run uses."""
    generator = GENERATOR_OF[workload]
    checked = seed % len(RECORDED_SEEDS)
    recorded = json.loads(FINGERPRINTS.read_text())[generator][str(checked)]
    actual = GENERATORS[generator](checked)
    if recorded == actual:
        return None
    return (
        f"input fingerprint mismatch for {workload} ({generator} seed {checked}): "
        f"recorded {recorded}, generated {actual}"
    )


def main() -> int:
    table = {
        name: {str(seed): make(seed) for seed in RECORDED_SEEDS}
        for name, make in GENERATORS.items()
    }
    FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FINGERPRINTS.name}: {len(table)} generators x {len(RECORDED_SEEDS)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
