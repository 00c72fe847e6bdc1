"""Front-end parity golden: the lexer and parser must keep producing
exactly the tokens, trees and diagnostics recorded in
``tests/frontend_parity.json``.

For every input the fixture holds the SHA-256 of four canonical dumps:

* ``tokens``           strict :func:`tokenize_c` (or the exception);
* ``unit``             strict :func:`parse_c` (or the exception);
* ``recover_tokens``   recover-mode :func:`tokenize_c` plus its
                       diagnostics;
* ``resilient``        :func:`parse_c_resilient`'s unit plus its
                       diagnostics.

Inputs: every C file under ``examples/``, cgen corpora 0-4, ``corrupt()``
seeds 0-19 over those corpora, the smallest Table 1 program, and a few
lexical corner cases (:data:`EDGE_CASES`).  A
dump walks dataclasses field by field and sorts sets, so it does not
depend on the hash seed or on where the checkout lives.

Regenerate (only for an intended front-end change) with::

    PYTHONPATH=src python tests/test_frontend_parity.py
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.benchsuite.suite import PAPER_BENCHMARKS, generate_source
from repro.cfront.clexer import CLexError, tokenize_c
from repro.cfront.cparser import CParseError, parse_c, parse_c_resilient
from repro.testkit.cgen import corrupt, generate_c_corpus

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "frontend_parity.json"


#: Lexical corner cases: directives and continuations, unterminated
#: comments/strings/chars (a string or char stops at a newline only in
#: recover mode), non-ASCII letters and digits, stray bytes.
EDGE_CASES = {
    "directives": "#define A 1 \\\n  2\n  # if X\nint a; #x\n\t#pragma y\\\\\nint b;\n",
    "continuations": "int a\\\nb = 1;\\\r\nint c;\r\nint d = '\\\n';\n",
    "unterminated-comment": "int a; /* never closed\n int b;\n",
    "unterminated-string": "char *s = \"abc\nint x = 'q\nint y;\n",
    "trailing-backslash-string": "char *s = \"abc\\",
    "trailing-backslash-char": "int c = '\\",
    "escaped-newline-string": "char *s = \"a\\\nb\";\nint z;\n",
    "non-ascii": "int caf\u00e9 = 1; int \u00e9t\u00e9 = \u00b2; float g = 1.\u0663e\u0661;\n"
                 "int h = 0x1\u0660f; int k = .\u0663; int \u0663x; int y\u00b9 = x\u00bd;\n",
    "numbers": "x = 0x1fULf + 1e + 1.e+5F + .5 + 0X + 012L + 1..2 + 3.14.15 + 0xe+1;\n",
    "punctuation": "a...b<<=c>>=d->e++--f&&g||h!=i==j<=k>=l^=m|=n%=o?p:q;r[s]{t}~u,v.w;",
    "stray-bytes": "int a @ 1; int $b; int `c; \\ int d; int e\u00a0= 2;\n",
}


def _canon(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple((f.name, _canon(getattr(obj, f.name))) for f in dataclasses.fields(obj)),
        )
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_canon(x)) for x in obj)))
    if isinstance(obj, dict):
        return ("dict", tuple((repr(k), _canon(v)) for k, v in obj.items()))
    if isinstance(obj, enum.Enum):
        return obj.name
    return obj


def _digest(obj) -> str:
    # Headers found through an include path carry the checkout's
    # absolute path; the digest must not depend on where that is.
    text = repr(_canon(obj)).replace(str(ROOT), "<root>")
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _failure(exc: Exception) -> tuple[str, str]:
    return (type(exc).__name__, str(exc))


def inputs() -> dict[str, tuple[str, tuple[str, ...]]]:
    """name -> (C text, include paths for the resilient parse)."""
    out: dict[str, tuple[str, tuple[str, ...]]] = {}
    for path in sorted((ROOT / "examples").rglob("*.[ch]")):
        rel = path.relative_to(ROOT).as_posix()
        include = path.parent / "include"
        paths = (str(include),) if include.is_dir() else ()
        out[rel] = (path.read_text(encoding="utf-8"), paths)
    corpora = [generate_c_corpus(seed).sources() for seed in range(5)]
    for seed, sources in enumerate(corpora):
        for name, text in sources.items():
            out[f"cgen/{seed}/{name}"] = (text, ())
    for seed in range(20):
        sources = corpora[seed % 5]
        name = sorted(sources)[seed % len(sources)]
        out[f"corrupt/{seed}/{name}"] = (corrupt(sources[name], seed, 1 + seed % 3), ())
    for name, text in EDGE_CASES.items():
        out[f"edge/{name}.c"] = (text, ())
    smallest = min(PAPER_BENCHMARKS, key=lambda spec: spec.lines)
    out[f"table1/{smallest.name}"] = (generate_source(smallest), ())
    return out


def dumps(name: str, text: str, include_paths: tuple[str, ...]) -> dict[str, str]:
    filename = name.rsplit("/", 1)[-1]
    out = {}
    try:
        out["tokens"] = _digest(tokenize_c(text, filename))
    except CLexError as exc:
        out["tokens"] = _digest(_failure(exc))
    try:
        out["unit"] = _digest(parse_c(text, filename))
    except (CParseError, CLexError, ValueError) as exc:
        out["unit"] = _digest(_failure(exc))
    diagnostics: list = []
    tokens = tokenize_c(text, filename, recover=True, diagnostics=diagnostics)
    out["recover_tokens"] = _digest((tokens, diagnostics))
    result = parse_c_resilient(text, filename, include_paths=include_paths)
    out["resilient"] = _digest((result.unit, result.diagnostics))
    return out


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


_INPUTS = inputs()


def test_fixture_covers_every_input():
    assert sorted(_golden()) == sorted(_INPUTS)


@pytest.mark.parametrize("name", sorted(_INPUTS))
def test_frontend_matches_golden(name):
    text, include_paths = _INPUTS[name]
    assert dumps(name, text, include_paths) == _golden()[name]


if __name__ == "__main__":
    golden = {name: dumps(name, *_INPUTS[name]) for name in sorted(_INPUTS)}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} inputs to {FIXTURE}", file=sys.stderr)
