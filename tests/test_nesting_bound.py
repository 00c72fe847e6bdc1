"""The parser's nesting bound: deep input becomes a ``nesting too deep``
parse error — a per-file error in strict mode, a ``partial`` unit in
best-effort mode — never a ``RecursionError``, and a file within the
bound still parses in both modes.  Long ``else if`` chains and stacked
labels are not nesting: they parse at any length the later passes
take."""

import json

import pytest

from repro.cfront.cast import (
    CaseStmt,
    Ident,
    IfStmt,
    IntConst,
    LabeledStmt,
    ReturnStmt,
    SwitchStmt,
)
from repro.cfront.cparser import MAX_NESTING, CParseError, parse_c, parse_c_resilient
from repro.checker.cli import main
from repro.serve import Server, Session

#: A sibling unit with one finding, so "still reported" is observable.
SIBLING = (
    "int printf(const char *fmt, ...);\n"
    "char *getenv(const char *name);\n"
    'void greet(void) { printf(getenv("NAME")); }\n'
)


def parens(n: int) -> str:
    return "int f(int x) {\n    return " + "(" * n + "x" + ")" * n + ";\n}\n"


#: One deeply nested instance per recursive construct of the grammar.
NESTED = {
    "parens": parens,
    "blocks": lambda n: "void f(void) " + "{" * n + "}" * n + "\n",
    "ifs": lambda n: "void f(int x) {\n" + "if (x) " * n + "x = 1;\n}\n",
    "unary": lambda n: "int f(int x) { return " + "-" * n + "x; }\n",
    "casts": lambda n: "int f(int x) { return " + "(int)" * n + "x; }\n",
    "initializers": lambda n: "int a[1] = " + "{" * n + "1" + "}" * n + ";\n",
    "declarators": lambda n: "int " + "(" * n + "x" + ")" * n + ";\n",
    "structs": lambda n: "".join(f"struct s{i} {{ " for i in range(n)) + "int x; " + "} y; " * n + "\n",
    "parameters": lambda n: "void f(" + "void (*)(" * n + "void" + ")" * n + ");\n",
}


@pytest.mark.parametrize("mode", ["strict", "recover"])
def test_100_nested_parentheses_parse(mode):
    source = parens(100)
    if mode == "strict":
        unit = parse_c(source)
    else:
        result = parse_c_resilient(source)
        assert result.ok, [str(d) for d in result.diagnostics]
        unit = result.unit
    (func,) = unit.functions()
    (stmt,) = func.body.body
    assert isinstance(stmt, ReturnStmt) and stmt.value == Ident("x")


def else_if_chain(n: int) -> str:
    arms = "".join(f"    else if (x == {i}) y = {i};\n" for i in range(1, n))
    return f"int f(int x) {{\n    int y = 0;\n    if (x == 0) y = 0;\n{arms}    return y;\n}}\n"


def stacked_labels(n: int) -> str:
    labels = "".join(f"    case {i}:\n" for i in range(n))
    return f"int g(int x) {{\n  switch (x) {{\n{labels}    return 1;\n  }}\n  return 0;\n}}\n"


#: Chains far longer than MAX_NESTING that must still parse.
CHAINS = {"else-if": else_if_chain(500), "case-labels": stacked_labels(200)}


@pytest.mark.parametrize("mode", ["strict", "recover"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_long_chains_are_not_nesting(chain, mode):
    source = CHAINS[chain]
    if mode == "strict":
        unit = parse_c(source)
    else:
        result = parse_c_resilient(source)
        assert result.ok, [str(d) for d in result.diagnostics]
        unit = result.unit
    (func,) = unit.functions()
    stmt = func.body.body[1 if chain == "else-if" else 0]
    if chain == "else-if":
        arms = 0
        while isinstance(stmt, IfStmt):
            arms, stmt = arms + 1, stmt.other
        assert (arms, stmt) == (500, None)
    else:
        assert isinstance(stmt, SwitchStmt)
        (stmt,) = stmt.body.body
        labels = 0
        while isinstance(stmt, CaseStmt):
            labels, stmt = labels + 1, stmt.stmt
        assert labels == 200 and isinstance(stmt, ReturnStmt)


def test_mixed_stacked_labels_nest_right():
    unit = parse_c(
        "int g(int x) { switch (x) { case 1: out: default: case 2: return x; } return 0; }"
    )
    (switch, _) = unit.functions()[0].body.body
    (stmt,) = switch.body.body
    shape = []
    while isinstance(stmt, (CaseStmt, LabeledStmt)):
        shape.append(stmt.label if isinstance(stmt, LabeledStmt) else stmt.value)
        stmt = stmt.stmt
    assert shape == [IntConst(1), "out", None, IntConst(2)]
    assert isinstance(stmt, ReturnStmt)


@pytest.mark.parametrize("best_effort", [False, True])
def test_cli_analyses_long_chains(tmp_path, capsys, best_effort):
    for chain, source in CHAINS.items():
        (tmp_path / f"{chain}.c").write_text(source)
    args = [str(tmp_path), "--format", "json"] + (["--best-effort"] if best_effort else [])
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["diagnostics"] == []
    assert "error" not in err and "partial" not in err and "skipped" not in err


@pytest.mark.parametrize("construct", sorted(NESTED))
def test_every_construct_within_the_bound_parses(construct):
    parse_c(NESTED[construct](MAX_NESTING // 2 - 4))


@pytest.mark.parametrize("construct", sorted(NESTED))
def test_every_construct_past_the_bound_is_a_parse_error(construct):
    source = NESTED[construct](5000)
    with pytest.raises(CParseError, match="nesting too deep"):
        parse_c(source)
    result = parse_c_resilient(source)
    assert any(d.message == "nesting too deep" for d in result.diagnostics)


@pytest.fixture
def deep_tree(tmp_path):
    (tmp_path / "deep.c").write_text(parens(5000))
    (tmp_path / "sibling.c").write_text(SIBLING)
    return tmp_path


def test_cli_strict_reports_a_per_file_error(deep_tree, capsys):
    assert main([str(deep_tree), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert "deep.c: CParseError: nesting too deep at 2:" in err
    assert "Traceback" not in err
    checks = [(d["file"], d["check"]) for d in json.loads(out)["diagnostics"]]
    assert checks == [(str(deep_tree / "sibling.c"), "tainted-format")]


def test_cli_best_effort_reports_a_partial_unit(deep_tree, capsys):
    assert main([str(deep_tree), "--best-effort", "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    report = json.loads(out)
    assert report["units"] == {str(deep_tree / "deep.c"): "partial"}
    found = sorted((d["file"], d["check"], d["message"]) for d in report["diagnostics"])
    assert found == [
        (str(deep_tree / "deep.c"), "parse-error", "nesting too deep (found PUNCT '(')"),
        (str(deep_tree / "sibling.c"), "tainted-format", found[1][2]),
    ]


def test_daemon_best_effort_analyze_contains_the_failure(deep_tree):
    session = Session(cache_dir=str(deep_tree / "cache"))
    try:
        request = {
            "jsonrpc": "2.0",
            "id": 1,
            "method": "analyze",
            "params": {"paths": [str(deep_tree)], "best_effort": True},
        }
        response = json.loads(Server(session).handle_line(json.dumps(request)))
    finally:
        session.close()
    assert "error" not in response, response
    result = response["result"]
    assert result["units"] == {str(deep_tree / "deep.c"): "partial"}
    checks = sorted(
        (d["file"], d["check"]) for d in json.loads(result["report"])["diagnostics"]
    )
    assert checks == [
        (str(deep_tree / "deep.c"), "parse-error"),
        (str(deep_tree / "sibling.c"), "tainted-format"),
    ]
