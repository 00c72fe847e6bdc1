"""Unit tests for the C lexer."""

import pytest

from repro.cfront.clexer import (
    CLexError,
    CTokenKind,
    parse_char_constant,
    parse_int_constant,
    tokenize_c,
)


def kinds(source):
    return [(t.kind, t.text) for t in tokenize_c(source) if t.kind is not CTokenKind.EOF]


class TestBasics:
    def test_keywords_and_idents(self):
        out = kinds("int x const constant")
        assert out == [
            (CTokenKind.KEYWORD, "int"),
            (CTokenKind.IDENT, "x"),
            (CTokenKind.KEYWORD, "const"),
            (CTokenKind.IDENT, "constant"),
        ]

    def test_integer_forms(self):
        out = kinds("42 0x1F 017 10L 3U")
        assert all(k is CTokenKind.INT_CONST for k, _ in out)

    def test_float_forms(self):
        out = kinds("3.14 1e9 2.5f .5")
        assert all(k is CTokenKind.FLOAT_CONST for k, _ in out)

    def test_char_and_string(self):
        out = kinds(r"'a' '\n' \"hi\\tthere\"".replace("\\\"", '"'))
        assert out[0][0] is CTokenKind.CHAR_CONST
        assert out[1][0] is CTokenKind.CHAR_CONST

    def test_string_literal(self):
        out = kinds('"hello world"')
        assert out == [(CTokenKind.STRING, '"hello world"')]


class TestOperators:
    def test_multichar_longest_match(self):
        out = [t for _, t in kinds("a <<= b >> c -> d ... e")]
        assert "<<=" in out and ">>" in out and "->" in out and "..." in out

    def test_increment_vs_plus(self):
        out = [t for _, t in kinds("a++ + ++b")]
        assert out == ["a", "++", "+", "++", "b"]

    def test_all_assign_ops(self):
        for op in ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]:
            toks = kinds(f"a {op} b")
            assert toks[1][1] == op

    @pytest.mark.parametrize(
        "op",
        "... <<= >>= -> ++ -- << >> <= >= == != && || += -= *= /= %= &= ^= |= "
        "+ - * / % & | ^ ~ ! < > = ? : ; , . ( ) [ ] { }".split(),
    )
    def test_every_punctuator_is_one_token(self, op):
        assert kinds(f"a{op}b") == [
            (CTokenKind.IDENT, "a"),
            (CTokenKind.PUNCT, op),
            (CTokenKind.IDENT, "b"),
        ]


class TestCommentsAndPreprocessor:
    def test_line_comment(self):
        assert [t for _, t in kinds("a // comment\nb")] == ["a", "b"]

    def test_block_comment(self):
        assert [t for _, t in kinds("a /* x\ny */ b")] == ["a", "b"]

    def test_unterminated_block_comment(self):
        with pytest.raises(CLexError):
            tokenize_c("/* never closed")

    def test_preprocessor_lines_skipped(self):
        src = "#include <stdio.h>\n#define X 1\nint x;"
        assert [t for _, t in kinds(src)] == ["int", "x", ";"]

    def test_hash_mid_line_is_error(self):
        with pytest.raises(CLexError):
            tokenize_c("int x # y;")

    def test_line_continuation_in_directive(self):
        src = "#define M(a) \\\n  (a)\nint y;"
        assert [t for _, t in kinds(src)] == ["int", "y", ";"]


class TestPositions:
    def test_line_column_tracking(self):
        toks = tokenize_c("int\n  x;")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[1].line, toks[1].column) == (2, 3)

    def test_error_position(self):
        with pytest.raises(CLexError) as err:
            tokenize_c("int x;\n  @")
        assert err.value.line == 2


class TestConstantParsing:
    def test_int_decimal(self):
        assert parse_int_constant("42") == 42

    def test_int_hex(self):
        assert parse_int_constant("0x1F") == 31

    def test_int_octal(self):
        assert parse_int_constant("017") == 15

    def test_int_suffixes(self):
        assert parse_int_constant("10UL") == 10

    def test_zero(self):
        assert parse_int_constant("0") == 0

    def test_char_plain(self):
        assert parse_char_constant("'a'") == ord("a")

    def test_char_escapes(self):
        assert parse_char_constant(r"'\n'") == 10
        assert parse_char_constant(r"'\0'") == 0
        assert parse_char_constant(r"'\\'") == ord("\\")

    def test_char_hex_escape(self):
        assert parse_char_constant(r"'\x41'") == 65

    def test_char_bad(self):
        with pytest.raises(ValueError):
            parse_char_constant("'ab'")
