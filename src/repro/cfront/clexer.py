"""Lexer for the C subset analysed by the const-inference system.

Handles identifiers, keywords, integer/floating/character/string
constants (with the usual escapes), all the operators and punctuation the
parser needs, ``//`` and ``/* */`` comments, and line continuations.
Preprocessor directives are skipped line-wise: the analysis consumes
post-preprocessing C (the paper's benchmarks were similarly fed through
the system after preprocessing), so ``#include``/``#define`` lines carry
no information here.  (:mod:`repro.cfront.cpp` is the in-tree minimal
preprocessor for sources that still carry their directives.)

Two error disciplines share one scanner: the strict path raises
:class:`CLexError` at the first bad byte (the seed behaviour, kept for
API users that want hard failures), while the *recovery* path — used by
the best-effort corpus pipeline — records a structured
:class:`ParseDiagnostic` per problem and keeps scanning, so one stray
byte never hides the rest of the file.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field


class CTokenKind(enum.Enum):
    IDENT = "ident"
    KEYWORD = "keyword"
    INT_CONST = "int_const"
    FLOAT_CONST = "float_const"
    CHAR_CONST = "char_const"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


C_KEYWORDS = frozenset(
    {
        "auto", "break", "case", "char", "const", "continue", "default",
        "do", "double", "else", "enum", "extern", "float", "for", "goto",
        "if", "int", "long", "register", "return", "short", "signed",
        "sizeof", "static", "struct", "switch", "typedef", "union",
        "unsigned", "void", "volatile", "while", "inline",
    }
)

@dataclass(slots=True)
class CToken:
    kind: CTokenKind
    text: str
    line: int
    column: int
    #: Originating file when it differs from the parse's nominal filename
    #: (tokens pulled in through ``#include`` by the preprocessor).  Empty
    #: means "the file being parsed", which keeps the strict path and
    #: every pre-existing constructor unchanged.
    file: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


class CLexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} at {line}:{column}")


@dataclass(frozen=True)
class ParseDiagnostic:
    """One structured front-end problem from the recovery path.

    Produced by the recovering lexer (``stage="lex"``), the panic-mode
    parser (``stage="parse"``), and the minimal preprocessor
    (``stage="cpp"``).  ``severity`` is ``"error"`` for input the front
    end could not honour and ``"warning"`` for suspicious-but-accepted
    constructs (macro redefinition, unresolvable includes).
    """

    file: str
    line: int
    column: int
    message: str
    stage: str = "parse"  # "lex" | "parse" | "cpp"
    severity: str = "error"  # "error" | "warning"
    #: What the parser wanted (e.g. ``";"``), when it knows.
    expected: str | None = None
    #: What it saw instead, rendered like ``PUNCT ')'``.
    found: str | None = None
    #: The token text recovery synchronised on (``";"``, ``"}"``, a
    #: declaration keyword, or ``"<eof>"``).
    sync: str | None = None

    def describe(self) -> str:
        """The message with its expected/found context, no location —
        what a checker diagnostic or a daemon response carries."""
        out = self.message
        if self.expected is not None:
            out += f" (expected {self.expected}"
            if self.found is not None:
                out += f", found {self.found}"
            out += ")"
        elif self.found is not None:
            out += f" (found {self.found})"
        return out

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}: {self.severity}: {self.describe()}"


#: One alternative per token class, tried left to right after any
#: spaces and tabs; the common classes come first.  ``/`` starts a
#: punctuator only when no comment follows, and ``.`` only when no digit
#: follows (``.5`` is a number), and the punctuators (C's, bar the
#: digraphs and ``#``) are spelled longest first, so the first
#: alternative that matches is the token.  ``ws`` holds the line breaks
#: (and the end of the input, so trailing blanks match too).  ``\w`` is
#: exactly ``str.isalnum() or "_"``, which is what identifiers continue
#: with; a token that *starts* with a non-ASCII character falls through
#: to ``other`` and is classified in Python.
_MASTER = re.compile(
    r"[ \t]*(?:"
    r"(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<punct>\.\.\.|<<=|>>=|->|\+\+|--|<<|>>|&&|\|\||[-+*%&^|<>=!]=|/(?![/*])=?"
    r"|\.(?![0-9])|[-+*%&|^~!<>=?:;,()\[\]{}])"
    r"|(?P<ws>(?:[ \t\r\n]+|\\\n)+|\Z)"
    r"|(?P<number>0[xX][0-9a-fA-F]*[uUlLfF]*"
    r"|(?:[0-9]+|(?=\.[0-9]))(?:\.[0-9]*)?(?:[eE][+-]?[0-9]*)?[uUlLfF]*)"
    r"|(?P<comment>//[^\n]*)"
    r"|(?P<block>/\*)"
    r"|(?P<quote>[\"'])"
    r"|(?P<hash>\#)"
    r"|(?P<other>[\s\S]))"
)
#: Group numbers of the three common classes, compared in the hot loop.
_IDENT_G, _PUNCT_G, _WS_G = (_MASTER.groupindex[g] for g in ("ident", "punct", "ws"))

#: A directive runs to the end of its logical line: a backslash-newline
#: continues it, any other backslash is an ordinary character.
_DIRECTIVE = re.compile(r"[^\\\n]*(?:\\\n?[^\\\n]*)*")

#: Bodies of string and character constants, up to (not including) the
#: closing quote; a backslash escapes any next character, a newline
#: included.  Recover mode also stops at an unescaped newline.
_BODY = {
    (False, '"'): re.compile(r'[^"\\]*(?:\\[\s\S][^"\\]*)*'),
    (False, "'"): re.compile(r"[^'\\]*(?:\\[\s\S][^'\\]*)*"),
    (True, '"'): re.compile(r'[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*'),
    (True, "'"): re.compile(r"[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*"),
}
_UNTERMINATED = {'"': "unterminated string literal", "'": "unterminated character constant"}
_QUOTE_KIND = {'"': CTokenKind.STRING, "'": CTokenKind.CHAR_CONST}

_WORD = re.compile(r"\w*")
_HEX_DIGITS = "0123456789abcdefABCDEF"


def _number_kind(text: str) -> CTokenKind:
    """INT_CONST or FLOAT_CONST for an ASCII number the master pattern
    matched.  A hex constant is a float only through an ``f`` suffix
    (its digits may hold ``f``); a decimal one is an integer when only
    ``u``/``l`` suffixes follow its digits."""
    if text[:2] in ("0x", "0X"):
        floaty = "f" in text[2:].lstrip(_HEX_DIGITS).lower()
    else:
        floaty = not text.rstrip("uUlL").isdigit()
    return CTokenKind.FLOAT_CONST if floaty else CTokenKind.INT_CONST


def _number_token(source: str, i: int, line: int, col: int) -> tuple[CToken, int]:
    """The number starting at ``i`` and the offset after it, with
    ``str.isdigit`` digits: the path for numbers that hold non-ASCII
    digits, which the master pattern leaves alone."""
    n = len(source)
    j = i
    is_float = False
    if source[j] == "0" and j + 1 < n and source[j + 1] in "xX":
        j += 2
        while j < n and (source[j].isdigit() or source[j] in _HEX_DIGITS):
            j += 1
    else:
        while j < n and source[j].isdigit():
            j += 1
        if j < n and source[j] == ".":
            is_float = True
            j += 1
            while j < n and source[j].isdigit():
                j += 1
        if j < n and source[j] in "eE":
            is_float = True
            j += 1
            if j < n and source[j] in "+-":
                j += 1
            while j < n and source[j].isdigit():
                j += 1
    while j < n and source[j] in "uUlLfF":
        if source[j] in "fF":
            is_float = True
        j += 1
    kind = CTokenKind.FLOAT_CONST if is_float else CTokenKind.INT_CONST
    return CToken(kind, source[i:j], line, col), j


def tokenize_c(
    source: str,
    filename: str = "<input>",
    recover: bool = False,
    diagnostics: list[ParseDiagnostic] | None = None,
) -> list[CToken]:
    """Tokenize C source; returns tokens ending with EOF.

    With ``recover=True`` lexical problems (stray bytes, unterminated
    comments/strings) are appended to ``diagnostics`` as
    :class:`ParseDiagnostic` records and scanning continues past them;
    the strict default raises :class:`CLexError` exactly as before.

    One compiled master pattern classifies the token at the current
    offset.  Lines and columns come from the newlines inside the spans
    the scanner steps over (whitespace, comments, directives, literals),
    so Python never walks the source a character at a time.
    """
    tokens: list[CToken] = []
    append = tokens.append
    match = _MASTER.match
    count = source.count
    rfind = source.rfind
    keywords = C_KEYWORDS
    IDENT, KEYWORD, PUNCT = CTokenKind.IDENT, CTokenKind.KEYWORD, CTokenKind.PUNCT
    n = len(source)
    i = 0
    line = 1
    line_start = 0  # offset of the first character of ``line``

    def problem(message: str, at: int) -> None:
        at_line, at_col = line, at - line_start + 1
        if not recover:
            raise CLexError(message, at_line, at_col)
        if diagnostics is not None:
            diagnostics.append(
                ParseDiagnostic(
                    file=filename,
                    line=at_line,
                    column=at_col,
                    message=message,
                    stage="lex",
                )
            )

    while i < n:
        m = match(source, i)
        group = m.lastindex
        end = m.end()
        # The three common classes first, each finishing its iteration.
        if group == _IDENT_G:
            text = m.group(group)
            col = end - len(text) - line_start + 1
            append(CToken(KEYWORD if text in keywords else IDENT, text, line, col))
            i = end
            continue
        if group == _PUNCT_G:
            text = m.group(group)
            if text != "." or end == n or not source[end].isdigit():
                append(CToken(PUNCT, text, line, end - len(text) - line_start + 1))
                i = end
                continue
        elif group == _WS_G:
            newlines = count("\n", i, end)
            if newlines:
                line += newlines
                line_start = rfind("\n", i, end) + 1
            i = end
            continue

        kind = m.lastgroup
        i = m.start(kind)
        col = i - line_start + 1
        if kind == "number" and (end == n or source[end].isascii()):
            text = m.group(kind)
            append(CToken(_number_kind(text), text, line, col))
        elif kind == "number" or kind == "punct":
            # A number running into non-ASCII digits, or ``.`` before one.
            tok, end = _number_token(source, i, line, col)
            append(tok)
        elif kind == "block":
            close = source.find("*/", i + 2)
            if close < 0:
                problem("unterminated comment", i)
                end = n  # recovery: the comment swallows the tail
            else:
                end = close + 2
        elif kind == "quote":
            quote = m.group(kind)
            end = _BODY[recover, quote].match(source, i + 1).end()
            if end < n and source[end] == quote:
                end += 1
                append(CToken(_QUOTE_KIND[quote], source[i:end], line, col))
            else:
                problem(_UNTERMINATED[quote], i)
                # recovery: drop the open fragment.  A backslash as the
                # very last character escapes a character past the end,
                # which the fragment's extent (and so the EOF column)
                # still counts.
                if end < n and source[end] == "\\":
                    end = n + 1
        elif kind == "hash":
            j = i - 1
            while j >= 0 and source[j] in " \t":
                j -= 1
            if j < 0 or source[j] == "\n":
                # Preprocessor directive: skip to end of (logical) line.
                end = _DIRECTIVE.match(source, i + 1).end()
            else:
                problem("unexpected character '#'", i)
        elif kind == "other":
            ch = m.group(kind)
            if ch.isalpha():
                end = _WORD.match(source, end).end()
                text = source[i:end]
                append(CToken(KEYWORD if text in keywords else IDENT, text, line, col))
            elif ch.isdigit():
                tok, end = _number_token(source, i, line, col)
                append(tok)
            else:
                problem(f"unexpected character {ch!r}", i)
        # Comments, directives and literals may span lines.
        newlines = count("\n", i, end)
        if newlines:
            line += newlines
            line_start = rfind("\n", i, end) + 1
        i = end

    append(CToken(CTokenKind.EOF, "", line, i - line_start + 1))
    return tokens


def parse_int_constant(text: str) -> int:
    """Value of an integer constant token (handles hex, octal, suffixes)."""
    body = text.rstrip("uUlL")
    if body.lower().startswith("0x"):
        return int(body, 16)
    if body.startswith("0") and len(body) > 1:
        return int(body, 8)
    return int(body)


_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "0": "\0", "\\": "\\",
    "'": "'", '"': '"', "a": "\a", "b": "\b", "f": "\f", "v": "\v",
}


def parse_string_literal(body: str) -> str:
    """Decode the escapes inside a string literal's body (no quotes)."""
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch != "\\" or i + 1 >= len(body):
            out.append(ch)
            i += 1
            continue
        nxt = body[i + 1]
        if nxt == "x":
            j = i + 2
            while j < len(body) and body[j] in "0123456789abcdefABCDEF":
                j += 1
            out.append(chr(int(body[i + 2 : j], 16)))
            i = j
            continue
        if nxt.isdigit():
            j = i + 1
            while j < len(body) and j < i + 4 and body[j].isdigit():
                j += 1
            out.append(chr(int(body[i + 1 : j], 8)))
            i = j
            continue
        out.append(_ESCAPES.get(nxt, nxt))
        i += 2
    return "".join(out)


def parse_char_constant(text: str) -> int:
    """Value of a character constant token like ``'a'`` or ``'\\n'``."""
    body = text[1:-1]
    if body.startswith("\\"):
        tail = body[1:]
        if tail and tail[0] == "x":
            return int(tail[1:], 16)
        if tail and tail[0].isdigit():
            return int(tail, 8)
        if tail and tail[0] in _ESCAPES:
            return ord(_ESCAPES[tail[0]])
        raise ValueError(f"bad escape in {text!r}")
    if len(body) != 1:
        raise ValueError(f"bad character constant {text!r}")
    return ord(body)
