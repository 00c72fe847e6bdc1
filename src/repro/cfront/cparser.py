"""Recursive-descent parser for the analysed C subset.

Covers the constructs the paper's benchmarks exercise: declarations with
full declarator syntax (pointers with qualifier lists, arrays, function
declarators and function pointers), struct/union/enum definitions,
typedefs (tracked so the lexer-level ambiguity between type names and
expressions resolves, and expanded macro-style per Section 4.2), function
definitions, the full statement set, and the complete C expression
grammar with standard precedence.  Not covered: K&R-style parameter
declarations, bitfields' widths (parsed and ignored), and designated
initializers.

Typedefs resolve to their underlying :mod:`repro.cfront.ctypes` type at
parse time, which directly implements the paper's rule that typedef'd
declarations share no qualifiers: every declaration gets its own type
value, and the const inference generates fresh qualifier variables per
declaration.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..gcscope import defer_full_collections
from .cast import (
    Assignment,
    Binary,
    BreakStmt,
    Call,
    CaseStmt,
    Cast,
    CExpr,
    CharConst,
    Comma,
    Compound,
    Conditional,
    ContinueStmt,
    CStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    EnumDef,
    ExprStmt,
    FieldDecl,
    FloatConst,
    ForStmt,
    FuncDecl,
    FuncDef,
    GotoStmt,
    Ident,
    IfStmt,
    Index,
    InitList,
    IntConst,
    LabeledStmt,
    Member,
    ParamDecl,
    ReturnStmt,
    SizeofType,
    StringConst,
    StructDef,
    SwitchStmt,
    TopLevel,
    TranslationUnit,
    TypedefDecl,
    Unary,
    VarDecl,
    WhileStmt,
)
from .clexer import (
    CLexError,
    CToken,
    CTokenKind,
    ParseDiagnostic,
    parse_char_constant,
    parse_int_constant,
    parse_string_literal,
    tokenize_c,
)
from .ctypes import (
    CArray,
    CBase,
    CEnum,
    CFunc,
    CPointer,
    CStruct,
    CType,
    add_qual,
    decay,
    with_quals,
)


class CParseError(Exception):
    def __init__(self, message: str, token: CToken, expected: str | None = None):
        self.token = token
        self.message = message
        self.expected = expected
        super().__init__(
            f"{message} at {token.line}:{token.column} "
            f"(found {token.kind.name} {token.text!r})"
        )


_ARITHMETIC_KEYWORDS = frozenset(
    {"void", "char", "short", "int", "long", "float", "double", "signed", "unsigned"}
)
_TYPE_SPEC_KEYWORDS = _ARITHMETIC_KEYWORDS | {"struct", "union", "enum"}
_QUALIFIER_KEYWORDS = frozenset({"const", "volatile"})
#: Keywords that can open a type name, and a declaration.
_TYPE_KEYWORDS = _TYPE_SPEC_KEYWORDS | _QUALIFIER_KEYWORDS
_STORAGE_KEYWORDS = frozenset({"typedef", "extern", "static", "auto", "register", "inline"})
_DECLARATION_KEYWORDS = _TYPE_KEYWORDS | _STORAGE_KEYWORDS

_ASSIGN_OPS = frozenset({"=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>="})

#: Binary operators by binding strength, from 1 (loosest) up.
_BINARY_PRECEDENCE = {
    op: prec
    for prec, ops in enumerate(
        ["||", "&&", "|", "^", "&", "== !=", "< > <= >=", "<< >>", "+ -", "* / %"], start=1
    )
    for op in ops.split()
}

_PREFIX_OPS = frozenset({"++", "--", "&", "*", "+", "-", "~", "!"})
_POSTFIX_OPS = frozenset({"[", "(", ".", "->", "++", "--"})

#: Deepest nesting the parser accepts, counted over statements,
#: declarators, initializers, struct/union bodies and unary, cast and
#: parenthesised expressions.  The arms of an ``else if`` chain and
#: stacked labels are read in loops and do not count, so dispatch chains
#: of any length parse.  An expression level costs at most five
#: Python frames, so at the bound the parser needs about 650, well inside
#: the default recursion limit, while admitting twice the 63 parenthesis
#: levels C99 guarantees; deeper input is a
#: ``CParseError("nesting too deep")``.
MAX_NESTING = 128


def _nested(method):
    """Count one nesting level (see :data:`MAX_NESTING`) around a
    parser method that can recurse into itself."""

    @functools.wraps(method)
    def guarded(self, *args, **kwargs):
        depth = self.depth
        if depth >= MAX_NESTING:
            raise CParseError("nesting too deep", self.tokens[self.pos])
        self.depth = depth + 1
        try:
            return method(self, *args, **kwargs)
        finally:
            self.depth = depth

    return guarded


class _CParser:
    def __init__(
        self,
        tokens: list[CToken],
        filename: str,
        recover: bool = False,
        diagnostics: list[ParseDiagnostic] | None = None,
    ):
        self.tokens = tokens
        self.last = len(tokens) - 1
        self.pos = 0
        #: Open nesting levels (statements, declarators, initializers,
        #: struct bodies, unary/cast/primary expressions).
        self.depth = 0
        self.filename = filename
        self.typedefs: dict[str, CType] = {}
        self.items: list[TopLevel] = []
        self._anon_counter = 0
        self.recover = recover
        self.diagnostics: list[ParseDiagnostic] = (
            diagnostics if diagnostics is not None else []
        )
        #: File of the most recently completed declarator's name token —
        #: how ``#include``-d declarations keep their home file.
        self._last_file = filename

    # -- token plumbing -------------------------------------------------
    # ``self.tokens`` always ends with EOF and ``pos`` never moves past
    # it, so ``self.tokens[self.pos]`` is the current token.  A token's
    # text identifies a punctuator on its own: no identifier, keyword,
    # constant or EOF token spells one, so punctuation tests compare the
    # text alone.
    def peek(self, ahead: int = 0) -> CToken:
        if ahead:
            return self.tokens[min(self.pos + ahead, self.last)]
        return self.tokens[self.pos]

    def advance(self) -> CToken:
        tok = self.tokens[self.pos]
        if tok.kind is not CTokenKind.EOF:
            self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def at_keyword(self, *words: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind is CTokenKind.KEYWORD and tok.text in words

    def accept_punct(self, text: str) -> bool:
        if self.tokens[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> CToken:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise CParseError(f"expected {text!r}", tok, expected=text)
        self.pos += 1
        return tok

    def expect_ident(self) -> CToken:
        tok = self.tokens[self.pos]
        if tok.kind is not CTokenKind.IDENT:
            raise CParseError("expected identifier", tok, expected="identifier")
        self.pos += 1
        return tok

    def _file_of(self, tok: CToken) -> str:
        return tok.file or self.filename

    # -- panic-mode recovery --------------------------------------------
    def _record(
        self, exc: Exception, sync: str | None, at: CToken | None = None
    ) -> None:
        """Turn a parse/lex-adjacent exception into a structured
        diagnostic anchored at the offending token."""
        tok = exc.token if isinstance(exc, CParseError) else (at or self.peek())
        message = exc.message if isinstance(exc, CParseError) else str(exc)
        expected = exc.expected if isinstance(exc, CParseError) else None
        self.diagnostics.append(
            ParseDiagnostic(
                file=self._file_of(tok),
                line=tok.line,
                column=tok.column,
                message=message,
                stage="parse",
                expected=expected,
                found=f"{tok.kind.name} {tok.text!r}",
                sync=sync,
            )
        )

    def _sync_top_level(self) -> str:
        """Skip to the next point an external declaration can restart:
        past a ``;`` or a closing ``}`` at bracket depth 0, or just
        before a storage/type keyword that can open a declaration."""
        depth = 0
        moved = False
        while True:
            tok = self.peek()
            if tok.kind is CTokenKind.EOF:
                return "<eof>"
            if tok.kind is CTokenKind.PUNCT:
                if tok.text in ("(", "[", "{"):
                    depth += 1
                elif tok.text in (")", "]"):
                    depth = max(0, depth - 1)
                elif tok.text == "}":
                    if depth <= 1:
                        self.advance()
                        if depth == 1:
                            # closed the block we errored inside; eat a
                            # trailing ';' (struct definitions) and resume
                            self.accept_punct(";")
                        return "}"
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return ";"
            elif (
                moved
                and depth == 0
                and tok.kind is CTokenKind.KEYWORD
                and (tok.text in _STORAGE_KEYWORDS or tok.text in _TYPE_SPEC_KEYWORDS)
            ):
                return tok.text
            self.advance()
            moved = True

    def _sync_statement(self) -> str:
        """Skip to the next statement boundary inside a block: past a
        ``;`` at brace depth 0, or *to* (not past) the block's ``}``."""
        depth = 0
        while True:
            tok = self.peek()
            if tok.kind is CTokenKind.EOF:
                return "<eof>"
            if tok.kind is CTokenKind.PUNCT:
                if tok.text == "{":
                    depth += 1
                elif tok.text == "}":
                    if depth == 0:
                        return "}"
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    self.advance()
                    return ";"
            self.advance()

    # -- type recognition -----------------------------------------------
    def at_type_start(self, ahead: int = 0) -> bool:
        tok = self.peek(ahead)
        if tok.kind is CTokenKind.KEYWORD:
            return tok.text in _TYPE_KEYWORDS
        return tok.kind is CTokenKind.IDENT and tok.text in self.typedefs

    def at_declaration_start(self) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is CTokenKind.KEYWORD:
            return tok.text in _DECLARATION_KEYWORDS
        return tok.kind is CTokenKind.IDENT and tok.text in self.typedefs

    def _anon_tag(self, prefix: str) -> str:
        self._anon_counter += 1
        return f"__{prefix}_{self._anon_counter}"

    # -- declaration specifiers ------------------------------------------
    def parse_decl_specifiers(self) -> tuple[CType, Optional[str]]:
        """Parse storage classes, qualifiers, and type specifiers.

        Returns the base type and the storage class (if any).
        """
        tokens = self.tokens
        storage: Optional[str] = None
        quals: set[str] = set()
        kind_words: list[str] = []
        base: Optional[CType] = None

        while True:
            tok = tokens[self.pos]
            text = tok.text
            if tok.kind is CTokenKind.KEYWORD:
                if text in _STORAGE_KEYWORDS:
                    self.pos += 1
                    if text != "inline":
                        storage = text
                    continue
                if text in _QUALIFIER_KEYWORDS:
                    self.pos += 1
                    quals.add(text)
                    continue
                if text in _ARITHMETIC_KEYWORDS:
                    self.pos += 1
                    kind_words.append(text)
                    continue
                if text == "struct" or text == "union":
                    base = self.parse_struct_specifier(text == "union")
                    continue
                if text == "enum":
                    base = self.parse_enum_specifier()
                    continue
            elif (
                tok.kind is CTokenKind.IDENT
                and base is None
                and not kind_words
                and text in self.typedefs
            ):
                self.pos += 1
                base = self.typedefs[text]
                continue
            break

        if base is None:
            if not kind_words and not quals and storage is None:
                raise CParseError("expected declaration specifiers", tokens[self.pos])
            # No type words at all is implicit int (pre-C99 style).
            kind = _normalise_kind(kind_words or ["int"])
            return CBase(kind, frozenset(quals)), storage
        if quals:
            existing = base.quals if not isinstance(base, CFunc) else frozenset()
            base = with_quals(base, existing | frozenset(quals))
        return base, storage

    @_nested
    def parse_struct_specifier(self, is_union: bool) -> CType:
        kw = self.advance()  # struct / union
        tag: Optional[str] = None
        if self.peek().kind is CTokenKind.IDENT:
            tag = self.advance().text
        if self.at_punct("{"):
            if tag is None:
                tag = self._anon_tag("union" if is_union else "struct")
            self.advance()
            fields: list[FieldDecl] = []
            while not self.at_punct("}"):
                base, _storage = self.parse_decl_specifiers()
                while True:
                    name, full_type, line, col = self.parse_declarator(base)
                    field_file = self._last_file
                    if self.accept_punct(":"):
                        self.parse_conditional()  # bitfield width, ignored
                    if name is not None:
                        fields.append(
                            FieldDecl(name, full_type, line, col, field_file)
                        )
                    if not self.accept_punct(","):
                        break
                self.expect_punct(";")
            self.expect_punct("}")
            self.items.append(
                StructDef(
                    tag, tuple(fields), is_union, kw.line, kw.column, self._file_of(kw)
                )
            )
        elif tag is None:
            raise CParseError("struct/union requires a tag or a body", self.peek())
        return CStruct(tag, is_union)

    def parse_enum_specifier(self) -> CType:
        kw = self.advance()  # enum
        tag: Optional[str] = None
        if self.peek().kind is CTokenKind.IDENT:
            tag = self.advance().text
        if self.at_punct("{"):
            if tag is None:
                tag = self._anon_tag("enum")
            self.advance()
            enumerators: list[tuple[str, Optional[CExpr]]] = []
            while not self.at_punct("}"):
                name = self.expect_ident().text
                value: Optional[CExpr] = None
                if self.accept_punct("="):
                    value = self.parse_conditional()
                enumerators.append((name, value))
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            self.items.append(
                EnumDef(tag, tuple(enumerators), kw.line, kw.column, self._file_of(kw))
            )
        elif tag is None:
            raise CParseError("enum requires a tag or a body", self.peek())
        return CEnum(tag)

    # -- declarators ------------------------------------------------------
    @_nested
    def parse_declarator(
        self, base: CType, abstract: bool = False
    ) -> tuple[Optional[str], CType, int, int]:
        """Parse a (possibly abstract) declarator against a base type.

        Returns (name, full type, line, column).  Uses the standard
        two-phase technique: build a "type transformer" while descending,
        apply it inside-out.
        """
        tokens = self.tokens
        tok = tokens[self.pos]
        line, col = tok.line, tok.column
        decl_file = tok.file or self.filename
        # Pointer prefix: each * may carry qualifiers that attach to the
        # pointer level itself (e.g. ``int * const p``).
        pointer_quals: list[frozenset[str]] = []
        while tok.text == "*":
            self.pos += 1
            quals: set[str] = set()
            tok = tokens[self.pos]
            while tok.text in _QUALIFIER_KEYWORDS:
                quals.add(tok.text)
                self.pos += 1
                tok = tokens[self.pos]
            pointer_quals.append(frozenset(quals))

        name: Optional[str] = None
        inner_transform = None

        if tok.kind is CTokenKind.IDENT:
            self.pos += 1
            name = tok.text
            line, col = tok.line, tok.column
            decl_file = tok.file or self.filename
        elif tok.text == "(" and self._paren_is_declarator(abstract):
            self.pos += 1
            # Parse the inner declarator with a placeholder base; we apply
            # the outer suffixes first, then the inner transformations.
            inner_name, placeholder_type, line, col = self.parse_declarator(
                CBase("__placeholder"), abstract
            )
            decl_file = self._last_file
            self.expect_punct(")")
            name = inner_name
            inner_transform = placeholder_type
        elif not abstract and tok.text != "(" and tok.text != "[":
            raise CParseError("expected declarator", tok)

        # Suffixes: arrays and function parameter lists (left to right).
        suffixes: list[tuple] = []
        while True:
            text = tokens[self.pos].text
            if text == "[":
                self.pos += 1
                size: Optional[int] = None
                if tokens[self.pos].text != "]":
                    size_expr = self.parse_conditional()
                    if isinstance(size_expr, IntConst):
                        size = size_expr.value
                self.expect_punct("]")
                suffixes.append(("array", size))
            elif text == "(":
                self.pos += 1
                params, varargs = self.parse_parameter_list()
                self.expect_punct(")")
                suffixes.append(("func", params, varargs))
            else:
                break

        # Apply inside-out: pointer prefixes bind to the base (so
        # ``int *f(void)`` returns int*), then suffixes wrap that, with
        # the first suffix outermost (``a[3][4]`` is array-3 of array-4).
        result = base
        for quals in pointer_quals:
            result = CPointer(result, quals)
        for suffix in reversed(suffixes):
            if suffix[0] == "array":
                result = CArray(result, suffix[1])
            else:
                _tag, params, varargs = suffix
                result = CFunc(result, tuple([p.type for p in params]), varargs)
                # Parameter names survive only on the outermost function
                # declarator, handled by parse_external_declaration.
                self._last_params = params
        if inner_transform is not None:
            result = _substitute_placeholder(inner_transform, result)
        # Publish this declarator's home file last so nested declarator
        # parses (parameters, grouped declarators) cannot clobber it.
        self._last_file = decl_file
        return name, result, line, col

    def _paren_is_declarator(self, abstract: bool) -> bool:
        """Disambiguate ``(`` after a base type: grouped declarator vs
        function parameter list (for abstract declarators)."""
        nxt = self.peek(1)
        if nxt.kind is CTokenKind.PUNCT and nxt.text in ("*", "("):
            return True
        if nxt.kind is CTokenKind.IDENT and nxt.text not in self.typedefs:
            return True
        if not abstract:
            return True
        return False

    def parse_parameter_list(self) -> tuple[list[ParamDecl], bool]:
        tokens = self.tokens
        params: list[ParamDecl] = []
        tok = tokens[self.pos]
        if tok.text == ")":
            return params, False
        # (void) means no parameters
        if tok.text == "void" and self.peek(1).text == ")":
            self.pos += 1
            return params, False
        while True:
            if tokens[self.pos].text == "...":
                self.pos += 1
                return params, True
            base, _storage = self.parse_decl_specifiers()
            name, full_type, line, col = self.parse_declarator(base, abstract=True)
            params.append(ParamDecl(name, decay(full_type), line, col, self._last_file))
            if tokens[self.pos].text != ",":
                return params, False
            self.pos += 1

    def parse_type_name(self) -> CType:
        base, _storage = self.parse_decl_specifiers()
        _name, full_type, _line, _col = self.parse_declarator(base, abstract=True)
        return full_type

    # -- external declarations --------------------------------------------
    def parse_translation_unit(self) -> TranslationUnit:
        while self.peek().kind is not CTokenKind.EOF:
            if not self.recover:
                self.parse_external_declaration()
                continue
            start = self.pos
            try:
                self.parse_external_declaration()
            except (CParseError, CLexError, ValueError) as exc:
                at = exc.token if isinstance(exc, CParseError) else self.peek()
                sync = self._sync_top_level()
                if self.pos == start and self.peek().kind is not CTokenKind.EOF:
                    self.advance()  # progress guarantee
                self._record(exc, sync, at)
        return TranslationUnit(self.items, self.filename)

    def parse_external_declaration(self) -> None:
        if self.accept_punct(";"):
            return
        base, storage = self.parse_decl_specifiers()
        if self.accept_punct(";"):
            # Pure struct/union/enum definition (already recorded).
            return

        first = True
        while True:
            self._last_params = []
            name, full_type, line, col = self.parse_declarator(base)
            decl_file = self._last_file
            params = tuple(self._last_params)

            if storage == "typedef":
                if name is None:
                    raise CParseError("typedef requires a name", self.peek())
                self.typedefs[name] = full_type
                self.items.append(
                    TypedefDecl(name, full_type, line, col, decl_file)
                )
            elif isinstance(full_type, CFunc) and first and self.at_punct("{"):
                if name is None:
                    raise CParseError("function definition requires a name", self.peek())
                body = self.parse_compound()
                self.items.append(
                    FuncDef(
                        name,
                        full_type.ret,
                        params,
                        body,
                        full_type.varargs,
                        storage,
                        line,
                        col,
                        decl_file,
                    )
                )
                return
            elif isinstance(full_type, CFunc):
                if name is None:
                    raise CParseError("function declaration requires a name", self.peek())
                self.items.append(
                    FuncDecl(
                        name,
                        full_type.ret,
                        params,
                        full_type.varargs,
                        storage,
                        line,
                        col,
                        decl_file,
                    )
                )
            else:
                init: Optional[CExpr] = None
                if self.accept_punct("="):
                    init = self.parse_initializer()
                if name is None:
                    raise CParseError("declaration requires a name", self.peek())
                self.items.append(
                    VarDecl(name, full_type, init, storage, line, col, decl_file)
                )

            first = False
            if not self.accept_punct(","):
                break
        self.expect_punct(";")

    @_nested
    def parse_initializer(self) -> CExpr:
        if self.at_punct("{"):
            brace = self.advance()
            items: list[CExpr] = []
            while not self.at_punct("}"):
                items.append(self.parse_initializer())
                if not self.accept_punct(","):
                    break
            self.expect_punct("}")
            return InitList(tuple(items), line=brace.line, col=brace.column)
        return self.parse_assignment_expr()

    # -- statements ---------------------------------------------------------
    def parse_compound(self) -> Compound:
        brace = self.expect_punct("{")
        body: list[CStmt] = []
        while not self.at_punct("}"):
            if not self.recover:
                body.append(self.parse_statement())
                continue
            if self.peek().kind is CTokenKind.EOF:
                self.diagnostics.append(
                    ParseDiagnostic(
                        file=self._file_of(brace),
                        line=brace.line,
                        column=brace.column,
                        message="unterminated block",
                        stage="parse",
                        expected="}",
                        found="EOF ''",
                        sync="<eof>",
                    )
                )
                return Compound(tuple(body), line=brace.line, col=brace.column)
            start = self.pos
            try:
                body.append(self.parse_statement())
            except (CParseError, CLexError, ValueError) as exc:
                at = exc.token if isinstance(exc, CParseError) else self.peek()
                sync = self._sync_statement()
                if (
                    self.pos == start
                    and not self.at_punct("}")
                    and self.peek().kind is not CTokenKind.EOF
                ):
                    self.advance()  # progress guarantee
                self._record(exc, sync, at)
        self.expect_punct("}")
        return Compound(tuple(body), line=brace.line, col=brace.column)

    def parse_local_declaration(self) -> DeclStmt:
        base, storage = self.parse_decl_specifiers()
        decls: list[VarDecl] = []
        if not self.at_punct(";"):
            while True:
                name, full_type, line, col = self.parse_declarator(base)
                decl_file = self._last_file
                if storage == "typedef":
                    if name is None:
                        raise CParseError("typedef requires a name", self.peek())
                    self.typedefs[name] = full_type
                    if not self.accept_punct(","):
                        break
                    continue
                init: Optional[CExpr] = None
                if self.accept_punct("="):
                    init = self.parse_initializer()
                if name is None:
                    raise CParseError("declaration requires a name", self.peek())
                decls.append(
                    VarDecl(name, full_type, init, storage, line, col, decl_file)
                )
                if not self.accept_punct(","):
                    break
        end = self.expect_punct(";")
        return DeclStmt(tuple(decls), line=end.line, col=end.column)

    @_nested
    def parse_statement(self) -> CStmt:
        tok = self.tokens[self.pos]
        if tok.text == "{":
            return self.parse_compound()
        if tok.text == ";":
            self.pos += 1
            return EmptyStmt(line=tok.line, col=tok.column)
        if self.at_declaration_start():
            return self.parse_local_declaration()
        if tok.kind is CTokenKind.KEYWORD:
            match tok.text:
                case "if":
                    return self.parse_if()
                case "while":
                    self.advance()
                    self.expect_punct("(")
                    cond = self.parse_expression()
                    self.expect_punct(")")
                    return WhileStmt(cond, self.parse_statement(), line=tok.line, col=tok.column)
                case "do":
                    self.advance()
                    body = self.parse_statement()
                    if not self.at_keyword("while"):
                        raise CParseError("expected while after do-body", self.peek())
                    self.advance()
                    self.expect_punct("(")
                    cond = self.parse_expression()
                    self.expect_punct(")")
                    self.expect_punct(";")
                    return DoWhileStmt(body, cond, line=tok.line, col=tok.column)
                case "for":
                    self.advance()
                    self.expect_punct("(")
                    init: Optional[CExpr | DeclStmt] = None
                    if self.at_declaration_start():
                        init = self.parse_local_declaration()
                    elif not self.at_punct(";"):
                        init = self.parse_expression()
                        self.expect_punct(";")
                    else:
                        self.advance()
                    cond = None
                    if not self.at_punct(";"):
                        cond = self.parse_expression()
                    self.expect_punct(";")
                    step = None
                    if not self.at_punct(")"):
                        step = self.parse_expression()
                    self.expect_punct(")")
                    return ForStmt(init, cond, step, self.parse_statement(), line=tok.line, col=tok.column)
                case "return":
                    self.advance()
                    value = None
                    if not self.at_punct(";"):
                        value = self.parse_expression()
                    self.expect_punct(";")
                    return ReturnStmt(value, line=tok.line, col=tok.column)
                case "break":
                    self.advance()
                    self.expect_punct(";")
                    return BreakStmt(line=tok.line, col=tok.column)
                case "continue":
                    self.advance()
                    self.expect_punct(";")
                    return ContinueStmt(line=tok.line, col=tok.column)
                case "goto":
                    self.advance()
                    label = self.expect_ident().text
                    self.expect_punct(";")
                    return GotoStmt(label, line=tok.line, col=tok.column)
                case "switch":
                    self.advance()
                    self.expect_punct("(")
                    value = self.parse_expression()
                    self.expect_punct(")")
                    return SwitchStmt(value, self.parse_statement(), line=tok.line, col=tok.column)
                case "case" | "default":
                    return self.parse_labeled()
        if self._at_label():
            return self.parse_labeled()
        expr = self.parse_expression()
        self.expect_punct(";")
        return ExprStmt(expr, line=tok.line, col=tok.column)

    def parse_if(self) -> CStmt:
        """An ``if`` statement.  An ``else if`` chain is read in a loop,
        so its arms cost no nesting levels (see :data:`MAX_NESTING`); the
        tree is the same right-nested ``IfStmt`` chain."""
        arms: list[tuple[CToken, CExpr, CStmt]] = []
        other: Optional[CStmt] = None
        while True:
            tok = self.advance()
            self.expect_punct("(")
            cond = self.parse_expression()
            self.expect_punct(")")
            arms.append((tok, cond, self.parse_statement()))
            if not self.at_keyword("else"):
                break
            self.advance()
            if not self.at_keyword("if"):
                other = self.parse_statement()
                break
        for tok, cond, then in reversed(arms):
            other = IfStmt(cond, then, other, line=tok.line, col=tok.column)
        assert other is not None
        return other

    def _at_label(self) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind is not CTokenKind.IDENT or tok.text in self.typedefs:
            return False
        colon = self.peek(1)
        return colon.kind is CTokenKind.PUNCT and colon.text == ":"

    def parse_labeled(self) -> CStmt:
        """A statement under ``case``, ``default`` and identifier labels.
        Stacked labels are read in a loop, so they cost no nesting levels
        (see :data:`MAX_NESTING`); the tree is the same right-nested
        chain of ``CaseStmt`` and ``LabeledStmt``."""
        labels: list[tuple[CToken, Optional[CExpr]]] = []
        while True:
            tok = self.tokens[self.pos]
            if self.at_keyword("case"):
                self.pos += 1
                value = self.parse_conditional()
                self.expect_punct(":")
                labels.append((tok, value))
            elif self.at_keyword("default"):
                self.pos += 1
                self.expect_punct(":")
                labels.append((tok, None))
            elif self._at_label():
                self.pos += 2
                labels.append((tok, None))
            else:
                break
        stmt = self.parse_statement()
        for tok, value in reversed(labels):
            if tok.kind is CTokenKind.IDENT:
                stmt = LabeledStmt(tok.text, stmt, line=tok.line, col=tok.column)
            else:
                stmt = CaseStmt(value, stmt, line=tok.line, col=tok.column)
        return stmt

    # -- expressions ----------------------------------------------------------
    def parse_expression(self) -> CExpr:
        tokens = self.tokens
        expr = self.parse_assignment_expr()
        while tokens[self.pos].text == ",":
            op = tokens[self.pos]
            self.pos += 1
            expr = Comma(
                expr, self.parse_assignment_expr(), line=op.line, col=op.column
            )
        return expr

    def parse_assignment_expr(self) -> CExpr:
        """Assignment is right-associative: the operands of ``a = b += c``
        are parsed left to right, then folded from the right."""
        tokens = self.tokens
        left = self.parse_conditional()
        if tokens[self.pos].text not in _ASSIGN_OPS:
            return left
        chain: list[tuple[CExpr, CToken]] = []
        while tokens[self.pos].text in _ASSIGN_OPS:
            chain.append((left, tokens[self.pos]))
            self.pos += 1
            left = self.parse_conditional()
        for target, op in reversed(chain):
            left = Assignment(op.text, target, left, line=op.line, col=op.column)
        return left

    def parse_conditional(self) -> CExpr:
        """``c ? a : b``, right-associative like assignment."""
        tokens = self.tokens
        cond = self.parse_binary()
        if tokens[self.pos].text != "?":
            return cond
        chain: list[tuple[CExpr, CExpr, CToken]] = []
        while tokens[self.pos].text == "?":
            op = tokens[self.pos]
            self.pos += 1
            then = self.parse_expression()
            self.expect_punct(":")
            chain.append((cond, then, op))
            cond = self.parse_binary()
        for test, then, op in reversed(chain):
            cond = Conditional(test, then, cond, line=op.line, col=op.column)
        return cond

    def parse_binary(self) -> CExpr:
        """All binary operators in one loop over :data:`_BINARY_PRECEDENCE`.

        Each operator waits on a stack with its left operand until an
        operator that binds no tighter (or the end of the expression)
        arrives, which makes every level left-associative.  The trees are
        the ones a recursive descent with one function per precedence
        level builds, without its frame per level.
        """
        tokens = self.tokens
        left = self.parse_unary(True)
        waiting: list[tuple[CExpr, CToken, int]] = []
        while True:
            tok = tokens[self.pos]
            prec = _BINARY_PRECEDENCE.get(tok.text, 0)
            while waiting and waiting[-1][2] >= prec:
                lhs, op, _ = waiting.pop()
                left = Binary(op.text, lhs, left, line=op.line, col=op.column)
            if not prec:
                return left
            waiting.append((left, tok, prec))
            self.pos += 1
            left = self.parse_unary(True)

    def parse_unary(self, cast: bool = False) -> CExpr:
        """A unary expression — prefix operators, ``sizeof``, or a
        primary expression with its postfix operators — or with ``cast``
        a cast expression.

        Every cycle through the expression grammar passes through here,
        so this is where expression nesting is counted — inline rather
        than through :func:`_nested`, whose extra frame per level this,
        the hottest and deepest-recursing method, cannot afford.
        """
        depth = self.depth
        if depth >= MAX_NESTING:
            raise CParseError("nesting too deep", self.tokens[self.pos])
        self.depth = depth + 1
        try:
            tokens = self.tokens
            tok = tokens[self.pos]
            text = tok.text
            kind = tok.kind
            if kind is CTokenKind.IDENT:
                self.pos += 1
                expr: CExpr = Ident(text, line=tok.line, col=tok.column)
            elif kind is CTokenKind.INT_CONST:
                self.pos += 1
                expr = IntConst(parse_int_constant(text), line=tok.line, col=tok.column)
            elif kind is CTokenKind.FLOAT_CONST:
                self.pos += 1
                expr = FloatConst(text, line=tok.line, col=tok.column)
            elif kind is CTokenKind.CHAR_CONST:
                self.pos += 1
                expr = CharConst(parse_char_constant(text), line=tok.line, col=tok.column)
            elif kind is CTokenKind.STRING:
                # Adjacent string literals concatenate; escapes are decoded.
                parts = []
                while tokens[self.pos].kind is CTokenKind.STRING:
                    parts.append(parse_string_literal(tokens[self.pos].text[1:-1]))
                    self.pos += 1
                expr = StringConst("".join(parts), line=tok.line, col=tok.column)
            elif cast and text == "(" and self.at_type_start(1):
                self.pos += 1
                target = self.parse_type_name()
                self.expect_punct(")")
                # Compound literal `(type){...}` parsed as cast of init list.
                if tokens[self.pos].text == "{":
                    operand = self.parse_initializer()
                else:
                    operand = self.parse_unary(True)
                return Cast(target, operand, line=tok.line, col=tok.column)
            elif text == "(":
                self.pos += 1
                expr = self.parse_expression()
                self.expect_punct(")")
            elif text in _PREFIX_OPS:
                self.pos += 1
                # ``++``/``--`` take a unary operand, the others a cast.
                operand = self.parse_unary(text not in ("++", "--"))
                return Unary(text, operand, line=tok.line, col=tok.column)
            elif text == "sizeof":
                self.pos += 1
                if tokens[self.pos].text == "(" and self.at_type_start(1):
                    self.pos += 1
                    target = self.parse_type_name()
                    self.expect_punct(")")
                    return SizeofType(target, line=tok.line, col=tok.column)
                return Unary("sizeof", self.parse_unary(), line=tok.line, col=tok.column)
            else:
                raise CParseError("expected an expression", tok)

            # Postfix operators.
            while True:
                tok = tokens[self.pos]
                text = tok.text
                if text not in _POSTFIX_OPS:
                    return expr
                self.pos += 1
                if text == "[":
                    index = self.parse_expression()
                    self.expect_punct("]")
                    expr = Index(expr, index, line=tok.line, col=tok.column)
                elif text == "(":
                    args: list[CExpr] = []
                    if tokens[self.pos].text != ")":
                        while True:
                            args.append(self.parse_assignment_expr())
                            if not self.accept_punct(","):
                                break
                    self.expect_punct(")")
                    expr = Call(expr, tuple(args), line=tok.line, col=tok.column)
                elif text == "++" or text == "--":
                    expr = Unary(text, expr, postfix=True, line=tok.line, col=tok.column)
                else:  # "." or "->"
                    field_name = self.expect_ident().text
                    expr = Member(expr, field_name, text == "->", line=tok.line, col=tok.column)
        finally:
            self.depth = depth


def _normalise_kind(words: Sequence[str]) -> str:
    """Collapse multi-word arithmetic specifiers to a canonical kind."""
    wordset = set(words)
    if "void" in wordset:
        return "void"
    if "double" in wordset or "float" in wordset:
        return "double" if "double" in wordset else "float"
    if "char" in wordset:
        return "char"
    if words.count("long") >= 2:
        return "long long"
    if "long" in wordset:
        return "long"
    if "short" in wordset:
        return "short"
    return "int"


def _substitute_placeholder(shape: CType, replacement: CType) -> CType:
    """Replace the ``__placeholder`` base inside a grouped declarator's
    type with the type built from the outer context."""
    if isinstance(shape, CBase) and shape.kind == "__placeholder":
        return replacement
    if isinstance(shape, CPointer):
        return CPointer(_substitute_placeholder(shape.target, replacement), shape.quals)
    if isinstance(shape, CArray):
        return CArray(_substitute_placeholder(shape.element, replacement), shape.size, shape.quals)
    if isinstance(shape, CFunc):
        return CFunc(
            _substitute_placeholder(shape.ret, replacement), shape.params, shape.varargs
        )
    return shape


@defer_full_collections
def parse_c(source: str, filename: str = "<input>") -> TranslationUnit:
    """Parse C source into a :class:`TranslationUnit`.

    Raises :class:`CParseError` or :class:`~repro.cfront.clexer.CLexError`
    on malformed input.
    """
    tokens = tokenize_c(source, filename)
    return _CParser(tokens, filename).parse_translation_unit()


@dataclass
class ParseResult:
    """A best-effort parse: the recovered :class:`TranslationUnit` plus
    every front-end problem met along the way.

    ``unit`` holds all declarations the panic-mode parser salvaged —
    possibly every one (``ok``), possibly a subset.  ``diagnostics``
    aggregates preprocessor, lexer, and parser records in source order
    of discovery.
    """

    unit: TranslationUnit
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing error-severity was recorded (warnings —
        macro redefinitions, unresolved includes — don't clear it)."""
        return not any(d.severity == "error" for d in self.diagnostics)

    @property
    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]


def parse_c_resilient(
    source: str,
    filename: str = "<input>",
    include_paths: Sequence[str] = (),
    loader=None,
) -> ParseResult:
    """Parse C source, preprocessing directives and recovering from
    errors instead of raising.

    Runs the minimal preprocessor (:mod:`repro.cfront.cpp`), the
    recovering lexer, and the panic-mode parser, and never raises on
    malformed input: the result carries whatever declarations could be
    salvaged plus a :class:`ParseDiagnostic` per problem.  Spans and
    diagnostics point at the original files — including ``#include``-d
    headers — via the preprocessor's line map.
    """
    from .cpp import preprocess

    diagnostics: list[ParseDiagnostic] = []
    pre = preprocess(source, filename, include_paths=include_paths, loader=loader)
    diagnostics.extend(pre.diagnostics)

    lex_from = len(diagnostics)
    tokens = tokenize_c(pre.text, filename, recover=True, diagnostics=diagnostics)
    if pre.line_map is not None:
        remap = pre.line_map

        def _remap_line(line: int) -> tuple[str, int]:
            if 1 <= line <= len(remap):
                return remap[line - 1]
            return filename, line

        new_tokens = []
        for tok in tokens:
            src_file, src_line = _remap_line(tok.line)
            new_tokens.append(
                dataclasses.replace(
                    tok,
                    line=src_line,
                    file="" if src_file == filename else src_file,
                )
            )
        tokens = new_tokens
        for idx in range(lex_from, len(diagnostics)):
            d = diagnostics[idx]
            src_file, src_line = _remap_line(d.line)
            diagnostics[idx] = dataclasses.replace(
                d, file=src_file, line=src_line
            )

    parser = _CParser(tokens, filename, recover=True, diagnostics=diagnostics)
    unit = parser.parse_translation_unit()
    return ParseResult(unit, diagnostics)
