"""Abstract syntax for the analysed C subset.

The AST deliberately stays close to concrete C: declarations carry their
resolved :mod:`repro.cfront.ctypes` types (the parser resolves declarators
and typedefs while parsing), and every node records a source span
(line, column — and on declarations, the file) for diagnostics and for
the source re-annotator.

This module also hosts the syntactic casts-away-const classification
(:func:`classify_cast` / :func:`casts_away_const`) that feeds the
Table 2 "casts away const" discussion and the ``casts-away-const``
qlint check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Union

from .ctypes import CArray, CFunc, CPointer, CType, is_const


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CExpr:
    line: int = field(default=0, kw_only=True, compare=False)
    col: int = field(default=0, kw_only=True, compare=False)


@dataclass(frozen=True)
class Ident(CExpr):
    name: str


@dataclass(frozen=True)
class IntConst(CExpr):
    value: int


@dataclass(frozen=True)
class FloatConst(CExpr):
    text: str


@dataclass(frozen=True)
class CharConst(CExpr):
    value: int


@dataclass(frozen=True)
class StringConst(CExpr):
    value: str


@dataclass(frozen=True)
class Unary(CExpr):
    """Prefix unary: one of ``- + ~ ! * & ++ --`` (and postfix ``p++ p--``
    distinguished by ``postfix``)."""

    op: str
    operand: CExpr
    postfix: bool = False


@dataclass(frozen=True)
class Binary(CExpr):
    op: str
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class Assignment(CExpr):
    """``lhs op rhs`` where op is ``=`` or a compound assignment."""

    op: str
    target: CExpr
    value: CExpr


@dataclass(frozen=True)
class Conditional(CExpr):
    cond: CExpr
    then: CExpr
    other: CExpr


@dataclass(frozen=True)
class Call(CExpr):
    func: CExpr
    args: tuple[CExpr, ...]


@dataclass(frozen=True)
class Member(CExpr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""

    base: CExpr
    field_name: str
    arrow: bool


@dataclass(frozen=True)
class Index(CExpr):
    base: CExpr
    index: CExpr


@dataclass(frozen=True)
class Cast(CExpr):
    target_type: CType
    operand: CExpr


@dataclass(frozen=True)
class SizeofType(CExpr):
    target_type: CType


@dataclass(frozen=True)
class Comma(CExpr):
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class InitList(CExpr):
    items: tuple[CExpr, ...]


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CStmt:
    line: int = field(default=0, kw_only=True, compare=False)
    col: int = field(default=0, kw_only=True, compare=False)


@dataclass(frozen=True)
class ExprStmt(CStmt):
    expr: CExpr


@dataclass(frozen=True)
class EmptyStmt(CStmt):
    pass


@dataclass(frozen=True)
class DeclStmt(CStmt):
    decls: tuple["VarDecl", ...]


@dataclass(frozen=True)
class Compound(CStmt):
    body: tuple[CStmt, ...]


@dataclass(frozen=True)
class IfStmt(CStmt):
    cond: CExpr
    then: CStmt
    other: Optional[CStmt]


@dataclass(frozen=True)
class WhileStmt(CStmt):
    cond: CExpr
    body: CStmt


@dataclass(frozen=True)
class DoWhileStmt(CStmt):
    body: CStmt
    cond: CExpr


@dataclass(frozen=True)
class ForStmt(CStmt):
    init: Optional[Union[CExpr, "DeclStmt"]]
    cond: Optional[CExpr]
    step: Optional[CExpr]
    body: CStmt


@dataclass(frozen=True)
class ReturnStmt(CStmt):
    value: Optional[CExpr]


@dataclass(frozen=True)
class BreakStmt(CStmt):
    pass


@dataclass(frozen=True)
class ContinueStmt(CStmt):
    pass


@dataclass(frozen=True)
class GotoStmt(CStmt):
    label: str


@dataclass(frozen=True)
class LabeledStmt(CStmt):
    label: str
    stmt: CStmt


@dataclass(frozen=True)
class SwitchStmt(CStmt):
    value: CExpr
    body: CStmt


@dataclass(frozen=True)
class CaseStmt(CStmt):
    value: Optional[CExpr]  # None for default:
    stmt: CStmt


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParamDecl:
    """One function parameter: possibly unnamed in prototypes."""

    name: Optional[str]
    type: CType
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: CType
    init: Optional[CExpr] = None
    storage: Optional[str] = None  # "extern", "static", "typedef" handled upstream
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class FieldDecl:
    name: str
    type: CType
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class StructDef:
    tag: str
    fields: tuple[FieldDecl, ...]
    is_union: bool = False
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class EnumDef:
    tag: str
    enumerators: tuple[tuple[str, Optional[CExpr]], ...]
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class FuncDecl:
    """A function prototype (no body)."""

    name: str
    ret: CType
    params: tuple[ParamDecl, ...]
    varargs: bool = False
    storage: Optional[str] = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class FuncDef:
    """A function definition with a body."""

    name: str
    ret: CType
    params: tuple[ParamDecl, ...]
    body: Compound
    varargs: bool = False
    storage: Optional[str] = None
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


@dataclass(frozen=True)
class TypedefDecl:
    name: str
    type: CType
    line: int = field(default=0, compare=False)
    col: int = field(default=0, compare=False)
    file: str = field(default="", compare=False)


TopLevel = Union[VarDecl, FuncDecl, FuncDef, StructDef, EnumDef, TypedefDecl]


@dataclass
class TranslationUnit:
    """A parsed C file (or concatenation of files, as the paper analysed
    whole packages at once)."""

    items: list[TopLevel] = field(default_factory=list)
    filename: str = "<input>"

    def functions(self) -> list[FuncDef]:
        return [d for d in self.items if isinstance(d, FuncDef)]

    def prototypes(self) -> list[FuncDecl]:
        return [d for d in self.items if isinstance(d, FuncDecl)]

    def globals(self) -> list[VarDecl]:
        return [d for d in self.items if isinstance(d, VarDecl)]

    def structs(self) -> list[StructDef]:
        return [d for d in self.items if isinstance(d, StructDef)]


# ---------------------------------------------------------------------------
# Casts-away-const classification (Table 2)
# ---------------------------------------------------------------------------


class CastClass(enum.Enum):
    """Syntactic classification of a C cast ``(dst) src-expr``.

    The paper's Table 2 discussion distinguishes casts that *remove*
    ``const`` from a referenced type — those are the casts that defeat
    const inference (a ``(char *)`` of a ``const char *`` lets the
    program write through what was promised read-only).
    """

    #: No pointer level on either side: a pure value conversion.
    VALUE = "value"
    #: Qualifiers are preserved at every matched reference level.
    PRESERVES = "preserves"
    #: ``const`` appears on the destination where the source lacked it
    #: (safe: the classic ``char * -> const char *`` widening).
    ADDS_CONST = "adds-const"
    #: ``const`` present on the source is dropped by the destination at
    #: some referenced level — the Table 2 "casts away const" bucket.
    AWAY_CONST = "casts-away-const"


def _ref_levels(t: CType) -> list[tuple[CType, CType]]:
    """The chain of referenced types reachable through pointers/arrays,
    as ``(container, referenced)`` pairs, decaying arrays to pointers."""
    levels: list[tuple[CType, CType]] = []
    decayed = t
    while True:
        if isinstance(decayed, CArray):
            decayed = CPointer(decayed.element, decayed.quals)
        if isinstance(decayed, CPointer):
            levels.append((decayed, decayed.target))
            decayed = decayed.target
        else:
            break
    return levels


def classify_cast(src: CType, dst: CType) -> CastClass:
    """Classify the cast of a value of type ``src`` to type ``dst``.

    Walks the matched pointer levels of both types (arrays decay), and
    recurses through function-pointer parameter and return types, so
    ``void (*)(const int *) -> void (*)(int *)`` is recognised as
    casting away const just like ``const char ** -> char **``.
    """
    src_levels = _ref_levels(src)
    dst_levels = _ref_levels(dst)
    if not src_levels or not dst_levels:
        return CastClass.VALUE

    away, added = _const_changes(src, dst)
    if away:
        return CastClass.AWAY_CONST
    if added:
        return CastClass.ADDS_CONST
    return CastClass.PRESERVES


def _const_changes(s: CType, d: CType) -> tuple[bool, bool]:
    """``(away, added)``: whether some matched referenced level of ``s``
    and ``d``, function-pointer signatures included, drops or adds
    ``const``.  A plain recursive function, not a closure pair, so a call
    leaves no reference cycle behind."""
    away = added = False
    for (_, s_ref), (_, d_ref) in zip(_ref_levels(s), _ref_levels(d)):
        s_const, d_const = is_const(s_ref), is_const(d_ref)
        if s_const and not d_const:
            away = True
        elif d_const and not s_const:
            added = True
        if isinstance(s_ref, CFunc) and isinstance(d_ref, CFunc):
            for sub_s, sub_d in zip((s_ref.ret, *s_ref.params), (d_ref.ret, *d_ref.params)):
                sub_away, sub_added = _const_changes(sub_s, sub_d)
                away |= sub_away
                added |= sub_added
    return away, added


def casts_away_const(src: CType, dst: CType) -> bool:
    """True iff casting ``src`` to ``dst`` drops ``const`` from a
    referenced type at any matched level (including inside function
    pointer signatures)."""
    return classify_cast(src, dst) is CastClass.AWAY_CONST
