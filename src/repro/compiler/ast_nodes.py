"""MiniC abstract syntax tree nodes.

Nodes are plain dataclasses; ``line`` carries the source location for
diagnostics. Types are represented by :class:`CType` — integers of a width
plus signedness and qualifiers, which is all MiniC has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class CType:
    """A MiniC type: ``void`` or an integer of 1/2/4 bytes."""

    name: str  # "void" | "char" | "short" | "int"
    signed: bool = True
    volatile: bool = False
    const: bool = False

    @property
    def size(self) -> int:
        return {"void": 0, "char": 1, "short": 2, "int": 4}[self.name]

    @property
    def is_void(self) -> bool:
        return self.name == "void"


INT = CType("int")
UNSIGNED = CType("int", signed=False)
VOID = CType("void")


# ----------------------------------------------------------------------
# expressions
# ----------------------------------------------------------------------

@dataclass
class Expr:
    line: int = 0


@dataclass
class NumberLit(Expr):
    value: int = 0


@dataclass
class Name(Expr):
    ident: str = ""


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Conditional(Expr):
    """Ternary ``cond ? a : b``."""

    cond: Expr = None
    then: Expr = None
    other: Expr = None


@dataclass
class Call(Expr):
    func: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class MMIODeref(Expr):
    """``*(volatile TYPE *)address`` — as a load when read, store target when assigned."""

    target_type: CType = INT
    address: Expr = None


@dataclass
class Assign(Expr):
    """Assignment expression ``lhs = value`` (also +=, -=, ...)."""

    lhs: Expr = None  # Name or MMIODeref
    op: str = "="
    value: Expr = None


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------

@dataclass
class Stmt:
    line: int = 0


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class Declaration(Stmt):
    ctype: CType = INT
    name: str = ""
    init: Optional[Expr] = None


@dataclass
class Block(Stmt):
    statements: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    other: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ----------------------------------------------------------------------
# top level
# ----------------------------------------------------------------------

@dataclass
class Param:
    ctype: CType
    name: str


@dataclass
class FunctionDef:
    name: str
    return_type: CType
    params: list[Param]
    body: Optional[Block]  # None for declarations/prototypes
    line: int = 0


@dataclass
class GlobalVar:
    ctype: CType
    name: str
    init: Optional[Expr]
    line: int = 0


@dataclass
class Enumerator:
    name: str
    value: Optional[Expr]  # None = uninitialized (auto-numbered)
    line: int = 0


@dataclass
class EnumDef:
    name: Optional[str]
    enumerators: list[Enumerator]
    line: int = 0

    @property
    def fully_uninitialized(self) -> bool:
        """True when no enumerator has an explicit value — the only case the
        paper's ENUM Rewriter is allowed to diversify."""
        return all(e.value is None for e in self.enumerators)


TopLevel = Union[FunctionDef, GlobalVar, EnumDef]


@dataclass
class TranslationUnit:
    items: list[TopLevel] = field(default_factory=list)

    def functions(self) -> list[FunctionDef]:
        return [i for i in self.items if isinstance(i, FunctionDef) and i.body is not None]

    def globals(self) -> list[GlobalVar]:
        return [i for i in self.items if isinstance(i, GlobalVar)]

    def enums(self) -> list[EnumDef]:
        return [i for i in self.items if isinstance(i, EnumDef)]

    def function(self, name: str) -> FunctionDef:
        for item in self.items:
            if isinstance(item, FunctionDef) and item.name == name and item.body is not None:
                return item
        raise KeyError(name)


__all__ = [
    "CType", "INT", "UNSIGNED", "VOID",
    "Expr", "NumberLit", "Name", "Unary", "Binary", "Conditional", "Call",
    "MMIODeref", "Assign",
    "Stmt", "ExprStmt", "Declaration", "Block", "If", "While", "For",
    "Return", "Break", "Continue",
    "Param", "FunctionDef", "GlobalVar", "Enumerator", "EnumDef",
    "TranslationUnit", "TopLevel",
]
