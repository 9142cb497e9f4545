"""Semantic analysis: symbol resolution, enum expansion, constant evaluation.

Produces a :class:`Program` — the analyzed translation unit plus the symbol
information lowering needs. MiniC's type discipline is C-like and lenient:
everything is an integer; widths matter only for global storage and MMIO
access sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import ast_nodes as ast
from repro.errors import CompileError

#: builtin functions lowering knows how to emit
BUILTINS = {
    "__halt": (ast.VOID, 0),
    "__nop": (ast.VOID, 0),
}


@dataclass
class GlobalInfo:
    name: str
    ctype: ast.CType
    initial: int  # evaluated initializer (0 if none)
    has_initializer: bool
    sensitive: bool = False  # set by GlitchResistor's config


@dataclass
class FunctionInfo:
    name: str
    return_type: ast.CType
    param_count: int
    defined: bool


@dataclass
class Program:
    """An analyzed translation unit."""

    unit: ast.TranslationUnit
    enum_values: dict[str, int] = field(default_factory=dict)
    globals: dict[str, GlobalInfo] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)


class _Analyzer:
    def __init__(self, unit: ast.TranslationUnit):
        self.unit = unit
        self.program = Program(unit=unit)

    def run(self) -> Program:
        self._collect_enums()
        self._collect_globals()
        self._collect_functions()
        for function in self.unit.functions():
            self._check_function(function)
        return self.program

    # ------------------------------------------------------------------

    def _collect_enums(self) -> None:
        for enum in self.unit.enums():
            next_value = 0
            for enumerator in enum.enumerators:
                if enumerator.name in self.program.enum_values:
                    raise CompileError(
                        f"duplicate enumerator {enumerator.name!r}", enumerator.line
                    )
                if enumerator.value is not None:
                    next_value = self.eval_constant(enumerator.value)
                self.program.enum_values[enumerator.name] = next_value
                next_value += 1

    def _collect_globals(self) -> None:
        for item in self.unit.globals():
            if item.name in self.program.globals:
                raise CompileError(f"duplicate global {item.name!r}", item.line)
            if item.ctype.is_void:
                raise CompileError(f"global {item.name!r} cannot be void", item.line)
            initial = 0
            if item.init is not None:
                initial = self.eval_constant(item.init) & ((1 << (8 * item.ctype.size)) - 1)
            self.program.globals[item.name] = GlobalInfo(
                name=item.name,
                ctype=item.ctype,
                initial=initial,
                has_initializer=item.init is not None,
            )

    def _collect_functions(self) -> None:
        for item in self.unit.items:
            if not isinstance(item, ast.FunctionDef):
                continue
            existing = self.program.functions.get(item.name)
            info = FunctionInfo(
                name=item.name,
                return_type=item.return_type,
                param_count=len(item.params),
                defined=item.body is not None,
            )
            if existing is not None:
                if existing.param_count != info.param_count:
                    raise CompileError(
                        f"conflicting declarations of {item.name!r}", item.line
                    )
                if existing.defined and info.defined:
                    raise CompileError(f"redefinition of {item.name!r}", item.line)
                if info.defined:
                    self.program.functions[item.name] = info
            else:
                self.program.functions[item.name] = info
            if info.param_count > 4:
                raise CompileError(
                    f"function {item.name!r} has more than 4 parameters "
                    "(MiniC passes arguments in r0-r3)", item.line,
                )

    # ------------------------------------------------------------------

    def _check_function(self, function: ast.FunctionDef) -> None:
        scope = {param.name for param in function.params}
        if len(scope) != len(function.params):
            raise CompileError(f"duplicate parameter in {function.name!r}", function.line)
        self._check_block(function.body, [scope], function)

    def _check_block(self, block: ast.Block, scopes: list[set[str]], function: ast.FunctionDef) -> None:
        scopes.append(set())
        for statement in block.statements:
            self._check_statement(statement, scopes, function)
        scopes.pop()

    def _check_statement(self, stmt: ast.Stmt, scopes: list[set[str]], function: ast.FunctionDef) -> None:
        if isinstance(stmt, ast.Block):
            self._check_block(stmt, scopes, function)
        elif isinstance(stmt, ast.Declaration):
            if stmt.name in scopes[-1]:
                raise CompileError(f"redeclaration of {stmt.name!r}", stmt.line)
            if stmt.init is not None:
                self._check_expression(stmt.init, scopes)
            scopes[-1].add(stmt.name)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expression(stmt.expr, scopes)
        elif isinstance(stmt, ast.If):
            self._check_expression(stmt.cond, scopes)
            self._check_statement(stmt.then, scopes, function)
            if stmt.other is not None:
                self._check_statement(stmt.other, scopes, function)
        elif isinstance(stmt, ast.While):
            self._check_expression(stmt.cond, scopes)
            self._check_statement(stmt.body, scopes, function)
        elif isinstance(stmt, ast.For):
            scopes.append(set())
            if stmt.init is not None:
                self._check_statement(stmt.init, scopes, function)
            if stmt.cond is not None:
                self._check_expression(stmt.cond, scopes)
            if stmt.step is not None:
                self._check_expression(stmt.step, scopes)
            self._check_statement(stmt.body, scopes, function)
            scopes.pop()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if function.return_type.is_void:
                    raise CompileError(
                        f"void function {function.name!r} returns a value", stmt.line
                    )
                self._check_expression(stmt.value, scopes)
            elif not function.return_type.is_void:
                raise CompileError(
                    f"non-void function {function.name!r} returns nothing", stmt.line
                )
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            pass
        else:  # pragma: no cover - parser produces no other nodes
            raise CompileError(f"unknown statement {stmt!r}", stmt.line)

    def _check_expression(self, expr: ast.Expr, scopes: list[set[str]]) -> None:
        if isinstance(expr, ast.NumberLit):
            return
        if isinstance(expr, ast.Name):
            if not self._resolves(expr.ident, scopes):
                raise CompileError(f"undefined identifier {expr.ident!r}", expr.line)
            return
        if isinstance(expr, ast.Unary):
            self._check_expression(expr.operand, scopes)
            return
        if isinstance(expr, ast.Binary):
            self._check_expression(expr.left, scopes)
            self._check_expression(expr.right, scopes)
            return
        if isinstance(expr, ast.Conditional):
            self._check_expression(expr.cond, scopes)
            self._check_expression(expr.then, scopes)
            self._check_expression(expr.other, scopes)
            return
        if isinstance(expr, ast.Call):
            if expr.func not in self.program.functions and expr.func not in BUILTINS:
                raise CompileError(f"call to undefined function {expr.func!r}", expr.line)
            expected = (
                self.program.functions[expr.func].param_count
                if expr.func in self.program.functions
                else BUILTINS[expr.func][1]
            )
            if len(expr.args) != expected:
                raise CompileError(
                    f"{expr.func!r} expects {expected} arguments, got {len(expr.args)}",
                    expr.line,
                )
            for arg in expr.args:
                self._check_expression(arg, scopes)
            return
        if isinstance(expr, ast.MMIODeref):
            self._check_expression(expr.address, scopes)
            return
        if isinstance(expr, ast.Assign):
            if isinstance(expr.lhs, ast.Name):
                if not self._resolves(expr.lhs.ident, scopes):
                    raise CompileError(f"undefined identifier {expr.lhs.ident!r}", expr.line)
                if expr.lhs.ident in self.program.enum_values:
                    raise CompileError(
                        f"cannot assign to enumerator {expr.lhs.ident!r}", expr.line
                    )
                info = self.program.globals.get(expr.lhs.ident)
                if info is not None and info.ctype.const:
                    raise CompileError(f"assignment to const {expr.lhs.ident!r}", expr.line)
            else:
                self._check_expression(expr.lhs.address, scopes)
            self._check_expression(expr.value, scopes)
            return
        raise CompileError(f"unknown expression {expr!r}", expr.line)  # pragma: no cover

    def _resolves(self, name: str, scopes: list[set[str]]) -> bool:
        if any(name in scope for scope in scopes):
            return True
        return name in self.program.globals or name in self.program.enum_values

    # ------------------------------------------------------------------

    def eval_constant(self, expr: ast.Expr) -> int:
        """Fold a compile-time constant expression (enums allowed)."""
        if isinstance(expr, ast.NumberLit):
            return expr.value
        if isinstance(expr, ast.Name):
            value = self.program.enum_values.get(expr.ident)
            if value is None:
                raise CompileError(f"{expr.ident!r} is not a constant", expr.line)
            return value
        if isinstance(expr, ast.Unary):
            operand = self.eval_constant(expr.operand)
            if expr.op == "-":
                return -operand
            if expr.op == "~":
                return ~operand
            if expr.op == "!":
                return 0 if operand else 1
        if isinstance(expr, ast.Binary):
            left = self.eval_constant(expr.left)
            right = self.eval_constant(expr.right)
            return _fold_binary(expr.op, left, right, expr.line)
        raise CompileError("expression is not a compile-time constant", expr.line)


def _fold_binary(op: str, left: int, right: int, line: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op in ("/", "%"):
        if right == 0:
            raise CompileError("constant division by zero", line)
        quotient = abs(left) // abs(right)
        if (left < 0) != (right < 0):
            quotient = -quotient
        if op == "/":
            return quotient
        return left - quotient * right
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op == "<<":
        return left << (right & 31)
    if op == ">>":
        return left >> (right & 31)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "&&":
        return int(bool(left) and bool(right))
    if op == "||":
        return int(bool(left) or bool(right))
    raise CompileError(f"unsupported constant operator {op!r}", line)


def analyze(unit: ast.TranslationUnit) -> Program:
    """Run semantic analysis over a parsed translation unit."""
    return _Analyzer(unit).run()


__all__ = ["Program", "GlobalInfo", "FunctionInfo", "analyze", "BUILTINS"]
