"""Constant folding over the IR.

Folds ``BinOp``/``Cmp`` whose operands are ``Const`` definitions in the
same function, iterating to a fixed point. Volatile loads are opaque, so
GlitchResistor's redundancy code (whose loads are marked volatile, as the
paper requires) survives folding untouched.
"""

from __future__ import annotations

from repro.compiler import ir
from repro.compiler.passes.pass_manager import IRPass

WORD_MASK = 0xFFFFFFFF


def _signed(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 32) if value & (1 << 31) else value


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero")
    quotient = abs(a) // abs(b)
    return -quotient if (a < 0) != (b < 0) else quotient


#: IR binary operators on 32-bit operands (the caller masks the result);
#: shared with the reference IR interpreter in the test suite
_BIN = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 31),
    "lshr": lambda a, b: a >> (b & 31),
    "ashr": lambda a, b: _signed(a) >> (b & 31),
    "udiv": lambda a, b: a // b if b else _raise_div(),
    "urem": lambda a, b: a % b if b else _raise_div(),
    "sdiv": lambda a, b: _c_div(_signed(a), _signed(b)),
    "srem": lambda a, b: _signed(a) - _c_div(_signed(a), _signed(b)) * _signed(b),
}

#: IR comparisons on 32-bit operands
_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "ult": lambda a, b: a < b,
    "ule": lambda a, b: a <= b,
    "ugt": lambda a, b: a > b,
    "uge": lambda a, b: a >= b,
    "slt": lambda a, b: _signed(a) < _signed(b),
    "sle": lambda a, b: _signed(a) <= _signed(b),
    "sgt": lambda a, b: _signed(a) > _signed(b),
    "sge": lambda a, b: _signed(a) >= _signed(b),
}


def _raise_div():
    raise ZeroDivisionError("division by zero")


class ConstantFoldPass(IRPass):
    name = "constfold"

    def run(self, module: ir.IRModule) -> str:
        folded = 0
        for function in module.functions.values():
            folded += self._fold_function(function)
        return f"folded {folded} instructions"

    def _fold_function(self, function: ir.IRFunction) -> int:
        folded = 0
        changed = True
        while changed:
            changed = False
            constants: dict[int, int] = {}
            for block in function.blocks.values():
                for instr in block.instrs:
                    if isinstance(instr, ir.Const):
                        constants[instr.result] = instr.value
            for block in function.blocks.values():
                for index, instr in enumerate(block.instrs):
                    replacement = self._try_fold(instr, constants)
                    if replacement is not None:
                        block.instrs[index] = replacement
                        folded += 1
                        changed = True
        return folded

    def _try_fold(self, instr: ir.Instr, constants: dict[int, int]):
        if isinstance(instr, ir.BinOp) and instr.lhs in constants and instr.rhs in constants:
            try:
                value = _BIN[instr.op](constants[instr.lhs], constants[instr.rhs]) & WORD_MASK
            except ZeroDivisionError:
                return None  # leave the trap to runtime
            return ir.Const(result=instr.result, value=value)
        if isinstance(instr, ir.Cmp) and instr.lhs in constants and instr.rhs in constants:
            value = int(_CMP[instr.op](constants[instr.lhs], constants[instr.rhs]))
            return ir.Const(result=instr.result, value=value)
        return None


__all__ = ["ConstantFoldPass"]
