"""The MiniC compiler — the reproduction's stand-in for Clang/LLVM.

GlitchResistor (Section VI) is a set of Clang/LLVM passes; with no LLVM
available offline, this package provides an equivalent pipeline over a small
C dialect ("MiniC") that is rich enough for the paper's firmware:

``lexer → parser → sema (AST) → lowering → IR passes → codegen (Thumb-16)
→ layout (sections + image)``

The AST level hosts the ENUM rewriter (the paper implements it as a Clang
source rewriter for exactly the reason we do: enums are already constants
in the IR); every other defense is an IR pass (see :mod:`repro.resistor`).

MiniC supports: ``int/unsigned/short/char/void``, ``volatile``, enums,
globals with initializers, functions, ``if/else``, ``while``, ``for``,
``return``, all the usual integer operators with C semantics (including
short-circuit ``&&``/``||``), and the MMIO idiom
``*(volatile unsigned int *)0x48000014 = 1``.
"""

from repro.compiler.lexer import tokenize, Token
from repro.compiler.parser import parse
from repro.compiler.sema import analyze
from repro.compiler.lowering import lower
from repro.compiler.driver import CompiledProgram, compile_source

__all__ = [
    "tokenize",
    "Token",
    "parse",
    "analyze",
    "lower",
    "CompiledProgram",
    "compile_source",
]
