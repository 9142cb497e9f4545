"""Differential execution tests: AST interp ≡ IR interp ≡ compiled-on-board.

The three-way agreement across hand-written programs plus a hypothesis-
generated arithmetic-expression sweep is the compiler's core correctness
argument.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_source
from repro.compiler.lowering import lower
from repro.hw.mcu import Board
from tests.oracles import Interpreter, IRInterpreter

WORD = 0xFFFFFFFF


def run_all_three(source: str, max_cycles: int = 2_000_000):
    """Return (ast_result, ir_result, board_result) for ``main``."""
    interp = Interpreter.from_source(source)
    ast_result = interp.run()
    ir_result = IRInterpreter(lower(interp.program)).run()
    compiled = compile_source(source)
    board = Board(compiled.image)
    reason = board.run(max_cycles)
    assert reason == "halted", f"board did not halt: {reason}"
    return ast_result, ir_result, board.cpu.regs[0]


def assert_agree(source: str):
    ast_result, ir_result, board_result = run_all_three(source)
    assert ast_result == ir_result == board_result, (ast_result, ir_result, board_result)
    return ast_result


class TestBasics:
    def test_return_constant(self):
        assert assert_agree("int main(void) { return 42; }") == 42

    def test_arithmetic(self):
        assert assert_agree("int main(void) { return (3 + 4) * 5 - 6; }") == 29

    def test_negative_wraps_to_u32(self):
        assert assert_agree("int main(void) { return 0 - 1; }") == WORD

    def test_locals_and_assignment(self):
        source = "int main(void) { int a = 3; int b = a; b += a * 2; return b; }"
        assert assert_agree(source) == 9

    def test_globals(self):
        source = "int g = 10; int main(void) { g = g + 5; return g; }"
        assert assert_agree(source) == 15

    def test_char_global_truncates(self):
        source = "char c = 200; int main(void) { return c & 0xFFFF; }"
        # signed char: 200 → -56 → 0xFFC8 after masking
        assert assert_agree(source) == 0xFFC8

    def test_unsigned_char_global(self):
        source = "unsigned char c = 200; int main(void) { return c; }"
        assert assert_agree(source) == 200

    def test_short_global(self):
        source = "short s = 0x8000; int main(void) { return s & 0xFFFFF; }"
        assert assert_agree(source) == 0xF8000


class TestControlFlow:
    def test_if_else_chain(self):
        source = """
        int classify(int x) {
            if (x < 0) { return 1; }
            else if (x == 0) { return 2; }
            else { return 3; }
        }
        int main(void) { return classify(0-5) * 100 + classify(0) * 10 + classify(5); }
        """
        assert assert_agree(source) == 123

    def test_while_loop(self):
        source = "int main(void) { int i = 0; while (i < 7) { i = i + 1; } return i; }"
        assert assert_agree(source) == 7

    def test_for_with_break_continue(self):
        source = """
        int main(void) {
            int total = 0;
            for (int i = 0; i < 100; i = i + 1) {
                if (i == 10) { break; }
                if (i % 2 == 1) { continue; }
                total += i;
            }
            return total;
        }
        """
        assert assert_agree(source) == 0 + 2 + 4 + 6 + 8

    def test_nested_loops(self):
        source = """
        int main(void) {
            int n = 0;
            for (int i = 0; i < 5; i = i + 1) {
                for (int j = 0; j < i; j = j + 1) { n = n + 1; }
            }
            return n;
        }
        """
        assert assert_agree(source) == 10

    def test_short_circuit_side_effects(self):
        source = """
        int calls = 0;
        int bump(void) { calls = calls + 1; return 1; }
        int main(void) {
            int a = 0 && bump();
            int b = 1 || bump();
            return calls * 10 + a + b;
        }
        """
        assert assert_agree(source) == 1  # neither bump executed

    def test_ternary(self):
        source = "int main(void) { int x = 5; return x > 3 ? 10 : 20; }"
        assert assert_agree(source) == 10


class TestFunctions:
    def test_recursion(self):
        source = """
        int fact(int n) { if (n < 2) { return 1; } return n * fact(n - 1); }
        int main(void) { return fact(6); }
        """
        assert assert_agree(source) == 720

    def test_four_arguments(self):
        source = """
        int combine(int a, int b, int c, int d) { return a * 1000 + b * 100 + c * 10 + d; }
        int main(void) { return combine(1, 2, 3, 4); }
        """
        assert assert_agree(source) == 1234

    def test_mutual_recursion(self):
        source = """
        int is_odd(int n);
        int is_even(int n) { if (n == 0) { return 1; } return is_odd(n - 1); }
        int is_odd(int n) { if (n == 0) { return 0; } return is_even(n - 1); }
        int main(void) { return is_even(10) * 10 + is_odd(7); }
        """
        assert assert_agree(source) == 11

    def test_void_function_side_effect(self):
        source = """
        int g;
        void set(void) { g = 77; }
        int main(void) { set(); return g; }
        """
        assert assert_agree(source) == 77


class TestDivision:
    @pytest.mark.parametrize(
        "a,b",
        [(100, 7), (7, 100), (0, 5), (0xFFFFFFFF, 3), (0xF0000000, 7), (1 << 31, 2)],
    )
    def test_unsigned_div_mod(self, a, b):
        source = f"""
        unsigned int ua = {a}u;
        unsigned int ub = {b}u;
        int main(void) {{ return (int)((ua / ub) ^ (ua % ub)); }}
        """
        expected = ((a // b) ^ (a % b)) & WORD
        assert assert_agree(source) == expected

    @pytest.mark.parametrize("a,b", [(100, 7), (-100, 7), (100, -7), (-100, -7), (-7, 100)])
    def test_signed_div_truncates_toward_zero(self, a, b):
        source = f"""
        int sa = {a};
        int sb = {b};
        int main(void) {{ return (sa / sb) * 1000 + (sa % sb); }}
        """
        quotient = abs(a) // abs(b) * (-1 if (a < 0) != (b < 0) else 1)
        remainder = a - quotient * b
        expected = (quotient * 1000 + remainder) & WORD
        assert assert_agree(source) == expected


class TestEnumsAndVolatile:
    def test_enum_constants(self):
        source = """
        enum E { A, B, C };
        int main(void) { return A * 100 + B * 10 + C; }
        """
        assert assert_agree(source) == 12

    def test_enum_with_values(self):
        source = """
        enum E { X = 5, Y, Z = 20 };
        int main(void) { return X + Y + Z; }
        """
        assert assert_agree(source) == 31

    def test_volatile_global_counts_loads(self):
        """Each source-level volatile access must be one IR load."""
        from repro.compiler import ir
        from repro.compiler.parser import parse
        from repro.compiler.sema import analyze

        source = "volatile int v; int main(void) { return v + v; }"
        module = lower(analyze(parse(source)))
        loads = [
            instr
            for _, instr in module.functions["main"].instructions()
            if isinstance(instr, ir.LoadGlobal) and instr.volatile
        ]
        assert len(loads) == 2


class TestHypothesisDifferential:
    """Random arithmetic programs: all three executors must agree."""

    @given(
        a=st.integers(0, WORD), b=st.integers(0, WORD), c=st.integers(1, WORD),
        op1=st.sampled_from(["+", "-", "*", "&", "|", "^"]),
        op2=st.sampled_from(["+", "-", "*", ">>", "<<"]),
        shift=st.integers(0, 31),
    )
    @settings(max_examples=30, deadline=None)
    def test_unsigned_expression_agreement(self, a, b, c, op1, op2, shift):
        source = f"""
        unsigned int ga = {a}u;
        unsigned int gb = {b}u;
        unsigned int gc = {c}u;
        int main(void) {{
            unsigned int r = (ga {op1} gb) {op2} {shift if op2 in ('>>', '<<') else 'gc'};
            if (r > ga) {{ r = r ^ gc; }}
            return (int)r;
        }}
        """
        assert_agree(source)

    @given(
        x=st.integers(-100, 100), y=st.integers(-100, 100),
        cmp=st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
    )
    @settings(max_examples=25, deadline=None)
    def test_signed_comparison_agreement(self, x, y, cmp):
        source = f"""
        int gx = {x};
        int gy = {y};
        int main(void) {{
            if (gx {cmp} gy) {{ return 1; }}
            return 0;
        }}
        """
        expected = int(eval(f"{x} {cmp} {y}"))
        assert assert_agree(source) == expected

    @given(n=st.integers(0, 12))
    @settings(max_examples=10, deadline=None)
    def test_loop_iteration_counts(self, n):
        source = f"""
        int main(void) {{
            int count = 0;
            for (int i = 0; i < {n}; i = i + 1) {{ count = count + 1; }}
            return count;
        }}
        """
        assert assert_agree(source) == n
