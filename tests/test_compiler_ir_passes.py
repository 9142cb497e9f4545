"""IR data-structure, pass-manager, and optimization-pass tests."""

import pytest

from repro.compiler import ir
from repro.compiler.lowering import lower
from repro.compiler.parser import parse
from repro.compiler.passes import ConstantFoldPass, DeadCodeEliminationPass, PassManager
from repro.compiler.passes.pass_manager import IRPass
from repro.compiler.sema import analyze
from repro.errors import PassError
from tests.oracles import IRInterpreter


def module_for(source: str) -> ir.IRModule:
    return lower(analyze(parse(source)))


class TestIRStructure:
    def test_render_roundtrip_readable(self):
        module = module_for("int main(void) { int x = 1; return x + 2; }")
        text = module.render()
        assert "function main" in text
        assert "const" in text and "ret" in text

    def test_block_order_starts_at_entry(self):
        module = module_for(
            "int main(void) { if (1) { return 1; } else { return 2; } }"
        )
        blocks = module.functions["main"].block_order()
        assert blocks[0].label == "entry"

    def test_split_block(self):
        function = ir.IRFunction(name="f", param_count=0, returns_value=True)
        block = ir.Block(label="entry")
        t0, t1 = 0, 1
        block.instrs = [ir.Const(result=t0, value=1), ir.Const(result=t1, value=2)]
        block.terminator = ir.Ret(operand=t1)
        function.blocks["entry"] = block
        function.n_temps = 2
        tail = function.split_block("entry", 1)
        assert len(block.instrs) == 1
        assert len(tail.instrs) == 1
        assert isinstance(block.terminator, ir.Jump)
        assert isinstance(tail.terminator, ir.Ret)

    def test_split_block_bad_index(self):
        function = ir.IRFunction(name="f", param_count=0, returns_value=False)
        function.blocks["entry"] = ir.Block(label="entry", terminator=ir.Ret())
        with pytest.raises(PassError):
            function.split_block("entry", 5)

    def test_defining_instr(self):
        module = module_for("int main(void) { return 7; }")
        function = module.functions["main"]
        ret = function.blocks[function.block_order()[-1].label].terminator
        # find the ret operand's definition
        for block in function.blocks.values():
            if isinstance(block.terminator, ir.Ret) and block.terminator.operand is not None:
                definition = function.defining_instr(block.terminator.operand)
                assert isinstance(definition, ir.Const)
                assert definition.value == 7
                return
        raise AssertionError("no ret found")

    def test_loop_guard_metadata(self):
        module = module_for("int main(void) { int i = 0; while (i < 3) { i = i + 1; } return i; }")
        guards = [
            block.terminator
            for block in module.functions["main"].blocks.values()
            if isinstance(block.terminator, ir.CondBr) and block.terminator.is_loop_guard
        ]
        assert len(guards) == 1

    def test_replace_operands(self):
        binop = ir.BinOp(result=2, op="add", lhs=0, rhs=1)
        replaced = binop.replace_operands({0: 10, 1: 11})
        assert (replaced.lhs, replaced.rhs) == (10, 11)
        call = ir.Call(result=3, func="f", args=(0, 1))
        assert call.replace_operands({1: 9}).args == (0, 9)


class TestPassManager:
    def test_passes_run_in_order_and_log(self):
        order = []

        class A(IRPass):
            name = "a"

            def run(self, module):
                order.append("a")
                return "ran a"

        class B(IRPass):
            name = "b"

            def run(self, module):
                order.append("b")
                return "ran b"

        manager = PassManager([A(), B()])
        manager.run(module_for("int main(void) { return 0; }"))
        assert order == ["a", "b"]
        assert manager.report() == "a: ran a\nb: ran b"

    def test_base_pass_abstract(self):
        with pytest.raises(NotImplementedError):
            IRPass().run(None)


class TestConstantFolding:
    def test_folds_constant_arithmetic(self):
        module = module_for("int main(void) { return 2 + 3 * 4; }")
        ConstantFoldPass().run(module)
        function = module.functions["main"]
        binops = [i for _, i in function.instructions() if isinstance(i, ir.BinOp)]
        assert binops == []
        assert IRInterpreter(module).run() == 14

    def test_folds_comparisons(self):
        module = module_for("int main(void) { if (3 < 5) { return 1; } return 0; }")
        ConstantFoldPass().run(module)
        assert IRInterpreter(module).run() == 1

    def test_leaves_division_by_zero_to_runtime(self):
        module = module_for("int main(void) { return 1 / 0; }")
        ConstantFoldPass().run(module)
        function = module.functions["main"]
        divs = [i for _, i in function.instructions() if isinstance(i, ir.BinOp)]
        assert divs, "the trapping division must remain"

    def test_does_not_fold_through_volatile(self):
        module = module_for("volatile int v; int main(void) { return v + 1; }")
        ConstantFoldPass().run(module)
        loads = [
            i for _, i in module.functions["main"].instructions()
            if isinstance(i, ir.LoadGlobal)
        ]
        assert loads


class TestDeadCodeElimination:
    def test_removes_unused_pure_instructions(self):
        module = module_for("int main(void) { int unused = 5 * 3; return 1; }")
        before = sum(len(b.instrs) for b in module.functions["main"].blocks.values())
        ConstantFoldPass().run(module)
        DeadCodeEliminationPass().run(module)
        after = sum(len(b.instrs) for b in module.functions["main"].blocks.values())
        assert after < before
        assert IRInterpreter(module).run() == 1

    def test_keeps_stores_and_calls(self):
        module = module_for(
            """
            int g;
            void touch(void) { g = 1; }
            int main(void) { touch(); return g; }
            """
        )
        DeadCodeEliminationPass().run(module)
        assert IRInterpreter(module).run() == 1

    def test_keeps_volatile_loads(self):
        module = module_for("volatile int v; int main(void) { v; return 0; }")
        DeadCodeEliminationPass().run(module)
        loads = [
            i for _, i in module.functions["main"].instructions()
            if isinstance(i, ir.LoadGlobal) and i.volatile
        ]
        assert loads, "volatile load must not be eliminated"

    def test_removes_unreachable_blocks(self):
        module = module_for(
            "int main(void) { return 1; int dead = 2; return dead; }"
        )
        removed_note = DeadCodeEliminationPass().run(module)
        assert "blocks" in removed_note
        assert IRInterpreter(module).run() == 1


class TestIRInterpreterEdges:
    def test_unknown_function_call(self):
        module = module_for("int main(void) { return 0; }")
        interp = IRInterpreter(module)
        with pytest.raises(PassError):
            interp.call("missing")

    def test_step_limit(self):
        from tests.oracles import IRStepLimit

        module = module_for("int main(void) { while (1) { } return 0; }")
        interp = IRInterpreter(module, step_limit=100)
        with pytest.raises(IRStepLimit):
            interp.run()

    def test_halt_instruction(self):
        module = module_for("int main(void) { __halt(); return 9; }")
        assert IRInterpreter(module).run() is None

    def test_mmio_requires_device_map(self):
        module = module_for(
            "int main(void) { return *(volatile unsigned int *)0x48000000; }"
        )
        with pytest.raises(PassError):
            IRInterpreter(module).run()

    def test_mmio_with_device_map(self):
        module = module_for(
            "int main(void) { return *(volatile unsigned int *)0x48000000; }"
        )
        interp = IRInterpreter(module, mmio_read=lambda addr, width: 0xAB)
        assert interp.run() == 0xAB
