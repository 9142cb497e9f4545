"""IR → Thumb-16 assembly code generation.

A deliberately simple "slot machine" backend: every IR temporary and local
lives in a stack slot; each instruction loads its operands into r0/r1,
computes, and stores the result back. One peephole matters for fidelity to
the paper's attack surface: a ``Cmp`` feeding its own block's ``CondBr``
is fused into the classic ``cmp``/``b<cc>`` pair — the exact instruction
sequence the glitching experiments target.

Far branches are emitted as a short conditional hop over an unconditional
branch, so conditional-branch range limits never bite while the guard
itself remains a genuine conditional branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import ir
from repro.errors import CompileError

#: IR comparison op → branch condition suffix
_CC = {
    "eq": "eq", "ne": "ne",
    "slt": "lt", "sle": "le", "sgt": "gt", "sge": "ge",
    "ult": "cc", "ule": "ls", "ugt": "hi", "uge": "cs",
}

_DIV_RUNTIME = {"udiv": "__gr_udiv", "sdiv": "__gr_sdiv", "urem": "__gr_urem", "srem": "__gr_srem"}


@dataclass
class CodegenResult:
    text: str
    used_runtime: set = field(default_factory=set)


class FunctionCodegen:
    def __init__(self, function: ir.IRFunction):
        self.function = function
        self.lines: list[str] = []
        self.local_label = 0
        self.used_runtime: set[str] = set()
        self.temp_offsets: dict[int, int] = {}
        self.frame_size = 0
        self._assign_frame()

    # ------------------------------------------------------------------
    # frame layout
    # ------------------------------------------------------------------

    def _assign_frame(self) -> None:
        function = self.function
        slot_count = function.n_slots
        # which blocks does each temp appear in?
        appearances: dict[int, set[str]] = {}

        def note(temp: int, label: str) -> None:
            appearances.setdefault(temp, set()).add(label)

        for block in function.blocks.values():
            for instr in block.instrs:
                if instr.result is not None:
                    note(instr.result, block.label)
                for operand in instr.operands():
                    note(operand, block.label)
            terminator = block.terminator
            if isinstance(terminator, ir.CondBr):
                note(terminator.cond, block.label)
            elif isinstance(terminator, ir.Ret) and terminator.operand is not None:
                note(terminator.operand, block.label)

        cross_block = sorted(t for t, blocks in appearances.items() if len(blocks) > 1)
        next_index = slot_count
        for temp in cross_block:
            self.temp_offsets[temp] = next_index * 4
            next_index += 1

        # block-local temps share a reusable pool
        pool_base = next_index
        max_pool = 0
        for block in function.blocks.values():
            local = [
                t for t, blocks in appearances.items()
                if len(blocks) == 1 and next(iter(blocks)) == block.label
            ]
            last_use = self._last_uses(block, set(local))
            free: list[int] = []
            allocated: dict[int, int] = {}
            high_water = 0
            for index, instr in enumerate(block.instrs):
                if instr.result in last_use:
                    if free:
                        slot = free.pop()
                    else:
                        slot = high_water
                        high_water += 1
                    allocated[instr.result] = slot
                    self.temp_offsets[instr.result] = (pool_base + slot) * 4
                for operand in instr.operands():
                    if operand in last_use and last_use[operand] == index and operand in allocated:
                        free.append(allocated.pop(operand))
            max_pool = max(max_pool, high_water)
        self.frame_size = (pool_base + max_pool) * 4
        if self.frame_size + 4 > 1020:
            raise CompileError(
                f"function {function.name!r} frame too large "
                f"({self.frame_size} bytes); split the function"
            )

    def _last_uses(self, block: ir.Block, locals_set: set[int]) -> dict[int, int]:
        last: dict[int, int] = {}
        for index, instr in enumerate(block.instrs):
            if instr.result in locals_set:
                last.setdefault(instr.result, index)
                last[instr.result] = max(last[instr.result], index)
            for operand in instr.operands():
                if operand in locals_set:
                    last[operand] = index
        terminator = block.terminator
        sentinel = len(block.instrs)
        if isinstance(terminator, ir.CondBr) and terminator.cond in locals_set:
            last[terminator.cond] = sentinel
        if isinstance(terminator, ir.Ret) and terminator.operand in locals_set:
            last[terminator.operand] = sentinel
        return last

    # ------------------------------------------------------------------
    # emission helpers
    # ------------------------------------------------------------------

    def _emit(self, text: str) -> None:
        self.lines.append("    " + text)

    def _label(self, text: str) -> None:
        self.lines.append(text + ":")

    def _fresh(self, hint: str) -> str:
        self.local_label += 1
        return f"{self._mangle(self.function.name)}__{hint}{self.local_label}"

    def _mangle(self, name: str) -> str:
        return name.replace(".", "_")

    def _block_label(self, block_label: str) -> str:
        return f"{self._mangle(self.function.name)}__{self._mangle(block_label)}"

    def _slot_offset(self, slot: int) -> int:
        return slot * 4

    def _temp_offset(self, temp: int) -> int:
        try:
            return self.temp_offsets[temp]
        except KeyError:
            raise CompileError(
                f"temp t{temp} has no frame slot in {self.function.name!r}"
            ) from None

    def _load_temp(self, register: int, temp: int) -> None:
        self._emit(f"ldr r{register}, [sp, #{self._temp_offset(temp)}]")

    def _store_temp(self, register: int, temp: int) -> None:
        self._emit(f"str r{register}, [sp, #{self._temp_offset(temp)}]")

    def _load_const(self, register: int, value: int) -> None:
        value &= 0xFFFFFFFF
        if value <= 0xFF:
            self._emit(f"movs r{register}, #{value}")
        else:
            self._emit(f"ldr r{register}, =0x{value:08X}")

    # ------------------------------------------------------------------
    # function body
    # ------------------------------------------------------------------

    def generate(self) -> list[str]:
        function = self.function
        self._label(self._mangle(function.name))
        self._emit("push {lr}")
        self._sp_adjust("sub", self.frame_size)
        for index in range(function.param_count):
            self._emit(f"str r{index}, [sp, #{self._slot_offset(index)}]")
        ordered = function.block_order()
        fused = self._find_fused()
        for position, block in enumerate(ordered):
            self._label(self._block_label(block.label))
            skip_last = block.label in fused
            instrs = block.instrs[:-1] if skip_last else block.instrs
            for instr in instrs:
                self._instruction(instr)
            next_label = ordered[position + 1].label if position + 1 < len(ordered) else None
            self._terminator(block, fused.get(block.label), next_label)
        self._label(f"{self._mangle(function.name)}__epilogue")
        self._sp_adjust("add", self.frame_size)
        self._emit("pop {pc}")
        self._emit(".pool")
        return self.lines

    def _sp_adjust(self, op: str, amount: int) -> None:
        while amount > 0:
            chunk = min(amount, 508)
            self._emit(f"{op} sp, #{chunk}")
            amount -= chunk

    def _find_fused(self) -> dict[str, ir.Cmp]:
        """Blocks whose trailing Cmp feeds only their own CondBr."""
        use_count: dict[int, int] = {}
        for block in self.function.blocks.values():
            for instr in block.instrs:
                for operand in instr.operands():
                    use_count[operand] = use_count.get(operand, 0) + 1
            terminator = block.terminator
            if isinstance(terminator, ir.CondBr):
                use_count[terminator.cond] = use_count.get(terminator.cond, 0) + 1
            elif isinstance(terminator, ir.Ret) and terminator.operand is not None:
                use_count[terminator.operand] = use_count.get(terminator.operand, 0) + 1
        fused: dict[str, ir.Cmp] = {}
        for block in self.function.blocks.values():
            terminator = block.terminator
            if not isinstance(terminator, ir.CondBr) or not block.instrs:
                continue
            last = block.instrs[-1]
            if (
                isinstance(last, ir.Cmp)
                and last.result == terminator.cond
                and use_count.get(last.result, 0) == 1
            ):
                fused[block.label] = last
        return fused

    # ------------------------------------------------------------------

    def _instruction(self, instr: ir.Instr) -> None:
        if isinstance(instr, ir.Const):
            self._load_const(0, instr.value)
            self._store_temp(0, instr.result)
        elif isinstance(instr, ir.BinOp):
            self._binop(instr)
        elif isinstance(instr, ir.Cmp):
            self._cmp_materialize(instr)
        elif isinstance(instr, ir.LoadLocal):
            self._emit(f"ldr r0, [sp, #{self._slot_offset(instr.slot)}]")
            self._store_temp(0, instr.result)
        elif isinstance(instr, ir.StoreLocal):
            self._load_temp(0, instr.operand)
            self._emit(f"str r0, [sp, #{self._slot_offset(instr.slot)}]")
        elif isinstance(instr, ir.LoadGlobal):
            self._emit(f"ldr r3, ={_global_symbol(instr.name)}")
            self._memory_load(instr.width, instr.signed)
            self._store_temp(0, instr.result)
        elif isinstance(instr, ir.StoreGlobal):
            self._load_temp(0, instr.operand)
            self._emit(f"ldr r3, ={_global_symbol(instr.name)}")
            self._memory_store(instr.width)
        elif isinstance(instr, ir.RawLoad):
            self._load_temp(3, instr.address)
            self._memory_load(instr.width, instr.signed)
            self._store_temp(0, instr.result)
        elif isinstance(instr, ir.RawStore):
            self._load_temp(0, instr.operand)
            self._load_temp(3, instr.address)
            self._memory_store(instr.width)
        elif isinstance(instr, ir.Call):
            self._call(instr)
        elif isinstance(instr, ir.Halt):
            self._emit("bkpt #0")
        else:  # pragma: no cover
            raise CompileError(f"cannot generate code for {instr!r}")

    def _memory_load(self, width: int, signed: bool) -> None:
        if width == 1:
            self._emit("ldrb r0, [r3]")
            if signed:
                self._emit("sxtb r0, r0")
        elif width == 2:
            self._emit("ldrh r0, [r3]")
            if signed:
                self._emit("sxth r0, r0")
        else:
            self._emit("ldr r0, [r3]")

    def _memory_store(self, width: int) -> None:
        mnemonic = {1: "strb", 2: "strh", 4: "str"}[width]
        self._emit(f"{mnemonic} r0, [r3]")

    def _binop(self, instr: ir.BinOp) -> None:
        if instr.op in _DIV_RUNTIME:
            self._load_temp(0, instr.lhs)
            self._load_temp(1, instr.rhs)
            runtime = _DIV_RUNTIME[instr.op]
            self.used_runtime.add(runtime)
            self._emit(f"bl {runtime}")
            self._store_temp(0, instr.result)
            return
        self._load_temp(0, instr.lhs)
        self._load_temp(1, instr.rhs)
        text = {
            "add": "adds r0, r0, r1",
            "sub": "subs r0, r0, r1",
            "mul": "muls r0, r1",
            "and": "ands r0, r1",
            "or": "orrs r0, r1",
            "xor": "eors r0, r1",
            "shl": "lsls r0, r1",
            "lshr": "lsrs r0, r1",
            "ashr": "asrs r0, r1",
        }[instr.op]
        self._emit(text)
        self._store_temp(0, instr.result)

    def _cmp_materialize(self, instr: ir.Cmp) -> None:
        self._load_temp(0, instr.lhs)
        self._load_temp(1, instr.rhs)
        self._emit("cmp r0, r1")
        true_label = self._fresh("ct")
        end_label = self._fresh("ce")
        self._emit(f"b{_CC[instr.op]} {true_label}")
        self._emit("movs r0, #0")
        self._emit(f"b {end_label}")
        self._label(true_label)
        self._emit("movs r0, #1")
        self._label(end_label)
        self._store_temp(0, instr.result)

    def _call(self, instr: ir.Call) -> None:
        if instr.func == "__nop":
            self._emit("nop")
            if instr.result is not None:
                self._emit("movs r0, #0")
                self._store_temp(0, instr.result)
            return
        if len(instr.args) > 4:
            raise CompileError(f"call to {instr.func!r} with more than 4 arguments")
        for index, arg in enumerate(instr.args):
            self._load_temp(index, arg)
        self._emit(f"bl {self._mangle(instr.func)}")
        if instr.result is not None:
            self._store_temp(0, instr.result)

    def _terminator(self, block: ir.Block, fused_cmp, next_label) -> None:
        terminator = block.terminator
        if isinstance(terminator, ir.Jump):
            if terminator.target != next_label:
                self._emit(f"b {self._block_label(terminator.target)}")
            return
        if isinstance(terminator, ir.CondBr):
            if fused_cmp is not None:
                self._load_temp(0, fused_cmp.lhs)
                self._load_temp(1, fused_cmp.rhs)
                self._emit("cmp r0, r1")
                condition = _CC[fused_cmp.op]
            else:
                self._load_temp(0, terminator.cond)
                self._emit("cmp r0, #0")
                condition = "ne"
            taken = self._fresh("br")
            self._emit(f"b{condition} {taken}")
            self._emit(f"b {self._block_label(terminator.if_false)}")
            self._label(taken)
            self._emit(f"b {self._block_label(terminator.if_true)}")
            return
        if isinstance(terminator, ir.Ret):
            if terminator.operand is not None:
                self._load_temp(0, terminator.operand)
            self._emit(f"b {self._mangle(self.function.name)}__epilogue")
            return
        if isinstance(terminator, ir.Unreachable):
            self._emit("bkpt #0xFF")
            return
        raise CompileError(f"block {block.label!r} has no terminator")  # pragma: no cover


def _global_symbol(name: str) -> str:
    return f"g_{name}"


def generate_module(module: ir.IRModule, function_order: list[str] | None = None) -> CodegenResult:
    """Generate assembly for every function in ``module``."""
    lines: list[str] = []
    used_runtime: set[str] = set()
    names = function_order or list(module.functions)
    for name in names:
        codegen = FunctionCodegen(module.functions[name])
        lines.extend(codegen.generate())
        used_runtime.update(codegen.used_runtime)
        lines.append("")
    return CodegenResult(text="\n".join(lines), used_runtime=used_runtime)


__all__ = ["FunctionCodegen", "CodegenResult", "generate_module", "_global_symbol"]
