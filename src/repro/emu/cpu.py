"""The architectural Thumb CPU: fetch → decode → execute, one step at a time.

Semantics follow the ARMv6-M architecture manual for the Thumb-16 subset
decoded by :mod:`repro.isa.decoder`. Abnormal conditions surface as the
typed faults in :mod:`repro.errors`, which the glitch campaigns classify.

The CPU is deliberately *architectural*: no pipeline, no cycle timing —
that belongs to :mod:`repro.hw.pipeline`, which reuses
:meth:`CPU.execute` for its execute stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.emu import alu
from repro.emu.memory import Memory, MemoryRegion
from repro.errors import (
    AlignmentFault,
    BadFetch,
    EmulationFault,
    ExecutionLimitExceeded,
    InvalidInstruction,
)
from repro.isa.conditions import Flags, condition_holds
from repro.isa.decoder import decode
from repro.isa.instruction import Instruction
from repro.isa.registers import LR, PC, SP

WORD_MASK = alu.WORD_MASK
_PC_MASK = WORD_MASK & ~1

# Interned NZCV combinations: flag writes happen on almost every step, and
# Flags is frozen, so the sixteen possible values are shared singletons.
_FLAGS_BY_INDEX = tuple(
    Flags(n=bool(i & 8), z=bool(i & 4), c=bool(i & 2), v=bool(i & 1))
    for i in range(16)
)


@dataclass
class RunResult:
    """Outcome of :meth:`CPU.run`."""

    steps: int
    reason: str  # "halted" | "stop_addr" | "limit"
    stop_address: Optional[int] = None


@dataclass(frozen=True)
class CPUSnapshot:
    """Architectural register/flag state captured by :meth:`CPU.snapshot`.

    Attributes
    ----------
    regs : tuple of int
        All sixteen core registers (r0–r12, SP, LR, PC).
    flags : Flags
        The NZCV condition flags (immutable, shared by reference).
    halted : bool
        Whether the core had executed ``bkpt``/``wfi``/``wfe``.
    instruction_count : int
        Retired-instruction counter at capture time.
    """

    regs: tuple
    flags: Flags
    halted: bool
    instruction_count: int


class CPU:
    """A single Thumb core over a :class:`~repro.emu.memory.Memory` space."""

    def __init__(self, memory: Memory, zero_is_invalid: bool = False):
        self.memory = memory
        self.regs: list[int] = [0] * 16
        self.flags = Flags()
        self.halted = False
        self.zero_is_invalid = zero_is_invalid
        self.instruction_count = 0
        #: Optional hooks called as ``hook(cpu, address, instruction)`` before execute.
        self.pre_execute_hooks: list[Callable[["CPU", int, Instruction], None]] = []
        #: Optional handler for SVC; ``handler(cpu, imm)``. Default: fault.
        self.svc_handler: Optional[Callable[["CPU", int], None]] = None
        #: Optional decode memo keyed by ``(halfword, next_halfword)``.
        #: Decoding is a pure function of the fetched encoding (and the
        #: per-CPU ``zero_is_invalid`` knob), so entries never need
        #: invalidation — not even when the campaign corrupts a slot,
        #: because the corrupted slot fetches a *different* halfword and
        #: therefore hits a different key.  Share one dict across CPUs
        #: only if they agree on ``zero_is_invalid``.
        self.decode_cache: Optional[dict] = None

    # ------------------------------------------------------------------
    # register access
    # ------------------------------------------------------------------

    @property
    def pc(self) -> int:
        return self.regs[PC]

    @pc.setter
    def pc(self, value: int) -> None:
        self.regs[PC] = value & WORD_MASK & ~1

    @property
    def sp(self) -> int:
        return self.regs[SP]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[SP] = value & WORD_MASK

    def read_reg(self, number: int, instr_address: int) -> int:
        """Register read as seen by an instruction at ``instr_address`` (PC reads +4)."""
        if number == PC:
            return (instr_address + 4) & WORD_MASK
        return self.regs[number]

    def write_reg(self, number: int, value: int) -> None:
        if number == PC:
            self.pc = value
        else:
            self.regs[number] = value & WORD_MASK

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    def fetch_and_decode(self, address: int) -> Instruction:
        halfword = self.memory.fetch_u16(address)
        next_halfword = None
        if (halfword >> 11) == 0b11110:
            next_halfword = self.memory.try_fetch_u16(address + 2)
        cache = self.decode_cache
        if cache is None:
            return decode(halfword, next_halfword, zero_is_invalid=self.zero_is_invalid)
        # Bare int key for the common 16-bit case; only BL pairs need the
        # tuple (int and tuple keys cannot collide).
        key = halfword if next_halfword is None else (halfword, next_halfword)
        hit = cache.get(key)
        if hit is None:
            try:
                hit = decode(halfword, next_halfword, zero_is_invalid=self.zero_is_invalid)
            except InvalidInstruction as exc:
                cache[key] = exc
                raise
            cache[key] = hit
            return hit
        if isinstance(hit, InvalidInstruction):
            # drop the frames earlier raises appended to the cached instance
            raise hit.with_traceback(None)
        return hit

    def step(self) -> Instruction:
        """Execute one instruction; returns it. Faults propagate to the caller."""
        address = self.regs[PC]
        instr = self.fetch_and_decode(address)
        if self.pre_execute_hooks:
            for hook in self.pre_execute_hooks:
                hook(self, address, instr)
        self.regs[PC] = (address + instr.size) & _PC_MASK
        # Inline of execute(): dispatch sits on the hot path of every step.
        handler = _DISPATCH.get(instr.mnemonic)
        if handler is None:  # pragma: no cover - decoder emits known mnemonics
            raise InvalidInstruction(f"no semantics for mnemonic {instr.mnemonic!r}")
        handler(self, instr, address)
        self.instruction_count += 1
        return instr

    def run(
        self,
        max_steps: int,
        stop_addresses: Iterable[int] = (),
        raise_on_limit: bool = False,
    ) -> RunResult:
        """Step until halted, a stop address is reached, or the budget runs out."""
        stops = frozenset(stop_addresses) if stop_addresses else None
        step = self.step
        for step_index in range(max_steps):
            if self.halted:
                return RunResult(steps=step_index, reason="halted")
            if stops is not None and self.regs[PC] in stops:
                return RunResult(steps=step_index, reason="stop_addr", stop_address=self.regs[PC])
            step()
        if self.halted:
            return RunResult(steps=max_steps, reason="halted")
        if stops is not None and self.regs[PC] in stops:
            return RunResult(steps=max_steps, reason="stop_addr", stop_address=self.regs[PC])
        if raise_on_limit:
            raise ExecutionLimitExceeded(f"no terminal state after {max_steps} steps", self.pc)
        return RunResult(steps=max_steps, reason="limit")

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> CPUSnapshot:
        """Capture the architectural state (registers, flags, halted, count).

        Memory is *not* captured — pair this with
        :meth:`repro.emu.memory.Memory.snapshot` to checkpoint a whole
        machine.

        Returns
        -------
        CPUSnapshot
            Immutable state token for :meth:`reset_from`.
        """
        return CPUSnapshot(
            regs=tuple(self.regs),
            flags=self.flags,
            halted=self.halted,
            instruction_count=self.instruction_count,
        )

    def reset_from(self, snapshot: CPUSnapshot) -> None:
        """Rewind the architectural state to a :meth:`snapshot` capture.

        Hooks, the SVC handler, the decode cache, and the memory binding
        are deliberately left alone — only register/flag/halt state is
        architectural.

        Parameters
        ----------
        snapshot : CPUSnapshot
            The capture to restore; snapshots are immutable and may be
            restored any number of times.
        """
        self.regs = list(snapshot.regs)
        self.flags = snapshot.flags
        self.halted = snapshot.halted
        self.instruction_count = snapshot.instruction_count

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self, instr: Instruction, address: int) -> None:
        """Execute a decoded instruction whose first halfword sits at ``address``.

        The caller must already have advanced PC past the instruction
        (``address + instr.size``); branches overwrite it.
        """
        m = instr.mnemonic
        handler = _DISPATCH.get(m)
        if handler is None:
            raise InvalidInstruction(f"no semantics for mnemonic {m!r}")  # pragma: no cover
        handler(self, instr, address)

    # -- helpers ---------------------------------------------------------

    def _set_nz(self, result: int) -> None:
        old = self.flags
        self.flags = _FLAGS_BY_INDEX[
            (8 if result & 0x80000000 else 0) | (4 if result == 0 else 0)
            | (2 if old.c else 0) | (1 if old.v else 0)
        ]

    def _set_nzc(self, result: int, carry: bool) -> None:
        self.flags = _FLAGS_BY_INDEX[
            (8 if result & 0x80000000 else 0) | (4 if result == 0 else 0)
            | (2 if carry else 0) | (1 if self.flags.v else 0)
        ]

    def _set_nzcv(self, result: int, carry: bool, overflow: bool) -> None:
        self.flags = _FLAGS_BY_INDEX[
            (8 if result & 0x80000000 else 0) | (4 if result == 0 else 0)
            | (2 if carry else 0) | (1 if overflow else 0)
        ]

    def _load(self, address: int, length: int, align: int) -> int:
        if align > 1 and address % align:
            raise AlignmentFault(f"unaligned {length}-byte load at {address:#010x}", address)
        # the region the last access hit serves plain loads from its bytes
        region = self.memory._hot_region
        if (
            type(region) is MemoryRegion and region.base <= address
            and address + length <= region.end and region.readable
        ):
            offset = address - region.base
            return int.from_bytes(region.data[offset:offset + length], "little")
        return int.from_bytes(self.memory.read(address, length), "little")

    def _store(self, address: int, value: int, length: int, align: int) -> None:
        if align > 1 and address % align:
            raise AlignmentFault(f"unaligned {length}-byte store at {address:#010x}", address)
        self.memory.write(address, (value & ((1 << (8 * length)) - 1)).to_bytes(length, "little"))


# ----------------------------------------------------------------------
# instruction semantics
# ----------------------------------------------------------------------

_SHIFTERS = {
    "lsls": alu.lsl_carry, "lsrs": alu.lsr_carry,
    "asrs": alu.asr_carry, "rors": alu.ror_carry,
}


def _exec_shift(cpu: CPU, instr: Instruction, address: int) -> None:
    if instr.fmt == 1:  # by immediate
        value = cpu.read_reg(instr.rs, address)
        amount = instr.imm
        if amount == 0 and instr.mnemonic != "lsls":
            amount = 32  # encoding quirk: #0 means shift-by-32 for LSR/ASR
    else:  # by register
        value = cpu.read_reg(instr.rd, address)
        amount = cpu.read_reg(instr.rs, address) & 0xFF
    result, carry = _SHIFTERS[instr.mnemonic](value, amount, cpu.flags.c)
    cpu.write_reg(instr.rd, result)
    cpu._set_nzc(result, carry)


def _exec_add_sub(cpu: CPU, instr: Instruction, address: int) -> None:
    lhs = cpu.read_reg(instr.rs, address) if instr.fmt == 2 else cpu.read_reg(instr.rd, address)
    if instr.fmt == 3 and instr.mnemonic == "movs":  # pragma: no cover - routed elsewhere
        raise AssertionError
    rhs = cpu.read_reg(instr.ro, address) if instr.ro is not None else instr.imm
    if instr.mnemonic == "adds":
        result, carry, overflow = alu.add_with_carry(lhs, rhs, False)
    else:
        result, carry, overflow = alu.subtract(lhs, rhs)
    cpu.write_reg(instr.rd, result)
    cpu._set_nzcv(result, carry, overflow)


def _exec_movs_imm(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.write_reg(instr.rd, instr.imm)
    cpu._set_nz(instr.imm)


def _exec_cmp(cpu: CPU, instr: Instruction, address: int) -> None:
    lhs = cpu.read_reg(instr.rd, address)
    rhs = cpu.read_reg(instr.rs, address) if instr.rs is not None else instr.imm
    result, carry, overflow = alu.subtract(lhs, rhs)
    cpu._set_nzcv(result, carry, overflow)


def _exec_cmn(cpu: CPU, instr: Instruction, address: int) -> None:
    result, carry, overflow = alu.add_with_carry(
        cpu.read_reg(instr.rd, address), cpu.read_reg(instr.rs, address), False
    )
    cpu._set_nzcv(result, carry, overflow)


def _exec_logic(cpu: CPU, instr: Instruction, address: int) -> None:
    lhs = cpu.read_reg(instr.rd, address)
    rhs = cpu.read_reg(instr.rs, address)
    op = instr.mnemonic
    if op == "ands":
        result = lhs & rhs
    elif op == "eors":
        result = lhs ^ rhs
    elif op == "orrs":
        result = lhs | rhs
    elif op == "bics":
        result = lhs & ~rhs & WORD_MASK
    else:  # pragma: no cover
        raise AssertionError(op)
    cpu.write_reg(instr.rd, result)
    cpu._set_nz(result)


def _exec_tst(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu._set_nz(cpu.read_reg(instr.rd, address) & cpu.read_reg(instr.rs, address))


def _exec_adc_sbc(cpu: CPU, instr: Instruction, address: int) -> None:
    lhs = cpu.read_reg(instr.rd, address)
    rhs = cpu.read_reg(instr.rs, address)
    if instr.mnemonic == "adcs":
        result, carry, overflow = alu.add_with_carry(lhs, rhs, cpu.flags.c)
    else:
        result, carry, overflow = alu.add_with_carry(lhs, (~rhs) & WORD_MASK, cpu.flags.c)
    cpu.write_reg(instr.rd, result)
    cpu._set_nzcv(result, carry, overflow)


def _exec_neg(cpu: CPU, instr: Instruction, address: int) -> None:
    result, carry, overflow = alu.subtract(0, cpu.read_reg(instr.rs, address))
    cpu.write_reg(instr.rd, result)
    cpu._set_nzcv(result, carry, overflow)


def _exec_mul(cpu: CPU, instr: Instruction, address: int) -> None:
    result = (cpu.read_reg(instr.rd, address) * cpu.read_reg(instr.rs, address)) & WORD_MASK
    cpu.write_reg(instr.rd, result)
    cpu._set_nz(result)


def _exec_mvn(cpu: CPU, instr: Instruction, address: int) -> None:
    result = (~cpu.read_reg(instr.rs, address)) & WORD_MASK
    cpu.write_reg(instr.rd, result)
    cpu._set_nz(result)


def _exec_hi_ops(cpu: CPU, instr: Instruction, address: int) -> None:
    m = instr.mnemonic
    if m == "add":
        result = (cpu.read_reg(instr.rd, address) + cpu.read_reg(instr.rs, address)) & WORD_MASK
        cpu.write_reg(instr.rd, result)
    elif m == "mov":
        cpu.write_reg(instr.rd, cpu.read_reg(instr.rs, address))
    elif m == "cmp":
        result, carry, overflow = alu.subtract(
            cpu.read_reg(instr.rd, address), cpu.read_reg(instr.rs, address)
        )
        cpu._set_nzcv(result, carry, overflow)
    else:  # pragma: no cover
        raise AssertionError(m)


def _exec_bx(cpu: CPU, instr: Instruction, address: int) -> None:
    target = cpu.read_reg(instr.rs, address)
    if not target & 1:
        raise BadFetch(f"bx/blx to ARM state (bit0 clear) at target {target:#010x}", target)
    if instr.mnemonic == "blx":
        cpu.write_reg(LR, (address + 2) | 1)
    cpu.pc = target & ~1


def _exec_load_store(cpu: CPU, instr: Instruction, address: int) -> None:
    # rd and ro are low registers and the base a low register, SP or the
    # word-aligned PC, so registers are read and ``ldr`` written directly
    regs = cpu.regs
    base = instr.base
    base = (address + 4) & ~3 if base == PC else regs[base]
    offset = regs[instr.ro] if instr.ro is not None else (instr.imm or 0)
    target = (base + offset) & WORD_MASK
    m = instr.mnemonic
    if m == "ldr":
        regs[instr.rd] = cpu._load(target, 4, 4)
    elif m == "str":
        cpu._store(target, regs[instr.rd], 4, 4)
    elif m == "ldrb":
        cpu.write_reg(instr.rd, cpu._load(target, 1, 1))
    elif m == "ldrh":
        cpu.write_reg(instr.rd, cpu._load(target, 2, 2))
    elif m == "ldrsb":
        value = cpu._load(target, 1, 1)
        cpu.write_reg(instr.rd, value - 0x100 if value & 0x80 else value)
    elif m == "ldrsh":
        value = cpu._load(target, 2, 2)
        cpu.write_reg(instr.rd, value - 0x10000 if value & 0x8000 else value)
    elif m == "strb":
        cpu._store(target, regs[instr.rd], 1, 1)
    elif m == "strh":
        cpu._store(target, regs[instr.rd], 2, 2)
    else:  # pragma: no cover
        raise AssertionError(m)


def _exec_adr(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.write_reg(instr.rd, ((address + 4) & ~3) + instr.imm)


def _exec_add_sp_imm(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.write_reg(instr.rd, (cpu.sp + instr.imm) & WORD_MASK)


def _exec_adjust_sp(cpu: CPU, instr: Instruction, address: int) -> None:
    delta = instr.imm if instr.mnemonic == "add_sp" else -instr.imm
    cpu.sp = (cpu.sp + delta) & WORD_MASK


def _exec_push(cpu: CPU, instr: Instruction, address: int) -> None:
    regs = sorted(instr.reg_list)
    new_sp = (cpu.sp - 4 * len(regs)) & WORD_MASK
    slot = new_sp
    for reg in regs:
        cpu._store(slot, cpu.regs[reg], 4, 4)
        slot += 4
    cpu.sp = new_sp


def _exec_pop(cpu: CPU, instr: Instruction, address: int) -> None:
    regs = sorted(instr.reg_list)
    slot = cpu.sp
    loaded: list[tuple[int, int]] = []
    for reg in regs:
        loaded.append((reg, cpu._load(slot, 4, 4)))
        slot += 4
    cpu.sp = slot
    for reg, value in loaded:
        if reg == PC:
            cpu.pc = value & ~1
        else:
            cpu.write_reg(reg, value)


def _exec_stmia(cpu: CPU, instr: Instruction, address: int) -> None:
    base = cpu.read_reg(instr.base, address)
    slot = base
    for reg in sorted(instr.reg_list):
        cpu._store(slot, cpu.regs[reg], 4, 4)
        slot += 4
    if instr.base not in instr.reg_list:
        cpu.write_reg(instr.base, slot)
    else:
        cpu.write_reg(instr.base, slot)  # base in list: stored value was the original


def _exec_ldmia(cpu: CPU, instr: Instruction, address: int) -> None:
    slot = cpu.read_reg(instr.base, address)
    writeback = instr.base not in instr.reg_list
    for reg in sorted(instr.reg_list):
        cpu.write_reg(reg, cpu._load(slot, 4, 4))
        slot += 4
    if writeback:
        cpu.write_reg(instr.base, slot)


def _exec_cond_branch(cpu: CPU, instr: Instruction, address: int) -> None:
    if condition_holds(instr.cond, cpu.flags):
        cpu.pc = address + 4 + instr.imm


def _exec_branch(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.pc = address + 4 + instr.imm


def _exec_bl(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.write_reg(LR, (address + 4) | 1)
    cpu.pc = address + 4 + instr.imm


def _exec_svc(cpu: CPU, instr: Instruction, address: int) -> None:
    if cpu.svc_handler is not None:
        cpu.svc_handler(cpu, instr.imm)
        return
    raise EmulationFault(f"unhandled svc #{instr.imm} at {address:#010x}", address)


def _exec_bkpt(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.halted = True


def _exec_halt_hint(cpu: CPU, instr: Instruction, address: int) -> None:
    cpu.halted = True


def _exec_nop(cpu: CPU, instr: Instruction, address: int) -> None:
    pass


def _exec_extend(cpu: CPU, instr: Instruction, address: int) -> None:
    value = cpu.read_reg(instr.rs, address)
    m = instr.mnemonic
    if m == "sxth":
        result = value & 0xFFFF
        result = result - 0x10000 if result & 0x8000 else result
    elif m == "sxtb":
        result = value & 0xFF
        result = result - 0x100 if result & 0x80 else result
    elif m == "uxth":
        result = value & 0xFFFF
    elif m == "uxtb":
        result = value & 0xFF
    else:  # pragma: no cover
        raise AssertionError(m)
    cpu.write_reg(instr.rd, result)


def _exec_rev(cpu: CPU, instr: Instruction, address: int) -> None:
    value = cpu.read_reg(instr.rs, address)
    b = value.to_bytes(4, "little")
    m = instr.mnemonic
    if m == "rev":
        result = int.from_bytes(b, "big")
    elif m == "rev16":
        result = int.from_bytes(bytes([b[1], b[0], b[3], b[2]]), "little")
    else:  # revsh
        half = int.from_bytes(bytes([b[1], b[0]]), "little")
        result = half - 0x10000 if half & 0x8000 else half
    cpu.write_reg(instr.rd, result & WORD_MASK)


_DISPATCH: dict[str, Callable[[CPU, Instruction, int], None]] = {}


def _register_semantics() -> None:
    table = _DISPATCH
    for m in _SHIFTERS:
        table[m] = _exec_shift
    table["adds"] = _exec_add_sub
    table["subs"] = _exec_add_sub
    table["movs"] = _exec_movs_imm
    table["cmp"] = _exec_cmp
    table["cmn"] = _exec_cmn
    table["ands"] = _exec_logic
    table["eors"] = _exec_logic
    table["orrs"] = _exec_logic
    table["bics"] = _exec_logic
    table["tst"] = _exec_tst
    table["adcs"] = _exec_adc_sbc
    table["sbcs"] = _exec_adc_sbc
    table["negs"] = _exec_neg
    table["muls"] = _exec_mul
    table["mvns"] = _exec_mvn
    table["add"] = _exec_hi_ops
    table["mov"] = _exec_hi_ops
    table["bx"] = _exec_bx
    table["blx"] = _exec_bx
    for m in ("ldr", "ldrb", "ldrh", "ldrsb", "ldrsh", "str", "strb", "strh"):
        table[m] = _exec_load_store
    table["adr"] = _exec_adr
    table["add_sp_imm"] = _exec_add_sp_imm
    table["add_sp"] = _exec_adjust_sp
    table["sub_sp"] = _exec_adjust_sp
    table["push"] = _exec_push
    table["pop"] = _exec_pop
    table["stmia"] = _exec_stmia
    table["ldmia"] = _exec_ldmia
    from repro.isa.conditions import CONDITION_NAMES

    for name in CONDITION_NAMES:
        table[f"b{name}"] = _exec_cond_branch
    table["b"] = _exec_branch
    table["bl"] = _exec_bl
    table["svc"] = _exec_svc
    table["bkpt"] = _exec_bkpt
    table["wfi"] = _exec_halt_hint
    table["wfe"] = _exec_halt_hint
    table["nop"] = _exec_nop
    table["yield"] = _exec_nop
    table["sev"] = _exec_nop
    table["cps"] = _exec_nop
    for m in ("sxth", "sxtb", "uxth", "uxtb"):
        table[m] = _exec_extend
    for m in ("rev", "rev16", "revsh"):
        table[m] = _exec_rev


_register_semantics()


__all__ = ["CPU", "CPUSnapshot", "RunResult"]
