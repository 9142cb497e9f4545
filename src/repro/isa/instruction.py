"""The decoded-instruction data model.

A :class:`Instruction` is a flat record: one canonical mnemonic plus the
operand slots that mnemonic uses. The executor in :mod:`repro.emu.cpu`
dispatches on ``mnemonic``; the encoder regenerates machine code from the
same fields, giving us a round-trippable representation that is easy to
property-test.

Canonical mnemonics (lowercase):

- shifts/arith/logic: ``lsls lsrs asrs adds subs movs cmp ands eors adcs
  sbcs rors tst negs cmn orrs muls bics mvns``
- high-register / interworking (format 5): ``add cmp mov bx blx``
- memory: ``ldr str ldrb strb ldrh strh ldrsb ldrsh``
- address generation: ``adr add_sp_imm`` (``add rd, sp, #imm``), ``add_sp``
  / ``sub_sp`` (adjust SP)
- multiple: ``push pop stmia ldmia``
- flow: ``b<cond>`` (e.g. ``beq``), ``b``, ``bl``, ``svc``, ``bkpt``
- v6-M extras: ``sxth sxtb uxth uxtb rev rev16 revsh nop wfi wfe sev yield cps``

Addressing-mode disambiguation for ``ldr``/``str`` family uses the operand
slots: ``ro`` set → register offset; ``base == PC`` → literal; ``base == SP``
→ SP-relative; otherwise immediate offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.isa.conditions import condition_name
from repro.isa.registers import PC, SP, register_name


@dataclass(frozen=True)
class Instruction:
    """One decoded Thumb instruction.

    Only the slots relevant to ``mnemonic`` are populated; the rest stay
    ``None``. ``raw`` preserves the encoding the instruction was decoded
    from (16-bit value, or 32-bit ``(hi << 16) | lo`` for ``bl``).
    """

    mnemonic: str
    fmt: int
    size: int = 2
    rd: Optional[int] = None
    rs: Optional[int] = None
    base: Optional[int] = None
    ro: Optional[int] = None
    imm: Optional[int] = None
    cond: Optional[int] = None
    reg_list: tuple[int, ...] = field(default=())
    raw: Optional[int] = None

    # ------------------------------------------------------------------
    # classification helpers used by the fault model and experiments
    # ------------------------------------------------------------------

    @property
    def is_conditional_branch(self) -> bool:
        return self.mnemonic.startswith("b") and self.cond is not None

    @property
    def is_branch(self) -> bool:
        return self.mnemonic in ("b", "bl", "bx", "blx") or self.is_conditional_branch

    @property
    def is_load(self) -> bool:
        return self.mnemonic in ("ldr", "ldrb", "ldrh", "ldrsb", "ldrsh", "ldmia", "pop")

    @property
    def is_store(self) -> bool:
        return self.mnemonic in ("str", "strb", "strh", "stmia", "push")

    @property
    def is_memory(self) -> bool:
        return self.is_load or self.is_store

    @property
    def is_compare(self) -> bool:
        return self.mnemonic in ("cmp", "cmn", "tst")

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Render assembler text (canonical, lowercase, byte-exact re-assemblable)."""
        m = self.mnemonic
        if m in ("lsls", "lsrs", "asrs") and self.fmt == 1:
            return f"{m} {_r(self.rd)}, {_r(self.rs)}, #{self.imm}"
        if m in ("adds", "subs") and self.fmt == 2:
            if self.ro is not None:
                return f"{m} {_r(self.rd)}, {_r(self.rs)}, {_r(self.ro)}"
            return f"{m} {_r(self.rd)}, {_r(self.rs)}, #{self.imm}"
        if self.fmt == 3:
            return f"{m} {_r(self.rd)}, #{self.imm}"
        if self.fmt == 4:
            return f"{m} {_r(self.rd)}, {_r(self.rs)}"
        if self.fmt == 5:
            if m in ("bx", "blx"):
                return f"{m} {_r(self.rs)}"
            return f"{m} {_r(self.rd)}, {_r(self.rs)}"
        if m in ("ldr", "str", "ldrb", "strb", "ldrh", "strh", "ldrsb", "ldrsh"):
            if self.ro is not None:
                return f"{m} {_r(self.rd)}, [{_r(self.base)}, {_r(self.ro)}]"
            if self.imm:
                return f"{m} {_r(self.rd)}, [{_r(self.base)}, #{self.imm}]"
            return f"{m} {_r(self.rd)}, [{_r(self.base)}]"
        if m == "adr":
            return f"adr {_r(self.rd)}, #{self.imm}"
        if m == "add_sp_imm":
            return f"add {_r(self.rd)}, sp, #{self.imm}"
        if m == "add_sp":
            return f"add sp, #{self.imm}"
        if m == "sub_sp":
            return f"sub sp, #{self.imm}"
        if m in ("push", "pop"):
            return f"{m} {{{_reg_list(self.reg_list)}}}"
        if m in ("stmia", "ldmia"):
            return f"{m} {_r(self.base)}!, {{{_reg_list(self.reg_list)}}}"
        if self.is_conditional_branch:
            return f"b{condition_name(self.cond)} {_signed(self.imm)}"
        if m == "b":
            return f"b {_signed(self.imm)}"
        if m == "bl":
            return f"bl {_signed(self.imm)}"
        if m in ("svc", "bkpt"):
            return f"{m} #{self.imm}"
        if m in ("sxth", "sxtb", "uxth", "uxtb", "rev", "rev16", "revsh"):
            return f"{m} {_r(self.rd)}, {_r(self.rs)}"
        if m in ("nop", "wfi", "wfe", "sev", "yield", "cps"):
            return m
        raise ValueError(f"cannot render instruction: {self!r}")  # pragma: no cover

    def __str__(self) -> str:
        return self.render()


def _r(number: Optional[int]) -> str:
    if number is None:  # pragma: no cover - defensive
        raise ValueError("missing register operand")
    return register_name(number)


def _reg_list(regs: tuple[int, ...]) -> str:
    return ", ".join(register_name(r) for r in regs)


def _signed(imm: Optional[int]) -> str:
    if imm is None:  # pragma: no cover - defensive
        raise ValueError("missing immediate operand")
    return f"{imm:+d}" if imm < 0 else f"+{imm}"


__all__ = ["Instruction"]
