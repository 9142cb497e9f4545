"""Vectorized lock-step batch engine: one NumPy lane per corrupted word.

The Figure 2 workload is "same program, one corrupted halfword, tens of
thousands of variants": every lane of a :meth:`SnippetHarness.run_many`
batch starts from the *same* post-prefix machine snapshot and differs only
in the 16-bit word overlaid on the target flash slot.  That is exactly the
shape that vectorizes — so this module holds the architectural state of
every lane as struct-of-arrays (registers, NZCV flags, a halted bit, a
terminal status) and steps all live lanes in lock-step:

- **fetch** reads the shared flash image with a per-lane overlay at the
  target slot (both for the fetched halfword and for a BL-suffix
  lookahead at ``target ± 2``, and for data loads that cover the slot),
  so the base image is never mutated;
- **decode** is a lookup in a read-only 65,536-row operand table, built
  once per process in NumPy from the decoder's own format tables (all
  2^16 words at once, a few tens of milliseconds) and shared per
  ``zero_is_invalid`` setting;
- **execute** groups live lanes by (opcode, aux) and runs one vectorized
  handler per group, mirroring :mod:`repro.emu.cpu` / :mod:`repro.emu.alu`
  bit-for-bit (including the LSR/ASR ``#0 == 32`` quirk, shift-by-zero
  carry passthrough, and ``AddWithCarry`` flag algebra);
- **memory** is copy-on-write per :data:`RAM_BLOCK`-byte block
  (:class:`_LaneRam`): every lane reads the shared post-prefix RAM image
  until it stores, and a store first copies just the block it lands in
  into a lane-private page, so a lane copies only what it writes.  Every
  access is aligned, so a load or store is one element of a
  ``<u2``/``<u4`` view of the flash or the pages.  Step 0 only logs its
  stores: the lanes still running after step 1 get theirs replayed into
  their RAM, and the rest are applied when a caller first reads lane
  RAM;
- **divergence** is handled by retirement: lanes that halt, fault, hit a
  marker stop, or exhaust the shared step budget leave the active set and
  keep their terminal status, so classification happens per lane while
  stepping stays dense;
- **step 0** is lean: every lane starts at the target slot with the
  snapshot's registers and flags, so the halted, marker-stop, fetch and
  early-exit checks are one scalar test for the whole batch, the fetch
  is the batch's words themselves (the constructor rejects a snapshot
  whose PC is not the target), and the decode and opcode grouping depend
  on those words alone: a batch of the whole word space takes them from
  its operand table's :class:`_StepZeroPlan`, built once, and any other
  batch builds its own plan with the same routine;
- **registers** are never a dense ``(16, N)`` file: step 0 reads the
  snapshot's 16 registers and records its few writes as ``(register,
  lanes, values)`` entries (:class:`_Writes`); step 1 runs its retire
  checks on a PC vector built from them, and only the lanes still
  running after those checks (a few dozen of 65,536 in Figure 2's
  worlds) get a compact ``(16, k)`` file with their flags, status and
  lane-RAM rows, which every later step runs on and the end of the run
  scatters back;
- **early decisions** retire a lane as soon as its terminal status is
  certain: a lane sliding down a straight run of pristine fall-through
  halfwords takes the status of what ends the run (or ``ST_LIMIT`` when
  the run outlasts the budget), and a lane that has not stored since its
  last power-of-two-step snapshot and is back in the same registers and
  flags is in an exact cycle, so ``ST_LIMIT``.

The engine is *deliberately* a re-implementation of the scalar semantics:
the scalar snapshot replay, run word by word over whole batches in the
test suite, remains the differential oracle (it sweeps the full 2^16
word space against it).  Every decoded opcode has a
vector handler, so every lane ends with a terminal status.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.exec.cache import CATEGORY_CODES
from repro.isa.conditions import Flags, condition_holds
from repro.isa.decoder import _FMT4_OPS, _FMT7_8_OPS, _HINTS
from repro.isa.registers import LR, PC, SP

M32 = 0xFFFFFFFF
_TWO31 = 1 << 31
_TWO32 = 1 << 32

# ----------------------------------------------------------------------
# terminal lane statuses
# ----------------------------------------------------------------------

ST_RUNNING = 0    # transient: lane is still stepping
ST_HALTED = 1     # bkpt/wfi/wfe — classify from final registers
ST_STOPPED = 2    # reached a marker stop with ≥2 budget steps left
ST_LIMIT = 3      # ran out of step budget without halting
ST_INVALID = 4    # fetched word decoded as InvalidInstruction
ST_BAD_FETCH = 5  # unfetchable PC, or bx/blx into ARM state
ST_BAD_READ = 6   # load/store fault (unmapped / unaligned / read-only)
ST_FAILED = 7     # unhandled svc (EmulationFault in the scalar engine)

#: scalar Outcome category per terminal status (STOPPED/HALTED need registers)
STATUS_CATEGORIES = {
    ST_LIMIT: "failed",
    ST_INVALID: "invalid_instruction",
    ST_BAD_FETCH: "bad_fetch",
    ST_BAD_READ: "bad_read",
    ST_FAILED: "failed",
}

#: category code per status: a stopped lane is ``no_effect`` and a halted
#: one ``failed`` until :meth:`VectorRun.classify_branch` reads its markers
_STATUS_CODES = np.zeros(ST_FAILED + 1, dtype=np.uint8)
_STATUS_CODES[list(STATUS_CATEGORIES)] = [
    CATEGORY_CODES[category] for category in STATUS_CATEGORIES.values()
]
_STATUS_CODES[[ST_HALTED, ST_STOPPED]] = CATEGORY_CODES["failed"], CATEGORY_CODES["no_effect"]

# ----------------------------------------------------------------------
# operand-table opcodes (one vector handler each)
# ----------------------------------------------------------------------

OP_INVALID = 0
OP_SHIFT_IMM = 1    # aux: 0 lsl / 1 lsr / 2 asr; imm pre-normalized (#0 → 32)
OP_SHIFT_REG = 2    # aux: 0 lsl / 1 lsr / 2 asr / 3 ror
OP_ADDS = 3         # rs = lhs reg; rhs = reg ro if ro >= 0 else imm
OP_SUBS = 4
OP_MOVS_IMM = 5
OP_CMP_IMM = 6
OP_CMP_REG = 7      # rd/rs may be high registers (format 5)
OP_CMN = 8
OP_LOGIC = 9        # aux: 0 and / 1 eor / 2 orr / 3 bic
OP_TST = 10
OP_ADC = 11
OP_SBC = 12
OP_NEG = 13
OP_MUL = 14
OP_MVN = 15
OP_HI_ADD = 16
OP_HI_MOV = 17
OP_BX = 18          # aux: 1 = blx
OP_LOAD = 19        # aux: 0 ldr / 1 ldrh / 2 ldrb / 3 ldrsh / 4 ldrsb
OP_STORE = 20       # aux: 0 str / 1 strh / 2 strb
OP_ADR = 21
OP_ADD_SP_IMM = 22
OP_ADJ_SP = 23      # imm signed (negative = sub sp)
OP_PUSH = 24
OP_POP = 25
OP_STMIA = 26
OP_LDMIA = 27
OP_BCOND = 28
OP_B = 29
OP_BL_PREFIX = 30   # imm = sign-extended offset_high << 12
OP_SVC = 31
OP_HALT = 32        # bkpt / wfi / wfe
OP_NOP = 33         # nop / yield / sev / cps
OP_EXTEND = 34      # aux: 0 sxth / 1 sxtb / 2 uxth / 3 uxtb
OP_REV = 35         # aux: 0 rev / 1 rev16 / 2 revsh

#: bytes per copy-on-write RAM block: a power of two of at least 4, so no
#: access (all are aligned and at most 4 bytes wide) straddles two blocks
RAM_BLOCK = 256
_BLOCK_SHIFT = RAM_BLOCK.bit_length() - 1

#: opcodes that never fault, halt, branch or touch memory: a pristine row
#: of one of these always falls through to the next halfword (OP_HI_ADD and
#: OP_HI_MOV only while they do not write the PC)
_FALL_THROUGH_OPS = (
    OP_SHIFT_IMM, OP_SHIFT_REG, OP_ADDS, OP_SUBS, OP_MOVS_IMM, OP_CMP_IMM,
    OP_CMP_REG, OP_CMN, OP_LOGIC, OP_TST, OP_ADC, OP_SBC, OP_NEG, OP_MUL,
    OP_MVN, OP_HI_ADD, OP_HI_MOV, OP_ADR, OP_ADD_SP_IMM, OP_ADJ_SP, OP_NOP,
    OP_EXTEND, OP_REV,
)


def _nzcv_index(n, z, c, v):
    """Row of :data:`_COND_TAKEN` for the flags ``n z c v`` (bools or bool arrays)."""
    return (n << 3) | (z << 2) | (c << 1) | v


#: ``_COND_TAKEN[cond, _nzcv_index(n, z, c, v)]``: whether branch condition
#: ``cond`` (0-13) passes on those flags
_COND_TAKEN = np.array([
    [condition_holds(cond, Flags(*(bool(index >> shift & 1) for shift in (3, 2, 1, 0))))
     for index in range(16)]
    for cond in range(14)
])


_LOAD_AUX = {"ldr": 0, "ldrh": 1, "ldrb": 2, "ldrsh": 3, "ldrsb": 4}
_LOAD_WIDTH = (4, 2, 1, 2, 1)
_STORE_AUX = {"str": 0, "strh": 1, "strb": 2}
_STORE_WIDTH = (4, 2, 1)
_SHIFT_AUX = {"lsls": 0, "lsrs": 1, "asrs": 2, "rors": 3}
_LOGIC_AUX = {"ands": 0, "eors": 1, "orrs": 2, "bics": 3}
_EXTEND_AUX = {"sxth": 0, "sxtb": 1, "uxth": 2, "uxtb": 3}
_REV_AUX = {"rev": 0, "rev16": 1, "revsh": 2}

#: format-4 ALU mnemonic -> (opcode, aux)
_ALU_ROWS = {
    **{m: (OP_LOGIC, aux) for m, aux in _LOGIC_AUX.items()},
    **{m: (OP_SHIFT_REG, aux) for m, aux in _SHIFT_AUX.items()},
    "tst": (OP_TST, 0), "adcs": (OP_ADC, 0), "sbcs": (OP_SBC, 0), "negs": (OP_NEG, 0),
    "cmp": (OP_CMP_REG, 0), "cmn": (OP_CMN, 0), "muls": (OP_MUL, 0), "mvns": (OP_MVN, 0),
}

#: load/store mnemonic -> (opcode, aux)
_MEMORY_ROWS = {
    **{m: (OP_LOAD, aux) for m, aux in _LOAD_AUX.items()},
    **{m: (OP_STORE, aux) for m, aux in _STORE_AUX.items()},
}

#: operand column -> (dtype, value in a row that does not use the column)
_COLUMNS = {
    "op": (np.uint8, OP_INVALID),
    "aux": (np.uint8, 0),
    "rd": (np.int8, -1),
    "rs": (np.int8, -1),
    "base": (np.int8, -1),
    "ro": (np.int8, -1),
    "imm": (np.int64, 0),
    "cond": (np.int8, -1),
    "reg_list": (np.uint16, 0),
}


def _lookup(rows: Mapping[str, tuple], names: Sequence[str], index: np.ndarray) -> tuple:
    """Per-row (opcode, aux) for a format whose mnemonic is ``names[index]``."""
    op, aux = np.array([rows[name] for name in names]).T
    return op[index], aux[index]


def _sign_extend(value: np.ndarray, width: int) -> np.ndarray:
    sign = 1 << (width - 1)
    return (value ^ sign) - sign


def _decode_all() -> dict[str, np.ndarray]:
    """Operand columns for all 65,536 halfwords under the base ISA.

    Follows :func:`repro.isa.decoder.decode` format by format, reusing
    its mnemonic tables: each format is a mask over ``np.arange(1 << 16)``
    and its operands are bit fields of the same array, so the whole word
    space decodes in a few dozen array passes.  A row no format claims
    stays ``OP_INVALID``.  A BL prefix row holds the high offset; the
    suffix (and so validity) is checked per lane at execute time.
    """
    hw = np.arange(1 << 16, dtype=np.int64)
    columns = {
        name: np.full(hw.size, fill, dtype=dtype) for name, (dtype, fill) in _COLUMNS.items()
    }

    def field(hi: int, lo: int) -> np.ndarray:
        return (hw >> lo) & ((1 << (hi - lo + 1)) - 1)

    def put(sel: np.ndarray, op, aux=0, **operands) -> None:
        for name, value in (("op", op), ("aux", aux), *operands.items()):
            columns[name][sel] = value[sel] if isinstance(value, np.ndarray) else value

    top3, op2 = field(15, 13), field(12, 11)
    b12, b11 = field(12, 12) == 1, field(11, 11) == 1
    lo3, mid3, hi3 = field(2, 0), field(5, 3), field(10, 8)
    imm5, imm8 = field(10, 6), field(7, 0)

    # format 1: lsls/lsrs/asrs Rd, Rs, #imm5 (lsr/asr #0 shift by 32)
    put((top3 == 0) & (op2 != 3), OP_SHIFT_IMM, op2, rd=lo3, rs=mid3,
        imm=np.where((op2 != 0) & (imm5 == 0), 32, imm5))
    # format 2: adds/subs Rd, Rs, Rn|#imm3
    immediate = field(10, 10) == 1
    put((top3 == 0) & (op2 == 3), np.where(field(9, 9) == 1, OP_SUBS, OP_ADDS),
        rd=lo3, rs=mid3, ro=np.where(immediate, -1, field(8, 6)),
        imm=np.where(immediate, field(8, 6), 0))
    # format 3: movs/cmp/adds/subs Rd, #imm8 (adds/subs read Rd as the lhs)
    put(top3 == 1, np.array([OP_MOVS_IMM, OP_CMP_IMM, OP_ADDS, OP_SUBS])[op2],
        rd=hi3, rs=np.where(op2 >= 2, hi3, -1), imm=imm8)
    # format 4: register ALU operations
    put((top3 == 2) & (field(12, 10) == 0), *_lookup(_ALU_ROWS, _FMT4_OPS, field(9, 6)),
        rd=lo3, rs=mid3)
    # format 5: add/cmp/mov with high registers, bx/blx
    fmt5 = (top3 == 2) & (field(12, 10) == 1)
    op5, h1, h2 = field(9, 8), field(7, 7), field(6, 6)
    rs5 = mid3 | (h2 << 3)
    put(fmt5 & (op5 == 3) & (lo3 == 0) & ~((h1 == 1) & (rs5 == PC)), OP_BX, h1, rs=rs5)
    put(fmt5 & (op5 != 3) & ~((op5 == 1) & (h1 == 0) & (h2 == 0)),
        np.array([OP_HI_ADD, OP_CMP_REG, OP_HI_MOV, OP_INVALID])[op5],
        rd=lo3 | (h1 << 3), rs=rs5)
    # format 6: ldr Rd, [pc, #imm8*4]
    put((top3 == 2) & ~b12 & b11, OP_LOAD, _LOAD_AUX["ldr"], rd=hi3, base=PC, imm=imm8 * 4)
    # formats 7/8: load/store with register offset
    put((top3 == 2) & b12, *_lookup(_MEMORY_ROWS, _FMT7_8_OPS, field(11, 9)),
        rd=lo3, base=mid3, ro=field(8, 6))
    # format 9: str/ldr Rd, [Rb, #imm5*4], strb/ldrb Rd, [Rb, #imm5]
    put(top3 == 3, *_lookup(_MEMORY_ROWS, ("str", "ldr", "strb", "ldrb"), op2),
        rd=lo3, base=mid3, imm=np.where(b12, imm5, imm5 * 4))
    # format 10: strh/ldrh Rd, [Rb, #imm5*2]
    put((top3 == 4) & ~b12, *_lookup(_MEMORY_ROWS, ("strh", "ldrh"), field(11, 11)),
        rd=lo3, base=mid3, imm=imm5 * 2)
    # format 11: str/ldr Rd, [sp, #imm8*4]
    put((top3 == 4) & b12, *_lookup(_MEMORY_ROWS, ("str", "ldr"), field(11, 11)),
        rd=hi3, base=SP, imm=imm8 * 4)
    # format 12: adr Rd, #imm8*4 / add Rd, sp, #imm8*4
    put((top3 == 5) & ~b12, np.where(b11, OP_ADD_SP_IMM, OP_ADR), rd=hi3, imm=imm8 * 4)

    # 1011 miscellaneous group
    misc = (top3 == 5) & b12
    sub = field(11, 8)
    # format 13: add/sub sp, #imm7*4
    put(misc & (sub == 0b0000), OP_ADJ_SP, imm=np.where(field(7, 7) == 1, -4, 4) * field(6, 0))
    # sxth/sxtb/uxth/uxtb (_EXTEND_AUX is in encoding order)
    put(misc & (sub == 0b0010), OP_EXTEND, field(7, 6), rd=lo3, rs=mid3)
    # format 14: push {rlist[, lr]} / pop {rlist[, pc]}; an empty list is undefined
    reg_list = imm8 | (field(8, 8) << np.where(b11, PC, LR))
    put(misc & np.isin(sub, (0b0100, 0b0101, 0b1100, 0b1101)) & (reg_list != 0),
        np.where(b11, OP_POP, OP_PUSH), reg_list=reg_list)
    # cps, modelled as a hint
    put(misc & (sub == 0b0110) & (field(7, 5) == 0b011), OP_NOP)
    # rev/rev16/revsh (op 0b10 is undefined)
    rev_aux = np.array([_REV_AUX["rev"], _REV_AUX["rev16"], 0, _REV_AUX["revsh"]])
    put(misc & (sub == 0b1010) & (field(7, 6) != 0b10), OP_REV, rev_aux[field(7, 6)],
        rd=lo3, rs=mid3)
    # bkpt
    put(misc & (sub == 0b1110), OP_HALT)
    # nop/yield/wfe/wfi/sev hints
    hint_op = np.full(16, OP_INVALID)
    for code, name in _HINTS.items():
        hint_op[code] = OP_HALT if name in ("wfi", "wfe") else OP_NOP
    hint = hint_op[field(7, 4)]
    put(misc & (sub == 0b1111) & (field(3, 0) == 0) & (hint != OP_INVALID), hint)

    # format 15: stmia/ldmia Rb!, {rlist}; an empty list is undefined
    put((top3 == 6) & ~b12 & (imm8 != 0), np.where(b11, OP_LDMIA, OP_STMIA),
        base=hi3, reg_list=imm8)
    # formats 16/17: b<cond> #offset8*2, svc #imm8 (cond 0b1110 is udf)
    cond = field(11, 8)
    put((top3 == 6) & b12 & (cond < 0b1110), OP_BCOND, cond=cond,
        imm=_sign_extend(imm8, 8) * 2)
    put((top3 == 6) & b12 & (cond == 0b1111), OP_SVC, imm=imm8)
    # formats 18/19: b #offset11*2, bl prefix (0b11101 and a lone suffix are undefined)
    offset11 = _sign_extend(field(10, 0), 11)
    put((top3 == 7) & (op2 == 0b00), OP_B, imm=offset11 * 2)
    put((top3 == 7) & (op2 == 0b10), OP_BL_PREFIX, imm=offset11 << 12)
    return columns


class _OpGroup(NamedTuple):
    """The lanes of one (opcode, aux) pair in one step, with their operand
    columns."""

    op: int
    aux: int
    sel: Optional[np.ndarray]  # positions in the step's active list (None at step 0)
    lanes: np.ndarray          # lane indices, int64
    rd: np.ndarray
    rs: np.ndarray
    base: np.ndarray
    ro: np.ndarray
    imm: np.ndarray
    cond: np.ndarray
    reg_list: np.ndarray


def _op_groups(table, ops: np.ndarray, hw: np.ndarray, lanes: np.ndarray) -> list[_OpGroup]:
    """Group a step's decoded lanes by (opcode, aux), ascending.

    ``ops``, ``hw`` and ``lanes`` run parallel over the step's active
    list.  One stable sort keeps each group's lanes in active-list order.
    """
    keys = (ops.astype(np.uint16) << 3) | table.aux[hw]  # every aux is below 8
    order = np.argsort(keys, kind="stable")
    counts = np.bincount(keys, minlength=(OP_REV + 1) << 3)
    ends = np.cumsum(counts)
    present = np.flatnonzero(counts)
    # the lanes and operand columns in group order: each group is a slice
    lanes, h = lanes[order], hw[order]
    columns = [column[h] for column in table.operands]
    groups = []
    for key, lo, hi in zip(present.tolist(), (ends - counts)[present].tolist(),
                           ends[present].tolist()):
        groups.append(_OpGroup(
            key >> 3, key & 7, order[lo:hi], lanes[lo:hi],
            *[column[lo:hi] for column in columns],
        ))
    return groups


class _StepZeroPlan:
    """Step 0 of a batch, as far as it depends on the batch's words alone.

    At step 0 every lane fetches its own word at the target slot, so its
    decode, the lanes that fault there (``invalid``) and the opcode
    groups with their operand columns (``groups``, as :func:`_op_groups`
    builds them) are fixed by the words and the decode mode.  Only BL
    prefixes depend on the world, through the halfword after the target:
    :meth:`VectorEngine.run` rejects that group when it is no suffix.
    """

    def __init__(self, table, words: np.ndarray):
        ops = table.op[words]
        runnable = ops != OP_INVALID
        self.invalid = np.flatnonzero(~runnable)
        active = np.flatnonzero(runnable)
        # every lane sits at the target slot: no group needs its positions
        self.groups = [
            group._replace(sel=None)
            for group in _op_groups(table, ops[active], words[active], active)
        ]

    def arrays(self) -> list[np.ndarray]:
        return [self.invalid] + [
            array for group in self.groups for array in group[3:]
        ]


class _OperandTable:
    """Read-only decoded-operand columns for all 65,536 halfwords of one mode.

    :meth:`step_zero_plan` adds, on first use, the step-0 plan of a batch
    of every word; it lives and dies with the table.
    """

    #: tables are built whole, never row by row
    complete = True

    def __init__(self, columns: Mapping[str, np.ndarray]):
        for name, column in columns.items():
            column.flags.writeable = False
            setattr(self, name, column)
        #: the columns an :class:`_OpGroup` carries, in its field order
        self.operands = tuple(columns[name] for name in _OpGroup._fields[4:])
        self._plan: Optional[_StepZeroPlan] = None

    def step_zero_plan(self) -> _StepZeroPlan:
        """The read-only :class:`_StepZeroPlan` of the batch ``0 .. 0xFFFF``
        (lane ``i`` holds word ``i``), built on first use (counted as
        ``vector.step_zero_plans`` on the ambient observer)."""
        if self._plan is None:
            from repro.obs import current

            plan = _StepZeroPlan(self, np.arange(1 << 16, dtype=np.int64))
            for array in plan.arrays():
                array.flags.writeable = False
            current().count("vector.step_zero_plans", 1)
            self._plan = plan
        return self._plan


_TABLES: dict[bool, _OperandTable] = {}


def operand_table(zero_is_invalid: bool) -> _OperandTable:
    """The process-wide operand table for one ``zero_is_invalid`` setting.

    Built on first use in each process: the base table by
    :func:`_decode_all` (counted as ``vector.table_rows_decoded`` on the
    ambient observer), the hardened table as a copy of the base one with
    row ``0x0000`` invalid, the only word ``zero_is_invalid`` changes.
    """
    table = _TABLES.get(zero_is_invalid)
    if table is None:
        if zero_is_invalid:
            base = operand_table(False)
            columns = {name: getattr(base, name).copy() for name in _COLUMNS}
            columns["op"][0] = OP_INVALID
        else:
            from repro.obs import current

            columns = _decode_all()
            current().count("vector.table_rows_decoded", 1 << 16)
        table = _TABLES[zero_is_invalid] = _OperandTable(columns)
    return table


def warm_tables() -> None:
    """Build both decode modes' operand tables in this process."""
    for zero_is_invalid in (False, True):
        operand_table(zero_is_invalid)


#: the same in-process build, under the name perfbench's fig2-cold set-up calls
preload_operand_tables = warm_tables


# ----------------------------------------------------------------------
# step 0's register writes
# ----------------------------------------------------------------------

class _Writes(NamedTuple):
    """The registers of a batch's lanes after step 0: every lane starts
    from ``start`` (the snapshot's; the PC past the target once step 0
    ran) and takes its entries, one per (register, lane) written, in the
    order step 0 wrote them.

    At step 0 every lane runs at most one handler, which writes each
    register at most once, so no (register, lane) has two entries.
    """

    start: np.ndarray      # (16,) int64
    size: int              # lanes in the batch
    registers: np.ndarray  # int8, per entry
    lanes: np.ndarray      # int64, per entry
    values: np.ndarray     # int64, per entry, as write_reg stores them

    @classmethod
    def of(cls, start: np.ndarray, size: int, log: Sequence[tuple]) -> "_Writes":
        """Flatten a log of ``(register(s), lanes, value(s))`` records,
        a scalar register or value standing for every lane of its record."""
        def column(index: int, dtype) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype)] + [
                np.full(record[1].size, record[index], dtype)
                if np.ndim(record[index]) == 0 else record[index]
                for record in log
            ]).astype(dtype, copy=False)

        return cls(start, size, column(0, np.int8), column(1, np.int64), column(2, np.int64))

    def row(self, register: int) -> np.ndarray:
        """Register ``register`` of every lane."""
        row = np.full(self.size, self.start[register], dtype=np.int64)
        hit = self.registers == register
        row[self.lanes[hit]] = self.values[hit]
        return row

    def file(self, lanes: np.ndarray) -> np.ndarray:
        """The ``(16, lanes.size)`` registers of ``lanes`` (ascending)."""
        regs = np.repeat(self.start[:, np.newaxis], lanes.size, axis=1)
        is_lane = np.zeros(self.size, dtype=bool)
        is_lane[lanes] = True
        asked = np.flatnonzero(is_lane[self.lanes])
        regs[self.registers[asked], np.searchsorted(lanes, self.lanes[asked])] = (
            self.values[asked]
        )
        return regs


# ----------------------------------------------------------------------
# copy-on-write lane RAM
# ----------------------------------------------------------------------

def _grown(array: np.ndarray, used: int, need: int) -> np.ndarray:
    """``array`` with room for ``need`` rows (its first ``used`` kept)."""
    if need <= array.shape[0]:
        return array
    bigger = np.empty((max(need, 2 * array.shape[0]), array.shape[1]), array.dtype)
    bigger[:used] = array[:used]
    return bigger


class _LaneRam:
    """Copy-on-write RAM of a set of lanes, in :data:`RAM_BLOCK`-byte pages.

    Byte ``o`` of lane ``i`` is
    ``pages[block_map[lane_row[i], o // RAM_BLOCK], o % RAM_BLOCK]``.
    Pages ``0 .. blocks-1`` are the shared RAM image (the engine's own,
    read-only array until the first private page) and block-map row 0
    maps onto them.  A lane's first store gives it its own block-map row,
    a copy of row 0, and its first store into a block copies just that
    block into a private page; both arrays grow by capacity.  Every
    access is aligned and at most 4 bytes wide, so none straddles two
    blocks, and each reads or writes one element of a ``<u2``/``<u4``
    view of the pages.
    """

    def __init__(self, base_pages: np.ndarray):
        self.blocks = base_pages.shape[0]
        # block-map row per lane, set by the owner before the first store
        self.lane_row: Optional[np.ndarray] = None
        self.block_map = np.arange(self.blocks, dtype=np.int32)[np.newaxis, :]
        self.pages = base_pages
        self.rows_used, self.pages_used = 1, self.blocks

    def _words(self, width: int) -> np.ndarray:
        """The pages as ``width``-byte little-endian words, one row per page."""
        return self.pages if width == 1 else self.pages.view(f"<u{width}")

    def load(self, lanes: Optional[np.ndarray], off, width: int) -> np.ndarray:
        """The aligned ``width``-byte word at RAM offset ``off`` of each of
        ``lanes`` (``None``: of the shared image)."""
        block = off >> _BLOCK_SHIFT
        page = block if lanes is None else self.block_map[self.lane_row[lanes], block]
        return self._words(width)[page, (off & (RAM_BLOCK - 1)) // width]

    def store(self, lanes: np.ndarray, off: np.ndarray, value: np.ndarray, width: int) -> None:
        """Aligned ``width``-byte stores, one per (lane, offset); a lane's
        first store into a block copies the block into a private page."""
        fresh = np.unique(lanes[self.lane_row[lanes] == 0])
        if fresh.size:
            need = self.rows_used + fresh.size
            self.block_map = _grown(self.block_map, self.rows_used, need)
            self.block_map[self.rows_used:need] = self.block_map[0]
            self.lane_row[fresh] = np.arange(self.rows_used, need)
            self.rows_used = need
        rows, block = self.lane_row[lanes], off >> _BLOCK_SHIFT
        page = self.block_map[rows, block]
        shared = page < self.blocks  # still the image's own block
        if shared.any():
            key, first = np.unique(
                rows[shared].astype(np.int64) * self.blocks + block[shared],
                return_inverse=True,
            )
            need = self.pages_used + key.size
            self.pages = _grown(self.pages, self.pages_used, need)
            fresh_pages = np.arange(self.pages_used, need, dtype=self.block_map.dtype)
            self.pages[fresh_pages] = self.pages[key % self.blocks]
            self.block_map[key // self.blocks, key % self.blocks] = fresh_pages
            page[shared] = fresh_pages[first]
            self.pages_used = need
        self._words(width)[page, (off & (RAM_BLOCK - 1)) // width] = (
            value & ((1 << 8 * width) - 1)
        )


# ----------------------------------------------------------------------
# per-batch result
# ----------------------------------------------------------------------

@dataclass
class VectorRun:
    """Per-lane state of one :meth:`VectorEngine.run` batch, as each lane retired.

    There is no dense register file: a lane that retired by step 1 holds
    its registers after step 0 (``writes``: the snapshot's and the few
    step 0 wrote), and a lane that ran past step 1 (a survivor) holds its
    column of ``survivor_regs``.
    :meth:`reg` assembles one register of every lane from the two.

    Lane RAM is a :class:`_LaneRam` over the batch, built the same way
    in two parts: ``ram`` holds the stores the survivors made (step 0's
    included), and ``retired_stores`` the step-0 stores of the lanes
    that retired by step 1, as ``(lanes, RAM offsets, values, width)``
    entries.  Those are applied on first access to ``lane_row``,
    ``block_map``, ``pages`` or :meth:`read_ram_u32`, and kept.

    ``decodes_zero`` marks the lanes that decode halfword 0x0000 while
    running: word 0 at step 0 (unless a marker stop at the target decides
    every lane first), a later fetch of 0x0000, or one among the slots a
    lane retired by a straight run would still decode (one the cycle exit
    retires decoded its loop since the snapshot).  Both decode modes run
    alike up to a lane's first 0x0000, so with 0x0000 undefined a marked
    lane is ``invalid_instruction`` and every other lane ends as here.
    """

    words: np.ndarray       # the corrupted words (uint16), lane order == input order
    status: np.ndarray      # terminal ST_* per lane (never ST_RUNNING)
    decodes_zero: np.ndarray  # per lane: decoded halfword 0x0000 while running
    # The registers and the lane RAM hold each lane's state when it retired.
    # A lane decided early (ST_LIMIT, ST_BAD_FETCH, ST_INVALID or ST_FAILED
    # before it got there) keeps its state at that decision, so callers
    # classify those four statuses by status alone; ST_HALTED and
    # ST_STOPPED lanes are never decided early.
    writes: _Writes            # every lane's registers after step 0
    survivors: np.ndarray      # ascending lanes that ran past step 1
    survivor_regs: np.ndarray  # (16, survivors.size) their registers
    ram: _LaneRam              # the batch's lane RAM, retired_stores not yet applied
    retired_stores: list       # step-0 stores of the lanes retired by step 1
    private_pages: int         # pages copied on write while the batch ran
    ram_base: int
    lane_steps: int         # lanes fetched, summed over the executed steps
    early_exits: int        # lanes retired by a straight-line or cycle exit
    planned: bool           # step 0 ran from the operand table's own plan

    @cached_property
    def _lane_ram(self) -> _LaneRam:
        """``ram`` with ``retired_stores`` applied."""
        for store in self.retired_stores:
            self.ram.store(*store)
        self.retired_stores = []
        return self.ram

    @property
    def lane_row(self) -> np.ndarray:
        """Block-map row per lane (0 = never stored)."""
        return self._lane_ram.lane_row

    @property
    def block_map(self) -> np.ndarray:
        """``(rows, blocks)`` page per RAM block."""
        ram = self._lane_ram
        return ram.block_map[:ram.rows_used]

    @property
    def pages(self) -> np.ndarray:
        """``(pages, RAM_BLOCK)`` shared and private blocks."""
        ram = self._lane_ram
        return ram.pages[:ram.pages_used]

    def reg(self, register: int) -> np.ndarray:
        """Register ``register`` of every lane at retirement."""
        row = self.writes.row(register)
        row[self.survivors] = self.survivor_regs[register]
        return row

    @cached_property
    def regs(self) -> np.ndarray:
        """The dense ``(16, N)`` register file, for tests that compare whole
        lanes: built on first use at 128 bytes per lane (8 MiB for the
        whole word space) and kept with the run.  Classification reads
        rows through :meth:`reg` instead."""
        regs = self.writes.file(np.arange(self.status.size))
        regs[:, self.survivors] = self.survivor_regs
        return regs

    def read_ram_u32(self, address: int) -> np.ndarray:
        """Little-endian u32 at the word-aligned RAM ``address`` as seen by
        each lane."""
        if address % 4:
            raise ValueError(f"RAM address {address:#010x} is not word-aligned")
        ram = self._lane_ram
        lanes = np.arange(ram.lane_row.size)
        return ram.load(lanes, address - self.ram_base, 4).astype(np.int64)

    def classify_branch(
        self,
        success_address: int,
        markers: Optional[tuple[tuple[int, int], tuple[int, int]]] = None,
    ) -> np.ndarray:
        """Per-lane outcome category codes for a branch's replay world.

        Mirrors :meth:`repro.glitchsim.harness.WordHarness._classify_replay`:
        a stopped lane is a success iff it stopped at ``success_address``
        (or already holds the success marker), otherwise ``no_effect``.
        ``markers`` — ``((success_register, value), (normal_register,
        value))``, a snippet world's marker blocks — also classifies a
        halted lane by its registers; without them (a site world) a halted
        lane is ``failed``.  Nonzero values are the shard codes from
        :data:`repro.exec.cache.CATEGORY_CODES`, so a batch result scatters
        straight into the harness memo and the binary cache shards without
        any per-lane Python.
        """
        status = self.status
        codes = _STATUS_CODES.take(status)
        # only the stopped and halted lanes depend on more than their status
        stopped = status == ST_STOPPED
        success = stopped & (self.reg(PC) == success_address)
        if markers is not None:
            (success_register, success_marker), (normal_register, normal_marker) = markers
            halted = status == ST_HALTED
            success |= (stopped | halted) & (self.reg(success_register) == success_marker)
            normal = halted & (self.reg(normal_register) == normal_marker)
            codes[normal] = CATEGORY_CODES["no_effect"]
        codes[success] = CATEGORY_CODES["success"]
        return codes


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

class VectorEngine:
    """Lock-step executor for one replay point (flash image + snapshot state).

    One engine is built per harness from its post-prefix snapshot; every
    :meth:`run` call executes a fresh batch of corrupted words against it
    without mutating the shared state.

    ``straight_run[s]`` / ``straight_end[s]`` describe flash slot ``s``
    (one extra slot stands for the end of flash): the number of pristine
    halfwords from ``s`` on that always fall through, and the terminal
    status of the address that ends that run (``ST_RUNNING`` when reaching
    it decides nothing).  The target slot and the marker stops never join
    a run and never end one with a status.  ``zero_ahead[s]`` counts the
    slots from ``s`` to the first halfword 0x0000 at or after it (past
    the last halfword when there is none).

    The replay point must be paused at the target slot: ``ValueError``
    unless ``init_regs`` holds ``target_address`` as the PC and the
    target is a halfword inside flash.
    """

    def __init__(
        self,
        *,
        flash_base: int,
        flash_bytes: bytes,
        target_address: int,
        ram_base: int,
        ram_bytes: bytes,
        init_regs: Sequence[int],
        init_flags: Flags,
        budget: int,
        zero_is_invalid: bool,
        marker_stops: Sequence[int] = (),
    ):
        if len(flash_bytes) % 2:
            raise ValueError("flash image must be an even number of bytes")
        if init_regs[PC] != target_address:
            raise ValueError(
                f"the replay point's PC {init_regs[PC]:#010x} is not the "
                f"target slot {target_address:#010x}"
            )
        if target_address % 2 or not (
            flash_base <= target_address < flash_base + len(flash_bytes)
        ):
            raise ValueError(f"target slot {target_address:#010x} is not a flash halfword")
        if ram_base % 4:
            raise ValueError(f"RAM base {ram_base:#010x} is not word-aligned")
        if (flash_base <= ram_base + len(ram_bytes)
                and ram_base <= flash_base + len(flash_bytes)):
            raise ValueError("flash and RAM must neither overlap nor touch")
        self.table = operand_table(zero_is_invalid)
        self.flash_base = flash_base
        self.flash_end = flash_base + len(flash_bytes)
        self.flash8 = np.frombuffer(flash_bytes, dtype=np.uint8).astype(np.int64)
        self.flash16 = np.frombuffer(flash_bytes, dtype="<u2").astype(np.int64)
        pad = flash_base % 4
        flash32 = np.zeros(-(-(pad + len(flash_bytes)) // 4), dtype="<u4")
        flash32.view(np.uint8)[pad:pad + len(flash_bytes)] = self.flash8
        #: width -> (the flash as aligned width-byte words, address of word 0)
        self.flash_words = {
            1: (self.flash8, flash_base),
            2: (self.flash16, flash_base),
            4: (flash32.astype(np.int64), flash_base - pad),
        }
        self.target_address = target_address
        self.ram_base = ram_base
        self.ram_size = len(ram_bytes)
        self.ram_end = ram_base + self.ram_size
        self.base_ram = np.frombuffer(ram_bytes, dtype=np.uint8).copy()
        self.blocks = -(-self.ram_size // RAM_BLOCK)
        self.base_pages = np.zeros((self.blocks, RAM_BLOCK), dtype=np.uint8)
        self.base_pages.reshape(-1)[:self.ram_size] = self.base_ram
        self.base_pages.flags.writeable = False  # every batch's shared pages
        self.init_regs = tuple(int(r) & M32 for r in init_regs)
        self.init_flags = init_flags
        self.budget = budget
        self.stops = tuple(int(s) for s in marker_stops)
        self.straight_run, self.straight_end, self.zero_ahead = self._straight_lines()
        # the halfword after the target if it completes a BL prefix there
        # (0 when it does not: a BL prefix at the target is then invalid)
        after = target_address + 2
        suffix = int(self.flash16[(after - flash_base) >> 1]) if after + 2 <= self.flash_end else 0
        self.first_suffix = suffix if suffix >> 11 == 0b11111 else 0

    def _straight_lines(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(straight_run, straight_end, zero_ahead)`` for every flash slot, in NumPy."""
        tbl = self.table
        op = tbl.op[self.flash16]
        falls = np.isin(op, _FALL_THROUGH_OPS) & ~(
            np.isin(op, (OP_HI_ADD, OP_HI_MOV)) & (tbl.rd[self.flash16] == PC)
        )
        end = np.select(
            [op == OP_INVALID, op == OP_SVC], [ST_INVALID, ST_FAILED], ST_RUNNING
        ).astype(np.int8)
        # the slot past the last one: running off the end of flash
        falls = np.append(falls, False)
        end = np.append(end, np.int8(ST_BAD_FETCH))
        address = self.flash_base + 2 * np.arange(falls.size)
        special = np.isin(address, (self.target_address, *self.stops))
        falls &= ~special
        end[special] = ST_RUNNING
        slot = np.arange(falls.size)
        # the first slot at or after each slot that does not fall through, and that holds 0
        run_end, zero_at = (np.minimum.accumulate(np.where(mask, slot, falls.size)[::-1])[::-1]
                            for mask in (~falls, np.append(self.flash16 == 0, False)))
        return run_end - slot, end[run_end], zero_at - slot

    # ------------------------------------------------------------------

    def run(self, word_batch) -> VectorRun:
        """Execute every corrupted word as one lane; returns terminal states."""
        tbl = self.table
        fb_base, fb_end = self.flash_base, self.flash_end
        rb, re_ = self.ram_base, self.ram_end
        ta = self.target_address
        flash16, flash_words = self.flash16, self.flash_words

        words = (np.asarray(word_batch, dtype=np.int64) & 0xFFFF).astype(np.uint16)
        batch_words = words
        n = words.size
        # lanes 0 .. 0xFFFF holding words 0 .. 0xFFFF: the table's own plan
        word_space = n == 1 << 16 and bool((words[1:] > words[:-1]).all())
        # Registers: step 0 logs its writes instead of filling a (16, n)
        # file; after step 1's retire checks the few lanes still running
        # (the survivors) get a compact (16, k) file, and from then on
        # every per-lane array and lane index below is the survivors'.
        regs = None
        write_log: list[tuple] = []
        writes = _Writes.of(np.array(self.init_regs, dtype=np.int64), n, ())
        survivors = np.zeros(0, dtype=np.int64)
        fn = np.full(n, self.init_flags.n, dtype=bool)
        fz = np.full(n, self.init_flags.z, dtype=bool)
        fc = np.full(n, self.init_flags.c, dtype=bool)
        fv = np.full(n, self.init_flags.v, dtype=bool)
        halted = np.zeros(n, dtype=bool)
        status = np.zeros(n, dtype=np.int8)
        zero = np.zeros(n, dtype=bool)  # VectorRun.decodes_zero
        # Lane RAM: step 0 reads the shared image and logs its stores as
        # ``(lanes, RAM offsets, values, width)`` entries; step 1's
        # compaction gives the survivors their own copy-on-write RAM and
        # replays their entries into it, and the rest go to the VectorRun
        ram = _LaneRam(self.base_pages)
        store_log: list[tuple] = []
        # cycle-exit state (survivors only): a snapshot of the lanes active
        # at the last power-of-two step (row per lane in ``snap_row``), and
        # which lanes stored since it was taken
        dirty = snap_row = snap_regs = snap_nzcv = None
        straight_run, straight_end = self.straight_run, self.straight_end
        lane_steps = early_exits = 0

        # -- lane-state helpers (close over the arrays above) ------------

        # At step 0 every lane still holds the snapshot's registers (each
        # lane runs one handler, which reads before it writes), so register
        # reads there are lookups in these 16-entry rows: as stored (the
        # PC already advanced) and as read_reg sees them.
        first_raw = np.array(self.init_regs, dtype=np.int64)
        first_raw[PC] = (ta + 2) & M32
        first_read = first_raw.copy()
        first_read[PC] = (ta + 4) & M32
        first = True

        def reg_of(reg, lanes: np.ndarray) -> np.ndarray:
            """Registers ``reg`` (one, or one per lane) of ``lanes`` as stored."""
            if first:
                return first_raw[reg] if np.ndim(reg) else np.full(lanes.size, first_raw[reg])
            return regs[reg, lanes]

        def rread(reg: np.ndarray, lanes: np.ndarray, addr: np.ndarray) -> np.ndarray:
            """read_reg: the PC reads as instruction address + 4."""
            if first:
                return first_read[reg]
            values = regs[reg, lanes]
            is_pc = reg == 15
            if is_pc.any():
                values = np.where(is_pc, (addr + 4) & M32, values)
            return values

        def rwrite(reg: np.ndarray, lanes: np.ndarray, values: np.ndarray) -> None:
            """write_reg: the PC setter clears bit 0."""
            values = values & M32
            put(reg, lanes, np.where(reg == 15, values & ~1, values))

        def put(reg, lanes: np.ndarray, values) -> None:
            """Set registers ``reg`` (one, or one per lane) of ``lanes``;
            step 0 logs the write instead."""
            if first:
                write_log.append((reg, lanes, values))
            else:
                regs[reg, lanes] = values

        def nzcv(lanes: np.ndarray) -> np.ndarray:
            return np.stack((fn[lanes], fz[lanes], fc[lanes], fv[lanes]))

        def set_nz(lanes: np.ndarray, result: np.ndarray) -> None:
            fn[lanes] = (result & 0x80000000) != 0
            fz[lanes] = result == 0

        def set_nzc(lanes: np.ndarray, result: np.ndarray, carry: np.ndarray) -> None:
            set_nz(lanes, result)
            fc[lanes] = carry

        def set_nzcv(lanes, result, carry, overflow) -> None:
            set_nzc(lanes, result, carry)
            fv[lanes] = overflow

        def vadd(a, b, carry_in):
            """ARM AddWithCarry on int64 words already masked to 32 bits."""
            ci = carry_in.astype(np.int64) if isinstance(carry_in, np.ndarray) else int(carry_in)
            unsigned_sum = a + b + ci
            result = unsigned_sum & M32
            carry = unsigned_sum > M32
            signed_a = np.where(a & 0x80000000, a - _TWO32, a)
            signed_b = np.where(b & 0x80000000, b - _TWO32, b)
            signed_sum = signed_a + signed_b + ci
            overflow = (signed_sum < -_TWO31) | (signed_sum >= _TWO31)
            return result, carry, overflow

        def vsub(a, b):
            return vadd(a, (~b) & M32, True)

        def vlsl(value, amount, carry_in):
            shift = np.minimum(amount, 31)
            result = np.where(
                amount == 0, value,
                np.where(amount < 32, (value << shift) & M32, 0),
            )
            carry_shift = np.clip(32 - amount, 0, 63)
            carry = np.where(
                amount == 0, carry_in,
                np.where(amount < 32, (value >> carry_shift) & 1 != 0,
                         np.where(amount == 32, (value & 1) != 0, False)),
            )
            return result, carry

        def vlsr(value, amount, carry_in):
            shift = np.minimum(amount, 63)
            result = np.where(
                amount == 0, value,
                np.where(amount < 32, value >> shift, 0),
            )
            carry_shift = np.clip(amount - 1, 0, 63)
            carry = np.where(
                amount == 0, carry_in,
                np.where(amount < 32, (value >> carry_shift) & 1 != 0,
                         np.where(amount == 32, (value >> 31) & 1 != 0, False)),
            )
            return result, carry

        def vasr(value, amount, carry_in):
            sign = (value >> 31) & 1
            signed = np.where(sign == 1, value - _TWO32, value)
            shift = np.minimum(amount, 63)
            result = np.where(
                amount == 0, value,
                np.where(amount < 32, (signed >> shift) & M32,
                         np.where(sign == 1, M32, 0)),
            )
            carry_shift = np.clip(amount - 1, 0, 63)
            carry = np.where(
                amount == 0, carry_in,
                np.where(amount < 32, (value >> carry_shift) & 1 != 0, sign == 1),
            )
            return result, carry

        def vror(value, amount, carry_in):
            shift = amount % 32
            safe = np.clip(shift, 0, 31)
            rotated = ((value >> safe) | (value << (32 - safe))) & M32
            result = np.where(amount == 0, value, np.where(shift == 0, value, rotated))
            carry = np.where(
                amount == 0, carry_in,
                np.where(shift == 0, (value >> 31) & 1 != 0, (rotated >> 31) & 1 != 0),
            )
            return result, carry

        init = self.init_flags
        first_nzcv = _nzcv_index(init.n, init.z, init.c, init.v)

        def vcond(cond: np.ndarray, lanes: np.ndarray) -> np.ndarray:
            if first:  # every lane still holds the snapshot's flags
                return _COND_TAKEN[cond, first_nzcv]
            flags = (flag[lanes].view(np.uint8) for flag in (fn, fz, fc, fv))
            return _COND_TAKEN[cond, _nzcv_index(*flags)]

        # -- memory helpers ---------------------------------------------

        def slot_readable(target: np.ndarray, length: int, align: int) -> tuple:
            """(readable-without-fault, lies-in-flash) per slot."""
            in_flash = (target >= fb_base) & (target + length <= fb_end)
            in_ram = (target >= rb) & (target + length <= re_)
            ok = in_flash | in_ram
            if align > 1:
                ok &= target % align == 0
            return ok, in_flash

        def gather(lanes, target, width, in_flash):
            """Aligned little-endian ``width``-byte load with the per-lane
            corrupted-slot overlay.

            Each lane reads one element of a ``width``-byte word view of
            flash or of its lane RAM (an aligned load never crosses a RAM
            block), and one overlay writes the lane's word over the bytes
            of the target halfword the load covers.  Caller guarantees
            validity where the value is consumed; indexes are clipped so
            invalid lanes read garbage instead of faulting.
            """
            flash, flash_lo = flash_words[width]
            value = np.where(
                in_flash,
                flash[np.clip((target - flash_lo) // width, 0, flash.size - 1)],
                ram.load(None if first else lanes,
                         np.clip(target - rb, 0, self.ram_size - width), width),
            )
            # bytes target .. target+width-1 meet ta or ta+1
            covered = (target <= ta + 1) & (target > ta - width)
            if covered.any():
                hit = np.flatnonzero(covered)
                # the halfword's bit offset in the load shifted up one byte
                shift = 8 * (ta + 1 - target[hit])
                wide = ((value[hit] << 8) & ~(0xFFFF << shift)) | (
                    words[lanes[hit]].astype(np.int64) << shift
                )
                value[hit] = (wide >> 8) & ((1 << 8 * width) - 1)
            return value

        def list_slots(masks: np.ndarray, base: np.ndarray) -> tuple:
            """``(lane index, register, address)`` per listed register of a
            push/pop/ldmia/stmia: each lane's registers ascending, stored
            4 bytes apart from its ``base``."""
            bits = (masks[:, np.newaxis] >> np.arange(16)) & 1
            i, reg = np.nonzero(bits)
            rank = np.cumsum(bits, axis=1)[i, reg] - 1
            return i, reg, base[i] + 4 * rank

        def scatter(lanes, target, value, width) -> None:
            """Aligned store, one per (lane, address); caller pre-validated.
            Step 0 logs it for step 1's compaction instead."""
            if first:
                store_log.append((lanes, target - rb, value, width))
            else:  # the cycle exit starts watching at step 1
                dirty[lanes] = True
                ram.store(lanes, target - rb, value, width)

        # -- the lock-step loop -------------------------------------------

        budget = self.budget
        check_stops = bool(self.stops)
        plan = None
        first_suffix = self.first_suffix
        for step_index in range(budget):
            first = step_index == 0
            if first:
                # Every lane sits at the target slot with the snapshot's
                # registers and flags: none is halted, the fetch is valid,
                # the target slot never joins a straight run nor ends one,
                # and there is no cycle snapshot yet, so checks 1-4 below
                # are one scalar test.  Only a target that is itself a
                # marker stop decides anything, and it decides every lane.
                if ta in self.stops and budget >= 2:
                    status[:] = ST_STOPPED
                    break
                lane_steps += n
                zero = words == 0
                # the fetched halfwords are the batch's words: decode and
                # grouping come from its plan
                plan = tbl.step_zero_plan() if word_space else _StepZeroPlan(tbl, words)
                status[plan.invalid] = ST_INVALID
                put(PC, plan.invalid, ta)
                groups = plan.groups
                first_addr = np.broadcast_to(np.int64(ta), (n,))
            else:
                if active.size == 0:
                    break
                if regs is None:  # step 1: each lane's PC from step 0's writes
                    pc = writes.row(PC)[active]
                else:
                    pc = regs[15, active]
                # 1. halted lanes retire (checked before stepping, like CPU.run)
                is_halted = halted[active]
                if is_halted.any():
                    status[active[is_halted]] = ST_HALTED
                    keep = ~is_halted
                    active, pc = active[keep], pc[keep]
                    if active.size == 0:
                        break
                # 2. marker stops short-circuit only with ≥2 budget steps left,
                #    keeping step accounting identical to the scalar engines
                if check_stops and budget - step_index >= 2:
                    at_stop = np.zeros(active.size, dtype=bool)
                    for stop in self.stops:
                        at_stop |= pc == stop
                    if at_stop.any():
                        status[active[at_stop]] = ST_STOPPED
                        keep = ~at_stop
                        active, pc = active[keep], pc[keep]
                        if active.size == 0:
                            break
                # 3. fetch (with the per-lane corrupted-word overlay at target)
                addr = pc
                fetch_ok = ((addr & 1) == 0) & (addr >= fb_base) & (addr + 2 <= fb_end)
                if not fetch_ok.all():
                    status[active[~fetch_ok]] = ST_BAD_FETCH
                    active = active[fetch_ok]
                    addr = addr[fetch_ok]
                    if active.size == 0:
                        break
                # 4. early exits: a lane whose terminal status is already certain
                #    retires with it.  On a straight run the lane only falls
                #    through, so it either outlasts the budget or reaches the
                #    run's end within it.
                left = budget - step_index
                slot = (addr - fb_base) >> 1
                run = straight_run[slot]
                verdict = np.where(run >= left, ST_LIMIT, straight_end[slot])
                decided = verdict != ST_RUNNING
                # such a lane still decodes its first min(run + 1, left)
                # slots: the run's fall-throughs, then what ends it
                zero[active[decided & (self.zero_ahead[slot] < np.minimum(run + 1, left))]] = True
                if snap_regs is not None:
                    # back in its snapshot state without a store in between:
                    # every PC on the cycle passed the stop check with ≥ 2 steps
                    # left, so the lane can never stop, halt or fault
                    rows = snap_row[active]
                    again = (addr == snap_regs[PC, rows]) & ~dirty[active] & ~decided
                    if again.any():
                        idx = np.nonzero(again)[0]
                        lanes, rows = active[idx], rows[idx]
                        again[idx] = (regs[:, lanes] == snap_regs[:, rows]).all(axis=0) & (
                            nzcv(lanes) == snap_nzcv[:, rows]
                        ).all(axis=0)
                        decided |= again
                        verdict[again] = ST_LIMIT
                if decided.any():
                    status[active[decided]] = verdict[decided]
                    early_exits += int(np.count_nonzero(decided))
                    keep = ~decided
                    active, addr, slot = active[keep], addr[keep], slot[keep]
                    if active.size == 0:
                        break
                if regs is None:
                    # step 1's checks are done: give the survivors their own
                    # compact state; the full-batch arrays wait for the end
                    survivors = active
                    regs = writes.file(survivors)
                    fn, fz, fc, fv, halted = (
                        flag[survivors] for flag in (fn, fz, fc, fv, halted)
                    )
                    batch_status, status = status, status[survivors]
                    batch_zero, zero = zero, zero[survivors]
                    words = words[survivors]
                    # the survivors' step-0 stores go to their own RAM
                    ram.lane_row = np.zeros(survivors.size, dtype=np.int32)
                    is_survivor = np.zeros(n, dtype=bool)
                    is_survivor[survivors] = True
                    retired_log = []
                    for lanes, off, value, width in store_log:
                        kept = is_survivor[lanes]
                        if kept.any():
                            ram.store(np.searchsorted(survivors, lanes[kept]),
                                      off[kept], value[kept], width)
                        if not kept.all():
                            retired_log.append((lanes[~kept], off[~kept], value[~kept], width))
                    store_log = retired_log
                    dirty = np.zeros(survivors.size, dtype=bool)
                    snap_row = np.zeros(survivors.size, dtype=np.int32)
                    active = np.arange(survivors.size)
                if step_index & (step_index - 1) == 0:
                    snap_row[active] = np.arange(active.size)
                    snap_regs = regs[:, active].astype(np.uint32)
                    snap_nzcv = nzcv(active)
                    dirty[active] = False
                lane_steps += active.size
                hw = flash16[slot]
                at_target = addr == ta
                if at_target.any():
                    hw = np.where(at_target, words[active], hw)
                # 5. decode via the shared operand table
                zero[active[hw == 0]] = True
                ops = tbl.op[hw]
                is_invalid = ops == OP_INVALID
                if is_invalid.any():
                    status[active[is_invalid]] = ST_INVALID
                    keep = ~is_invalid
                    active, addr, hw, ops = active[keep], addr[keep], hw[keep], ops[keep]
                    if active.size == 0:
                        break
                # 6. BL prefixes need the suffix halfword (overlay applies there too)
                suffix = np.zeros(active.size, dtype=np.int64)
                is_bl = ops == OP_BL_PREFIX
                if is_bl.any():
                    next_addr = addr + 2
                    next_ok = is_bl & (next_addr + 2 <= fb_end)
                    idx = np.nonzero(next_ok)[0]
                    suffix[idx] = flash16[(next_addr[idx] - fb_base) >> 1]
                    overlay = next_ok & (next_addr == ta)
                    if overlay.any():
                        suffix = np.where(overlay, words[active], suffix)
                    good = next_ok & ((suffix >> 11) == 0b11111)
                    bad_bl = is_bl & ~good
                    if bad_bl.any():
                        status[active[bad_bl]] = ST_INVALID
                        keep = ~bad_bl
                        active, addr, hw = active[keep], addr[keep], hw[keep]
                        ops, suffix = ops[keep], suffix[keep]
                        if active.size == 0:
                            break
                # 7. advance the PC past the halfword (branches overwrite it;
                #    BL computes its link/target from addr, so +2 vs +4 is moot)
                regs[15, active] = (addr + 2) & M32
                groups = _op_groups(tbl, ops, hw, active)
            # 8. execute, one handler per opcode group
            for g in groups:
                op, l = g.op, g.lanes
                rd, rs, imm = g.rd, g.rs, g.imm
                if first:
                    a = first_addr[:l.size]
                    if op == OP_BL_PREFIX and not first_suffix:
                        # the one step that depends on the world: a BL
                        # prefix at the target needs a suffix after it
                        status[l] = ST_INVALID
                        put(PC, l, ta)
                        continue
                else:
                    a = addr[g.sel]

                if op == OP_SHIFT_IMM or op == OP_SHIFT_REG:
                    if op == OP_SHIFT_IMM:
                        amount = imm
                        value = rread(rs, l, a)
                    else:
                        amount = rread(rs, l, a) & 0xFF
                        value = rread(rd, l, a)
                    result, carry = (vlsl, vlsr, vasr, vror)[g.aux](value, amount, fc[l])
                    rwrite(rd, l, result)
                    set_nzc(l, result, carry)
                elif op == OP_ADDS or op == OP_SUBS:
                    ro = g.ro
                    lhs = rread(rs, l, a)
                    rhs = np.where(ro >= 0, reg_of(np.maximum(ro, 0), l), imm)
                    if op == OP_ADDS:
                        result, carry, overflow = vadd(lhs, rhs, False)
                    else:
                        result, carry, overflow = vsub(lhs, rhs)
                    rwrite(rd, l, result)
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_MOVS_IMM:
                    rwrite(rd, l, imm)
                    set_nz(l, imm)
                elif op == OP_CMP_IMM:
                    result, carry, overflow = vsub(rread(rd, l, a), imm)
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_CMP_REG:
                    result, carry, overflow = vsub(rread(rd, l, a), rread(rs, l, a))
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_CMN:
                    result, carry, overflow = vadd(rread(rd, l, a), rread(rs, l, a), False)
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_LOGIC:
                    lhs = rread(rd, l, a)
                    rhs = rread(rs, l, a)
                    if g.aux == 0:
                        result = lhs & rhs
                    elif g.aux == 1:
                        result = lhs ^ rhs
                    elif g.aux == 2:
                        result = lhs | rhs
                    else:
                        result = lhs & ~rhs & M32
                    rwrite(rd, l, result)
                    set_nz(l, result)
                elif op == OP_TST:
                    set_nz(l, rread(rd, l, a) & rread(rs, l, a))
                elif op == OP_ADC:
                    result, carry, overflow = vadd(rread(rd, l, a), rread(rs, l, a), fc[l])
                    rwrite(rd, l, result)
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_SBC:
                    result, carry, overflow = vadd(
                        rread(rd, l, a), (~rread(rs, l, a)) & M32, fc[l]
                    )
                    rwrite(rd, l, result)
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_NEG:
                    value = rread(rs, l, a)
                    result, carry, overflow = vsub(np.zeros_like(value), value)
                    rwrite(rd, l, result)
                    set_nzcv(l, result, carry, overflow)
                elif op == OP_MUL:
                    result = (rread(rd, l, a) * rread(rs, l, a)) & M32
                    rwrite(rd, l, result)
                    set_nz(l, result)
                elif op == OP_MVN:
                    result = (~rread(rs, l, a)) & M32
                    rwrite(rd, l, result)
                    set_nz(l, result)
                elif op == OP_HI_ADD:
                    rwrite(rd, l, (rread(rd, l, a) + rread(rs, l, a)) & M32)
                elif op == OP_HI_MOV:
                    rwrite(rd, l, rread(rs, l, a))
                elif op == OP_BX:
                    target = rread(rs, l, a)
                    thumb = (target & 1) == 1
                    if not thumb.all():
                        status[l[~thumb]] = ST_BAD_FETCH
                    ok_l = l[thumb]
                    if ok_l.size:
                        if g.aux == 1:  # blx
                            put(LR, ok_l, (a[thumb] + 2) | 1)
                        put(PC, ok_l, target[thumb] & ~1 & M32)
                elif op == OP_LOAD or op == OP_STORE:
                    base = g.base
                    ro = g.ro
                    base_value = np.where(
                        base == 15, (a + 4) & ~3, reg_of(np.maximum(base, 0), l)
                    )
                    offset = np.where(ro >= 0, reg_of(np.maximum(ro, 0), l), imm)
                    target = (base_value + offset) & M32
                    kind = g.aux
                    if op == OP_LOAD:
                        width = _LOAD_WIDTH[kind]
                        ok, in_flash = slot_readable(target, width, width)
                        if not ok.all():
                            status[l[~ok]] = ST_BAD_READ
                            l, target, in_flash, rd = l[ok], target[ok], in_flash[ok], rd[ok]
                        if l.size:
                            value = gather(l, target, width, in_flash)
                            if kind == 3:  # ldrsh
                                value = np.where(value & 0x8000, value - 0x10000, value)
                            elif kind == 4:  # ldrsb
                                value = np.where(value & 0x80, value - 0x100, value)
                            rwrite(rd, l, value)
                    else:
                        width = _STORE_WIDTH[kind]
                        ok = (target >= rb) & (target + width <= re_)
                        if width > 1:
                            ok &= target % width == 0
                        if not ok.all():
                            status[l[~ok]] = ST_BAD_READ
                            l, target, rd, a = l[ok], target[ok], rd[ok], a[ok]
                        if l.size:
                            scatter(l, target, rread(rd, l, a), width)
                elif op == OP_ADR:
                    rwrite(rd, l, ((a + 4) & ~3) + imm)
                elif op == OP_ADD_SP_IMM:
                    rwrite(rd, l, (reg_of(SP, l) + imm) & M32)
                elif op == OP_ADJ_SP:
                    put(SP, l, (reg_of(SP, l) + imm) & M32)
                elif op == OP_PUSH:
                    reg_list = g.reg_list.astype(np.int64)
                    count = np.bitwise_count(reg_list).astype(np.int64)
                    sp = reg_of(SP, l)
                    new_sp = (sp - 4 * count) & M32
                    ok = (new_sp % 4 == 0) & (new_sp >= rb) & (new_sp + 4 * count <= re_)
                    if not ok.all():
                        status[l[~ok]] = ST_BAD_READ
                    push_lanes = l[ok]
                    if push_lanes.size:
                        base_sp = new_sp[ok]
                        i, reg, slot = list_slots(reg_list[ok], base_sp)
                        lanes_r = push_lanes[i]
                        scatter(lanes_r, slot, reg_of(reg, lanes_r), 4)
                        put(SP, push_lanes, base_sp)
                elif op == OP_POP or op == OP_LDMIA:
                    reg_list = g.reg_list.astype(np.int64)
                    count = np.bitwise_count(reg_list).astype(np.int64)
                    if op == OP_POP:
                        base_addr = reg_of(SP, l)
                    else:
                        base_addr = reg_of(np.maximum(g.base, 0), l)
                    # every slot must be loadable; check them all up front
                    # (the scalar engine faults at the first bad one — same
                    # terminal category, and partial effects are invisible).
                    # Lists are never empty and flash and RAM do not touch,
                    # so that is the aligned span lying in one region.
                    span_end = base_addr + 4 * count
                    in_flash = (base_addr >= fb_base) & (span_end <= fb_end)
                    ok = (base_addr % 4 == 0) & (in_flash | (base_addr >= rb) & (span_end <= re_))
                    if not ok.all():
                        status[l[~ok]] = ST_BAD_READ
                    good = np.nonzero(ok)[0]
                    if good.size:
                        lanes_g = l[good]
                        base_g = base_addr[good]
                        masks = reg_list[good]
                        end = (base_g + 4 * count[good]) & M32
                        if op == OP_POP:
                            put(SP, lanes_g, end)
                        i, reg, slot = list_slots(masks, base_g)
                        lanes_r = lanes_g[i]
                        value = gather(lanes_r, slot, 4, in_flash[good][i])
                        put(reg, lanes_r, np.where(reg == PC, value & ~1, value) & M32)
                        if op == OP_LDMIA:
                            base_reg = g.base[good]
                            writeback = (masks >> base_reg) & 1 == 0
                            if writeback.any():
                                put(base_reg[writeback], lanes_g[writeback], end[writeback])
                elif op == OP_STMIA:
                    reg_list = g.reg_list.astype(np.int64)
                    count = np.bitwise_count(reg_list).astype(np.int64)
                    base_reg = g.base
                    base_addr = reg_of(np.maximum(base_reg, 0), l)
                    ok = (base_addr % 4 == 0) & (base_addr >= rb) & (
                        base_addr + 4 * count <= re_
                    )
                    if not ok.all():
                        status[l[~ok]] = ST_BAD_READ
                    good = np.nonzero(ok)[0]
                    if good.size:
                        lanes_g = l[good]
                        base_g = base_addr[good]
                        i, reg, slot = list_slots(reg_list[good], base_g)
                        scatter(lanes_g[i], slot, reg_of(reg, lanes_g[i]), 4)
                        # writeback always happens (base-in-list stored the
                        # original value because stores gathered it first)
                        put(base_reg[good], lanes_g, (base_g + 4 * count[good]) & M32)
                elif op == OP_BCOND:
                    taken = vcond(g.cond, l)
                    if taken.any():
                        put(PC, l[taken], (a[taken] + 4 + imm[taken]) & M32 & ~1)
                elif op == OP_B:
                    put(PC, l, (a + 4 + imm) & M32 & ~1)
                elif op == OP_BL_PREFIX:
                    low = ((first_suffix if first else suffix[g.sel]) & 0x7FF) << 1
                    put(LR, l, (a + 4) | 1)
                    put(PC, l, (a + 4 + imm + low) & M32 & ~1)
                elif op == OP_SVC:
                    status[l] = ST_FAILED
                elif op == OP_HALT:
                    halted[l] = True
                elif op == OP_NOP:
                    pass
                elif op == OP_EXTEND:
                    value = rread(rs, l, a)
                    if g.aux == 0:  # sxth
                        half = value & 0xFFFF
                        result = np.where(half & 0x8000, half - 0x10000, half)
                    elif g.aux == 1:  # sxtb
                        byte = value & 0xFF
                        result = np.where(byte & 0x80, byte - 0x100, byte)
                    elif g.aux == 2:  # uxth
                        result = value & 0xFFFF
                    else:  # uxtb
                        result = value & 0xFF
                    rwrite(rd, l, result)
                elif op == OP_REV:
                    value = rread(rs, l, a)
                    b0, b1 = value & 0xFF, (value >> 8) & 0xFF
                    b2, b3 = (value >> 16) & 0xFF, (value >> 24) & 0xFF
                    swapped_half = b1 | (b0 << 8)
                    if g.aux == 0:  # rev
                        result = (b0 << 24) | (b1 << 16) | (b2 << 8) | b3
                    elif g.aux == 1:  # rev16
                        result = swapped_half | (b3 << 16) | (b2 << 24)
                    else:  # revsh
                        result = np.where(
                            swapped_half & 0x8000, swapped_half - 0x10000, swapped_half
                        )
                    rwrite(rd, l, result)
                else:  # pragma: no cover - every table opcode is handled above
                    raise ValueError(f"unhandled vector opcode {op}")
            if first:
                active = np.flatnonzero(status == ST_RUNNING)
                writes, write_log = _Writes.of(first_raw, n, write_log), None
            else:
                active = active[status[active] == ST_RUNNING]

        # budget exhausted: halted lanes classify, the rest hit the limit
        # (a lane parked on a stop address with zero budget is a limit too,
        # matching the scalar resume-with-empty-budget path)
        remaining = np.nonzero(status == ST_RUNNING)[0]
        if remaining.size:
            ended_halted = halted[remaining]
            status[remaining[ended_halted]] = ST_HALTED
            status[remaining[~ended_halted]] = ST_LIMIT
        lane_row = np.zeros(n, dtype=np.int32)
        if regs is None:  # no lane ran past step 1
            regs = np.zeros((16, 0), dtype=np.int64)
        else:  # scatter the survivors back into the batch
            batch_status[survivors], status = status, batch_status
            batch_zero[survivors], zero = zero, batch_zero
            lane_row[survivors] = ram.lane_row
        ram.lane_row = lane_row

        return VectorRun(
            words=batch_words,
            status=status,
            decodes_zero=zero,
            writes=writes,
            survivors=survivors,
            survivor_regs=regs,
            ram=ram,
            retired_stores=store_log,
            private_pages=ram.pages_used - self.blocks,
            ram_base=rb,
            lane_steps=lane_steps,
            early_exits=early_exits,
            planned=plan is not None and plan is tbl._plan,
        )


__all__ = [
    "VectorEngine",
    "VectorRun",
    "operand_table",
    "warm_tables",
    "STATUS_CATEGORIES",
    "ST_HALTED",
    "ST_STOPPED",
    "ST_LIMIT",
    "ST_INVALID",
    "ST_BAD_FETCH",
    "ST_BAD_READ",
    "ST_FAILED",
]
