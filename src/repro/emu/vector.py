"""Vectorized lock-step batch engine: one NumPy lane per corrupted word.

The Figure 2 workload is "same program, one corrupted halfword, tens of
thousands of variants": every lane of a :meth:`SnippetHarness.run_many`
batch starts from the *same* post-prefix machine snapshot and differs only
in the 16-bit word overlaid on the target flash slot.  That is exactly the
shape that vectorizes — so this module holds the architectural state of
every lane as struct-of-arrays (registers ``(16, N)``, NZCV flags, a
halted bit, a terminal status) and steps all live lanes in lock-step:

- **fetch** reads the shared flash image with a per-lane overlay at the
  target slot (both for the fetched halfword and for a BL-suffix
  lookahead at ``target ± 2``, and byte-wise for data loads that read the
  slot), so the base image is never mutated;
- **decode** is a lookup in a read-only 65,536-row operand table, built
  once per process in NumPy from the decoder's own format tables (all
  2^16 words at once, a few tens of milliseconds) and shared per
  ``zero_is_invalid`` setting;
- **execute** groups live lanes by opcode and runs one vectorized handler
  per group, mirroring :mod:`repro.emu.cpu` / :mod:`repro.emu.alu`
  bit-for-bit (including the LSR/ASR ``#0 == 32`` quirk, shift-by-zero
  carry passthrough, and ``AddWithCarry`` flag algebra);
- **memory** is a copy-on-write RAM plane: row 0 is the shared
  post-prefix RAM image and a lane is given a private row only right
  before its first successful store, so a 65k-lane batch allocates a few
  MB rather than lanes × RAM_SIZE;
- **divergence** is handled by retirement: lanes that halt, fault, hit a
  marker stop, or exhaust the shared step budget leave the active set and
  keep their terminal status, so classification happens per lane while
  stepping stays dense;
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
from typing import Mapping, Sequence

import numpy as np

from repro.exec.cache import CATEGORY_CODES
from repro.isa.conditions import Flags
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

#: opcodes that never fault, halt, branch or touch memory: a pristine row
#: of one of these always falls through to the next halfword (OP_HI_ADD and
#: OP_HI_MOV only while they do not write the PC)
_FALL_THROUGH_OPS = (
    OP_SHIFT_IMM, OP_SHIFT_REG, OP_ADDS, OP_SUBS, OP_MOVS_IMM, OP_CMP_IMM,
    OP_CMP_REG, OP_CMN, OP_LOGIC, OP_TST, OP_ADC, OP_SBC, OP_NEG, OP_MUL,
    OP_MVN, OP_HI_ADD, OP_HI_MOV, OP_ADR, OP_ADD_SP_IMM, OP_ADJ_SP, OP_NOP,
    OP_EXTEND, OP_REV,
)


def _present(values: np.ndarray, bound: int) -> list[int]:
    """Distinct codes in a small-nonneg-int array, ascending.

    Dispatch-loop replacement for ``np.unique(values).tolist()``: a
    bincount over a known ``bound`` is a single O(n) pass, without the
    hash/sort machinery ``np.unique`` drags into the per-step hot loop.
    """
    return np.nonzero(np.bincount(values, minlength=bound))[0].tolist()


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


class _OperandTable:
    """Read-only decoded-operand columns for all 65,536 halfwords of one mode."""

    #: tables are built whole, never row by row
    complete = True

    def __init__(self, columns: Mapping[str, np.ndarray]):
        for name, column in columns.items():
            column.flags.writeable = False
            setattr(self, name, column)


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
# per-batch result
# ----------------------------------------------------------------------

@dataclass
class VectorRun:
    """Per-lane state of one :meth:`VectorEngine.run` batch, as each lane retired."""

    words: np.ndarray       # the corrupted words, lane order == input order
    status: np.ndarray      # terminal ST_* per lane (never ST_RUNNING)
    stop_pc: np.ndarray     # for ST_STOPPED lanes: the marker address reached
    # ``regs`` and ``ram`` hold each lane's state when it retired.  A lane
    # decided early (ST_LIMIT, ST_BAD_FETCH, ST_INVALID or ST_FAILED before
    # it got there) keeps its state at that decision, so callers classify
    # those four statuses by status alone; ST_HALTED and ST_STOPPED lanes
    # are never decided early.
    regs: np.ndarray        # (16, N) architectural registers at retirement
    lane_row: np.ndarray    # RAM plane row per lane (0 = shared pristine row)
    ram: np.ndarray         # (rows, ram_size) copy-on-write RAM plane
    ram_base: int
    lane_steps: int         # lanes fetched, summed over the executed steps
    early_exits: int        # lanes retired by a straight-line or cycle exit

    def read_ram_u32(self, address: int) -> np.ndarray:
        """Little-endian u32 at ``address`` as seen by each lane."""
        off = address - self.ram_base
        rows = self.lane_row
        value = self.ram[rows, off].astype(np.int64)
        for i in range(1, 4):
            value |= self.ram[rows, off + i].astype(np.int64) << (8 * i)
        return value

    def classify_branch(
        self,
        *,
        success_address: int,
        success_register: int,
        success_marker: int,
        normal_register: int,
        normal_marker: int,
    ) -> np.ndarray:
        """Per-lane Figure 2 outcome category codes.

        Mirrors :meth:`SnippetHarness._classify_replay`: a marker-stop lane
        is a success iff it stopped at the fall-through block (or already
        holds the success marker); a halted lane classifies by markers.
        Nonzero values are the shard codes from
        :data:`repro.exec.cache.CATEGORY_CODES`, so a batch result scatters
        straight into the harness memo and the binary cache shards without
        any per-lane Python.
        """
        status = self.status
        r_success = self.regs[success_register]
        r_normal = self.regs[normal_register]
        stopped = status == ST_STOPPED
        halted = status == ST_HALTED
        success = (stopped & ((self.stop_pc == success_address) | (r_success == success_marker))) | (
            halted & (r_success == success_marker)
        )
        no_effect = (stopped | (halted & (r_normal == normal_marker))) & ~success
        return np.select(
            [
                success,
                no_effect,
                status == ST_INVALID,
                status == ST_BAD_FETCH,
                status == ST_BAD_READ,
                halted | (status == ST_LIMIT) | (status == ST_FAILED),
            ],
            [
                CATEGORY_CODES["success"],
                CATEGORY_CODES["no_effect"],
                CATEGORY_CODES["invalid_instruction"],
                CATEGORY_CODES["bad_fetch"],
                CATEGORY_CODES["bad_read"],
                CATEGORY_CODES["failed"],
            ],
        ).astype(np.uint8)


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
    a run and never end one with a status.
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
        self.table = operand_table(zero_is_invalid)
        self.flash_base = flash_base
        self.flash_end = flash_base + len(flash_bytes)
        self.flash8 = np.frombuffer(flash_bytes, dtype=np.uint8).astype(np.int64)
        self.flash16 = np.frombuffer(flash_bytes, dtype="<u2").astype(np.int64)
        self.target_address = target_address
        self.ram_base = ram_base
        self.ram_size = len(ram_bytes)
        self.ram_end = ram_base + self.ram_size
        self.base_ram = np.frombuffer(ram_bytes, dtype=np.uint8).copy()
        self.init_regs = tuple(int(r) & M32 for r in init_regs)
        self.init_flags = init_flags
        self.budget = budget
        self.stops = tuple(int(s) for s in marker_stops)
        self.straight_run, self.straight_end = self._straight_lines()

    def _straight_lines(self) -> tuple[np.ndarray, np.ndarray]:
        """``(straight_run, straight_end)`` for every flash slot, in NumPy."""
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
        # the first slot at or after each slot that does not fall through
        run_end = np.minimum.accumulate(np.where(falls, falls.size, slot)[::-1])[::-1]
        return run_end - slot, end[run_end]

    # ------------------------------------------------------------------

    def run(self, word_batch) -> VectorRun:
        """Execute every corrupted word as one lane; returns terminal states."""
        tbl = self.table
        fb_base, fb_end = self.flash_base, self.flash_end
        rb, re_ = self.ram_base, self.ram_end
        ta = self.target_address
        flash8, flash16 = self.flash8, self.flash16

        words = np.asarray(word_batch, dtype=np.int64) & 0xFFFF
        n = words.size
        regs = np.empty((16, n), dtype=np.int64)
        for i, value in enumerate(self.init_regs):
            regs[i] = value
        fn = np.full(n, self.init_flags.n, dtype=bool)
        fz = np.full(n, self.init_flags.z, dtype=bool)
        fc = np.full(n, self.init_flags.c, dtype=bool)
        fv = np.full(n, self.init_flags.v, dtype=bool)
        halted = np.zeros(n, dtype=bool)
        status = np.zeros(n, dtype=np.int8)
        stop_pc = np.zeros(n, dtype=np.int64)
        lane_row = np.zeros(n, dtype=np.int64)
        ram = self.base_ram[np.newaxis, :].copy()
        active = np.arange(n)
        # cycle-exit state: a snapshot of the lanes active at the last
        # power-of-two step (row per lane in ``snap_row``), and which lanes
        # stored since it was taken
        dirty = np.zeros(n, dtype=bool)
        snap_row = np.zeros(n, dtype=np.int32)
        snap_regs = snap_nzcv = None
        straight_run, straight_end = self.straight_run, self.straight_end
        lane_steps = early_exits = 0

        # -- lane-state helpers (close over the arrays above) ------------

        def privatize(lanes: np.ndarray) -> None:
            """Give each storing lane a private RAM row (copy of row 0)."""
            nonlocal ram
            fresh = lane_row[lanes] == 0
            if fresh.any():
                new_lanes = lanes[fresh]
                start = ram.shape[0]
                ram = np.concatenate([ram, np.tile(ram[0], (new_lanes.size, 1))])
                lane_row[new_lanes] = start + np.arange(new_lanes.size)

        def rread(reg: np.ndarray, lanes: np.ndarray, addr: np.ndarray) -> np.ndarray:
            """read_reg: the PC reads as instruction address + 4."""
            values = regs[reg, lanes]
            is_pc = reg == 15
            if is_pc.any():
                values = np.where(is_pc, (addr + 4) & M32, values)
            return values

        def rwrite(reg: np.ndarray, lanes: np.ndarray, values: np.ndarray) -> None:
            """write_reg: the PC setter clears bit 0."""
            values = values & M32
            values = np.where(reg == 15, values & ~1, values)
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

        def vcond(cond: np.ndarray, lanes: np.ndarray) -> np.ndarray:
            n_, z_ = fn[lanes], fz[lanes]
            c_, v_ = fc[lanes], fv[lanes]
            out = np.zeros(lanes.size, dtype=bool)
            exprs = {
                0: lambda: z_, 1: lambda: ~z_,
                2: lambda: c_, 3: lambda: ~c_,
                4: lambda: n_, 5: lambda: ~n_,
                6: lambda: v_, 7: lambda: ~v_,
                8: lambda: c_ & ~z_, 9: lambda: ~c_ | z_,
                10: lambda: n_ == v_, 11: lambda: n_ != v_,
                12: lambda: ~z_ & (n_ == v_), 13: lambda: z_ | (n_ != v_),
            }
            for number in _present(cond, 16):
                mask = cond == number
                out[mask] = exprs[number]()[mask]
            return out

        # -- memory helpers ---------------------------------------------

        def slot_readable(target: np.ndarray, length: int, align: int) -> tuple:
            """(readable-without-fault, lies-in-flash) per slot."""
            in_flash = (target >= fb_base) & (target + length <= fb_end)
            in_ram = (target >= rb) & (target + length <= re_)
            ok = in_flash | in_ram
            if align > 1:
                ok &= target % align == 0
            return ok, in_flash

        def gather(lanes, target, length, in_flash):
            """Little-endian load with the per-lane corrupted-slot overlay.

            Caller guarantees validity where the value is consumed; indexes
            are clipped so invalid lanes read garbage instead of faulting.
            """
            flash_off = np.clip(target - fb_base, 0, flash8.size - length)
            ram_off = np.clip(target - rb, 0, self.ram_size - length)
            rows = lane_row[lanes]
            lane_words = words[lanes]
            value = np.zeros(lanes.size, dtype=np.int64)
            for i in range(length):
                byte = np.where(in_flash, flash8[flash_off + i],
                                ram[rows, ram_off + i].astype(np.int64))
                byte_addr = target + i
                byte = np.where(byte_addr == ta, lane_words & 0xFF, byte)
                byte = np.where(byte_addr == ta + 1, (lane_words >> 8) & 0xFF, byte)
                value |= byte << (8 * i)
            return value

        def scatter(lanes, target, value, length) -> None:
            """Store to already-privatized lanes; caller pre-validated."""
            dirty[lanes] = True
            rows = lane_row[lanes]
            off = target - rb
            for i in range(length):
                ram[rows, off + i] = (value >> (8 * i)) & 0xFF

        # -- the lock-step loop -------------------------------------------

        budget = self.budget
        check_stops = bool(self.stops)
        for step_index in range(budget):
            if active.size == 0:
                break
            # 1. halted lanes retire (checked before stepping, like CPU.run)
            is_halted = halted[active]
            if is_halted.any():
                status[active[is_halted]] = ST_HALTED
                active = active[~is_halted]
                if active.size == 0:
                    break
            # 2. marker stops short-circuit only with ≥2 budget steps left,
            #    keeping step accounting identical to the scalar engines
            if check_stops and budget - step_index >= 2:
                pc = regs[15, active]
                at_stop = np.zeros(active.size, dtype=bool)
                for stop in self.stops:
                    at_stop |= pc == stop
                if at_stop.any():
                    idx = active[at_stop]
                    status[idx] = ST_STOPPED
                    stop_pc[idx] = regs[15, idx]
                    active = active[~at_stop]
                    if active.size == 0:
                        break
            # 3. fetch (with the per-lane corrupted-word overlay at target)
            addr = regs[15, active]
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
            outlasts = straight_run[slot] >= left
            verdict = np.where(outlasts, ST_LIMIT, straight_end[slot])
            decided = verdict != ST_RUNNING
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
            if step_index & (step_index - 1) == 0 and step_index:
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
            # 8. execute, grouped by opcode
            for op in _present(ops, OP_REV + 1):
                sel = np.nonzero(ops == op)[0]
                l = active[sel]
                a = addr[sel]
                h = hw[sel]
                rd, rs = tbl.rd[h], tbl.rs[h]
                imm = tbl.imm[h]

                if op == OP_SHIFT_IMM or op == OP_SHIFT_REG:
                    aux = tbl.aux[h]
                    if op == OP_SHIFT_IMM:
                        amount = imm
                        value = rread(rs, l, a)
                    else:
                        amount = rread(rs, l, a) & 0xFF
                        value = rread(rd, l, a)
                    result = np.zeros(l.size, dtype=np.int64)
                    carry = np.zeros(l.size, dtype=bool)
                    shifters = (vlsl, vlsr, vasr, vror)
                    for kind in _present(aux, 8):
                        mask = aux == kind
                        res_k, carry_k = shifters[kind](value[mask], amount[mask], fc[l[mask]])
                        result[mask] = res_k
                        carry[mask] = carry_k
                    rwrite(rd, l, result)
                    set_nzc(l, result, carry)
                elif op == OP_ADDS or op == OP_SUBS:
                    ro = tbl.ro[h]
                    lhs = rread(rs, l, a)
                    rhs = np.where(ro >= 0, regs[np.maximum(ro, 0), l], imm)
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
                    aux = tbl.aux[h]
                    lhs = rread(rd, l, a)
                    rhs = rread(rs, l, a)
                    result = np.select(
                        [aux == 0, aux == 1, aux == 2],
                        [lhs & rhs, lhs ^ rhs, lhs | rhs],
                        default=lhs & ~rhs & M32,
                    )
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
                        aux = tbl.aux[h][thumb]
                        is_blx = aux == 1
                        if is_blx.any():
                            regs[14, ok_l[is_blx]] = (a[thumb][is_blx] + 2) | 1
                        regs[15, ok_l] = target[thumb] & ~1 & M32
                elif op == OP_LOAD or op == OP_STORE:
                    aux = tbl.aux[h]
                    base = tbl.base[h]
                    ro = tbl.ro[h]
                    base_value = np.where(
                        base == 15, (a + 4) & ~3, regs[np.maximum(base, 0), l]
                    )
                    offset = np.where(ro >= 0, regs[np.maximum(ro, 0), l], imm)
                    target = (base_value + offset) & M32
                    widths = _LOAD_WIDTH if op == OP_LOAD else _STORE_WIDTH
                    for kind in _present(aux, 8):
                        mask = aux == kind
                        lanes_k = l[mask]
                        target_k = target[mask]
                        width = widths[kind]
                        if op == OP_LOAD:
                            ok, in_flash = slot_readable(target_k, width, width)
                            if not ok.all():
                                status[lanes_k[~ok]] = ST_BAD_READ
                            value = gather(lanes_k, target_k, width, in_flash)
                            if kind == 3:  # ldrsh
                                value = np.where(value & 0x8000, value - 0x10000, value)
                            elif kind == 4:  # ldrsb
                                value = np.where(value & 0x80, value - 0x100, value)
                            good = np.nonzero(mask)[0][ok]
                            rwrite(rd[good], l[good], value[ok])
                        else:
                            aligned = target_k % width == 0 if width > 1 else np.ones(
                                lanes_k.size, dtype=bool
                            )
                            ok = aligned & (target_k >= rb) & (target_k + width <= re_)
                            if not ok.all():
                                status[lanes_k[~ok]] = ST_BAD_READ
                            store_lanes = lanes_k[ok]
                            if store_lanes.size:
                                privatize(store_lanes)
                                good = np.nonzero(mask)[0][ok]
                                scatter(store_lanes, target_k[ok],
                                        rread(rd[good], l[good], a[good]), width)
                elif op == OP_ADR:
                    rwrite(rd, l, ((a + 4) & ~3) + imm)
                elif op == OP_ADD_SP_IMM:
                    rwrite(rd, l, (regs[13, l] + imm) & M32)
                elif op == OP_ADJ_SP:
                    regs[13, l] = (regs[13, l] + imm) & M32
                elif op == OP_PUSH:
                    reg_list = tbl.reg_list[h].astype(np.int64)
                    count = np.bitwise_count(reg_list).astype(np.int64)
                    sp = regs[13, l]
                    new_sp = (sp - 4 * count) & M32
                    ok = (new_sp % 4 == 0) & (new_sp >= rb) & (new_sp + 4 * count <= re_)
                    if not ok.all():
                        status[l[~ok]] = ST_BAD_READ
                    push_lanes = l[ok]
                    if push_lanes.size:
                        privatize(push_lanes)
                        base_sp = new_sp[ok]
                        masks = reg_list[ok]
                        for reg in range(16):
                            has = (masks >> reg) & 1 == 1
                            if not has.any():
                                continue
                            rank = np.bitwise_count(masks & ((1 << reg) - 1)).astype(np.int64)
                            scatter(push_lanes[has], (base_sp + 4 * rank)[has],
                                    regs[reg, push_lanes[has]], 4)
                        regs[13, push_lanes] = base_sp
                elif op == OP_POP or op == OP_LDMIA:
                    reg_list = tbl.reg_list[h].astype(np.int64)
                    count = np.bitwise_count(reg_list).astype(np.int64)
                    if op == OP_POP:
                        base_addr = regs[13, l]
                    else:
                        base_addr = regs[np.maximum(tbl.base[h], 0), l]
                    # every slot must be loadable; check them all up front
                    # (the scalar engine faults at the first bad one — same
                    # terminal category, and partial effects are invisible)
                    ok = np.ones(l.size, dtype=bool)
                    max_count = int(count.max()) if count.size else 0
                    for rank in range(max_count):
                        in_range = rank < count
                        slot = base_addr + 4 * rank
                        slot_ok, _ = slot_readable(slot, 4, 4)
                        ok &= ~in_range | slot_ok
                    if not ok.all():
                        status[l[~ok]] = ST_BAD_READ
                    good = np.nonzero(ok)[0]
                    if good.size:
                        lanes_g = l[good]
                        base_g = base_addr[good]
                        masks = reg_list[good]
                        count_g = count[good]
                        end = (base_g + 4 * count_g) & M32
                        if op == OP_POP:
                            regs[13, lanes_g] = end
                        for reg in range(16):
                            has = (masks >> reg) & 1 == 1
                            if not has.any():
                                continue
                            rank = np.bitwise_count(masks & ((1 << reg) - 1)).astype(np.int64)
                            slot = (base_g + 4 * rank)[has]
                            lanes_r = lanes_g[has]
                            _, in_flash = slot_readable(slot, 4, 4)
                            value = gather(lanes_r, slot, 4, in_flash)
                            if reg == 15:
                                value = value & ~1
                            regs[reg, lanes_r] = value & M32
                        if op == OP_LDMIA:
                            base_reg = tbl.base[h][good]
                            writeback = (masks >> base_reg) & 1 == 0
                            if writeback.any():
                                regs[base_reg[writeback], lanes_g[writeback]] = end[writeback]
                elif op == OP_STMIA:
                    reg_list = tbl.reg_list[h].astype(np.int64)
                    count = np.bitwise_count(reg_list).astype(np.int64)
                    base_reg = tbl.base[h]
                    base_addr = regs[np.maximum(base_reg, 0), l]
                    ok = (base_addr % 4 == 0) & (base_addr >= rb) & (
                        base_addr + 4 * count <= re_
                    )
                    if not ok.all():
                        status[l[~ok]] = ST_BAD_READ
                    good = np.nonzero(ok)[0]
                    if good.size:
                        lanes_g = l[good]
                        privatize(lanes_g)
                        base_g = base_addr[good]
                        masks = reg_list[good]
                        for reg in range(16):
                            has = (masks >> reg) & 1 == 1
                            if not has.any():
                                continue
                            rank = np.bitwise_count(masks & ((1 << reg) - 1)).astype(np.int64)
                            scatter(lanes_g[has], (base_g + 4 * rank)[has],
                                    regs[reg, lanes_g[has]], 4)
                        # writeback always happens (base-in-list stored the
                        # original value because stores gathered it first)
                        regs[base_reg[good], lanes_g] = (base_g + 4 * count[good]) & M32
                elif op == OP_BCOND:
                    taken = vcond(tbl.cond[h], l)
                    if taken.any():
                        regs[15, l[taken]] = (a[taken] + 4 + imm[taken]) & M32 & ~1
                elif op == OP_B:
                    regs[15, l] = (a + 4 + imm) & M32 & ~1
                elif op == OP_BL_PREFIX:
                    low = (suffix[sel] & 0x7FF) << 1
                    regs[14, l] = (a + 4) | 1
                    regs[15, l] = (a + 4 + imm + low) & M32 & ~1
                elif op == OP_SVC:
                    status[l] = ST_FAILED
                elif op == OP_HALT:
                    halted[l] = True
                elif op == OP_NOP:
                    pass
                elif op == OP_EXTEND:
                    aux = tbl.aux[h]
                    value = rread(rs, l, a)
                    half = value & 0xFFFF
                    byte = value & 0xFF
                    result = np.select(
                        [aux == 0, aux == 1, aux == 2],
                        [
                            np.where(half & 0x8000, half - 0x10000, half),
                            np.where(byte & 0x80, byte - 0x100, byte),
                            half,
                        ],
                        default=byte,
                    )
                    rwrite(rd, l, result)
                elif op == OP_REV:
                    aux = tbl.aux[h]
                    value = rread(rs, l, a)
                    b0, b1 = value & 0xFF, (value >> 8) & 0xFF
                    b2, b3 = (value >> 16) & 0xFF, (value >> 24) & 0xFF
                    swapped_half = b1 | (b0 << 8)
                    result = np.select(
                        [aux == 0, aux == 1],
                        [
                            (b0 << 24) | (b1 << 16) | (b2 << 8) | b3,
                            swapped_half | (b3 << 16) | (b2 << 24),
                        ],
                        default=np.where(
                            swapped_half & 0x8000, swapped_half - 0x10000, swapped_half
                        ),
                    )
                    rwrite(rd, l, result)
                else:  # pragma: no cover - every table opcode is handled above
                    raise ValueError(f"unhandled vector opcode {op}")
            active = active[status[active] == ST_RUNNING]

        # budget exhausted: halted lanes classify, the rest hit the limit
        # (a lane parked on a stop address with zero budget is a limit too,
        # matching the scalar resume-with-empty-budget path)
        remaining = np.nonzero(status == ST_RUNNING)[0]
        if remaining.size:
            ended_halted = halted[remaining]
            status[remaining[ended_halted]] = ST_HALTED
            status[remaining[~ended_halted]] = ST_LIMIT

        return VectorRun(
            words=words,
            status=status,
            stop_pc=stop_pc,
            regs=regs,
            lane_row=lane_row,
            ram=ram,
            ram_base=rb,
            lane_steps=lane_steps,
            early_exits=early_exits,
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
