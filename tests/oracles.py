"""Reference implementations the emulation fast paths are checked against.

Production code classifies corrupted-word batches on the NumPy vector
engine (the scalar snapshot replay runs single words only) and derives
mask-sweep tallies in closed form from the unique reachable words.  The
slow, obviously correct versions those replaced live here, so the
differential tests and the speedup benchmarks keep comparing against
them on the same inputs:

- :class:`SnapshotSnippetHarness` / :class:`SnapshotSiteHarness` — whole
  batches run word by word on the scalar snapshot replay, the vector
  engine's first oracle;
- :class:`RebuildSnippetHarness` / :class:`RebuildSiteHarness` — the
  per-word world rebuild: a fresh ``Memory``/``CPU`` for every corrupted
  word, run from reset;
- :func:`snapshot_engine` / :func:`rebuild_engine` — route the campaign
  entry points' in-process sweeps onto those harnesses, so whole
  campaigns (tallies *and* observability counters) can be compared;
- :func:`classify_branch_corruption` — one corrupted word classified in
  a branch snippet on a shared harness;
- :func:`enumerate_by_k` / :func:`enumerate_class_sweep` — the full mask
  enumeration that :func:`repro.glitchsim.campaign.tally_world` and
  the instruction-class sweep replace;
- :func:`per_sweep_tally` — one sweep's closed-form tally from its own
  reachable words, which :func:`repro.glitchsim.maskalgebra.tally_from_word_codes`
  replaced with every sweep of a world tallied from one code array;
- :func:`classify_class_word` — one instruction-class word run from reset
  on the scalar CPU, which the instruction-class sweep replaces with one
  lock-step batch;
- :func:`staged_step_cycle` — the hw pipeline's clock cycle as four
  separate stages (issue, front end, glitch, execute), which
  :meth:`repro.hw.pipeline.PipelinedCPU.step_cycle` runs as one flat
  method;
- :func:`uniform_roll` — the fault model's hashed uniform draw, computed
  afresh on every call, which ``FaultModel._uniform`` memoizes
  process-wide;
- :func:`skip_replay_effect` — the skip/replay model's realization
  written out on its own, unmemoized, which ``SkipReplayModel`` now
  takes through the base model's memoized realization;
- :func:`trace_pipeline` — per-cycle pipeline occupancy (which
  instruction executes, what sits in decode and fetch), rendered as an
  ASCII diagram; the tests use it to check Table I's cycle attribution;
- :func:`scalar_operand_columns` — the vector engine's operand table
  filled one word at a time through the scalar decoder, which
  :func:`repro.emu.vector.operand_table` builds as NumPy mask passes;
- :class:`Interpreter` / :class:`IRInterpreter` — MiniC executed at the
  AST and at the IR level, the semantics the compiler and the
  GlitchResistor passes must preserve.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb
from typing import Callable, Optional

import numpy as np

from repro.bits import apply_flip, bits, halfwords_to_bytes, iter_masks, sign_extend
from repro.campaign.harness import SiteHarness
from repro.emu import CPU, Memory
from repro.compiler import ast_nodes as ast
from repro.compiler import ir
from repro.compiler.parser import parse
from repro.compiler.passes.constfold import _BIN, _CMP, WORD_MASK, _c_div, _signed
from repro.compiler.sema import BUILTINS, Program, analyze
from repro.emu import vector as V
from repro.errors import (
    AlignmentFault,
    BadFetch,
    BadRead,
    BadWrite,
    CompileError,
    EmulationFault,
    InvalidInstruction,
    PassError,
)
from repro.exec.cache import CATEGORY_CODES
from repro.glitchsim.campaign import INSTRUCTION_BITS
from repro.glitchsim.harness import (
    _OUTCOME_LIMIT,
    _OUTCOME_NO_EFFECT,
    _OUTCOME_NO_MARKER,
    _OUTCOME_SUCCESS,
    _STEP_LIMIT,
    Outcome,
    SnippetHarness,
)
from repro.glitchsim.snippets import (
    FLASH_BASE,
    NORMAL_MARKER,
    NORMAL_REGISTER,
    SUCCESS_MARKER,
    SUCCESS_REGISTER,
    branch_snippet,
)
from repro.hw.faults import FaultEffect
from repro.isa.decoder import decode
from repro.isa.disassembler import disassemble_one


class _ScalarBatches:
    """Runs a harness's cache-miss batches word by word through ``_execute``.

    Each word keeps its detailed :class:`Outcome`, and no ``vector.*``
    counter is emitted.
    """

    def _execute_vector_batch(self, pending: np.ndarray) -> None:
        for word in pending.tolist():
            outcome = self._execute(word)
            self._cache[word] = outcome
            self._codes[word] = CATEGORY_CODES[outcome.category]


class SnapshotSnippetHarness(_ScalarBatches, SnippetHarness):
    """A :class:`SnippetHarness` whose batches run on the scalar snapshot replay."""


class SnapshotSiteHarness(_ScalarBatches, SiteHarness):
    """A :class:`SiteHarness` whose batches run on the scalar snapshot replay."""


class RebuildSnippetHarness(SnapshotSnippetHarness):
    """A :class:`SnippetHarness` that rebuilds the whole world per word.

    The corrupted snippet runs from reset for the full step budget with no
    marker stops, and classifies by the marker registers alone.  Like its
    base it executes batches word by word, so they never reach the vector
    engine.
    """

    def _execute(self, corrupted_word: int) -> Outcome:
        self.words_executed += 1
        memory, cpu = self._build_world()
        halfwords = list(self._halfwords)
        halfwords[self.snippet.target_index] = corrupted_word
        memory.load(FLASH_BASE, halfwords_to_bytes(halfwords))
        try:
            result = cpu.run(_STEP_LIMIT)
        except InvalidInstruction as exc:
            return Outcome("invalid_instruction", str(exc))
        except BadFetch as exc:
            return Outcome("bad_fetch", str(exc))
        except (BadRead, BadWrite, AlignmentFault) as exc:
            return Outcome("bad_read", str(exc))
        except EmulationFault as exc:
            return Outcome("failed", str(exc))
        if result.reason != "halted":
            return _OUTCOME_LIMIT
        if cpu.regs[SUCCESS_REGISTER] == SUCCESS_MARKER:
            return _OUTCOME_SUCCESS
        if cpu.regs[NORMAL_REGISTER] == NORMAL_MARKER:
            return _OUTCOME_NO_EFFECT
        return _OUTCOME_NO_MARKER


class RebuildSiteHarness(SnapshotSiteHarness):
    """A :class:`SiteHarness` that maps a fresh image per word.

    The corrupted word is poked into a freshly built world and classified
    by the shared :meth:`WordHarness._classify_replay` with the site
    world's full step budget; like :class:`RebuildSnippetHarness` it
    always executes word by word.
    """

    def _execute(self, corrupted_word: int) -> Outcome:
        self.words_executed += 1
        memory, cpu = self._build_world()
        flash = memory.region_at(self.image.base).data
        offset = self.site.address - self.image.base
        flash[offset] = corrupted_word & 0xFF
        flash[offset + 1] = corrupted_word >> 8
        return self._classify_replay(self._snapshot_world(), cpu)


@contextmanager
def _harness_classes(snippet_class, site_class):
    """Swap the harness classes the campaign entry points construct.

    :func:`sweep_instruction`, :func:`run_branch_campaign`,
    :func:`sweep_site` and :func:`run_image_campaign` then build
    ``snippet_class``/``site_class`` harnesses, so a serial
    (``workers=1``) campaign runs unchanged on an oracle.  Only forked
    worker processes inherit the swap; spawned ones import the
    production classes afresh.
    """
    import repro.campaign.image_campaign as image_campaign
    import repro.glitchsim.campaign as branch_campaign

    saved = branch_campaign.SnippetHarness, image_campaign.SiteHarness
    branch_campaign.SnippetHarness = snippet_class
    image_campaign.SiteHarness = site_class
    try:
        yield
    finally:
        branch_campaign.SnippetHarness, image_campaign.SiteHarness = saved


def snapshot_engine():
    """Run in-process campaign sweeps on the scalar snapshot replay."""
    return _harness_classes(SnapshotSnippetHarness, SnapshotSiteHarness)


def rebuild_engine():
    """Run in-process campaign sweeps on the per-word rebuild harnesses."""
    return _harness_classes(RebuildSnippetHarness, RebuildSiteHarness)


@lru_cache(maxsize=64)
def _shared_harness(mnemonic: str, zero_is_invalid: bool) -> SnippetHarness:
    return SnippetHarness(branch_snippet(mnemonic[1:]), zero_is_invalid=zero_is_invalid)


def classify_branch_corruption(
    mnemonic: str, corrupted_word: int, zero_is_invalid: bool = False
) -> Outcome:
    """Classify ``corrupted_word`` in the ``mnemonic`` snippet on a shared harness."""
    return _shared_harness(mnemonic, zero_is_invalid).run(corrupted_word)


def enumerate_by_k(harness, target_word: int, model: str, k_values=None) -> dict:
    """Per-``k`` Counters by applying every mask and classifying it alone."""
    ks = k_values if k_values is not None else tuple(range(INSTRUCTION_BITS + 1))
    by_k = {}
    for k in ks:
        counter: Counter = Counter()
        for mask in iter_masks(INSTRUCTION_BITS, k):
            corrupted = apply_flip(target_word, mask, INSTRUCTION_BITS, model)
            counter[harness.run(corrupted).category] += 1
        by_k[k] = counter
    return by_k


def per_sweep_tally(target: int, model: str, words, codes, categories, k_values=None) -> dict:
    """One sweep's per-``k`` Counters from its own reachable ``words`` and
    their parallel ``codes``, the way campaigns tallied before a world's
    sweeps shared one dense code array: group the words by ``j`` (the
    determined bits the model cleared or set, or the Hamming distance
    under XOR) into ``G[j, code]``, then ``W @ G`` with
    ``W[i, j] = C(free, k_i - j)``."""
    ks = k_values if k_values is not None else tuple(range(INSTRUCTION_BITS + 1))
    width = INSTRUCTION_BITS
    p = bin(target).count("1")
    free = {"and": width - p, "or": p, "xor": 0}[model]
    words = np.asarray(words, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.int64)
    if model == "xor":
        j = np.bitwise_count(words ^ target)
    else:
        if model == "and":
            valid = (words & ~target & 0xFFFF) == 0
            j = p - np.bitwise_count(words[valid])
        else:
            valid = (words & target) == target
            j = np.bitwise_count(words[valid]) - p
        codes = codes[valid]
    ncat = len(categories)
    G = np.bincount(j.astype(np.int64) * ncat + codes, minlength=(width + 1) * ncat)
    G = G.reshape(width + 1, ncat)
    W = np.array([
        [comb(free, k - jj) if 0 <= k - jj <= free else 0 for jj in range(width + 1)]
        for k in ks
    ], dtype=np.int64).reshape(len(ks), width + 1)
    by_k = {}
    for k, row in zip(ks, (W @ G).tolist()):
        by_k[k] = Counter({categories[code]: count for code, count in enumerate(row) if count})
    return by_k


def _class_job_done(kind: str, cpu: CPU) -> bool:
    """Did the instruction-class target do its architectural job?"""
    if kind == "load":
        return cpu.regs[2] == 0xCAFE0042
    if kind == "store":
        try:
            return cpu.memory.read_u32(0x2000_0800) == 0xCAFE0042
        except EmulationFault:
            return False
    if kind == "compare":
        return cpu.regs[3] == 1
    if kind == "alu":
        return cpu.regs[2] == 42
    if kind == "move":
        return cpu.regs[2] == 0x5A
    raise ValueError(kind)


def classify_class_word(halfwords: list[int], index: int, corrupted: int,
                        judge_kind: str) -> str:
    """Bucket one corrupted instruction-class word on a freshly built machine.

    The program runs from reset for 64 steps on the scalar CPU; this is the
    per-word reference for the lock-step batch that
    :func:`repro.glitchsim.instr_classes.sweep_instruction_class` runs.
    """
    from repro.glitchsim import instr_classes

    words = list(halfwords)
    words[index] = corrupted
    flash_base, ram_base = instr_classes.FLASH_BASE, instr_classes.RAM_BASE
    memory = Memory()
    memory.map("flash", flash_base, 0x400, writable=False, executable=True)
    memory.map("ram", ram_base, instr_classes.RAM_SIZE)
    memory.load(flash_base, halfwords_to_bytes(words))
    cpu = CPU(memory)
    cpu.pc = flash_base
    cpu.sp = ram_base + instr_classes.RAM_SIZE
    try:
        outcome = cpu.run(64)
    except (InvalidInstruction, BadFetch, BadRead, BadWrite, AlignmentFault, EmulationFault):
        return "derailed"
    if outcome.reason != "halted":
        return "derailed"
    return "effective" if _class_job_done(judge_kind, cpu) else "silent"


def enumerate_class_sweep(instruction_class: str, model: str = "and", k_values=None):
    """:func:`sweep_instruction_class` by walking every mask one by one."""
    from repro.glitchsim import instr_classes
    from repro.isa import assemble

    source, judge_kind = instr_classes._CLASS_CASES[instruction_class]
    program = assemble(source, base=instr_classes.FLASH_BASE)
    index = (program.symbols["target"] - instr_classes.FLASH_BASE) // 2
    halfwords = program.halfwords
    original = halfwords[index]
    result = instr_classes.ClassSweepResult(instruction_class=instruction_class,
                                            model=model)
    ks = k_values if k_values is not None else tuple(range(17))
    buckets: dict[int, str] = {}
    for k in ks:
        for mask in iter_masks(16, k):
            corrupted = apply_flip(original, mask, 16, model)
            bucket = buckets.get(corrupted)
            if bucket is None:
                bucket = classify_class_word(halfwords, index, corrupted, judge_kind)
                buckets[corrupted] = bucket
            result.attempts += 1
            if bucket == "effective":
                result.still_effective += 1
            elif bucket == "silent":
                result.silent_neutralizations += 1
            else:
                result.derailments += 1
    return result


# ----------------------------------------------------------------------
# the staged hw pipeline cycle
# ----------------------------------------------------------------------

#: effect kinds that attach to the executing slot
_SLOT_KINDS = (
    "load_data", "store_data", "writeback", "branch_decision",
    "cmp_transient", "skip", "replay",
)


def staged_step_cycle(pipeline) -> None:
    """One clock cycle of ``pipeline`` (a ``PipelinedCPU``), stage by stage.

    Completion always goes through ``PipelinedCPU._complete``, with or
    without pending effects; ``step_cycle`` inlines the no-effect case.
    """
    from repro.errors import HardFault

    if pipeline.execute_slot is None:
        pipeline.execute_slot = _issue(pipeline)
        if pipeline.stopped_at is not None:
            return
    if pipeline.execute_slot is not None and pipeline.trace_hook is not None:
        slot = pipeline.execute_slot
        pipeline.trace_hook(pipeline.cycles, slot.address, slot.raw)

    _advance_front_end(pipeline)

    effect = _resolve_glitch(pipeline)
    if effect is not None:
        if effect.kind == "reset":
            raise HardFault(f"glitch-induced reset at cycle {pipeline.cycles}", None)
        pipeline._apply_latch_effect(effect)

    _execute_stage(pipeline, effect)
    pipeline.cycles += 1


def _issue(pipeline):
    from repro.hw.pipeline import _issue_cost, _Slot

    if pipeline.decode_latch is None:
        return None
    address, raw = pipeline.decode_latch
    if len(raw) == 1 and (raw[0] >> 11) == 0b11110:
        return None  # lone BL prefix: wait for its suffix halfword
    pipeline.decode_latch = None
    if address in pipeline.milestone_addresses:
        pipeline.milestones.append((pipeline.cycles, address))
    if address in pipeline.stop_addresses:
        pipeline.stopped_at = address
        return None
    return _Slot(address=address, raw=raw, cycles_left=_issue_cost(raw), pending_effects=[])


def _advance_front_end(pipeline) -> None:
    """Move halfwords toward issue: fetch -> decode, memory -> fetch."""
    if pipeline.decode_latch is None and pipeline.fetch_latch is not None:
        address, halfword = pipeline.fetch_latch
        pipeline.fetch_latch = None
        pipeline.decode_latch = (address, (halfword,))
    elif pipeline.decode_latch is not None and len(pipeline.decode_latch[1]) == 1:
        address, raw = pipeline.decode_latch
        if (raw[0] >> 11) == 0b11110 and pipeline.fetch_latch is not None:
            _, suffix = pipeline.fetch_latch
            pipeline.fetch_latch = None
            pipeline.decode_latch = (address, (raw[0], suffix))

    if pipeline.fetch_latch is None:
        halfword = pipeline.cpu.memory.try_fetch_u16(pipeline.fetch_address)
        if halfword is not None:
            pipeline.fetch_latch = (pipeline.fetch_address, halfword)
            pipeline.fetch_address += 2
        elif pipeline.decode_latch is None and pipeline.execute_slot is None:
            raise BadFetch(
                f"pipeline ran into unmapped memory at {pipeline.fetch_address:#010x}",
                pipeline.fetch_address,
            )


def _resolve_glitch(pipeline):
    if pipeline.glitch_resolver is None:
        return None
    return pipeline.glitch_resolver(pipeline.cycles, _view(pipeline))


def _view(pipeline):
    from repro.hw.pipeline import _VIEWS, _classify_raw

    slot = pipeline.execute_slot
    has_decode = pipeline.decode_latch is not None
    if slot is None:
        return _VIEWS["none", True, has_decode]
    # the front end is free while the slot is in its last cycle
    return _VIEWS[_classify_raw(slot.raw), slot.cycles_left <= 1, has_decode]


def _execute_stage(pipeline, effect) -> None:
    slot = pipeline.execute_slot
    if slot is None:
        return
    if effect is not None and effect.kind in _SLOT_KINDS:
        slot.pending_effects.append(effect)
    slot.cycles_left -= 1
    if slot.cycles_left > 0:
        return
    pipeline._complete(slot)
    pipeline.execute_slot = None


# ----------------------------------------------------------------------
# fault-model rolls
# ----------------------------------------------------------------------

def uniform_roll(seed: int, label: str, *keys: int) -> float:
    """``FaultModel(seed=seed)._uniform(label, *keys)``, hashed on every call."""
    payload = label.encode() + struct.pack(f"<q{len(keys)}q", seed, *keys)
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little") / float(1 << 64)


def skip_replay_effect(
    model, params, rel_cycle: int, view, occurrence: int, window_index: int = 0
) -> Optional[FaultEffect]:
    """``SkipReplayModel(...).effect_at(params, rel_cycle, view, occurrence,
    window_index)``: a crash resets, a follow-up window bites with the
    model's attenuation, and every other bite is the model's one effect
    whatever the pipeline ``view`` shows."""
    decision = model.occurrence_decision(params, rel_cycle)
    if decision is None:
        return None
    if decision == "crash":
        return FaultEffect(kind="reset", rel_cycle=rel_cycle)
    if window_index > 0:
        follow = uniform_roll(
            model.seed, "follow", params.width, params.offset, rel_cycle, window_index,
            occurrence,
        )
        if follow >= model.follow_up_attenuation:
            return None
    return FaultEffect(kind=model.effect, rel_cycle=rel_cycle)


# ----------------------------------------------------------------------
# pipeline occupancy traces
# ----------------------------------------------------------------------

@dataclass
class CycleRecord:
    """Pipeline occupancy at one clock cycle."""

    cycle: int
    execute: Optional[str] = None
    execute_address: Optional[int] = None
    decode: Optional[str] = None
    fetch: Optional[str] = None


@dataclass
class PipelineTrace:
    records: list[CycleRecord] = field(default_factory=list)
    trigger_cycle: Optional[int] = None

    def window(self, start: int, length: int) -> list[CycleRecord]:
        """Records for ``length`` cycles starting at relative cycle ``start``
        (relative to the trigger if one was seen, else absolute)."""
        base = (self.trigger_cycle + 1) if self.trigger_cycle is not None else 0
        lo = base + start
        return [r for r in self.records if lo <= r.cycle < lo + length]

    def render(
        self,
        start: int = 0,
        length: int = 16,
        glitch_cycles: tuple[int, ...] = (),
    ) -> str:
        """ASCII pipeline diagram; ``glitch_cycles`` (relative) get a ⚡ mark."""
        base = (self.trigger_cycle + 1) if self.trigger_cycle is not None else 0
        rows = ["cycle | X | execute              | decode               | fetch"]
        rows.append("-" * 78)
        for record in self.window(start, length):
            rel = record.cycle - base
            mark = "⚡" if rel in glitch_cycles else " "
            rows.append(
                f"{rel:>5} | {mark} | {(record.execute or '-'):<20} | "
                f"{(record.decode or '-'):<20} | {record.fetch or '-'}"
            )
        return "\n".join(rows)


def trace_pipeline(
    board,
    max_cycles: int = 2000,
    stop_after_trigger: Optional[int] = None,
) -> PipelineTrace:
    """Run ``board`` (freshly reset) while recording pipeline occupancy.

    ``stop_after_trigger`` stops that many cycles after the first trigger
    (handy for tracing exactly the paper's 8-cycle loop window).
    """
    board.reset()
    pipeline = board.pipeline
    trace = PipelineTrace()
    trigger_seen: list[int] = []
    board.trigger_callback = lambda value: trigger_seen.append(pipeline.cycles)

    while pipeline.cycles < max_cycles:
        if trigger_seen and stop_after_trigger is not None:
            if pipeline.cycles - trigger_seen[0] > stop_after_trigger:
                break
        record = CycleRecord(cycle=pipeline.cycles)
        slot = pipeline.execute_slot
        if slot is None and pipeline.decode_latch is not None:
            # a 1-cycle instruction will issue+execute this very cycle
            address, raw = pipeline.decode_latch
            if not (len(raw) == 1 and (raw[0] >> 11) == 0b11110):
                record.execute = _safe_disasm(raw)
                record.execute_address = address
        elif slot is not None:
            record.execute = _safe_disasm(slot.raw)
            record.execute_address = slot.address
        if pipeline.decode_latch is not None:
            record.decode = _safe_disasm(pipeline.decode_latch[1])
        if pipeline.fetch_latch is not None:
            record.fetch = _safe_disasm((pipeline.fetch_latch[1],))
        trace.records.append(record)
        try:
            pipeline.step_cycle()
        except Exception:
            break
        if pipeline.stopped_at is not None or board.cpu.halted:
            break
    if trigger_seen:
        trace.trigger_cycle = trigger_seen[0]
    board.persist_nonvolatile()
    return trace


def _safe_disasm(raw: tuple[int, ...]) -> str:
    return disassemble_one(raw[0], raw[1] if len(raw) == 2 else None).split(";")[0].strip()


def operand_row(instr) -> dict:
    """The operand-table row (column -> value) of one decoded instruction.

    Unset columns keep their "unused" value (``-1`` registers and
    condition, ``0`` elsewhere), as in :data:`repro.emu.vector._COLUMNS`.
    """
    m = instr.mnemonic

    def reg(value):
        return -1 if value is None else value

    def row(op, aux=0, rd=-1, rs=-1, base=-1, ro=-1, imm=0, cond=-1, reg_list=0):
        return dict(op=op, aux=aux, rd=rd, rs=rs, base=base, ro=ro,
                    imm=imm, cond=cond, reg_list=reg_list)

    def mask(regs):
        return sum(1 << r for r in regs)

    if m in ("lsls", "lsrs", "asrs") and instr.fmt == 1:
        amount = instr.imm
        if m in ("lsrs", "asrs") and amount == 0:
            amount = 32  # encoding quirk: #0 means shift-by-32
        return row(V.OP_SHIFT_IMM, V._SHIFT_AUX[m], rd=instr.rd, rs=instr.rs, imm=amount)
    if m in ("lsls", "lsrs", "asrs", "rors"):  # format 4 register shifts
        return row(V.OP_SHIFT_REG, V._SHIFT_AUX[m], rd=instr.rd, rs=instr.rs)
    if m in ("adds", "subs"):
        # normalise: the left-hand register always sits in the rs column
        lhs = instr.rs if instr.fmt == 2 else instr.rd
        return row(V.OP_ADDS if m == "adds" else V.OP_SUBS, rd=instr.rd, rs=lhs,
                   ro=reg(instr.ro), imm=instr.imm if instr.ro is None else 0)
    if m == "movs":
        return row(V.OP_MOVS_IMM, rd=instr.rd, imm=instr.imm)
    if m == "cmp":
        if instr.rs is None:
            return row(V.OP_CMP_IMM, rd=instr.rd, imm=instr.imm)
        return row(V.OP_CMP_REG, rd=instr.rd, rs=instr.rs)
    simple = {
        "cmn": V.OP_CMN, "tst": V.OP_TST, "adcs": V.OP_ADC, "sbcs": V.OP_SBC,
        "negs": V.OP_NEG, "muls": V.OP_MUL, "mvns": V.OP_MVN,
    }
    if m in simple:
        return row(simple[m], rd=instr.rd, rs=instr.rs)
    if m in V._LOGIC_AUX:
        return row(V.OP_LOGIC, V._LOGIC_AUX[m], rd=instr.rd, rs=instr.rs)
    if m == "add" and instr.fmt == 5:
        return row(V.OP_HI_ADD, rd=instr.rd, rs=instr.rs)
    if m == "mov" and instr.fmt == 5:
        return row(V.OP_HI_MOV, rd=instr.rd, rs=instr.rs)
    if m in ("bx", "blx"):
        return row(V.OP_BX, 1 if m == "blx" else 0, rs=instr.rs)
    if m in V._LOAD_AUX:
        return row(V.OP_LOAD, V._LOAD_AUX[m], rd=instr.rd, base=reg(instr.base),
                   ro=reg(instr.ro), imm=instr.imm or 0)
    if m in V._STORE_AUX:
        return row(V.OP_STORE, V._STORE_AUX[m], rd=instr.rd, base=reg(instr.base),
                   ro=reg(instr.ro), imm=instr.imm or 0)
    if m == "adr":
        return row(V.OP_ADR, rd=instr.rd, imm=instr.imm)
    if m == "add_sp_imm":
        return row(V.OP_ADD_SP_IMM, rd=instr.rd, imm=instr.imm)
    if m in ("add_sp", "sub_sp"):
        return row(V.OP_ADJ_SP, imm=instr.imm if m == "add_sp" else -instr.imm)
    if m in ("push", "pop"):
        return row(V.OP_PUSH if m == "push" else V.OP_POP, reg_list=mask(instr.reg_list))
    if m in ("stmia", "ldmia"):
        return row(V.OP_STMIA if m == "stmia" else V.OP_LDMIA, base=instr.base,
                   reg_list=mask(instr.reg_list))
    if m.startswith("b") and instr.fmt == 16:
        return row(V.OP_BCOND, cond=instr.cond, imm=instr.imm)
    if m == "b":
        return row(V.OP_B, imm=instr.imm)
    if m == "svc":
        return row(V.OP_SVC, imm=instr.imm)
    if m in ("bkpt", "wfi", "wfe"):
        return row(V.OP_HALT)
    if m in ("nop", "yield", "sev", "cps"):
        return row(V.OP_NOP)
    if m in V._EXTEND_AUX:
        return row(V.OP_EXTEND, V._EXTEND_AUX[m], rd=instr.rd, rs=instr.rs)
    if m in V._REV_AUX:
        return row(V.OP_REV, V._REV_AUX[m], rd=instr.rd, rs=instr.rs)
    raise ValueError(f"no operand row for mnemonic {m!r}")


def scalar_operand_columns(zero_is_invalid: bool) -> dict:
    """Every operand-table column, one scalar :func:`decode` per halfword.

    A BL prefix decodes only with its suffix, so its row is built from
    the encoding (the high offset); an invalid word leaves ``op`` at
    ``OP_INVALID`` and every other column at its unused value.
    """
    columns = {
        name: np.full(1 << 16, fill, dtype=dtype)
        for name, (dtype, fill) in V._COLUMNS.items()
    }
    for hw in range(1 << 16):
        if (hw >> 11) == 0b11110:
            row = {"op": V.OP_BL_PREFIX, "imm": sign_extend(bits(hw, 10, 0), 11) << 12}
        else:
            try:
                instr = decode(hw, None, zero_is_invalid=zero_is_invalid)
            except InvalidInstruction:
                continue
            row = operand_row(instr)
        for name, value in row.items():
            columns[name][hw] = value
    return columns


# ----------------------------------------------------------------------
# MiniC reference interpreters
# ----------------------------------------------------------------------
#
# The AST interpreter executes MiniC directly, with C-like 32-bit integer
# semantics and MMIO routed to a host-provided device map; the IR
# interpreter executes an IRModule. Lowering is checked against the first,
# GlitchResistor's IR transformations against the second, and both
# against compiled code running on the emulator.

class HaltExecution(Exception):
    """Raised by ``__halt()``."""


class StepLimitExceeded(Exception):
    """The interpreter's instruction budget ran out."""


class _ReturnValue(Exception):
    def __init__(self, value: int):
        self.value = value


class _BreakLoop(Exception):
    pass


class _ContinueLoop(Exception):
    pass


@dataclass
class Interpreter:
    """Interprets an analyzed MiniC program."""

    program: Program
    mmio_read: Optional[Callable[[int, int], int]] = None
    mmio_write: Optional[Callable[[int, int, int], None]] = None
    step_limit: int = 1_000_000
    globals: dict[str, int] = field(default_factory=dict)
    steps: int = 0
    call_trace: list[str] = field(default_factory=list)
    _fn_stack: list[str] = field(default_factory=list)
    _local_unsigned: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for info in self.program.globals.values():
            self.globals[info.name] = info.initial

    # ------------------------------------------------------------------

    @classmethod
    def from_source(cls, source: str, **kwargs) -> "Interpreter":
        return cls(program=analyze(parse(source)), **kwargs)

    def run(self, entry: str = "main", args: tuple[int, ...] = ()) -> Optional[int]:
        """Call ``entry``; returns its value (None for void / on __halt)."""
        try:
            return self.call(entry, args)
        except HaltExecution:
            return None

    def call(self, name: str, args: tuple[int, ...] = ()) -> Optional[int]:
        function = self.program.unit.function(name)
        if len(args) != len(function.params):
            raise CompileError(f"{name!r} expects {len(function.params)} args")
        self.call_trace.append(name)
        self._fn_stack.append(name)
        scope = {param.name: value & WORD_MASK for param, value in zip(function.params, args)}
        for param in function.params:
            self._local_unsigned[(name, param.name)] = not param.ctype.signed
        try:
            self._exec_block(function.body, [scope])
        except _ReturnValue as ret:
            return None if function.return_type.is_void else ret.value & WORD_MASK
        finally:
            self._fn_stack.pop()
        return None if function.return_type.is_void else 0

    # ------------------------------------------------------------------

    def _tick(self, line: int) -> None:
        self.steps += 1
        if self.steps > self.step_limit:
            raise StepLimitExceeded(f"exceeded {self.step_limit} steps near line {line}")

    def _exec_block(self, block: ast.Block, scopes: list[dict[str, int]]) -> None:
        scopes.append({})
        try:
            for statement in block.statements:
                self._exec_stmt(statement, scopes)
        finally:
            scopes.pop()

    def _exec_stmt(self, stmt: ast.Stmt, scopes: list[dict[str, int]]) -> None:
        self._tick(stmt.line)
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, scopes)
        elif isinstance(stmt, ast.Declaration):
            value = self._eval(stmt.init, scopes) if stmt.init is not None else 0
            scopes[-1][stmt.name] = value & WORD_MASK
            if self._fn_stack:
                self._local_unsigned[(self._fn_stack[-1], stmt.name)] = not stmt.ctype.signed
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, scopes)
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.cond, scopes):
                self._exec_stmt(stmt.then, scopes)
            elif stmt.other is not None:
                self._exec_stmt(stmt.other, scopes)
        elif isinstance(stmt, ast.While):
            while self._eval(stmt.cond, scopes):
                self._tick(stmt.line)
                try:
                    self._exec_stmt(stmt.body, scopes)
                except _BreakLoop:
                    break
                except _ContinueLoop:
                    continue
        elif isinstance(stmt, ast.For):
            scopes.append({})
            try:
                if stmt.init is not None:
                    self._exec_stmt(stmt.init, scopes)
                while stmt.cond is None or self._eval(stmt.cond, scopes):
                    self._tick(stmt.line)
                    try:
                        self._exec_stmt(stmt.body, scopes)
                    except _BreakLoop:
                        break
                    except _ContinueLoop:
                        pass
                    if stmt.step is not None:
                        self._eval(stmt.step, scopes)
            finally:
                scopes.pop()
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, scopes) if stmt.value is not None else 0
            raise _ReturnValue(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakLoop()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueLoop()
        else:  # pragma: no cover
            raise CompileError(f"cannot interpret {stmt!r}", stmt.line)

    # ------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, scopes: list[dict[str, int]]) -> int:
        self._tick(expr.line)
        if isinstance(expr, ast.NumberLit):
            return expr.value & WORD_MASK
        if isinstance(expr, ast.Name):
            return self._read_name(expr, scopes)
        if isinstance(expr, ast.Unary):
            operand = self._eval(expr.operand, scopes)
            if expr.op == "-":
                return (-operand) & WORD_MASK
            if expr.op == "~":
                return (~operand) & WORD_MASK
            if expr.op == "!":
                return 0 if operand else 1
            raise CompileError(f"unsupported unary {expr.op!r}", expr.line)
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, scopes)
        if isinstance(expr, ast.Conditional):
            if self._eval(expr.cond, scopes):
                return self._eval(expr.then, scopes)
            return self._eval(expr.other, scopes)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, scopes)
        if isinstance(expr, ast.MMIODeref):
            address = self._eval(expr.address, scopes)
            width = max(1, expr.target_type.size)
            if self.mmio_read is None:
                raise CompileError(f"MMIO read at {address:#x} without a device map", expr.line)
            value = self.mmio_read(address, width) & ((1 << (8 * width)) - 1)
            if expr.target_type.signed and value & (1 << (8 * width - 1)):
                value -= 1 << (8 * width)
            return value & WORD_MASK
        if isinstance(expr, ast.Assign):
            return self._eval_assign(expr, scopes)
        raise CompileError(f"cannot interpret {expr!r}", expr.line)  # pragma: no cover

    def _read_name(self, expr: ast.Name, scopes: list[dict[str, int]]) -> int:
        for scope in reversed(scopes):
            if expr.ident in scope:
                return scope[expr.ident]
        if expr.ident in self.program.enum_values:
            return self.program.enum_values[expr.ident] & WORD_MASK
        info = self.program.globals.get(expr.ident)
        if info is None:
            raise CompileError(f"undefined identifier {expr.ident!r}", expr.line)
        raw = self.globals[expr.ident] & ((1 << (8 * info.ctype.size)) - 1)
        if info.ctype.signed and raw & (1 << (8 * info.ctype.size - 1)):
            raw -= 1 << (8 * info.ctype.size)
        return raw & WORD_MASK

    def _eval_binary(self, expr: ast.Binary, scopes: list[dict[str, int]]) -> int:
        if expr.op == "&&":
            return int(bool(self._eval(expr.left, scopes)) and bool(self._eval(expr.right, scopes)))
        if expr.op == "||":
            return int(bool(self._eval(expr.left, scopes)) or bool(self._eval(expr.right, scopes)))
        left = self._eval(expr.left, scopes)
        right = self._eval(expr.right, scopes)
        unsigned = self._is_unsigned(expr.left, scopes) or self._is_unsigned(expr.right, scopes)
        op = expr.op
        if op == "+":
            return (left + right) & WORD_MASK
        if op == "-":
            return (left - right) & WORD_MASK
        if op == "*":
            return (left * right) & WORD_MASK
        if op == "/":
            if unsigned:
                if right == 0:
                    raise ZeroDivisionError("division by zero")
                return (left // right) & WORD_MASK
            return _c_div(_signed(left), _signed(right)) & WORD_MASK
        if op == "%":
            if unsigned:
                if right == 0:
                    raise ZeroDivisionError("modulo by zero")
                return (left % right) & WORD_MASK
            signed_left, signed_right = _signed(left), _signed(right)
            return (signed_left - _c_div(signed_left, signed_right) * signed_right) & WORD_MASK
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<<":
            return (left << (right & 31)) & WORD_MASK
        if op == ">>":
            if unsigned:
                return left >> (right & 31)
            return (_signed(left) >> (right & 31)) & WORD_MASK
        comparisons = {
            "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
        }
        if op in comparisons:
            if unsigned:
                return int(comparisons[op](left, right))
            return int(comparisons[op](_signed(left), _signed(right)))
        raise CompileError(f"unsupported operator {op!r}", expr.line)

    def _is_unsigned(self, expr: ast.Expr, scopes: list[dict[str, int]]) -> bool:
        if isinstance(expr, ast.NumberLit):
            return expr.value >= (1 << 31)
        if isinstance(expr, ast.Name):
            if self._fn_stack:
                key = (self._fn_stack[-1], expr.ident)
                if key in self._local_unsigned:
                    return self._local_unsigned[key]
            info = self.program.globals.get(expr.ident)
            return info is not None and not info.ctype.signed
        if isinstance(expr, ast.MMIODeref):
            return not expr.target_type.signed
        if isinstance(expr, ast.Binary):
            if expr.op in ("&&", "||", "==", "!=", "<", "<=", ">", ">="):
                return False
            return self._is_unsigned(expr.left, scopes) or self._is_unsigned(expr.right, scopes)
        if isinstance(expr, ast.Call):
            info = self.program.functions.get(expr.func)
            return info is not None and not info.return_type.signed
        if isinstance(expr, ast.Assign):
            return self._is_unsigned(expr.value, scopes)
        if isinstance(expr, ast.Unary):
            return self._is_unsigned(expr.operand, scopes) and expr.op != "!"
        return False

    def _eval_call(self, expr: ast.Call, scopes: list[dict[str, int]]) -> int:
        if expr.func == "__halt":
            raise HaltExecution()
        if expr.func == "__nop":
            return 0
        if expr.func in BUILTINS and expr.func not in self.program.functions:
            return 0
        args = tuple(self._eval(arg, scopes) for arg in expr.args)
        result = self.call(expr.func, args)
        return 0 if result is None else result

    def _eval_assign(self, expr: ast.Assign, scopes: list[dict[str, int]]) -> int:
        if expr.op != "=":
            read: ast.Expr
            if isinstance(expr.lhs, ast.Name):
                read = ast.Name(line=expr.line, ident=expr.lhs.ident)
            else:
                read = ast.MMIODeref(
                    line=expr.line, target_type=expr.lhs.target_type, address=expr.lhs.address
                )
            value = self._eval(
                ast.Binary(line=expr.line, op=expr.op[:-1], left=read, right=expr.value),
                scopes,
            )
        else:
            value = self._eval(expr.value, scopes)

        if isinstance(expr.lhs, ast.Name):
            for scope in reversed(scopes):
                if expr.lhs.ident in scope:
                    scope[expr.lhs.ident] = value & WORD_MASK
                    return value & WORD_MASK
            info = self.program.globals.get(expr.lhs.ident)
            if info is None:
                raise CompileError(f"undefined identifier {expr.lhs.ident!r}", expr.line)
            self.globals[expr.lhs.ident] = value & ((1 << (8 * info.ctype.size)) - 1)
            return value & WORD_MASK
        address = self._eval(expr.lhs.address, scopes)
        width = max(1, expr.lhs.target_type.size)
        if self.mmio_write is None:
            raise CompileError(f"MMIO write at {address:#x} without a device map", expr.line)
        self.mmio_write(address, width, value & ((1 << (8 * width)) - 1))
        return value & WORD_MASK


class IRHalt(Exception):
    """Raised by the ``halt`` instruction."""


class IRStepLimit(Exception):
    pass


@dataclass
class IRInterpreter:
    module: ir.IRModule
    mmio_read: Optional[Callable[[int, int], int]] = None
    mmio_write: Optional[Callable[[int, int, int], None]] = None
    step_limit: int = 2_000_000
    globals: dict[str, int] = field(default_factory=dict)
    steps: int = 0
    call_trace: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for info in self.module.globals.values():
            self.globals.setdefault(info.name, info.initial)

    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args: tuple[int, ...] = ()) -> Optional[int]:
        try:
            return self.call(entry, args)
        except IRHalt:
            return None

    def call(self, name: str, args: tuple[int, ...] = ()) -> Optional[int]:
        function = self.module.functions.get(name)
        if function is None:
            if name == "__nop":
                return None
            raise PassError(f"call to unknown IR function {name!r}")
        if len(args) != function.param_count:
            raise PassError(f"{name!r} expects {function.param_count} args, got {len(args)}")
        self.call_trace.append(name)
        temps: dict[int, int] = {}
        slots: dict[int, int] = {i: (args[i] & WORD_MASK) for i in range(len(args))}
        label = function.entry
        while True:
            block = function.blocks.get(label)
            if block is None:
                raise PassError(f"jump to unknown block {label!r} in {name!r}")
            for instr in block.instrs:
                self.steps += 1
                if self.steps > self.step_limit:
                    raise IRStepLimit(f"exceeded {self.step_limit} IR steps")
                self._execute(instr, temps, slots)
            terminator = block.terminator
            if isinstance(terminator, ir.Jump):
                label = terminator.target
            elif isinstance(terminator, ir.CondBr):
                label = terminator.if_true if temps[terminator.cond] else terminator.if_false
            elif isinstance(terminator, ir.Ret):
                if terminator.operand is None:
                    return None
                return temps[terminator.operand] & WORD_MASK
            elif isinstance(terminator, ir.Unreachable):
                raise PassError(f"executed unreachable in {name!r}")
            else:
                raise PassError(f"block {label!r} has no terminator")

    # ------------------------------------------------------------------

    def _execute(self, instr: ir.Instr, temps: dict[int, int], slots: dict[int, int]) -> None:
        if isinstance(instr, ir.Const):
            temps[instr.result] = instr.value & WORD_MASK
        elif isinstance(instr, ir.BinOp):
            temps[instr.result] = _BIN[instr.op](temps[instr.lhs], temps[instr.rhs]) & WORD_MASK
        elif isinstance(instr, ir.Cmp):
            temps[instr.result] = int(_CMP[instr.op](temps[instr.lhs], temps[instr.rhs]))
        elif isinstance(instr, ir.LoadLocal):
            temps[instr.result] = slots.get(instr.slot, 0)
        elif isinstance(instr, ir.StoreLocal):
            slots[instr.slot] = temps[instr.operand] & WORD_MASK
        elif isinstance(instr, ir.LoadGlobal):
            raw = self.globals.get(instr.name, 0) & ((1 << (8 * instr.width)) - 1)
            if instr.signed and raw & (1 << (8 * instr.width - 1)):
                raw -= 1 << (8 * instr.width)
            temps[instr.result] = raw & WORD_MASK
        elif isinstance(instr, ir.StoreGlobal):
            self.globals[instr.name] = temps[instr.operand] & ((1 << (8 * instr.width)) - 1)
        elif isinstance(instr, ir.RawLoad):
            if self.mmio_read is None:
                raise PassError("mmio_load without a device map")
            value = self.mmio_read(temps[instr.address], instr.width)
            value &= (1 << (8 * instr.width)) - 1
            if instr.signed and value & (1 << (8 * instr.width - 1)):
                value -= 1 << (8 * instr.width)
            temps[instr.result] = value & WORD_MASK
        elif isinstance(instr, ir.RawStore):
            if self.mmio_write is None:
                raise PassError("mmio_store without a device map")
            self.mmio_write(
                temps[instr.address],
                instr.width,
                temps[instr.operand] & ((1 << (8 * instr.width)) - 1),
            )
        elif isinstance(instr, ir.Call):
            result = self.call(instr.func, tuple(temps[a] for a in instr.args))
            if instr.result is not None:
                temps[instr.result] = 0 if result is None else result & WORD_MASK
        elif isinstance(instr, ir.Halt):
            raise IRHalt()
        else:  # pragma: no cover
            raise PassError(f"unknown IR instruction {instr!r}")
