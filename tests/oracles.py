"""Reference implementations the emulation fast paths are checked against.

Production code classifies corrupted words with two engines (``snapshot``
replay and the NumPy ``vector`` batch) and derives mask-sweep tallies in
closed form from the unique reachable words.  The slow, obviously correct
versions those replaced live here, so the differential tests and the
speedup benchmarks keep comparing against them on the same inputs:

- :class:`RebuildSnippetHarness` / :class:`RebuildSiteHarness` — the
  per-word world rebuild: a fresh ``Memory``/``CPU`` for every corrupted
  word, run from reset;
- :func:`rebuild_engine` — routes the campaign entry points' in-process sweeps
  onto those harnesses, so whole campaigns (tallies *and* observability
  counters) can be compared;
- :func:`enumerate_by_k` / :func:`enumerate_class_sweep` — the full mask
  enumeration that :func:`repro.glitchsim.campaign.tally_reachable` and
  the instruction-class sweep replace;
- :func:`staged_step_cycle` — the hw pipeline's clock cycle as four
  separate stages (issue, front end, glitch, execute), which
  :meth:`repro.hw.pipeline.PipelinedCPU.step_cycle` runs as one flat
  method.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from repro.bits import apply_flip, halfwords_to_bytes, iter_masks
from repro.campaign.harness import SiteHarness
from repro.errors import (
    AlignmentFault,
    BadFetch,
    BadRead,
    BadWrite,
    EmulationFault,
    InvalidInstruction,
)
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
)


class RebuildSnippetHarness(SnippetHarness):
    """A :class:`SnippetHarness` that rebuilds the whole world per word.

    The corrupted snippet runs from reset for the full step budget with no
    marker stops, and classifies by the marker registers alone.  It always
    executes word by word (``engine`` is accepted and ignored), so batches
    never reach the vector engine.
    """

    def __init__(self, snippet, zero_is_invalid=False, disk_cache=None, engine=None):
        super().__init__(snippet, zero_is_invalid=zero_is_invalid, disk_cache=disk_cache)

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


class RebuildSiteHarness(SiteHarness):
    """A :class:`SiteHarness` that maps a fresh image per word.

    The corrupted word is poked into a freshly built world and classified
    with the full step budget; like :class:`RebuildSnippetHarness` it
    always executes word by word.
    """

    def __init__(self, image, site, zero_is_invalid=False, disk_cache=None, engine=None):
        super().__init__(image, site, zero_is_invalid=zero_is_invalid,
                         disk_cache=disk_cache)

    def _execute(self, corrupted_word: int) -> Outcome:
        self.words_executed += 1
        memory, cpu = self._build_world()
        flash = memory.region_at(self.image.base).data
        offset = self.site.address - self.image.base
        flash[offset] = corrupted_word & 0xFF
        flash[offset + 1] = corrupted_word >> 8
        return self._classify_site(cpu, _STEP_LIMIT)


@contextmanager
def rebuild_engine():
    """Run in-process campaign sweeps on the rebuild harnesses.

    Swaps the harness classes that :func:`sweep_instruction` and
    :func:`sweep_site` construct, so a serial (``workers=1``) campaign
    runs unchanged on the oracle; worker processes are unaffected.
    """
    import repro.campaign.image_campaign as image_campaign
    import repro.glitchsim.campaign as branch_campaign

    saved = branch_campaign.SnippetHarness, image_campaign.SiteHarness
    branch_campaign.SnippetHarness = RebuildSnippetHarness
    image_campaign.SiteHarness = RebuildSiteHarness
    try:
        yield
    finally:
        branch_campaign.SnippetHarness, image_campaign.SiteHarness = saved


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
                bucket = instr_classes._classify(halfwords, index, corrupted, judge_kind)
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
