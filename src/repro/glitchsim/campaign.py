"""Exhaustive bit-flip campaigns over instruction encodings (Section IV).

For an instruction of ``n`` bits the campaign covers every
:math:`\\binom{n}{k}` mask for every ``k``, applies it under a flip model
(AND / OR / XOR), executes the corrupted snippet, and tallies outcomes.

The executed outcome depends only on the *resulting* corrupted word, so the
campaign never needs to enumerate masks at all: it classifies only the
*unique reachable corrupted words* (``repro.glitchsim.maskalgebra``) — at
most 2^16 per replay world, shared across all three flip models — and
derives the per-``k`` mask tallies in closed form, bit-identical to
walking every mask (the test suite keeps that mask loop as its oracle).

A word's outcome depends only on the *replay world*, the machine paused
at the target slot (:meth:`WordHarness.world_digest`). Many branch
snippets share one: the 14 Figure 2 snippets have 5 distinct worlds
(``eq``; ``ne cs pl vc hi ge gt``; ``cc mi lt le``; ``vs``; ``ls``).
:func:`run_branch_campaign` therefore makes one work unit per world, not
per branch: the unit builds one harness and sweeps every member branch on
it, so each corrupted word of a world is emulated once per campaign.
Checkpoint records, quarantine and outcome-cache shards are per world too;
the sweeps are re-emitted in condition order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.exec import (
    FailedUnit,
    OutcomeCache,
    ParallelExecutor,
    ProgressReporter,
    coerce_cache,
    open_campaign_checkpoint,
)
from repro.exec.cache import CODE_CATEGORIES, count_cache_traffic
from repro.glitchsim.harness import ENGINES, OUTCOME_CATEGORIES, SnippetHarness, WordHarness
from repro.glitchsim.maskalgebra import MODELS, reachable_words, tally_from_word_codes
from repro.glitchsim.snippets import BranchSnippet, all_branch_snippets
from repro.obs import Observer, activate, coerce_observer, current

INSTRUCTION_BITS = 16


@dataclass
class InstructionSweep:
    """Aggregated outcomes for one instruction under one flip model."""

    mnemonic: str
    model: str
    target_word: int
    zero_is_invalid: bool = False
    #: per flip-count k: Counter of outcome categories
    by_k: dict[int, Counter] = field(default_factory=dict)

    @property
    def totals(self) -> Counter:
        total: Counter = Counter()
        for counter in self.by_k.values():
            total.update(counter)
        return total

    def success_rate(self, k: int | None = None) -> float:
        """Fraction of masks classified *success* (overall, or for one ``k``)."""
        counter = self.totals if k is None else self.by_k.get(k, Counter())
        attempts = sum(counter.values())
        if attempts == 0:
            return 0.0
        return counter.get("success", 0) / attempts

    def category_fractions(self) -> dict[str, float]:
        """Overall fraction per outcome category (the Figure 2 histograms)."""
        totals = self.totals
        attempts = sum(totals.values())
        if attempts == 0:
            return {category: 0.0 for category in OUTCOME_CATEGORIES}
        return {category: totals.get(category, 0) / attempts for category in OUTCOME_CATEGORIES}


@dataclass
class CampaignResult:
    """One full campaign: every conditional branch under one flip model."""

    model: str
    zero_is_invalid: bool
    sweeps: list[InstructionSweep]
    #: specs quarantined after exhausting their retries (never aborts the run)
    failed_units: list[FailedUnit] = field(default_factory=list)

    def sweep_for(self, mnemonic: str) -> InstructionSweep:
        for sweep in self.sweeps:
            if sweep.mnemonic == mnemonic:
                return sweep
        raise KeyError(mnemonic)

    def ranked_by_success(self) -> list[InstructionSweep]:
        return sorted(self.sweeps, key=lambda s: s.success_rate(), reverse=True)


def check_campaign_args(models, engine: str) -> None:
    """Raise ``ValueError`` for an unknown flip model or engine.

    Campaign entry points call this before their executor starts: inside a
    work unit the error would be quarantined as a unit failure and the
    campaign would return a hollow result instead of raising.
    """
    unknown = [model for model in models if model not in MODELS]
    if unknown:
        raise ValueError(f"unknown flip model(s) {unknown}; expected one of {MODELS}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")


def tally_reachable(
    harness: WordHarness, target_word: int, model: str, k_values: tuple[int, ...] | None
) -> dict[int, Counter]:
    """Per-``k`` outcome Counters for every mask over ``target_word``.

    Classifies only the unique reachable corrupted words
    (:func:`repro.glitchsim.maskalgebra.reachable_words`) in one batched
    :meth:`WordHarness.run_many_codes` pass and derives each mask tally in
    closed form — bit-identical to enumerating every mask. Emits the
    ambient counters ``algebra.words_emulated`` (fresh emulations) and
    ``algebra.masks_derived`` (masks accounted for arithmetically).
    ``k_values=None`` means the full ``0..16`` range.
    """
    ks = k_values if k_values is not None else tuple(range(INSTRUCTION_BITS + 1))
    words = reachable_words(target_word, model, INSTRUCTION_BITS, ks)
    executed_before = harness.words_executed
    unique, codes = harness.run_many_codes(words)
    by_k = tally_from_word_codes(
        target_word, model, unique, codes, CODE_CATEGORIES, ks, INSTRUCTION_BITS,
    )
    obs = current()
    obs.count("algebra.words_emulated", harness.words_executed - executed_before)
    obs.count(
        "algebra.masks_derived", sum(sum(counter.values()) for counter in by_k.values())
    )
    return by_k


def sweep_instruction(
    snippet: BranchSnippet,
    model: str,
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    cache: OutcomeCache | None = None,
    engine: str = "snapshot",
    harness: WordHarness | None = None,
) -> InstructionSweep:
    """Sweep every mask of every flip count ``k`` for one instruction.

    ``k_values`` restricts the sweep (useful for fast tests); ``None`` means
    the full ``0..16`` range the paper used. ``cache`` adds a persistent
    outcome store shared across models and runs (words the AND sweep already
    executed are free for XOR). ``engine`` picks the harness execution
    engine (``"snapshot"``/``"vector"``); both tally identically. The
    tallies come from :func:`tally_reachable`.

    ``harness`` classifies on an already-built harness instead of a fresh
    one for ``snippet`` (its own cache and engine then apply): any harness
    whose :meth:`WordHarness.world_digest` equals this snippet's, built
    with the same ``zero_is_invalid``, tallies identically, and words it
    already emulated are free.
    """
    if harness is None:
        harness = SnippetHarness(
            snippet, zero_is_invalid=zero_is_invalid, disk_cache=cache, engine=engine
        )
    return InstructionSweep(
        mnemonic=snippet.mnemonic,
        model=model,
        target_word=snippet.target_word,
        zero_is_invalid=zero_is_invalid,
        by_k=tally_reachable(harness, snippet.target_word, model, k_values),
    )


@dataclass(frozen=True)
class _WorldSpec:
    """Picklable work unit: the sweeps of every branch sharing one world."""

    mnemonics: tuple[str, ...]  # members, in condition order
    model: str
    zero_is_invalid: bool
    k_values: Optional[tuple[int, ...]]
    cache_root: Optional[str]
    engine: str = "snapshot"


def _sweep_world(
    spec: _WorldSpec, snippets: list[BranchSnippet], harness: WordHarness
) -> list[InstructionSweep]:
    """Sweep every member branch of one world on its shared harness."""
    return [
        sweep_instruction(
            snippet, spec.model, zero_is_invalid=spec.zero_is_invalid,
            k_values=spec.k_values, harness=harness,
        )
        for snippet in snippets
    ]


def _world_unit(spec: _WorldSpec) -> list[InstructionSweep]:
    """Worker entry point: rebuild the snippets, harness and cache in-process."""
    from repro.glitchsim.snippets import branch_snippet

    snippets = [branch_snippet(mnemonic[1:]) for mnemonic in spec.mnemonics]
    cache = OutcomeCache(spec.cache_root) if spec.cache_root is not None else None
    try:
        harness = SnippetHarness(
            snippets[0], zero_is_invalid=spec.zero_is_invalid,
            disk_cache=cache, engine=spec.engine,
        )
        return _sweep_world(spec, snippets, harness)
    finally:
        # per-word outcomes already computed survive even if the sweep raised;
        # the unit's cache traffic (all of this fresh handle's) goes to the
        # ambient (worker-local) observer, and the envelope carries it back
        if cache is not None:
            cache.flush()
            count_cache_traffic(current(), cache, {})


def _world_totals(sweeps: list[InstructionSweep]) -> Counter:
    total: Counter = Counter()
    for sweep in sweeps:
        total.update(sweep.totals)
    return total


def _encode_world(sweeps: list[InstructionSweep]) -> list[dict]:
    """JSON-able checkpoint payload for one completed world unit."""
    return [_encode_sweep(sweep) for sweep in sweeps]


def _decode_world(payload: list[dict]) -> list[InstructionSweep]:
    return [_decode_sweep(entry) for entry in payload]


def _encode_sweep(sweep: InstructionSweep) -> dict:
    """JSON-able checkpoint payload for one completed instruction sweep."""
    return {
        "mnemonic": sweep.mnemonic,
        "model": sweep.model,
        "target_word": sweep.target_word,
        "zero_is_invalid": sweep.zero_is_invalid,
        "by_k": {str(k): dict(counter) for k, counter in sweep.by_k.items()},
    }


def _decode_sweep(payload: dict) -> InstructionSweep:
    return InstructionSweep(
        mnemonic=payload["mnemonic"],
        model=payload["model"],
        target_word=payload["target_word"],
        zero_is_invalid=payload["zero_is_invalid"],
        by_k={int(k): Counter(counts) for k, counts in payload["by_k"].items()},
    )


def run_branch_campaign(
    model: str,
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    conditions: list[str] | None = None,
    workers: int = 1,
    cache: OutcomeCache | str | None = None,
    progress: ProgressReporter | None = None,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: float | None = None,
    obs: Observer | None = None,
    engine: str = "snapshot",
    chunk_size: int | None = None,
) -> CampaignResult:
    """Run the Figure 2 campaign for all (or selected) conditional branches.

    The selected branches are grouped by :meth:`WordHarness.world_digest`
    into one work unit per replay world (5 for all 14 branches); a unit
    sweeps every member branch on one shared harness. ``workers`` fans the
    units out over processes (each unit owns its world's cache shard, so
    workers never contend on a file). Sweeps are re-emitted in condition
    order, so ``workers=1`` and ``workers=N`` produce identical campaigns.

    ``checkpoint_dir``/``resume`` persist each completed world unit to a
    JSONL checkpoint (keyed by its member mnemonics, e.g. ``beq`` or
    ``bcc+bmi+blt+ble``) and replay recorded units on resume, so an
    interrupted campaign restarts only its missing worlds and merges to
    tallies identical to an uninterrupted run. ``retries`` grants a
    failing unit extra attempts (exponential backoff) before it is
    quarantined into ``CampaignResult.failed_units`` — whose spec names
    every member branch, all absent from the sweeps; ``unit_timeout``
    bounds a unit's wall-clock seconds on the multiprocessing path.

    ``obs`` (a :class:`repro.obs.Observer`) traces the campaign span and
    tallies attempts, outcome categories, cache hits/misses, retries,
    and quarantines — identically for any worker count.

    ``engine`` selects the harness execution engine (``"snapshot"``
    replays one cached machine per world, ``"vector"`` runs whole
    batches lock-step on the NumPy backend). It is not part of the
    checkpoint fingerprint: tallies are bit-identical across engines, so
    a resumed campaign may switch freely.

    An unknown ``model``, ``engine`` or condition raises ``ValueError``
    before any work starts.

    ``chunk_size`` is handed to the :class:`ParallelExecutor` (``None`` =
    auto: about four chunks per worker).
    """
    check_campaign_args((model,), engine)
    obs = coerce_observer(obs)
    snippets = all_branch_snippets()
    if conditions is not None:
        wanted = {c: f"b{c}" if not c.startswith("b") else c for c in conditions}
        known = {s.mnemonic for s in snippets}
        unknown = [c for c, mnemonic in wanted.items() if mnemonic not in known]
        if unknown:
            raise ValueError(f"unknown branch condition(s) {unknown}")
        snippets = [s for s in snippets if s.mnemonic in wanted.values()]
    cache = coerce_cache(cache)
    cache_root = str(cache.root) if cache is not None else None
    ks = tuple(k_values) if k_values is not None else None
    # group by replay world; the serial path sweeps on each world's first harness
    worlds: dict[str, tuple[SnippetHarness, list[BranchSnippet]]] = {}
    for snippet in snippets:
        harness = SnippetHarness(
            snippet, zero_is_invalid=zero_is_invalid, disk_cache=cache, engine=engine
        )
        worlds.setdefault(harness.world_digest(), (harness, []))[1].append(snippet)
    units = {
        tuple(snippet.mnemonic for snippet in members): (shared, members)
        for shared, members in worlds.values()
    }
    specs = [
        _WorldSpec(mnemonics, model, zero_is_invalid, ks, cache_root, engine)
        for mnemonics in units
    ]

    checkpoint = None
    if checkpoint_dir is not None or resume:
        meta = {
            "campaign": "branch",
            "model": model,
            "zero_is_invalid": zero_is_invalid,
            "k_values": list(ks) if ks is not None else None,
            "conditions": sorted(snippet.mnemonic for snippet in snippets),
        }
        checkpoint = open_campaign_checkpoint(
            checkpoint_dir, f"branch-{model}", meta, resume=resume
        )

    def serial(spec: _WorldSpec) -> list[InstructionSweep]:
        # in-process: reuse the built harnesses and the shared cache handle;
        # activate the campaign observer so the ambient algebra counters
        # land on it exactly as the worker-envelope path reports them
        shared, members = units[spec.mnemonics]
        with activate(obs):
            return _sweep_world(spec, members, shared)

    executor = ParallelExecutor(
        workers=workers, chunk_size=chunk_size, progress=progress,
        retries=retries, unit_timeout=unit_timeout, on_error="quarantine",
        obs=obs,
    )
    # serial units reuse the shared cache handle, so their cache traffic
    # lands on the handle's counters rather than the ambient worker
    # observer — count the deltas here. (The parallel path never touches
    # the shared handle; workers report via their envelopes.)
    cache_before = cache.counters() if cache is not None else {}
    try:
        with obs.trace(f"campaign.branch[{model}]", model=model,
                       zero_is_invalid=zero_is_invalid, units=len(specs)):
            results = executor.map(
                _world_unit,
                specs,
                serial_fn=serial,
                attempts_of=lambda sweeps: sum(_world_totals(sweeps).values()),
                categories_of=lambda sweeps: dict(_world_totals(sweeps)),
                checkpoint=checkpoint,
                key_of=lambda spec: "+".join(spec.mnemonics),
                encode=_encode_world,
                decode=_decode_world,
            )
    finally:
        # SIGINT / worker crash must not discard dirty shards or the checkpoint
        if cache is not None:
            cache.flush()
            count_cache_traffic(obs, cache, cache_before)
        if checkpoint is not None:
            checkpoint.close()
    done = {sweep.mnemonic: sweep for sweeps in results if sweeps for sweep in sweeps}
    return CampaignResult(
        model=model,
        zero_is_invalid=zero_is_invalid,
        sweeps=[done[s.mnemonic] for s in snippets if s.mnemonic in done],
        failed_units=list(executor.failed_units),
    )


__all__ = [
    "InstructionSweep",
    "CampaignResult",
    "sweep_instruction",
    "tally_reachable",
    "run_branch_campaign",
]
