"""Exhaustive bit-flip campaigns over instruction encodings (Section IV).

For an instruction of ``n`` bits the campaign covers every
:math:`\\binom{n}{k}` mask for every ``k``, applies it under a flip model
(AND / OR / XOR), executes the corrupted snippet, and tallies outcomes.

The executed outcome depends only on the *resulting* corrupted word, so the
campaign never needs to enumerate masks at all: it classifies only the
*unique reachable corrupted words* (``repro.glitchsim.maskalgebra``) — at
most 2^16 per replay world, whatever the flip models — and
derives the per-``k`` mask tallies in closed form, bit-identical to
walking every mask (the test suite keeps that mask loop as its oracle).

A word's outcome depends only on the *replay world*, the machine paused
at the target slot in one decode mode (:meth:`WordHarness.world_digest`).
Many branch snippets share one: the 14 Figure 2 snippets have 5 distinct
worlds (``eq``; ``ne cs pl vc hi ge gt``; ``cc mi lt le``; ``vs``;
``ls``). A campaign therefore makes one work unit per world, not per
branch, covering every panel (flip model and decode mode) it runs: per
decode mode the unit builds one harness, classifies the union of its
(member, model) sweeps' reachable words in one batch and tallies every
sweep from the harness's one dense code array (a word's group ``j`` is
its Hamming distance to the target under every model). The
0x0000-invalid harness takes its codes from the plain decoder's batch,
so each corrupted word of a world is emulated once per campaign.
Checkpoint records and quarantine are per world too, outcome-cache
shards per world and decode mode; the sweeps are re-emitted in
condition order. The whole-image campaign
(:mod:`repro.campaign.image_campaign`) runs each site as such a unit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional

import numpy as np

from repro.exec import ExecOptions, FailedUnit, OutcomeCache, coerce_cache
from repro.exec.cache import CODE_CATEGORIES, cache_session
from repro.glitchsim.harness import OUTCOME_CATEGORIES, SnippetHarness, WordHarness
from repro.glitchsim.maskalgebra import MODELS, reachable_words, tally_from_word_codes
from repro.glitchsim.snippets import BranchSnippet, all_branch_snippets
from repro.obs import Observer, coerce_observer, current

INSTRUCTION_BITS = 16


class SweepTallies:
    """Per-flip-count outcome tallies, shared by every sweep record.

    Subclasses are dataclasses with a ``by_k`` field: per flip count
    ``k``, a Counter of outcome categories. A record is complete once
    built: :attr:`totals` and :attr:`attempts` are computed on first use
    and kept.
    """

    @cached_property
    def totals(self) -> Counter:
        total: Counter = Counter()
        for counter in self.by_k.values():
            total.update(counter)
        return total

    @cached_property
    def attempts(self) -> int:
        """Masks tallied over every flip count."""
        return sum(self.totals.values())

    def success_rate(self, k: int | None = None) -> float:
        """Fraction of masks classified *success* (overall, or for one ``k``)."""
        counter = self.totals if k is None else self.by_k.get(k, Counter())
        attempts = self.attempts if k is None else sum(counter.values())
        if attempts == 0:
            return 0.0
        return counter.get("success", 0) / attempts

    def category_fractions(self) -> dict[str, float]:
        """Overall fraction per outcome category (the Figure 2 histograms)."""
        totals, attempts = self.totals, self.attempts
        if attempts == 0:
            return {category: 0.0 for category in OUTCOME_CATEGORIES}
        return {category: totals.get(category, 0) / attempts for category in OUTCOME_CATEGORIES}

    def to_payload(self) -> dict:
        """JSON-able checkpoint payload: every field, ``by_k`` keyed by ``str(k)``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["by_k"] = {str(k): dict(counter) for k, counter in self.by_k.items()}
        return payload

    @classmethod
    def from_payload(cls, payload: dict):
        by_k = {int(k): Counter(counts) for k, counts in payload["by_k"].items()}
        return cls(**{**payload, "by_k": by_k})


@dataclass
class InstructionSweep(SweepTallies):
    """Aggregated outcomes for one instruction under one flip model."""

    mnemonic: str
    model: str
    target_word: int
    zero_is_invalid: bool = False
    #: per flip-count k: Counter of outcome categories
    by_k: dict[int, Counter] = field(default_factory=dict)


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


def check_campaign_args(models) -> None:
    """Raise ``ValueError`` for an unknown or repeated flip model, or none.

    Campaign entry points call this before their executor starts: inside a
    work unit the error would be quarantined as a unit failure and the
    campaign would return a hollow result instead of raising. A work unit
    sweeps every model of its campaign, so a repeated model would sweep
    twice and collide with itself.
    """
    unknown = [model for model in models if model not in MODELS]
    if unknown:
        raise ValueError(f"unknown flip model(s) {unknown}; expected one of {MODELS}")
    if not models:
        raise ValueError(f"no flip model given; expected some of {MODELS}")
    repeated = sorted(model for model, count in Counter(models).items() if count > 1)
    if repeated:
        raise ValueError(f"repeated flip model(s) {repeated}; name each model once")


def tally_world(
    harness: WordHarness,
    sweeps: list[tuple[int, str]],
    k_values: tuple[int, ...] | None,
) -> list[dict[int, Counter]]:
    """Per-``k`` outcome Counters for every mask of every ``(target word,
    model)`` sweep on one replay world, in ``sweeps`` order.

    Classifies the union of the sweeps' unique reachable corrupted words
    (:func:`repro.glitchsim.maskalgebra.reachable_words`; every word when
    an unrestricted XOR sweep is among them) in one
    :meth:`WordHarness.run_many_codes` batch, then derives every sweep's
    mask tallies in closed form from the harness's one dense code array
    (:func:`repro.glitchsim.maskalgebra.tally_from_word_codes`),
    bit-identical to enumerating every mask. Spans ``campaign.classify``
    and ``campaign.tally`` and emits the counters
    ``algebra.words_emulated`` (fresh emulations) and
    ``algebra.masks_derived`` (masks accounted for arithmetically) on the
    ambient observer. ``k_values=None`` means the full ``0..16`` range.
    """
    obs = current()
    with obs.trace("campaign.classify", sweeps=len(sweeps)):
        if k_values is None and any(model == "xor" for _, model in sweeps):
            words = np.arange(1 << INSTRUCTION_BITS)  # XOR reaches every word
        else:
            union = np.zeros(1 << INSTRUCTION_BITS, dtype=bool)
            for word, model in sweeps:
                union[reachable_words(word, model, INSTRUCTION_BITS, k_values)] = True
            words = np.flatnonzero(union)
            del union  # not held through the batch, the memory peak
        executed_before = harness.words_executed
        harness.run_many_codes(words)
        obs.count("algebra.words_emulated", harness.words_executed - executed_before)
    with obs.trace("campaign.tally", sweeps=len(sweeps)):
        tallies = tally_from_word_codes(
            sweeps, harness.codes, CODE_CATEGORIES, k_values, INSTRUCTION_BITS
        )
        obs.count("algebra.masks_derived", sum(
            sum(counter.values()) for by_k in tallies for counter in by_k.values()
        ))
    return tallies


def sweep_instruction(
    snippet: BranchSnippet,
    model: str,
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    cache: OutcomeCache | None = None,
    harness: WordHarness | None = None,
    by_k: dict[int, Counter] | None = None,
) -> InstructionSweep:
    """Sweep every mask of every flip count ``k`` for one instruction.

    ``k_values`` restricts the sweep (useful for fast tests); ``None`` means
    the full ``0..16`` range the paper used. ``cache`` adds a persistent
    outcome store shared across models and runs (words the AND sweep already
    executed are free for XOR). The tallies come from :func:`tally_world`.

    ``harness`` classifies on an already-built harness instead of a fresh
    one for ``snippet`` (its own cache then applies): any harness
    whose :meth:`WordHarness.world_digest` equals this snippet's, built
    with the same ``zero_is_invalid``, tallies identically, and words it
    already emulated are free. ``by_k`` is the sweep's tallies when the
    caller (a world unit) already derived them.
    """
    if by_k is None:
        if harness is None:
            harness = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid, disk_cache=cache)
        (by_k,) = tally_world(harness, [(snippet.target_word, model)], k_values)
    return InstructionSweep(
        mnemonic=snippet.mnemonic,
        model=model,
        target_word=snippet.target_word,
        zero_is_invalid=zero_is_invalid,
        by_k=by_k,
    )


@dataclass(frozen=True)
class _WorldSpec:
    """Picklable work unit: every panel's sweeps of the branches sharing one world."""

    mnemonics: tuple[str, ...]  # members, in condition order
    panels: tuple[tuple[str, bool], ...]  # (model, zero_is_invalid) pairs
    k_values: Optional[tuple[int, ...]]
    cache_root: Optional[str]


def _sweep_world(harness: WordHarness, targets: list, models, k_values, sweep) -> list:
    """Sweep every target of one replay world under every model, model by
    model, from one batch and one code array (:func:`tally_world`).

    ``targets`` pairs each member (a snippet, a site) with its target
    word; ``sweep(member, model, by_k)`` builds each sweep's record.
    """
    sweeps = [(member, word, model) for model in models for member, word in targets]
    tallies = tally_world(harness, [(word, model) for _, word, model in sweeps], k_values)
    if harness.disk_cache is not None:
        # each sweep reads its reachable words back from the memo
        harness.disk_cache.account(memo_hits=sum(
            reachable_words(word, model, INSTRUCTION_BITS, k_values).size
            for _, word, model in sweeps
        ))
    return [sweep(member, model, by_k) for (member, _, model), by_k in zip(sweeps, tallies)]


def _sweep_snippets(
    spec: _WorldSpec, snippets: list[BranchSnippet], cache: OutcomeCache | None
) -> list[InstructionSweep]:
    """Every panel's sweeps of one world's member branches: the plain
    decoder's models on one harness, then the 0x0000-invalid ones on a
    second, which takes the code of every word the first's batches ran
    from them (:meth:`WordHarness._execute_vector_batch`)."""
    sweeps, plain = [], None
    for zero_is_invalid in (False, True):
        models = tuple(model for model, mode in spec.panels if mode == zero_is_invalid)
        if not models:
            continue
        harness = SnippetHarness(snippets[0], zero_is_invalid=zero_is_invalid, disk_cache=cache)
        harness.plain = plain
        sweeps += _sweep_world(
            harness, [(snippet, snippet.target_word) for snippet in snippets],
            models, spec.k_values,
            lambda snippet, model, by_k: sweep_instruction(
                snippet, model, zero_is_invalid=harness.zero_is_invalid,
                k_values=spec.k_values, by_k=by_k,
            ),
        )
        plain = harness
    return sweeps


def _run_sweep_units(
    execution: ExecOptions, unit, specs: list, record: type[SweepTallies],
    members: list, member_of, models, obs: Observer,
    model_of=lambda sweep: sweep.model, **map_kwargs,
) -> tuple[dict, list[FailedUnit]]:
    """Run work units that each return a list of sweep records as one
    executor map, and split the completed sweeps back per model.

    Returns ``({model: sweeps in members order}, failed units)``, where
    ``member_of(sweep)`` is a sweep's entry in ``members`` and
    ``model_of(sweep)`` its entry in ``models``; a quarantined unit's
    members are absent from every model. ``map_kwargs`` (``prefix``,
    ``meta``, ``key_of``, ``serial_fn``) go to
    :meth:`repro.exec.ExecOptions.run`.
    """
    results, failed = execution.run(
        unit,
        specs,
        encode=lambda sweeps: [sweep.to_payload() for sweep in sweeps],
        decode=lambda payload: [record.from_payload(entry) for entry in payload],
        attempts_of=lambda sweeps: sum(sweep.attempts for sweep in sweeps),
        categories_of=lambda sweeps: dict(sum((sweep.totals for sweep in sweeps), Counter())),
        obs=obs,
        **map_kwargs,
    )
    done = {
        (model_of(sweep), member_of(sweep)): sweep
        for sweeps in results if sweeps for sweep in sweeps
    }
    by_model = {
        model: [done[model, member] for member in members if (model, member) in done]
        for model in models
    }
    return by_model, failed


def _world_unit(spec: _WorldSpec) -> list[InstructionSweep]:
    """Worker entry point: rebuild the snippets, harnesses and cache in-process."""
    from repro.glitchsim.snippets import branch_snippet

    snippets = [branch_snippet(mnemonic[1:]) for mnemonic in spec.mnemonics]
    # the unit's cache traffic goes to the ambient (worker-local) observer,
    # and the envelope carries it back
    with cache_session(spec.cache_root, current()) as cache:
        return _sweep_snippets(spec, snippets, cache)


def run_branch_campaign(
    model: str,
    zero_is_invalid: bool = False,
    k_values: tuple[int, ...] | None = None,
    conditions: list[str] | None = None,
    cache: OutcomeCache | str | None = None,
    execution: ExecOptions = ExecOptions(),
    obs: Observer | None = None,
) -> CampaignResult:
    """Run the Figure 2 campaign for all (or selected) conditional branches.

    The selected branches are grouped by replay world (equal
    :meth:`WordHarness.world_digest`, read off each snippet's image with
    its target slot zeroed) into one work unit per world (5 for all 14
    branches); a unit sweeps every member branch on one shared harness.
    This is the one-panel case of the campaign
    :func:`repro.experiments.run_figure2` runs with four panels per
    unit. ``execution`` (an
    :class:`~repro.exec.ExecOptions`) fans the units out over processes
    (each unit owns its world's cache shard, so workers never contend on
    a file). Sweeps are re-emitted in condition order, so one worker and
    N workers produce identical campaigns.

    A checkpoint records each completed world unit (keyed by its member
    mnemonics, e.g. ``beq`` or ``bcc+bmi+blt+ble``) and a resume replays
    the recorded units, so an interrupted campaign restarts only its
    missing worlds and merges to tallies identical to an uninterrupted
    run. A unit that exhausts its retries is quarantined into
    ``CampaignResult.failed_units`` — whose spec names every member
    branch, all absent from the sweeps.

    ``obs`` (a :class:`repro.obs.Observer`) traces the campaign span and
    tallies attempts, outcome categories, cache hits/misses, retries,
    and quarantines — identically for any worker count.

    An unknown ``model`` or condition raises ``ValueError`` before any
    work starts.
    """
    check_campaign_args((model,))
    (campaign,) = _run_campaigns(
        ((model, zero_is_invalid),), _select_snippets(conditions), k_values,
        cache, execution, coerce_observer(obs),
    )
    return campaign


def _select_snippets(conditions: list[str] | None) -> list[BranchSnippet]:
    """The selected branches' snippets (all 14 for ``None``), in condition order."""
    snippets = all_branch_snippets()
    if conditions is None:
        return snippets
    wanted = {c: f"b{c}" if not c.startswith("b") else c for c in conditions}
    known = {s.mnemonic for s in snippets}
    unknown = [c for c, mnemonic in wanted.items() if mnemonic not in known]
    if unknown:
        raise ValueError(f"unknown branch condition(s) {unknown}")
    return [s for s in snippets if s.mnemonic in wanted.values()]


def _world_key(snippet: BranchSnippet) -> tuple:
    """What a snippet's replay world depends on besides the decode mode:
    its image with the target slot zeroed, its base and the slot's
    address.  Snippets that agree here have equal
    :meth:`WordHarness.world_digest` values, and the 14 branch snippets
    that differ here differ there too."""
    program = snippet.program
    code = bytearray(program.code)
    offset = snippet.target_address - program.base
    code[offset:offset + 2] = b"\0\0"
    return bytes(code), program.base, snippet.target_address


def _run_campaigns(
    panels: tuple[tuple[str, bool], ...],
    snippets: list[BranchSnippet],
    k_values: tuple[int, ...] | None,
    cache: OutcomeCache | str | None,
    execution: ExecOptions,
    obs: Observer,
) -> list[CampaignResult]:
    """One campaign per ``(model, zero_is_invalid)`` panel, in ``panels``
    order, run as one executor map of one unit per replay world; they
    share the quarantined world units."""
    cache = coerce_cache(cache)
    cache_root = str(cache.root) if cache is not None else None
    ks = tuple(k_values) if k_values is not None else None
    worlds: dict[tuple, list[BranchSnippet]] = {}
    for snippet in snippets:
        worlds.setdefault(_world_key(snippet), []).append(snippet)
    units = {tuple(snippet.mnemonic for snippet in members): members
             for members in worlds.values()}
    specs = [_WorldSpec(mnemonics, panels, ks, cache_root) for mnemonics in units]

    def serial(spec: _WorldSpec) -> list[InstructionSweep]:
        # in-process: reuse the snippets and the shared cache handle
        return _sweep_snippets(spec, units[spec.mnemonics], cache)

    label = "+".join(f"{model}-0invalid" if mode else model for model, mode in panels)
    zero_is_invalid = any(mode for _, mode in panels)
    # serial units reuse the shared cache handle, so the session counts
    # their traffic here (workers report theirs via their envelopes)
    with cache_session(cache, obs), obs.trace(
        f"campaign.branch[{label}]", model=label,
        zero_is_invalid=zero_is_invalid, units=len(specs),
    ):
        by_panel, failed = _run_sweep_units(
            execution, _world_unit, specs, InstructionSweep,
            [snippet.mnemonic for snippet in snippets], lambda sweep: sweep.mnemonic,
            panels, obs, lambda sweep: (sweep.model, sweep.zero_is_invalid),
            prefix=f"branch-{label}",
            meta={
                "campaign": "branch",
                "model": label,
                "zero_is_invalid": zero_is_invalid,
                "k_values": list(ks) if ks is not None else None,
                "conditions": sorted(snippet.mnemonic for snippet in snippets),
            },
            key_of=lambda spec: "+".join(spec.mnemonics),
            serial_fn=serial,
        )
    return [
        CampaignResult(
            model=model, zero_is_invalid=mode, sweeps=by_panel[model, mode],
            failed_units=failed,
        )
        for model, mode in panels
    ]


__all__ = [
    "SweepTallies",
    "InstructionSweep",
    "CampaignResult",
    "sweep_instruction",
    "tally_world",
    "run_branch_campaign",
]
