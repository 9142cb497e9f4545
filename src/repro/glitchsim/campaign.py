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
from dataclasses import dataclass, field, fields
from typing import Optional

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
    ``k``, a Counter of outcome categories.
    """

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

    def to_payload(self) -> dict:
        """JSON-able checkpoint payload: every field, ``by_k`` keyed by ``str(k)``."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["by_k"] = {str(k): dict(counter) for k, counter in self.by_k.items()}
        return payload

    @classmethod
    def from_payload(cls, payload: dict):
        by_k = {int(k): Counter(counts) for k, counts in payload["by_k"].items()}
        return cls(**{**payload, "by_k": by_k})


def _unit_totals(sweeps: list[SweepTallies]) -> Counter:
    """Outcome totals over every sweep of one work unit."""
    total: Counter = Counter()
    for sweep in sweeps:
        total.update(sweep.totals)
    return total


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
    """Raise ``ValueError`` for an unknown flip model.

    Campaign entry points call this before their executor starts: inside a
    work unit the error would be quarantined as a unit failure and the
    campaign would return a hollow result instead of raising.
    """
    unknown = [model for model in models if model not in MODELS]
    if unknown:
        raise ValueError(f"unknown flip model(s) {unknown}; expected one of {MODELS}")


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
    harness: WordHarness | None = None,
) -> InstructionSweep:
    """Sweep every mask of every flip count ``k`` for one instruction.

    ``k_values`` restricts the sweep (useful for fast tests); ``None`` means
    the full ``0..16`` range the paper used. ``cache`` adds a persistent
    outcome store shared across models and runs (words the AND sweep already
    executed are free for XOR). The tallies come from
    :func:`tally_reachable`.

    ``harness`` classifies on an already-built harness instead of a fresh
    one for ``snippet`` (its own cache then applies): any harness
    whose :meth:`WordHarness.world_digest` equals this snippet's, built
    with the same ``zero_is_invalid``, tallies identically, and words it
    already emulated are free.
    """
    if harness is None:
        harness = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid, disk_cache=cache)
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
    # the unit's cache traffic goes to the ambient (worker-local) observer,
    # and the envelope carries it back
    with cache_session(spec.cache_root, current()) as cache:
        harness = SnippetHarness(
            snippets[0], zero_is_invalid=spec.zero_is_invalid, disk_cache=cache,
        )
        return _sweep_world(spec, snippets, harness)


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

    The selected branches are grouped by :meth:`WordHarness.world_digest`
    into one work unit per replay world (5 for all 14 branches); a unit
    sweeps every member branch on one shared harness. ``execution`` (an
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
        harness = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid, disk_cache=cache)
        worlds.setdefault(harness.world_digest(), (harness, []))[1].append(snippet)
    units = {
        tuple(snippet.mnemonic for snippet in members): (shared, members)
        for shared, members in worlds.values()
    }
    specs = [
        _WorldSpec(mnemonics, model, zero_is_invalid, ks, cache_root)
        for mnemonics in units
    ]

    def serial(spec: _WorldSpec) -> list[InstructionSweep]:
        # in-process: reuse the built harnesses and the shared cache handle
        shared, members = units[spec.mnemonics]
        return _sweep_world(spec, members, shared)

    # serial units reuse the shared cache handle, so the session counts
    # their traffic here (workers report theirs via their envelopes)
    with cache_session(cache, obs), obs.trace(
        f"campaign.branch[{model}]", model=model,
        zero_is_invalid=zero_is_invalid, units=len(specs),
    ):
        results, failed = execution.run(
            _world_unit,
            specs,
            prefix=f"branch-{model}",
            meta={
                "campaign": "branch",
                "model": model,
                "zero_is_invalid": zero_is_invalid,
                "k_values": list(ks) if ks is not None else None,
                "conditions": sorted(snippet.mnemonic for snippet in snippets),
            },
            key_of=lambda spec: "+".join(spec.mnemonics),
            encode=lambda sweeps: [sweep.to_payload() for sweep in sweeps],
            decode=lambda payload: [InstructionSweep.from_payload(entry) for entry in payload],
            serial_fn=serial,
            attempts_of=lambda sweeps: sum(_unit_totals(sweeps).values()),
            categories_of=lambda sweeps: dict(_unit_totals(sweeps)),
            obs=obs,
        )
    done = {sweep.mnemonic: sweep for sweeps in results if sweeps for sweep in sweeps}
    return CampaignResult(
        model=model,
        zero_is_invalid=zero_is_invalid,
        sweeps=[done[s.mnemonic] for s in snippets if s.mnemonic in done],
        failed_units=failed,
    )


__all__ = [
    "SweepTallies",
    "InstructionSweep",
    "CampaignResult",
    "sweep_instruction",
    "tally_reachable",
    "run_branch_campaign",
]
