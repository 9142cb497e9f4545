"""Run a corrupted snippet and classify the outcome (paper's Figure 2 buckets).

Categories, matching Section IV verbatim:

- ``success`` — the instruction immediately following the conditional branch,
  which would otherwise not be executed, executed successfully (observed via
  the 0xdead marker register).
- ``bad_read`` — the system attempted to read (or write) unmapped memory.
- ``invalid_instruction`` — the emulator did not recognise the perturbed
  instruction.
- ``bad_fetch`` — an instruction was fetched from unmapped memory (e.g. the
  PC was modified).
- ``failed`` — any unrecognised error (including non-terminating runs).
- ``no_effect`` — the modification had no effect on the execution.

Cache misses execute on one of two paths, with identical outcome
categories:

- :meth:`WordHarness.run_many` batches run lock-step on the NumPy backend
  (:mod:`repro.emu.vector`): one lane per corrupted word, sharing the
  snapshot replay point and decoding through the process-wide operand
  tables.  Vector outcomes carry empty detail strings (like disk-cache
  hits); the documented contract is category identity.
- Single-word :meth:`WordHarness.run` calls replay the snapshot: the
  address space is built once, the flag-setup prefix runs up to (not
  including) the target instruction, a
  :meth:`Memory.snapshot`/:meth:`CPU.snapshot` pair is taken, and each
  corrupted word restores the pair, journals the corrupted halfword into
  the target slot, and resumes with the remaining step budget.  A shared
  per-harness decode cache memoises ``decode()`` by halfword value, and
  the outcome keeps its detail string.

The test suite (``tests/oracles.py``) checks the vector batches against
that scalar replay run word by word over whole batches, and both against
a per-word world rebuild.

The cache/memo/execution machinery and both classifiers are shared
between two harnesses via the :class:`WordHarness` base class:
:class:`SnippetHarness` (this module) runs the paper's marker-block
snippets, and :class:`repro.campaign.harness.SiteHarness` runs a branch
site *in situ* inside a whole firmware image.  A subclass supplies only
the replay point (:meth:`WordHarness._snapshot_world`); the classifiers
read their rules from it — the success stop, plus the marker registers
a snippet world sets (a site world sets none and classifies by position
alone) — and the base class owns everything keyed by the corrupted word.

A word's outcome depends only on that replay point, so
:meth:`WordHarness.world_digest` hashes it (the target slot masked out)
into the key under which outcomes are shared: one harness serves every
branch whose world matches (Figure 2's 14 snippets have 5 distinct
worlds), and the digest is the :class:`repro.exec.OutcomeCache` shard key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bits import halfwords_to_bytes
from repro.emu import CPU, CPUSnapshot, Memory, MemorySnapshot
from repro.exec.cache import CATEGORIES as _CACHE_CATEGORIES
from repro.exec.cache import CATEGORY_CODES
from repro.isa.decoder import decode
from repro.errors import (
    AlignmentFault,
    BadFetch,
    BadRead,
    BadWrite,
    EmulationFault,
    InvalidInstruction,
)
from repro.glitchsim.snippets import (
    BranchSnippet,
    FLASH_BASE,
    NORMAL_MARKER,
    NORMAL_REGISTER,
    RAM_BASE,
    RAM_SIZE,
    SUCCESS_MARKER,
    SUCCESS_REGISTER,
)

OUTCOME_CATEGORIES = (
    "success",
    "bad_read",
    "invalid_instruction",
    "bad_fetch",
    "failed",
    "no_effect",
)

# The binary cache-shard format persists outcomes as 1-based indexes into
# this tuple; the cache layer owns the canonical copy so the shard codes
# stay stable even if this module is reorganised.
assert _CACHE_CATEGORIES == OUTCOME_CATEGORIES, (
    "repro.exec.cache.CATEGORIES drifted from OUTCOME_CATEGORIES"
)

_STEP_LIMIT = 64


@dataclass
class _SnapshotWorld:
    """The pre-built machine a :class:`WordHarness` replays against."""

    memory: Memory
    cpu: CPU
    memory_snapshot: MemorySnapshot
    cpu_snapshot: CPUSnapshot
    budget: int  # steps remaining out of _STEP_LIMIT after any setup prefix
    flash_data: bytearray  # flash backing store, for the per-replay slot poke
    flash_base: int
    ram_base: int
    slot_offset: int  # byte offset of the target halfword within flash
    target_address: int  # absolute address of the corrupted slot
    pristine_word: int  # the uncorrupted halfword at the target slot
    next_after_target: Optional[int]  # halfword at target+2 (for BL lookahead)
    # Addresses where a replay may stop early for classification.  For the
    # snippet harness these are the marker-block entry points (success =
    # fall-through, normal = taken); for the site harness, the branch's two
    # outgoing edges.  A stop only classifies when at least two budget
    # steps remain — otherwise execution resumes to keep the step
    # accounting bit-identical with an uninterrupted run.
    marker_stops: frozenset
    success_address: Optional[int] = None  # the stop that classifies success
    normal_address: Optional[int] = None  # the taken path (None: no taken label)
    # ((success register, value), (normal register, value)) that a snippet's
    # fall-through and taken blocks load; None for a site world, whose
    # success stop is its only success and whose other stop is no_effect
    markers: Optional[tuple[tuple[int, int], tuple[int, int]]] = None


@dataclass(frozen=True)
class Outcome:
    """The classified result of executing one corrupted word."""

    category: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.category not in OUTCOME_CATEGORIES:
            raise ValueError(f"unknown outcome category {self.category!r}")


# Interned instances for the common fixed-detail outcomes (Outcome compares
# by value, so interning is invisible to callers — it just skips ~65k
# dataclass constructions per sweep).
_OUTCOME_SUCCESS = Outcome("success")
_OUTCOME_NO_EFFECT = Outcome("no_effect")
_OUTCOME_LIMIT = Outcome("failed", f"did not halt within {_STEP_LIMIT} steps")
_OUTCOME_NO_MARKER = Outcome("failed", "halted without reaching either marker")
_OUTCOME_NO_EDGE = Outcome("failed", "halted before reaching either branch edge")

# Detail-free interned outcomes for vector-engine lanes and disk hits, by
# shard code (index 0, "not classified", maps to None; the cache's codes
# follow OUTCOME_CATEGORIES), so a code array converts by plain indexing.
_OUTCOMES_BY_CODE = (None,) + tuple(Outcome(category) for category in OUTCOME_CATEGORIES)


class WordHarness:
    """Shared memo/cache/execution machinery for corrupted-word classification.

    Results are memoised per corrupted word: the outcome is a pure function
    of the resulting machine word, which turns the :math:`2^{16}` masks per
    flip-count into at most :math:`2^{16}` distinct executions total.

    ``disk_cache`` (a :class:`repro.exec.OutcomeCache`) adds a persistent
    layer keyed by ``(world_digest(), corrupted_word)``, so harnesses of
    different branches (or sites) whose replay worlds coincide share one
    shard.  Only the outcome *category* is persisted, so a disk hit
    returns an :class:`Outcome` with an empty detail string.

    Cache misses of a :meth:`run_many` batch run lock-step on the NumPy
    backend; single-word :meth:`run` calls replay a cached machine
    snapshot.  Both produce identical outcome categories.

    Subclasses implement :meth:`_snapshot_world` (build the replay point);
    :meth:`_classify_replay` and the vector batch classify from its
    success stop and optional marker registers.
    """

    def __init__(self, zero_is_invalid: bool = False, disk_cache=None):
        self.zero_is_invalid = zero_is_invalid
        self.disk_cache = disk_cache
        # The word memo is a dense code array (mirroring the binary cache
        # shards), so batch resolution is one gather; ``_cache`` keeps only
        # the detailed Outcome objects that scalar executions produced
        # (codes are always a superset of its keys).
        self._codes = np.zeros(1 << 16, dtype=np.uint8)
        self._cache: dict[int, Outcome] = {}
        # Executions that actually ran the emulator (mem/disk hits excluded);
        # the mask-algebra path reads the delta for its words_emulated counter.
        self.words_executed = 0
        # Decode memo shared by every execution of this harness (pure by
        # value, so corrupted and pristine words coexist as distinct keys).
        self._decode_cache: dict = {}
        self._world: Optional[_SnapshotWorld] = None  # built on first use
        self._digest: Optional[str] = None  # world_digest(), on first use
        self._vector = None  # lazily-built repro.emu.vector.VectorEngine
        # a 0x0000-invalid harness's plain-decoder twin of the same world,
        # and each word's code under the 0x0000-invalid decoder (0: not run)
        self.plain: Optional[WordHarness] = None
        self.zero_invalid_codes = np.zeros(1 << 16, dtype=np.uint8)

    def world_digest(self) -> str:
        """SHA-256 hex digest of the replay point this harness classifies on.

        Covers every :class:`_SnapshotWorld` field except the pristine
        target word, the marker registers (fixed by the harness class) and
        the live machine objects: every mapped region
        (layout, permissions and bytes, with the two target-slot bytes
        zeroed, so flash and RAM), the CPU snapshot and the step budget,
        the slot and region addresses, the halfword after the slot, the
        marker stops and success/normal addresses — plus
        ``zero_is_invalid`` and the harness class, which fix the decode
        mode and the marker registers.  Two harnesses with equal
        digests classify every corrupted word identically.
        """
        if self._digest is None:
            world = self._snapshot_world()
            if world.memory._journal:  # undo any scalar replay's stores
                world.memory.restore(world.memory_snapshot)
            digest = hashlib.sha256()

            def mix(*values) -> None:
                digest.update(repr(values).encode())
                digest.update(b"\0")

            cls = type(self)
            mix(cls.__module__, cls.__qualname__, self.zero_is_invalid)
            for region in world.memory_snapshot.regions:
                data = bytearray(region.data)
                if region.contains(world.target_address, 2):
                    offset = world.target_address - region.base
                    data[offset:offset + 2] = b"\0\0"
                mix(region.name, region.base, region.size, region.readable,
                    region.writable, region.executable)
                digest.update(data)
            snap = world.cpu_snapshot
            mix(snap.regs, snap.flags, snap.halted, snap.instruction_count, world.budget)
            mix(world.flash_base, world.ram_base, world.slot_offset,
                world.target_address, world.next_after_target,
                sorted(world.marker_stops), world.success_address,
                world.normal_address)
            self._digest = digest.hexdigest()
        return self._digest

    def run(self, corrupted_word: int) -> Outcome:
        """Classify the execution with ``corrupted_word`` in the target slot.

        A miss in the memo and the disk shard runs the scalar snapshot
        replay, so the outcome keeps its detail string.
        """
        corrupted_word &= 0xFFFF
        code = int(self._codes[corrupted_word])
        if code:
            if self.disk_cache is not None:
                self.disk_cache.account(memo_hits=1)
            cached = self._cache.get(corrupted_word)
            return cached if cached is not None else _OUTCOMES_BY_CODE[code]
        if self.disk_cache is not None:
            code = int(self.disk_cache.get_shard_codes(self.world_digest())[corrupted_word])
            self.disk_cache.account(hits=int(code != 0), misses=int(code == 0))
            if code:
                self._codes[corrupted_word] = code
                return _OUTCOMES_BY_CODE[code]
        outcome = self._execute(corrupted_word)
        self._cache[corrupted_word] = outcome
        code = self._codes[corrupted_word] = CATEGORY_CODES[outcome.category]
        if self.disk_cache is not None:
            self.disk_cache.put_shard_codes(self.world_digest(), [corrupted_word], [code])
        return outcome

    def run_many_codes(self, words) -> tuple[np.ndarray, np.ndarray]:
        """Classify a batch of corrupted words as pure array operations.

        The hot-path core of :meth:`run_many`: deduplicates and sorts the
        words ascending (consecutive words share decode-cache and snapshot
        locality), resolves the in-memory memo with **one** gather from the
        dense code array, resolves the disk layer with one gather from the
        binary shard (:meth:`OutcomeCache.get_shard_codes`), executes only
        the remainder, and scatters the newly executed codes back with a
        single :meth:`OutcomeCache.put_shard_codes` merge. Disk
        hit/miss/memo totals are reported via :meth:`OutcomeCache.account`
        so campaign-level accounting matches the per-word :meth:`run` path
        exactly (words that alias after the 16-bit mask, and duplicates,
        count as memo hits — that is what a serial :meth:`run` loop would
        record).

        Returns ``(unique_words, codes)``: the sorted unique 16-bit words
        and their parallel nonzero category codes
        (:data:`repro.exec.cache.CATEGORY_CODES`). Freshly executed
        entries are flushed to the disk cache even when an execution
        raises partway through the batch, so a crash or a campaign's
        unit-timeout kill never discards paid-for work.
        """
        if not isinstance(words, (np.ndarray, list)):
            words = list(words)
        arr = np.asarray(words, dtype=np.int64)
        total = int(arr.size)
        # dedup by boolean scatter over the fixed 2^16 word space — one
        # O(n) pass, cheaper than np.unique's hash table at this size
        seen = np.zeros(1 << 16, dtype=bool)
        seen[arr & 0xFFFF] = True
        unique = np.nonzero(seen)[0]
        codes = self._codes
        memo_resolved = int(np.count_nonzero(codes[unique]))
        pending = unique[codes[unique] == 0]
        if self.disk_cache is not None:
            disk_hits = 0
            if pending.size:
                shard = self.disk_cache.get_shard_codes(self.world_digest())
                found = shard[pending]
                hit = found != 0
                disk_hits = int(np.count_nonzero(hit))
                if disk_hits:
                    codes[pending[hit]] = found[hit]
                    pending = pending[~hit]
            self.disk_cache.account(
                hits=disk_hits,
                misses=int(pending.size),
                memo_hits=(total - int(unique.size)) + memo_resolved,
            )
        try:
            if pending.size:
                self._execute_vector_batch(pending)
        finally:
            if pending.size and self.disk_cache is not None:
                done = pending[codes[pending] != 0]
                if done.size:
                    self.disk_cache.put_shard_codes(
                        self.world_digest(), done, codes[done]
                    )
        return unique, codes[unique].copy()

    @property
    def codes(self) -> np.ndarray:
        """The dense code memo, read-only: ``codes[word]`` is the category
        code of every 16-bit word classified so far, 0 for the rest."""
        view = self._codes.view()
        view.flags.writeable = False
        return view

    def run_many(self, words) -> dict[int, Outcome]:
        """Classify a batch of corrupted words with bulk cache traffic.

        Dict-shaped wrapper over :meth:`run_many_codes`. The result dict is
        keyed by the caller's original words verbatim (masking to 16 bits
        is an internal detail, as in :meth:`run`); detailed outcomes from
        scalar executions are preserved, everything else returns the
        interned detail-free instance for its category.
        """
        words = list(words)
        unique, codes = self.run_many_codes(words)
        cache = self._cache
        results = {
            word: cache.get(word) or _OUTCOMES_BY_CODE[code]
            for word, code in zip(unique.tolist(), codes.tolist())
        }
        if words == list(results):  # already unique, sorted, and 16-bit
            return results
        return {word: results[word & 0xFFFF] for word in words}

    # ------------------------------------------------------------------
    # execution (shared)
    # ------------------------------------------------------------------

    def _execute(self, corrupted_word: int) -> Outcome:
        # The vector engine only runs whole batches; single words execute
        # on the scalar snapshot replay.
        self.words_executed += 1
        return self._execute_replay(self._snapshot_world(), corrupted_word)

    def _vector_engine(self, world: _SnapshotWorld):
        """Build (once) the NumPy lock-step engine from the replay point."""
        if self._vector is None:
            from repro.emu.vector import VectorEngine

            # Prior scalar replays may have left a corrupted word poked into
            # the flash backing store and a dirty RAM journal — reset both
            # to the pristine replay-point snapshot before copying them out.
            if world.memory._journal:
                world.memory.restore(world.memory_snapshot)
            flash = bytearray(world.flash_data)
            pristine = world.pristine_word
            flash[world.slot_offset] = pristine & 0xFF
            flash[world.slot_offset + 1] = pristine >> 8
            ram_region = world.memory.region_at(world.ram_base)
            snap = world.cpu_snapshot
            self._vector = VectorEngine(
                flash_base=world.flash_base,
                flash_bytes=bytes(flash),
                target_address=world.target_address,
                ram_base=world.ram_base,
                ram_bytes=bytes(ram_region.data),
                init_regs=snap.regs,
                init_flags=snap.flags,
                budget=world.budget,
                zero_is_invalid=self.zero_is_invalid,
                marker_stops=sorted(world.marker_stops),
            )
        return self._vector

    def _execute_vector_batch(self, pending: np.ndarray) -> None:
        """Run a cache-miss batch lock-step into the dense code memo.

        Every lane ends classified, so the whole batch scatters with one
        fancy-indexed assignment.  A lane that decoded 0x0000
        (:attr:`repro.emu.vector.VectorRun.decodes_zero`) is
        ``invalid_instruction`` under the 0x0000-invalid decoder and every
        other lane keeps its code, so the batch also fills
        ``zero_invalid_codes``; a harness linked to a ``plain`` one takes
        the words that harness ran from there, and runs only the rest.
        """
        if self.plain is not None:
            derived = self._codes[pending] = self.plain.zero_invalid_codes[pending]
            pending = pending[derived == 0]
            if not pending.size:
                return
        world = self._snapshot_world()
        batch = self._vector_engine(world).run(pending)
        codes = self._codes[pending] = batch.classify_branch(world.success_address, world.markers)
        self.zero_invalid_codes[pending] = np.where(
            batch.decodes_zero, CATEGORY_CODES["invalid_instruction"], codes
        )
        self.words_executed += int(pending.size)
        from repro.obs import current

        obs = current()
        obs.count("vector.batches", 1)
        obs.count("vector.lanes", int(pending.size))
        obs.count("vector.lane_steps", batch.lane_steps)
        obs.count("vector.early_exits", batch.early_exits)
        obs.count("vector.survivors", int(batch.survivors.size))
        obs.count("vector.private_pages", batch.private_pages)
        if batch.planned:
            obs.count("vector.planned_batches", 1)

    def _execute_replay(self, world: _SnapshotWorld, corrupted_word: int) -> Outcome:
        # First-step pre-classification: the replayed machine fetches the
        # corrupted word first, so if its decode faults, the outcome is
        # ``invalid_instruction`` without touching any machine state.  The
        # decode uses exactly the inputs the fetch at the target would see
        # (the halfword at target+2 for a BL-prefix lookahead).  A target
        # that is itself a marker stop classifies before that fetch when
        # the stop may classify (two budget steps left).
        cpu = world.cpu
        if world.target_address not in world.marker_stops or world.budget < 2:
            cache = cpu.decode_cache
            key = (
                corrupted_word
                if (corrupted_word >> 11) != 0b11110
                else (corrupted_word, world.next_after_target)
            )
            hit = cache.get(key)
            if hit is None:
                nxt = world.next_after_target if (corrupted_word >> 11) == 0b11110 else None
                try:
                    cache[key] = decode(corrupted_word, nxt, zero_is_invalid=self.zero_is_invalid)
                except InvalidInstruction as exc:
                    cache[key] = exc
                    return Outcome("invalid_instruction", str(exc))
            elif isinstance(hit, InvalidInstruction):
                return Outcome("invalid_instruction", str(hit))
        # Inlined Memory.restore/CPU.reset_from (hot path: once per word).
        # Replays never map regions, so restore reduces to undoing the
        # journal — and most replays never store, leaving it empty.
        if world.memory._journal:
            world.memory.restore(world.memory_snapshot)
        snap = world.cpu_snapshot
        cpu.regs = list(snap.regs)
        cpu.flags = snap.flags
        cpu.halted = snap.halted
        cpu.instruction_count = snap.instruction_count
        # Poke the corrupted halfword straight into the flash backing store,
        # bypassing the journal: every replay overwrites this exact slot
        # before running, so restore never needs to undo it, and the CPU
        # cannot touch it otherwise (flash is read-only to stores).
        offset = world.slot_offset
        world.flash_data[offset] = corrupted_word & 0xFF
        world.flash_data[offset + 1] = corrupted_word >> 8
        return self._classify_replay(world, cpu)

    def _classify_replay(self, world: _SnapshotWorld, cpu: CPU) -> Outcome:
        """Classify a replay, short-circuiting at the world's marker stops.

        A run that reaches the success stop (or, in a snippet world, holds
        the success marker) there classifies ``success``, one at any other
        stop ``no_effect``, without executing on — unless fewer than two
        budget steps remain (a snippet's marker block is ldr-literal +
        bkpt), where execution resumes to keep step accounting identical
        to an uninterrupted run.  A halted run classifies by the marker
        registers; in a site world, which has none, it is ``failed``.
        When both stops coincide the success stop wins, as in
        :meth:`repro.emu.vector.VectorRun.classify_branch`.
        """
        budget = world.budget
        markers = world.markers
        try:
            result = cpu.run(budget, stop_addresses=world.marker_stops)
            if result.reason == "stop_addr":
                if budget - result.steps >= 2:
                    if result.stop_address == world.success_address or (
                        markers is not None and cpu.regs[markers[0][0]] == markers[0][1]
                    ):
                        return _OUTCOME_SUCCESS
                    return _OUTCOME_NO_EFFECT
                result = cpu.run(budget - result.steps)
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
        if markers is None:
            return _OUTCOME_NO_EDGE
        (success_register, success_marker), (normal_register, normal_marker) = markers
        if cpu.regs[success_register] == success_marker:
            return _OUTCOME_SUCCESS
        if cpu.regs[normal_register] == normal_marker:
            return _OUTCOME_NO_EFFECT
        return _OUTCOME_NO_MARKER

    def _snapshot_world(self) -> _SnapshotWorld:  # pragma: no cover
        """Build (once) the replay point: the one subclass hook."""
        raise NotImplementedError


class SnippetHarness(WordHarness):
    """Executes a snippet with its target halfword replaced by a corrupted word.

    The snippet's flag-setup prefix runs once up to (not including) the
    target instruction; the replay point carries the 0xdead/0xaaaa marker
    registers the snippet's fall-through/taken blocks set, which the
    classification reads.  See :class:`WordHarness` for the caching,
    execution and classification contract.
    """

    def __init__(self, snippet: BranchSnippet, zero_is_invalid: bool = False, disk_cache=None):
        super().__init__(zero_is_invalid=zero_is_invalid, disk_cache=disk_cache)
        self.snippet = snippet
        self._halfwords = list(snippet.program.halfwords)
        self._flash_size = max(0x400, (len(snippet.program.code) + 0x3FF) & ~0x3FF)

    def _build_world(self, decode_cache: Optional[dict] = None) -> tuple[Memory, CPU]:
        memory = Memory()
        memory.map("flash", FLASH_BASE, self._flash_size, writable=False, executable=True)
        memory.map("ram", RAM_BASE, RAM_SIZE)
        cpu = CPU(memory, zero_is_invalid=self.zero_is_invalid)
        cpu.decode_cache = decode_cache
        cpu.pc = self.snippet.program.base
        cpu.sp = RAM_BASE + RAM_SIZE
        return memory, cpu

    def _snapshot_world(self) -> _SnapshotWorld:
        """Build (once) the machine paused right before the target slot."""
        if self._world is not None:
            return self._world
        memory, cpu = self._build_world(decode_cache=self._decode_cache)
        memory.load(FLASH_BASE, halfwords_to_bytes(self._halfwords))
        try:
            prefix = cpu.run(_STEP_LIMIT, stop_addresses=(self.snippet.target_address,))
        except EmulationFault:
            prefix = None
        if prefix is None or prefix.reason != "stop_addr":
            raise ValueError(
                f"snippet {self.snippet.mnemonic}: the setup prefix never "
                f"reaches the target slot, so there is no replay point"
            )
        flash_region = memory.region_at(FLASH_BASE)
        success_address = self.snippet.target_address + 2
        normal_address = self.snippet.program.symbols.get("taken")
        stops = {success_address}
        if normal_address is not None:
            stops.add(normal_address)
        self._world = _SnapshotWorld(
            memory=memory,
            cpu=cpu,
            memory_snapshot=memory.snapshot(),
            cpu_snapshot=cpu.snapshot(),
            budget=_STEP_LIMIT - prefix.steps,
            flash_data=flash_region.data,
            flash_base=FLASH_BASE,
            ram_base=RAM_BASE,
            slot_offset=self.snippet.target_address - FLASH_BASE,
            target_address=self.snippet.target_address,
            pristine_word=self._halfwords[self.snippet.target_index],
            next_after_target=memory.try_fetch_u16(self.snippet.target_address + 2),
            marker_stops=frozenset(stops),
            success_address=success_address,
            normal_address=normal_address,
            markers=((SUCCESS_REGISTER, SUCCESS_MARKER), (NORMAL_REGISTER, NORMAL_MARKER)),
        )
        return self._world


__all__ = [
    "Outcome",
    "WordHarness",
    "SnippetHarness",
    "OUTCOME_CATEGORIES",
]
