"""Differential and regression tests for the NumPy lock-step engine.

The vector engine re-implements the scalar Thumb-16 semantics, so its
tests are overwhelmingly differential: the scalar snapshot replay run
over whole batches (``SnapshotSnippetHarness`` of tests/oracles.py,
itself pinned against the per-word rebuild oracle by
tests/test_snapshot.py) is the oracle.
The beq full-space sweep runs every one of the 2^16 corrupted words
through both; the hypothesis sweep samples word batches across all 14
branches and both decode modes three ways.  The instruction-class sweep
has no scalar path, so it is checked against the per-word rebuild
classifier of tests/oracles.py.

This file also carries the run_many batch-path regressions that landed
with the engine: original-word result keying, flush-fresh-on-crash, and
the vector.* observability counters.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import discover_sites
from repro.exec import OutcomeCache
from repro.exec.cache import CODE_CATEGORIES
from repro.firmware.image import load_image
from repro.glitchsim.harness import SnippetHarness
from repro.glitchsim.snippets import all_branch_snippets, branch_snippet
from repro.obs import Observer, activate
from tests.oracles import (
    RebuildSiteHarness,
    RebuildSnippetHarness,
    SnapshotSnippetHarness,
    enumerate_class_sweep,
    rebuild_engine,
    snapshot_engine,
)

DEMO_HEX = os.path.join(os.path.dirname(__file__), "..", "examples", "demo_fw.hex")

ALL_MNEMONICS = [snippet.mnemonic for snippet in all_branch_snippets()]

# Persistent harnesses so hypothesis examples don't rebuild worlds;
# each entry is (snapshot, rebuild oracle, vector) for one (mnemonic, mode).
_HARNESS_CACHE: dict = {}


def _harness_trio(mnemonic, zero_is_invalid):
    key = (mnemonic, zero_is_invalid)
    trio = _HARNESS_CACHE.get(key)
    if trio is None:
        snippet = branch_snippet(mnemonic[1:])
        trio = (
            SnapshotSnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            RebuildSnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            SnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
        )
        _HARNESS_CACHE[key] = trio
    return trio


def _full_word_space_mismatches(condition, zero_is_invalid):
    """Words whose category differs between the snapshot replay and the vector engine."""
    snippet = branch_snippet(condition)
    words = range(1 << 16)
    base = SnapshotSnippetHarness(snippet, zero_is_invalid=zero_is_invalid).run_many(words)
    vec = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid).run_many(words)
    return [
        (word, base[word].category, vec[word].category)
        for word in words
        if base[word].category != vec[word].category
    ]


class TestVectorDifferential:
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_beq_full_word_space_matches_snapshot(self, zero_is_invalid):
        """Every possible corrupted word, both decode modes, both engines."""
        assert _full_word_space_mismatches("eq", zero_is_invalid) == []

    @pytest.mark.slow
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_bvs_full_word_space_matches_snapshot(self, zero_is_invalid):
        """bvs is the only world with a 60-step budget (a four-step set-up)."""
        assert _full_word_space_mismatches("vs", zero_is_invalid) == []

    @settings(max_examples=25, deadline=None)
    @given(
        mnemonic=st.sampled_from(ALL_MNEMONICS),
        zero_is_invalid=st.booleans(),
        words=st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=40),
    )
    def test_three_way_engine_agreement(self, mnemonic, zero_is_invalid, words):
        """vector == snapshot == rebuild categories on random word batches."""
        snapshot, rebuild, vector = _harness_trio(mnemonic, zero_is_invalid)
        vec = vector.run_many(words)
        snap = snapshot.run_many(words)
        for word in words:
            assert vec[word].category == snap[word].category, (mnemonic, word)
            assert (
                rebuild.run(word).category == snap[word].category
            ), (mnemonic, word)

    def test_fig2_slice_tallies_identical_across_engines(self):
        from repro.glitchsim import run_branch_campaign

        slice_kwargs = dict(k_values=(1, 2, 15), conditions=["eq", "vs"])
        by_engine = {"vector": run_branch_campaign("and", **slice_kwargs)}
        with snapshot_engine():
            by_engine["snapshot"] = run_branch_campaign("and", **slice_kwargs)
        with rebuild_engine():
            by_engine["rebuild"] = run_branch_campaign("and", **slice_kwargs)
        reprs = {engine: repr(result.sweeps) for engine, result in by_engine.items()}
        assert reprs["vector"] == reprs["snapshot"] == reprs["rebuild"]

    @pytest.mark.parametrize("instruction_class",
                             ["load", "store", "compare", "alu", "move"])
    def test_instruction_class_sweeps_identical(self, instruction_class):
        """The lock-step class sweep equals the per-word rebuild oracle."""
        from repro.glitchsim.instr_classes import sweep_instruction_class

        for model, k_values in (("and", None), ("xor", (1, 2))):
            batch = sweep_instruction_class(instruction_class, model, k_values)
            oracle = enumerate_class_sweep(instruction_class, model, k_values)
            assert batch == oracle, (model, k_values)


def _b(source: int, destination: int) -> int:
    """The Thumb ``b`` halfword at ``source`` that jumps to ``destination``."""
    return 0xE000 | (((destination - source - 4) >> 1) & 0x7FF)


#: loops that come back to the same PC in a different state and then leave
#: through the taken block (so the outcome is no_effect, not the limit);
#: the set-up parks r1 on a RAM word for ``count``
_LOOPS_SNIPPET = """
    mov r1, sp
    subs r1, #4
    movs r0, #1
    cmp r0, #1
target:
    beq taken
    ldr r2, =0xdead
    bkpt #0
taken:
    ldr r3, =0xaaaa
    bkpt #0
count:
    ldr r2, [r1]
    adds r2, #1
    str r2, [r1]
    cmp r2, #5
    bge taken
    movs r2, #0
    movs r4, #0
    b count
spin:
    adds r2, #1
    cmp r2, #12
    blt spin
    b taken
pad:
    movs r4, #0
    movs r4, #0
    movs r4, #0
toggle:
    bcc taken
    cmp r2, r0
    b toggle
"""


def _loops_snippet():
    from repro.glitchsim.snippets import FLASH_BASE, BranchSnippet
    from repro.isa import assemble

    program = assemble(_LOOPS_SNIPPET, base=FLASH_BASE)
    target = program.symbols["target"]
    return BranchSnippet(
        mnemonic="beq",
        program=program,
        target_address=target,
        target_word=program.halfwords[(target - FLASH_BASE) // 2],
    )


class TestEarlyExitBoundaries:
    """The straight-line and cycle exits at their edges, against snapshot.

    The beq world: the corrupted slot is 0x08000004 (62 budget steps),
    0x0800000E is a zero halfword before the ``0xdead`` literal (``udf``),
    and 0x08000016 starts the zero padding that runs 501 halfwords to the
    end of the 1 KiB flash.  A zero halfword is ``lsls r0, r0, #0`` unless
    ``zero_is_invalid``.  Each case also checks whether the vector lane was
    decided early, so a rule that stops firing cannot pass unnoticed.
    """

    TARGET = 0x0800_0004
    PAD_BEFORE_UDF = 0x0800_000E
    PADDING = 0x0800_0016
    FLASH_END = 0x0800_0400

    def _run(self, word, zero_is_invalid, *, budget=None, extra_stops=(), snippet=None):
        """(snapshot category, vector category, the lane's VectorRun)."""
        snippet = snippet or branch_snippet("eq")
        categories = []
        for harness_class in (SnapshotSnippetHarness, SnippetHarness):
            harness = harness_class(snippet, zero_is_invalid=zero_is_invalid)
            world = harness._snapshot_world()
            if budget is not None:
                world.budget = budget
            world.marker_stops = world.marker_stops | frozenset(extra_stops)
            categories.append(harness.run_many([word])[word].category)
        batch = harness._vector_engine(world).run(np.array([word]))
        return categories[0], categories[1], batch

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "destination,budget,expected",
        [
            # the padding's run (501) equals the 501 steps left after the b
            (PADDING, 502, "failed"),
            # one step more: the run ends at the end of flash within budget
            (PADDING, 503, "bad_fetch"),
            # a one-halfword sled before udf: run == steps left, then one more
            (PAD_BEFORE_UDF, 2, "failed"),
            (PAD_BEFORE_UDF, 3, "invalid_instruction"),
            # the default budget: the sled reaches udf
            (PAD_BEFORE_UDF, None, "invalid_instruction"),
            # ten halfwords before the end of flash
            (FLASH_END - 20, None, "bad_fetch"),
        ],
    )
    def test_straight_line_sleds(self, destination, budget, expected, zero_is_invalid):
        word = _b(self.TARGET, destination)
        snapshot, vector, batch = self._run(word, zero_is_invalid, budget=budget)
        assert vector == snapshot
        # under zero_is_invalid the first zero halfword already faults
        assert snapshot == ("invalid_instruction" if zero_is_invalid else expected)
        assert batch.early_exits == 1

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "budget,expected", [(None, "no_effect"), (8, "no_effect"), (7, "failed")]
    )
    def test_run_through_a_marker_stop_is_not_decided(self, budget, expected, zero_is_invalid):
        # a stop five halfwords into the padding, reached at step 6: it
        # classifies with two steps left (budget 8), but with one step left
        # (budget 7) the lane executes it and runs out of budget instead
        stop = self.PADDING + 10
        snapshot, vector, batch = self._run(
            _b(self.TARGET, self.PADDING), zero_is_invalid, budget=budget, extra_stops=(stop,)
        )
        assert vector == snapshot
        if not zero_is_invalid:
            assert snapshot == expected
            # the padding's run ends at the stop, which decides nothing
            assert batch.early_exits == 0

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "destination,steps",
        [
            # b .: snapshot at step 1, equal at step 2
            (TARGET, 2),
            # back into the movs/cmp set-up: a three-step cycle, snapshot at
            # step 4, equal at step 7
            (0x0800_0000, 7),
        ],
    )
    def test_cycles_exit_as_limit(self, destination, steps, zero_is_invalid):
        snapshot, vector, batch = self._run(_b(self.TARGET, destination), zero_is_invalid)
        assert snapshot == vector == "failed"
        assert batch.early_exits == 1
        assert batch.lane_steps == steps

    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    @pytest.mark.parametrize(
        "loop",
        [
            # stores on every pass: registers and flags repeat at `b count`
            # (steps 8, 16, 24, ...), only the RAM counter moves
            "count",
            # registers differ: r2 counts while PC and flags repeat
            "spin",
            # flags differ: back at `toggle` (step 7) with the snapshot's
            # registers (step 4) but carry clear
            "pad",
        ],
    )
    def test_loops_that_leave_keep_stepping(self, loop, zero_is_invalid):
        snippet = _loops_snippet()
        word = _b(snippet.target_address, snippet.program.symbols[loop])
        snapshot, vector, batch = self._run(word, zero_is_invalid, snippet=snippet)
        assert snapshot == vector == "no_effect"
        assert batch.early_exits == 0


class TestRunManyRegressions:
    def test_results_keyed_by_original_unmasked_words(self):
        """run_many used to key results by `word & 0xFFFF`, so callers
        passing words >= 2^16 got a KeyError looking up their own input."""
        harness = SnippetHarness(branch_snippet("eq"))
        words = [0x1234, 0x1234 + (1 << 16), 0x2FFFF, 0xFFFF]
        results = harness.run_many(words)
        assert set(results) == set(words)
        # aliases after masking agree with each other and with run()
        assert results[0x1234].category == results[0x1234 + (1 << 16)].category
        assert results[0x2FFFF].category == results[0xFFFF].category
        for word in words:
            assert results[word].category == harness.run(word).category

    def test_duplicates_preserved_and_single_execution(self):
        harness = SnippetHarness(branch_snippet("eq"))
        results = harness.run_many([7, 7, 7])
        assert set(results) == {7}
        assert harness.words_executed == 1

    @pytest.mark.parametrize("engine", ["snapshot", "vector"])
    def test_mid_batch_crash_flushes_fresh_results(self, tmp_path, engine, monkeypatch):
        """An exception partway through a batch used to discard every
        already-classified entry; now `fresh` flushes in a finally."""
        cache = OutcomeCache(tmp_path / "cache")
        harness_class = SnippetHarness if engine == "vector" else SnapshotSnippetHarness
        harness = harness_class(branch_snippet("eq"), disk_cache=cache)
        if engine == "vector":
            # crash inside the batch executor, after classification started
            real_batch = harness._execute_vector_batch

            def exploding_batch(pending):
                real_batch(pending)
                raise RuntimeError("simulated unit-timeout kill")

            monkeypatch.setattr(harness, "_execute_vector_batch", exploding_batch)
        else:
            real_execute = harness._execute
            budget = iter(range(3))

            def exploding_execute(word):
                next(budget)  # 3 words classify, then the crash
                return real_execute(word)

            monkeypatch.setattr(harness, "_execute", exploding_execute)
        with pytest.raises((RuntimeError, StopIteration)):
            harness.run_many(range(64))
        shard = cache.get_shard_codes(harness.world_digest())
        cached = np.nonzero(shard)[0]
        assert cached.size > 0  # paid-for work survived the crash
        # and it is valid: a fresh harness serves those words from disk
        fresh = harness_class(branch_snippet("eq"), disk_cache=cache)
        word = int(cached[0])
        assert fresh.run(word).category == CODE_CATEGORIES[shard[word]]
        assert cache.hits == 1

    def test_memo_hits_counted_on_run_and_run_many(self, tmp_path):
        cache = OutcomeCache(tmp_path / "cache")
        harness = SnippetHarness(branch_snippet("eq"), disk_cache=cache)
        harness.run(5)
        assert cache.memo_hits == 0
        harness.run(5)
        assert cache.memo_hits == 1
        harness.run_many([5, 5, 6])
        # word 5 memo-resolves, plus one in-batch duplicate
        assert cache.memo_hits == 3
        assert cache.misses == 2  # words 5 and 6 each missed disk once


class TestVectorObservability:
    def test_vector_counters(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        words = range(256)
        with activate(obs):
            harness.run_many(words)
        assert obs.counters["vector.batches"] == 1
        assert obs.counters["vector.lanes"] == 256
        assert harness.words_executed == 256

    def test_lane_step_and_early_exit_counters(self):
        # every forward b: some land in the zero padding and are decided there
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        with activate(obs):
            harness.run_many(range(0xE000, 0xE400))
        world = harness._snapshot_world()
        batch = harness._vector_engine(world).run(np.arange(0xE000, 0xE400))
        assert obs.counters["vector.lane_steps"] == batch.lane_steps
        assert obs.counters["vector.early_exits"] == batch.early_exits
        assert 0 < batch.early_exits <= 1024
        assert batch.lane_steps >= 1024  # every lane fetches its own word

    def test_memoised_rerun_spawns_no_batch(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        harness.run_many(range(64))
        with activate(obs):
            harness.run_many(range(64))
        assert "vector.batches" not in obs.counters

    def test_scalar_engines_emit_no_vector_counters(self):
        """Batches on the snapshot replay and both rebuild oracles stay scalar."""
        image = load_image(DEMO_HEX)
        snippet = branch_snippet("ne")
        for harness in (
            SnapshotSnippetHarness(snippet),
            RebuildSnippetHarness(snippet),
            RebuildSiteHarness(image, discover_sites(image)[0]),
        ):
            obs = Observer()
            with activate(obs):
                harness.run_many(range(64))
            assert harness.words_executed == 64, type(harness).__name__
            assert not any(name.startswith("vector.") for name in obs.counters), (
                type(harness).__name__
            )
