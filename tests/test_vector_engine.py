"""Differential and regression tests for the NumPy lock-step engine.

The vector engine re-implements the scalar Thumb-16 semantics, so its
tests are overwhelmingly differential: ``engine="snapshot"`` (itself
pinned against the per-word rebuild oracle of tests/oracles.py by
tests/test_snapshot.py) is the oracle.
The beq full-space sweep runs every one of the 2^16 corrupted words
through both engines; the hypothesis sweep samples word batches across
all 14 branches and both decode modes three ways.

This file also carries the run_many batch-path regressions that landed
with the engine: original-word result keying, flush-fresh-on-crash, and
the vector.* observability counters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import OutcomeCache
from repro.exec.cache import CODE_CATEGORIES
from repro.glitchsim.harness import ENGINES, SnippetHarness
from repro.glitchsim.snippets import all_branch_snippets, branch_snippet
from repro.obs import Observer, activate
from tests.oracles import RebuildSnippetHarness, rebuild_engine

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
            SnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            RebuildSnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            SnippetHarness(snippet, zero_is_invalid=zero_is_invalid, engine="vector"),
        )
        _HARNESS_CACHE[key] = trio
    return trio


class TestVectorDifferential:
    @pytest.mark.parametrize("zero_is_invalid", [False, True])
    def test_beq_full_word_space_matches_snapshot(self, zero_is_invalid):
        """Every possible corrupted word, both decode modes, both engines."""
        snippet = branch_snippet("eq")
        words = range(1 << 16)
        base = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid).run_many(words)
        vec = SnippetHarness(
            snippet, zero_is_invalid=zero_is_invalid, engine="vector"
        ).run_many(words)
        mismatches = [
            (word, base[word].category, vec[word].category)
            for word in words
            if base[word].category != vec[word].category
        ]
        assert mismatches == []

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
        by_engine = {
            engine: run_branch_campaign("and", engine=engine, **slice_kwargs)
            for engine in ENGINES
        }
        with rebuild_engine():
            by_engine["rebuild"] = run_branch_campaign("and", **slice_kwargs)
        reprs = {engine: repr(result.sweeps) for engine, result in by_engine.items()}
        assert reprs["vector"] == reprs["snapshot"] == reprs["rebuild"]

    @pytest.mark.parametrize("instruction_class",
                             ["load", "store", "compare", "alu", "move"])
    def test_instruction_class_sweeps_identical(self, instruction_class):
        from repro.glitchsim.instr_classes import sweep_instruction_class

        scalar = sweep_instruction_class(instruction_class, "and")
        vector = sweep_instruction_class(instruction_class, "and", engine="vector")
        assert vector == scalar
        xor_scalar = sweep_instruction_class(
            instruction_class, "xor", k_values=(1, 2)
        )
        xor_vector = sweep_instruction_class(
            instruction_class, "xor", k_values=(1, 2), engine="vector"
        )
        assert xor_vector == xor_scalar


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
        harness = SnippetHarness(
            branch_snippet("eq"), disk_cache=cache, engine=engine
        )
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
        fresh = SnippetHarness(branch_snippet("eq"), disk_cache=cache)
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
        harness = SnippetHarness(branch_snippet("ne"), engine="vector")
        words = range(256)
        with activate(obs):
            harness.run_many(words)
        assert obs.counters["vector.batches"] == 1
        assert obs.counters["vector.lanes"] == 256
        assert harness.words_executed == 256

    def test_memoised_rerun_spawns_no_batch(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"), engine="vector")
        harness.run_many(range(64))
        with activate(obs):
            harness.run_many(range(64))
        assert "vector.batches" not in obs.counters

    def test_scalar_engines_emit_no_vector_counters(self):
        obs = Observer()
        harness = SnippetHarness(branch_snippet("ne"))
        with activate(obs):
            harness.run_many(range(64))
        assert not any(name.startswith("vector.") for name in obs.counters)


class TestGoldenUnderVector:
    """The published Figure 2 rates are engine-independent."""

    pytestmark = pytest.mark.slow

    def test_fig2_golden_means_unchanged(self):
        from repro.experiments import run_figure2

        fig2 = run_figure2(engine="vector")
        assert fig2.mean_success("and") == pytest.approx(0.4252232142857143, abs=1e-12)
        assert fig2.mean_success("or") == pytest.approx(0.12009974888392858, abs=1e-12)
        assert fig2.mean_success("xor") == pytest.approx(0.415924072265625, abs=1e-12)
        assert fig2.mean_success("and-0invalid") == pytest.approx(
            0.40345982142857145, abs=1e-12
        )
