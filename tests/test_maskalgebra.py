"""Tests for repro.glitchsim.maskalgebra and the closed-form sweep tallies.

The load-bearing property: deriving per-k mask tallies from unique-word
outcomes is *bit-identical* to enumerating every mask — pinned here both
against a synthetic classifier (hypothesis, random targets) and against
the real snippet harness (the mask-enumeration oracle of tests/oracles.py).
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bits import apply_flip, iter_masks, popcount
from repro.exec import OutcomeCache
from repro.exec.cache import CODE_CATEGORIES
from repro.glitchsim import SnippetHarness, branch_snippet, sweep_instruction
from repro.glitchsim.maskalgebra import (
    MODELS,
    multiplicity,
    reachable_words,
    tally_from_word_codes,
    tally_from_word_outcomes,
)
from tests.oracles import SnapshotSnippetHarness, enumerate_by_k

WIDTH = 16


def _synthetic_category(word: int) -> str:
    """A deterministic multi-bucket pure function of the corrupted word."""
    return ("alpha", "beta", "gamma", "delta")[(popcount(word) + (word & 3)) % 4]


def _enumerate_tally(target: int, model: str, ks: tuple) -> dict:
    """The oracle: walk every mask of every requested flip count."""
    by_k = {}
    for k in ks:
        counter: Counter = Counter()
        for flip in iter_masks(WIDTH, k):
            counter[_synthetic_category(apply_flip(target, flip, WIDTH, model))] += 1
        by_k[k] = counter
    return by_k


class TestAlgebraDifferentialProperty:
    @settings(max_examples=30, deadline=None)
    @given(
        target=st.integers(0, 0xFFFF),
        model=st.sampled_from(MODELS),
        ks=st.sets(st.integers(0, WIDTH), min_size=1, max_size=4),
    )
    def test_algebra_matches_enumeration(self, target, model, ks):
        ks = tuple(sorted(ks))
        table = {
            word: _synthetic_category(word)
            for word in reachable_words(target, model, WIDTH, ks)
        }
        assert tally_from_word_outcomes(target, model, table, ks) == _enumerate_tally(
            target, model, ks
        )

    @settings(max_examples=20, deadline=None)
    @given(
        target=st.integers(0, 0xFFFF),
        model=st.sampled_from(("and", "or")),
        k=st.integers(0, WIDTH),
    )
    def test_multiplicity_sums_to_binomial(self, target, model, k):
        words = reachable_words(target, model)
        total = sum(multiplicity(word, target, model, k) for word in words)
        assert total == math.comb(WIDTH, k)

    @pytest.mark.parametrize("target", [0x0000, 0xD001, 0xBEEF, 0xFFFF])
    def test_multiplicity_sums_to_binomial_xor(self, target):
        # XOR is a bijection: each word counts for exactly one k
        counts = Counter()
        for word in reachable_words(target, "xor"):
            for k in range(WIDTH + 1):
                counts[k] += multiplicity(word, target, "xor", k)
        assert counts == Counter({k: math.comb(WIDTH, k) for k in range(WIDTH + 1)})

    @pytest.mark.parametrize("p", range(WIDTH + 1))
    def test_vandermonde_identity(self, p):
        # sum_j C(p, j) * C(16-p, k-j) == C(16, k): the closed-form tally
        # accounts for every mask exactly once
        for k in range(WIDTH + 1):
            total = sum(
                math.comb(p, j) * math.comb(WIDTH - p, k - j)
                for j in range(p + 1)
                if 0 <= k - j <= WIDTH - p
            )
            assert total == math.comb(WIDTH, k)


def _scalar_comb_tally(target, model, words, categories_of, ks):
    """The scalar reference for the ``W @ G`` matmul: one comb() per word.

    The pre-vectorization per-``j`` loop, restated via the library's own
    (enumeration-pinned) :func:`multiplicity` — each word contributes
    ``C(free, k - j)`` masks to its category, summed one word at a time.
    """
    by_k = {}
    for k in ks:
        counter: Counter = Counter()
        for word in words:
            m = multiplicity(word, target, model, k, WIDTH)
            if m:
                counter[categories_of[word]] += m
        by_k[k] = counter
    return by_k


class TestWordCodesMatmulDifferential:
    """``tally_from_word_codes`` (bincount + W @ G) vs the scalar comb loop."""

    @settings(max_examples=40, deadline=None)
    @given(
        target=st.integers(0, 0xFFFF),
        model=st.sampled_from(MODELS),
        ks=st.sets(st.integers(0, WIDTH), min_size=1, max_size=4),
        ncat=st.integers(1, 6),
    )
    def test_matmul_matches_scalar_comb_loop(self, target, model, ks, ncat):
        import numpy as np

        ks = tuple(sorted(ks))
        words = reachable_words(target, model, WIDTH)  # full table, extra ks
        categories = (None,) + tuple(f"cat{i}" for i in range(ncat))
        categories_of = {
            word: categories[1 + (popcount(word) + (word & 7)) % ncat]
            for word in words
        }
        arr = np.asarray(words, dtype=np.int64)
        codes = np.asarray(
            [categories.index(categories_of[w]) for w in words], dtype=np.int64
        )
        vectorized = tally_from_word_codes(target, model, arr, codes, categories, ks)
        assert vectorized == _scalar_comb_tally(target, model, words, categories_of, ks)

    @settings(max_examples=15, deadline=None)
    @given(target=st.integers(0, 0xFFFF), model=st.sampled_from(MODELS))
    def test_out_of_range_k_tallies_empty(self, target, model):
        import numpy as np

        words = reachable_words(target, model, WIDTH)
        arr = np.asarray(words, dtype=np.int64)
        codes = np.ones(arr.size, dtype=np.int64)
        by_k = tally_from_word_codes(
            target, model, arr, codes, (None, "only"), (-1, WIDTH + 3)
        )
        assert by_k == {-1: Counter(), WIDTH + 3: Counter()}

    def test_incomplete_table_raises_with_missing_word_message(self):
        import numpy as np

        target = 0xD001
        words = reachable_words(target, "and", WIDTH)[:-1]  # drop one
        arr = np.asarray(words, dtype=np.int64)
        codes = np.ones(arr.size, dtype=np.int64)
        with pytest.raises(ValueError, match="reachable word is missing"):
            tally_from_word_codes(target, "and", arr, codes, (None, "only"), (2,))


class TestReachableWords:
    def test_and_words_are_submasks(self):
        target = 0xD001  # beq: p = 4
        words = reachable_words(target, "and").tolist()
        assert len(words) == 2 ** popcount(target)
        assert all(word & ~target == 0 for word in words)
        assert words == sorted(words)

    def test_or_words_are_supersets(self):
        target = 0xD001
        words = reachable_words(target, "or").tolist()
        assert len(words) == 2 ** (WIDTH - popcount(target))
        assert all(word & target == target for word in words)
        assert words == sorted(words)

    @settings(max_examples=30, deadline=None)
    @given(
        target=st.integers(0, 0xFFFF),
        model=st.sampled_from(MODELS),
        ks=st.sets(st.integers(-1, WIDTH + 1), max_size=4),
    )
    def test_matches_mask_enumeration(self, target, model, ks):
        import numpy as np

        # the loop reference: apply every mask of every requested flip count
        expected = sorted({
            apply_flip(target, flip, WIDTH, model) for k in ks for flip in iter_masks(WIDTH, k)
        })
        words = reachable_words(target, model, WIDTH, tuple(ks))
        assert words.dtype == np.int64
        assert words.tolist() == expected

    def test_xor_reaches_every_word(self):
        assert reachable_words(0xBEEF, "xor").tolist() == list(range(1 << WIDTH))

    @pytest.mark.parametrize("model", MODELS)
    def test_k_restriction_matches_multiplicity(self, model):
        target = 0xD101  # bne: p = 5
        restricted = reachable_words(target, model, k_values=(1, 2))
        expected = [
            word
            for word in reachable_words(target, model).tolist()
            if any(multiplicity(word, target, model, k) for k in (1, 2))
        ]
        assert restricted.tolist() == expected

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            reachable_words(0, "nand")
        with pytest.raises(ValueError, match="model"):
            multiplicity(0, 0, "nand", 1)
        with pytest.raises(ValueError, match="model"):
            tally_from_word_outcomes(0, "nand", {})


class TestTallyTableContract:
    def test_missing_reachable_word_raises(self):
        target = 0xD001
        table = {word: "x" for word in reachable_words(target, "and")}
        del table[target]  # the k=0 word
        with pytest.raises(ValueError, match="incomplete"):
            tally_from_word_outcomes(target, "and", table)

    def test_full_table_shared_across_models(self):
        # one 2^16 word table serves every model (extra words are ignored)
        target = 0xD601  # bvs: p = 6
        table = {word: _synthetic_category(word) for word in range(1 << WIDTH)}
        ks = (0, 1, 2, 16)
        for model in MODELS:
            assert tally_from_word_outcomes(target, model, table, ks) == \
                _enumerate_tally(target, model, ks)

    def test_no_zero_count_entries(self):
        # Counters must stay free of zero-count categories so checkpointed
        # payloads (dict(counter)) round-trip identically
        target = 0xD001
        table = {word: _synthetic_category(word) for word in reachable_words(target, "and")}
        for counter in tally_from_word_outcomes(target, "and", table).values():
            assert all(count > 0 for count in counter.values())


class TestSweepTallyDifferential:
    @pytest.mark.parametrize("condition,zero_is_invalid", [("eq", False), ("vs", True)])
    @pytest.mark.parametrize("model", MODELS)
    def test_algebra_equals_enumerate_restricted_k(self, condition, zero_is_invalid, model):
        snippet = branch_snippet(condition)
        ks = (0, 1, 2, 15, 16)
        algebra = sweep_instruction(snippet, model, zero_is_invalid=zero_is_invalid,
                                    k_values=ks)
        enumerate_ = enumerate_by_k(
            SnapshotSnippetHarness(snippet, zero_is_invalid=zero_is_invalid),
            snippet.target_word, model, ks,
        )
        assert algebra.by_k == enumerate_

    @pytest.mark.parametrize("model", ["and", "or"])
    def test_algebra_equals_enumerate_full_k(self, model):
        snippet = branch_snippet("eq")
        algebra = sweep_instruction(snippet, model)
        enumerate_ = enumerate_by_k(SnapshotSnippetHarness(snippet),
                                    snippet.target_word, model)
        assert algebra.by_k == enumerate_
        assert sum(algebra.totals.values()) == 1 << WIDTH  # every mask accounted for

    def test_unknown_tally_rejected(self):
        """There is one tallying strategy; the ``tally`` option is gone."""
        with pytest.raises(TypeError, match="tally"):
            sweep_instruction(branch_snippet("eq"), "and", tally="algebra")


class TestCrossModelSharing:
    def test_three_models_emulate_at_most_2_to_16_words(self, tmp_path):
        """Acceptance criterion: one shared word table per (mnemonic, panel).

        With a shared cache, AND's submasks and OR's supersets are free
        once XOR has run — the three full sweeps together execute exactly
        2^16 unique words, while deriving 3 * 2^16 mask tallies.
        """
        from repro.obs import Observer, activate

        snippet = branch_snippet("eq")
        cache = OutcomeCache(tmp_path)
        obs = Observer()
        with activate(obs):
            # xor first: its 2^16 word set subsumes the other two models'
            for model in ("xor", "and", "or"):
                sweep_instruction(snippet, model, cache=cache)
        assert obs.counters["algebra.words_emulated"] == 1 << WIDTH
        assert obs.counters["algebra.masks_derived"] == 3 * (1 << WIDTH)

    def test_and_or_share_only_the_target(self, tmp_path):
        # without xor: 2^p + 2^(16-p) words, overlapping only at the target
        snippet = branch_snippet("eq")
        p = popcount(snippet.target_word)
        from repro.obs import Observer, activate

        cache = OutcomeCache(tmp_path)
        obs = Observer()
        with activate(obs):
            sweep_instruction(snippet, "and", cache=cache)
            sweep_instruction(snippet, "or", cache=cache)
        assert obs.counters["algebra.words_emulated"] == \
            2 ** p + 2 ** (WIDTH - p) - 1


class TestRunMany:
    def test_matches_per_word_run(self, tmp_path):
        from repro.glitchsim.harness import SnippetHarness

        snippet = branch_snippet("eq")
        words = [0x0000, 0xD001, 0xFFFF, 0x1234, 0x1234]  # duplicate on purpose
        bulk_cache = OutcomeCache(tmp_path / "bulk")
        # the snapshot replay keeps detail strings in batches too
        bulk_harness = SnapshotSnippetHarness(snippet, disk_cache=bulk_cache)
        bulk = bulk_harness.run_many(words)
        assert sorted(bulk) == sorted(set(words))
        assert bulk_harness.words_executed == 4
        assert (bulk_cache.hits, bulk_cache.misses) == (0, 4)

        loop_harness = SnippetHarness(snippet, disk_cache=OutcomeCache(tmp_path / "loop"))
        for word in set(words):
            assert loop_harness.run(word) == bulk[word]

    def test_bulk_cache_hits_skip_emulation(self, tmp_path):
        from repro.glitchsim.harness import SnippetHarness

        snippet = branch_snippet("eq")
        words = [0x0000, 0xD001, 0xFFFF]
        with OutcomeCache(tmp_path) as cache:
            SnippetHarness(snippet, disk_cache=cache).run_many(words)

        warm_cache = OutcomeCache(tmp_path)
        warm = SnippetHarness(snippet, disk_cache=warm_cache)
        outcomes = warm.run_many(words)
        assert warm.words_executed == 0
        assert (warm_cache.hits, warm_cache.misses) == (3, 0)
        shard = warm_cache.get_shard_codes(warm.world_digest())
        assert {word: outcome.category for word, outcome in outcomes.items()} == {
            word: CODE_CATEGORIES[shard[word]] for word in words
        }
