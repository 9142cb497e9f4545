"""The world tally: every sweep of a replay world from one dense code array.

:func:`repro.glitchsim.campaign.tally_world` classifies the union of a
world's reachable words in one batch and tallies every (target, model)
sweep from the harness's code array in one
:func:`repro.glitchsim.maskalgebra.tally_from_word_codes` call. Pinned
here against the mask loop (``tests.oracles.enumerate_by_k``, on a
separate harness), against the per-sweep tally it replaced
(``tests.oracles.per_sweep_tally``), and for its cache accounting.
"""

import os

import pytest

from repro.campaign import SiteHarness, discover_sites
from repro.exec import OutcomeCache
from repro.exec.cache import CODE_CATEGORIES
from repro.experiments import run_figure2
from repro.firmware.image import load_image
from repro.glitchsim import SnippetHarness, branch_snippet, run_branch_campaign
from repro.glitchsim.campaign import tally_world
from repro.glitchsim.maskalgebra import MODELS, reachable_words, tally_from_word_codes
from repro.obs import Observer
from tests.oracles import enumerate_by_k, per_sweep_tally

DEMO_HEX = os.path.join(os.path.dirname(__file__), "..", "examples", "demo_fw.hex")


def _snippet_world(condition):
    snippet = branch_snippet(condition)
    return (lambda: SnippetHarness(snippet)), snippet.target_word


def _site_world():
    image = load_image(DEMO_HEX)
    site = discover_sites(image)[0]
    return (lambda: SiteHarness(image, site)), site.word


WORLDS = {
    "beq": lambda: _snippet_world("eq"),
    "bvs": lambda: _snippet_world("vs"),
    "demo_fw site": _site_world,
}


@pytest.fixture(scope="module", params=list(WORLDS))
def world(request):
    """``(harness factory, target word)``, and an oracle harness whose
    scalar replays the mask loop shares across k sets and models."""
    make, target = WORLDS[request.param]()
    return make, target, make()


class TestWorldTallyDifferential:
    @pytest.mark.parametrize("ks", [(0, 1, 2, 3), (5,)])
    def test_matches_mask_enumeration(self, world, ks):
        make, target, oracle = world
        tallies = tally_world(make(), [(target, model) for model in MODELS], ks)
        for model, by_k in zip(MODELS, tallies):
            assert by_k == enumerate_by_k(oracle, target, model, ks), model

    def test_full_k_matches_per_sweep_tally(self, world):
        make, target, _ = world
        harness = make()
        tallies = tally_world(harness, [(target, model) for model in MODELS], None)
        for model, by_k in zip(MODELS, tallies):
            words = reachable_words(target, model)
            codes = harness.codes[words]
            assert by_k == per_sweep_tally(target, model, words, codes, CODE_CATEGORIES)

    def test_reachable_word_left_at_code_zero_raises(self, world):
        make, target, _ = world
        harness = make()
        tally_world(harness, [(target, model) for model in MODELS], (1, 2))
        for model in MODELS:
            codes = harness.codes.copy()
            # a word two flips away: reachable at k = 2, never at k = 1
            word = next(
                word for word in reachable_words(target, model, k_values=(2,)).tolist()
                if bin(word ^ target).count("1") == 2
            )
            codes[word] = 0
            with pytest.raises(ValueError, match="reachable word is missing"):
                tally_from_word_codes([(target, model)], codes, CODE_CATEGORIES, (1, 2))
            tally_from_word_codes([(target, model)], codes, CODE_CATEGORIES, (1,))

    def test_codes_view_is_read_only(self):
        harness = SnippetHarness(branch_snippet("eq"))
        with pytest.raises(ValueError):
            harness.codes[0] = 1


class TestWorldCacheAccounting:
    """Cache hits, misses and memo hits of k-restricted campaigns, as the
    per-sweep tally counted them: the union batch counts each word once,
    then every sweep reads its reachable words back from the memo."""

    def test_figure2_cold_then_warm(self, tmp_path):
        for hits, misses in ((0, 1761), (1761, 0)):
            cache = OutcomeCache(tmp_path)
            obs = Observer()
            run_figure2(k_values=(1, 2), cache=cache, obs=obs)
            assert (cache.hits, cache.misses, cache.memo_hits) == (hits, misses, 3313)
            assert obs.counters.get("cache.memo_hits", 0) == 3313
            assert obs.counters["algebra.masks_derived"] == 7616

    def test_one_model_campaign(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        run_branch_campaign("and", k_values=(0, 1, 2, 3), conditions=["eq", "vs"], cache=cache)
        assert (cache.hits, cache.misses, cache.memo_hits) == (0, 57, 57)

    def test_lone_sweep_reads_its_words_once(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        harness = SnippetHarness(branch_snippet("eq"), disk_cache=cache)
        tally_world(harness, [(harness.snippet.target_word, "or")], (2,))
        assert (cache.hits, cache.misses, cache.memo_hits) == (0, 79, 0)
