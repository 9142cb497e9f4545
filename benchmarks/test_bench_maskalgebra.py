"""Mask-algebra benchmark: closed-form tallying vs full mask enumeration.

Runs a Figure 2 slice — the three paper panels (AND, OR, AND with 0x0000
invalid) over a subset of branches, full ``k`` range — once through the
campaign's closed-form tallies and once through the mask-enumeration
oracle (tests/oracles.py), each repetition against its own cold outcome
cache and both on the scalar snapshot engine (so the ratio measures the
tallying, not the engine), and asserts

- the ``by_k`` Counters are bit-identical between the two, and
- the algebra path is at least 3× faster end to end.

The speedup comes from two places: the 65,536-iteration Python mask loop
per (branch, model) disappears entirely, and the unidirectional models
execute only their reachable words (2^p submasks under AND, 2^(16-p)
supersets under OR) instead of touching the memo once per mask.
"""

import time

from repro.exec import OutcomeCache
from repro.glitchsim import SnippetHarness, branch_snippet
from repro.glitchsim.campaign import run_branch_campaign
from tests.oracles import enumerate_by_k

#: (panel, model, zero_is_invalid) — Figure 2's three paper panels
_PANELS = (
    ("and", "and", False),
    ("or", "or", False),
    ("and-0invalid", "and", True),
)

_CONDITIONS = ["eq", "ne", "vs"]


def _fig2_slice(tally: str, cache_root: str) -> dict:
    panels = {}
    if tally == "algebra":
        for name, model, zero_is_invalid in _PANELS:
            result = run_branch_campaign(
                model,
                zero_is_invalid=zero_is_invalid,
                conditions=_CONDITIONS,
                cache=cache_root,
                engine="snapshot",  # the enumeration side runs on it too
            )
            panels[name] = {sweep.mnemonic: sweep.by_k for sweep in result.sweeps}
        return panels
    cache = OutcomeCache(cache_root)
    for name, model, zero_is_invalid in _PANELS:
        panels[name] = {}
        for condition in _CONDITIONS:
            snippet = branch_snippet(condition)
            harness = SnippetHarness(snippet, zero_is_invalid=zero_is_invalid,
                                     disk_cache=cache, engine="snapshot")
            panels[name][snippet.mnemonic] = enumerate_by_k(
                harness, snippet.target_word, model
            )
    cache.flush()
    return panels


def test_maskalgebra_speedup(tmp_path):
    """The closed-form tallies are ≥3× faster than mask enumeration, bit-identical.

    Each repetition gets a fresh cache directory so both modes always do
    their cold-path work; the fastest of three repetitions per mode is
    compared, insulating the ratio from machine-load spikes.
    """
    timings = {}
    tallies = {}
    for tally in ("enumerate", "algebra"):
        best = float("inf")
        for repetition in range(3):
            cache_root = tmp_path / f"{tally}-{repetition}"
            start = time.perf_counter()
            panels = _fig2_slice(tally, str(cache_root))
            best = min(best, time.perf_counter() - start)
        timings[tally] = best
        tallies[tally] = panels
    assert tallies["algebra"] == tallies["enumerate"]
    speedup = timings["enumerate"] / timings["algebra"]
    print(
        f"\nfig2 slice ({'+'.join(_CONDITIONS)}, 3 panels): "
        f"enumerate {timings['enumerate']:.2f}s, algebra {timings['algebra']:.2f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, f"mask-algebra speedup {speedup:.2f}x < 3x"


def test_maskalgebra_word_budget(tmp_path):
    """All three models together emulate exactly 2^16 unique words per branch."""
    from repro.glitchsim import branch_snippet, sweep_instruction
    from repro.exec import OutcomeCache
    from repro.obs import Observer, activate

    cache = OutcomeCache(tmp_path)
    obs = Observer()
    with activate(obs):
        for model in ("and", "or", "xor"):
            sweep_instruction(branch_snippet("eq"), model, cache=cache)
    assert obs.counters["algebra.words_emulated"] == 1 << 16
    assert obs.counters["algebra.masks_derived"] == 3 * (1 << 16)
