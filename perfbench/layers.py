"""Layer attribution for the traced benchmark run (``--trace 1``).

The program's own spans stop at ``exec.map``.  For the traced run the
benchmark wraps the entry point of every layer below that, from its own
side, and charges each call's wall time to its layer minus the time spent
in nested wrapped calls (the layer's *self* time), so the layers' self
times and ``other`` add up to the artifact's wall time.  The wrappers are
installed only for the traced run and removed afterwards: the end-to-end
run executes the program untouched.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: every layer a wrapper or a benchmark span charges time to
LAYERS = (
    "build",      # firmware compile + hardening, operand-table decode
    "exec",       # ParallelExecutor.map bookkeeping around the work units
    "harness",    # per-unit sweep / scan glue outside the layers below
    "boot",       # emulation replay-point build, board reset, baseline capture
    "fastpath",   # fault-model occurrence plan (decides most hw attempts)
    "glitcher",   # ClockGlitcher attempt and simulation loop
    "step",       # PipelinedCPU cycle stepping (decode excluded)
    "decode",     # ISA decode and classification inside the pipeline
    "vector",     # NumPy lock-step emulation engine
    "algebra",    # reachable-word enumeration and closed-form mask tallies
)


class LayerClock:
    """Self time per layer plus named event counts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time charged to each open call

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    @contextmanager
    def excluded(self):
        """Leave what the block spends out of the totals (output checks)."""
        self_s, counts = dict(self.self_s), Counter(self.counts)
        try:
            yield
        finally:
            # in place: the wrappers hold references to both
            self.self_s.clear()
            self.self_s.update(self_s)
            self.counts.clear()
            self.counts.update(counts)

    def _close(self, layer: str, elapsed: float) -> None:
        child = self._open.pop()
        self.self_s[layer] += elapsed - child
        if self._open:
            self._open[-1] += elapsed

    @contextmanager
    def span(self, layer: str):
        """Charge a block of the benchmark's own code to ``layer``."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, time.perf_counter() - start)

    def wrap(self, layer, fn, count=None, before=None, after=None):
        """``fn`` with its calls charged to ``layer``.

        ``count`` names a counter bumped per call; ``before(args)`` and
        ``after(result)`` classify calls into further counters.
        """
        clock = time.perf_counter
        opened = self._open
        close = self._close
        counts = self.counts

        def wrapper(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if before is not None:
                before(args)
            opened.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(layer, clock() - start)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


class NullClock:
    """Stands in for :class:`LayerClock` when tracing is off."""

    @contextmanager
    def span(self, layer: str):
        yield

    @contextmanager
    def excluded(self):
        yield


def _targets(clock: LayerClock):
    """``(owner, attribute, layer, count, before, after)`` for every wrapper."""
    import repro.glitchsim.campaign as branch_campaign
    import repro.hw.pipeline as pipeline
    import repro.hw.scan as scan
    from repro.emu.vector import VectorEngine
    from repro.exec.executor import ParallelExecutor
    from repro.glitchsim.harness import SnippetHarness
    from repro.hw.glitcher import ClockGlitcher
    from repro.hw.mcu import Board

    counts = clock.counts

    def attempt_path(result) -> None:
        counts["simulated_attempts" if result.simulated else "fastpath_attempts"] += 1

    def boot_or_replay(args) -> None:
        glitcher = args[0]
        replayed = glitcher._usable_baseline() is not None
        counts["baseline_replays" if replayed else "full_boots"] += 1

    return [
        (ParallelExecutor, "map", "exec", None, None, None),
        (branch_campaign, "sweep_instruction", "harness", None, None, None),
        (scan, "_defense_shape_unit", "harness", None, None, None),
        (SnippetHarness, "_snapshot_world", "boot", None, None, None),
        (Board, "reset", "boot", None, None, None),
        (ClockGlitcher, "_capture_baseline", "boot", None, None, None),
        (ClockGlitcher, "_occurrence_plan", "fastpath", None, None, None),
        (ClockGlitcher, "run_attempt", "glitcher", None, None, attempt_path),
        (ClockGlitcher, "_simulate", "glitcher", None, boot_or_replay, None),
        (pipeline.PipelinedCPU, "step_cycle", "step", "cycles", None, None),
        (pipeline, "decode", "decode", "decode_calls", None, None),
        (pipeline, "_classify_raw", "decode", None, None, None),
        (VectorEngine, "run", "vector", None, None, None),
        (branch_campaign, "reachable_words", "algebra", None, None, None),
        (branch_campaign, "tally_from_word_codes", "algebra", None, None, None),
    ]


@contextmanager
def attributed(clock: LayerClock):
    """Install the layer wrappers for the duration of the block."""
    saved = []
    try:
        for owner, name, layer, count, before, after in _targets(clock):
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, clock.wrap(layer, original, count, before, after))
        yield clock
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
