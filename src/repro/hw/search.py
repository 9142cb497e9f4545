"""Section V-B: locating optimal glitch parameters automatically.

The paper's algorithm "starts by scanning our glitching parameters (i.e.,
target offset, width, and offset) with a 10 cycle clock glitch, which
encompasses every instruction in the while loop. Once successful parameters
are identified, the algorithm then tests each individual clock cycle within
the 10 clock-cycle range and recursively increases its precision until a
100% success rate (10 out of 10 attempts) is achieved."

Wall-clock conversion: the paper reports 36,869 attempts converging in 59
minutes for ``while(a)`` — about 10.4 attempts per second — so we model
minutes as ``attempts / (10.4 * 60)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exec import open_campaign_checkpoint
from repro.exec.checkpoint import MISSING
from repro.hw.clock import GlitchParams, OFFSET_RANGE, WIDTH_RANGE
from repro.hw.faults import FaultModel
from repro.hw.glitcher import ClockGlitcher
from repro.obs import Observer, coerce_observer

#: attempts per second observed on the paper's bench (36,869 in 59 minutes)
ATTEMPTS_PER_SECOND = 36_869 / (59 * 60)

CONFIRMATION_RUNS = 10


@dataclass
class SearchResult:
    """Outcome of one optimal-parameter search."""

    guard: str
    found: bool
    params: Optional[GlitchParams] = None
    attempts: int = 0
    successes: int = 0
    confirmed_rate: float = 0.0
    candidates_tested: int = 0
    history: list[str] = field(default_factory=list)

    @property
    def modeled_minutes(self) -> float:
        """Bench-equivalent wall-clock time for this many attempts."""
        return self.attempts / (ATTEMPTS_PER_SECOND * 60)


class ParameterSearch:
    """Coarse-to-fine search for 10-out-of-10 glitch parameters."""

    def __init__(
        self,
        guard: str,
        fault_model=None,
        coarse_stride: int = 4,
        scan_cycles: int = 10,
        checkpoint_dir: Optional[str] = None,
        resume: bool = False,
        obs: Optional[Observer] = None,
    ):
        from repro.firmware.loops import build_guard_firmware
        from repro.hw.models import model_meta

        self.guard = guard
        firmware = build_guard_firmware(guard, "single")
        self.glitcher = ClockGlitcher(firmware, fault_model=fault_model)
        self.coarse_stride = coarse_stride
        self.scan_cycles = scan_cycles
        self.obs = coerce_observer(obs)
        self.attempts = 0
        self.successes = 0
        self._max_attempts: Optional[int] = None
        self._checkpoint = None
        if checkpoint_dir is not None or resume:
            # every attempt outcome is logged in sequence; the search is
            # deterministic given those outcomes, so a resumed search
            # replays the recorded prefix without touching the glitcher
            # and reaches the interrupted state bit-identically
            meta = {
                "campaign": "search",
                "guard": guard,
                "coarse_stride": coarse_stride,
                "scan_cycles": scan_cycles,
                "fault_model": model_meta(self.glitcher.fault_model),
            }
            self._checkpoint = open_campaign_checkpoint(
                checkpoint_dir, f"search-{guard}", meta, resume=resume,
                flush_every=256,
            )

    def close(self) -> None:
        """Flush and close the attempt-log checkpoint (if any)."""
        if self._checkpoint is not None:
            self._checkpoint.close()

    # ------------------------------------------------------------------

    def _exhausted(self) -> bool:
        return self._max_attempts is not None and self.attempts >= self._max_attempts

    def run(self, max_attempts: int = 200_000) -> SearchResult:
        """Search within an attempt budget.

        ``max_attempts`` bounds the whole search: both the coarse scan and
        the refinement phase abort once the budget is spent (only an
        in-flight confirmation run, at most ``CONFIRMATION_RUNS`` attempts,
        may overshoot).
        """
        self._max_attempts = max_attempts
        obs = self.obs
        # the per-attempt loop is the hot path — count totals as one
        # end-of-run delta instead of touching the observer per attempt
        attempts0, successes0 = self.attempts, self.successes
        try:
            with obs.trace(f"search[{self.guard}]", guard=self.guard,
                           max_attempts=max_attempts):
                result = self._run()
        finally:
            # an interrupted search keeps its attempt log for --resume
            if self._checkpoint is not None:
                self._checkpoint.flush()
            obs.count("search.attempts", self.attempts - attempts0)
            obs.count("search.successes", self.successes - successes0)
        if obs.enabled:
            obs.event("search", guard=self.guard, found=result.found,
                      attempts=result.attempts, successes=result.successes,
                      params=str(result.params) if result.params else None)
        return result

    def _run(self) -> SearchResult:
        result = SearchResult(guard=self.guard, found=False)

        # Phase 1: coarse scan with a wide (10-cycle) glitch.
        candidates = []
        for width in WIDTH_RANGE[:: self.coarse_stride]:
            if self._exhausted():
                break
            for offset in OFFSET_RANGE[:: self.coarse_stride]:
                if self._exhausted():
                    break
                params = GlitchParams(0, width, offset, repeat=self.scan_cycles)
                if self._attempt(params):
                    candidates.append((width, offset))
        result.history.append(f"coarse scan: {len(candidates)} candidate points")
        result.candidates_tested = len(candidates)

        # Phase 2: per-cycle refinement around each candidate.
        for width, offset in candidates:
            if self._exhausted():
                break
            for cycle in range(self.scan_cycles):
                if self._exhausted():
                    break
                refined = self._refine(width, offset, cycle)
                if refined is not None and not self._exhausted():
                    rate = self._confirm(refined)
                    result.history.append(
                        f"confirmed {refined} at {rate * 100:.0f}% over "
                        f"{CONFIRMATION_RUNS} runs"
                    )
                    if rate == 1.0:
                        result.found = True
                        result.params = refined
                        result.confirmed_rate = rate
                        result.attempts = self.attempts
                        result.successes = self.successes
                        return result
        result.attempts = self.attempts
        result.successes = self.successes
        return result

    # ------------------------------------------------------------------

    def _attempt(self, params: GlitchParams) -> bool:
        self.attempts += 1
        success = None
        if self._checkpoint is not None:
            recorded = self._checkpoint.get(str(self.attempts))
            if recorded is not MISSING:
                success = bool(recorded)  # replayed from the interrupted run
        if success is None:
            success = self.glitcher.run_attempt(params).category == "success"
            if self._checkpoint is not None:
                self._checkpoint.record(str(self.attempts), success)
        if success:
            self.successes += 1
        return success

    def _refine(self, width: int, offset: int, cycle: int) -> Optional[GlitchParams]:
        """Search the local neighbourhood of (width, offset) at one cycle."""
        best: Optional[GlitchParams] = None
        span = max(1, self.coarse_stride // 2)
        for dw in range(-span, span + 1):
            for do in range(-span, span + 1):
                if self._exhausted():
                    return best
                w = width + dw
                o = offset + do
                if w not in WIDTH_RANGE or o not in OFFSET_RANGE:
                    continue
                params = GlitchParams(cycle, w, o)
                if self._attempt(params):
                    best = params
                    # a single success here is promising; confirm outside
                    return best
        return best

    def _confirm(self, params: GlitchParams) -> float:
        wins = 0
        for _ in range(CONFIRMATION_RUNS):
            if self._attempt(params):
                wins += 1
        return wins / CONFIRMATION_RUNS


__all__ = ["ParameterSearch", "SearchResult", "ATTEMPTS_PER_SECOND", "CONFIRMATION_RUNS"]
