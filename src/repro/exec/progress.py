"""Progress and throughput metrics for long-running campaigns.

A :class:`ProgressReporter` is fed by the executor (one ``advance`` per
completed work unit, carrying that unit's attempt count and per-category
tallies) and exposes attempts/sec, elapsed time, and a unit-based ETA.
Consumers observe it through a callback receiving immutable
:class:`ProgressSnapshot` values; :func:`console_progress` builds a
reporter whose callback renders a single self-overwriting terminal line.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional


@dataclass(frozen=True)
class ProgressSnapshot:
    """One immutable observation of a running campaign."""

    label: str
    units_done: int
    units_total: int
    attempts: int
    elapsed: float
    categories: Mapping[str, int] = field(default_factory=dict)
    finished: bool = False

    @property
    def rate(self) -> float:
        """Attempts per second since ``start()`` (0.0 until time passes)."""
        return self.attempts / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def eta(self) -> Optional[float]:
        """Estimated seconds remaining, from per-unit throughput.

        ``None`` when no estimate exists: nothing finished yet, the total
        is unknown (``units_total <= 0``), or no time has elapsed (a unit
        completing at elapsed == 0 would otherwise predict 0s for any
        amount of remaining work). Never negative — overshooting the
        planned total (e.g. totals learned late) clamps to 0.0.
        """
        if self.units_done <= 0 or self.units_total <= 0 or self.elapsed <= 0:
            return None
        remaining = self.units_total - self.units_done
        if remaining <= 0:
            return 0.0
        return (self.elapsed / self.units_done) * remaining


class ProgressReporter:
    """Accumulates campaign metrics and emits snapshots to a callback.

    ``start()`` resets all counters, so one reporter can be threaded
    through a sequence of scans (each scan shows up as its own
    progress line). ``min_interval`` rate-limits callback emissions;
    ``start``/``finish`` always emit.
    """

    def __init__(
        self,
        callback: Optional[Callable[[ProgressSnapshot], None]] = None,
        label: str = "",
        min_interval: float = 0.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.callback = callback
        self.label = label
        self.min_interval = min_interval
        self._clock = clock
        self.units_total = 0
        self.units_done = 0
        self.attempts = 0
        self.categories: Counter = Counter()
        self._started_at: Optional[float] = None
        self._last_emit: Optional[float] = None
        self._finished = False

    # ------------------------------------------------------------------

    def start(self, units_total: int) -> None:
        self.units_total = units_total
        self.units_done = 0
        self.attempts = 0
        self.categories = Counter()
        self._started_at = self._clock()
        self._last_emit = None
        self._finished = False
        self._emit(force=True)

    def advance(
        self,
        units: int = 1,
        attempts: int = 0,
        categories: Optional[Mapping[str, int]] = None,
    ) -> None:
        self.units_done += units
        self.attempts += attempts
        if categories:
            self.categories.update(categories)
        self._emit()

    def finish(self) -> None:
        self._finished = True
        self._emit(force=True)

    # ------------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    def snapshot(self) -> ProgressSnapshot:
        return ProgressSnapshot(
            label=self.label,
            units_done=self.units_done,
            units_total=self.units_total,
            attempts=self.attempts,
            elapsed=self.elapsed,
            categories=dict(self.categories),
            finished=self._finished,
        )

    def _emit(self, force: bool = False) -> None:
        if self.callback is None:
            return
        now = self._clock()
        if (
            not force
            and self._last_emit is not None
            and now - self._last_emit < self.min_interval
        ):
            return
        self._last_emit = now
        self.callback(self.snapshot())


def format_snapshot(snapshot: ProgressSnapshot) -> str:
    """Render one snapshot as a compact status line."""
    parts = [
        f"{snapshot.label or 'campaign'}: {snapshot.units_done}/{snapshot.units_total} units",
        f"{snapshot.attempts:,} attempts",
        f"{snapshot.rate:,.0f}/s",
        f"elapsed {snapshot.elapsed:.1f}s",
    ]
    eta = snapshot.eta
    if eta is not None and not snapshot.finished:
        parts.append(f"eta {eta:.1f}s")
    if snapshot.categories:
        top = ", ".join(
            f"{name}={count}"
            for name, count in Counter(snapshot.categories).most_common(3)
        )
        parts.append(top)
    return " | ".join(parts)


def console_progress(
    label: str = "", stream=None, min_interval: float = 0.25
) -> ProgressReporter:
    """A reporter that redraws one status line on ``stream`` (stderr)."""
    out = stream if stream is not None else sys.stderr

    def emit(snapshot: ProgressSnapshot) -> None:
        out.write("\r\x1b[2K" + format_snapshot(snapshot))
        if snapshot.finished:
            out.write("\n")
        out.flush()

    return ProgressReporter(callback=emit, label=label, min_interval=min_interval)


__all__ = [
    "ProgressSnapshot",
    "ProgressReporter",
    "console_progress",
    "format_snapshot",
]
