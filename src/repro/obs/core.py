"""Campaign observability: span tracing, named counters, JSONL events.

An :class:`Observer` bundles the three signals a long campaign needs:

- **spans** — ``with obs.trace("fig2.campaign"): ...`` context managers
  that nest, and record wall-clock and CPU time per region;
- **counters** — monotonically-increasing named tallies
  (``attempts``, ``cache.hits``, ``exec.retries``, ``exec.quarantined``,
  per-outcome-category counts);
- **events** — one structured dict per span/unit/scan, appended to an
  in-memory list and (optionally) streamed to a :class:`JsonlSink`.

Everything is explicitly threaded (``obs=`` parameters); the only ambient
state is :func:`current`, which worker processes use because picklable
work specs cannot carry an observer. Disabled instrumentation costs one
no-op method call per *work unit* (never per attempt): every entry point
coerces ``obs=None`` to the shared :data:`NULL_OBSERVER`, whose methods
do nothing and whose ``trace`` hands back a reusable null context
manager.

Multiprocessing: the executor wraps worker functions so each unit runs
under a fresh worker-local observer; the worker's counters and events
ride back to the parent inside the unit's result (the existing result
channel) as a :class:`WorkerTelemetry` envelope and are merged in record
order, which the executor already keeps deterministic.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Union


@dataclass
class Span:
    """One completed traced region."""

    name: str
    depth: int
    seq: int  # start order (parents have lower seq than their children)
    start: float  # seconds since the observer was created
    wall: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)


class JsonlSink:
    """Append-one-JSON-line-per-record event sink."""

    def __init__(self, path: Union[str, os.PathLike]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("w")

    def emit(self, record: Mapping[str, Any]) -> None:
        self._handle.write(json.dumps(record, default=str) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class _SpanHandle:
    """Context manager produced by :meth:`Observer.trace`."""

    __slots__ = ("_obs", "_span", "_wall0", "_cpu0")

    def __init__(self, obs: "Observer", span: Span):
        self._obs = obs
        self._span = span

    def __enter__(self) -> Span:
        self._wall0 = self._obs._clock()
        self._cpu0 = self._obs._cpu_clock()
        return self._span

    def __exit__(self, *exc_info) -> None:
        span = self._span
        span.wall = self._obs._clock() - self._wall0
        span.cpu = self._obs._cpu_clock() - self._cpu0
        self._obs._close_span(span)


class _NullSpanHandle:
    """Shared no-op context manager (the disabled-tracing fast path)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN_HANDLE = _NullSpanHandle()


class Observer:
    """Collects spans, counters, and events for one run."""

    enabled = True

    def __init__(
        self,
        sink: Optional[JsonlSink] = None,
        clock=time.perf_counter,
        cpu_clock=time.process_time,
    ):
        self.sink = sink
        self.counters: Counter = Counter()
        self.spans: list[Span] = []
        self.events: list[dict] = []
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._t0 = clock()
        self._depth = 0
        self._seq = 0

    # -- spans ----------------------------------------------------------

    def trace(self, name: str, **attrs) -> _SpanHandle:
        """Open a nested span; wall/CPU timings are taken on exit."""
        span = Span(
            name=name, depth=self._depth, seq=self._seq,
            start=self._clock() - self._t0, attrs=attrs,
        )
        self._seq += 1
        self._depth += 1
        return _SpanHandle(self, span)

    def _close_span(self, span: Span) -> None:
        self._depth = span.depth
        self.spans.append(span)
        record = {
            "type": "span",
            "name": span.name,
            "depth": span.depth,
            "seq": span.seq,
            "start": round(span.start, 6),
            "wall": round(span.wall, 6),
            "cpu": round(span.cpu, 6),
        }
        if span.attrs:
            record["attrs"] = span.attrs
        self._emit(record)

    # -- counters -------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        if n:
            self.counters[name] += n

    def merge(self, counters: Mapping[str, int], events: tuple = ()) -> None:
        """Fold a worker's telemetry (counters + events) into this observer."""
        self.counters.update(counters)
        for record in events:
            self._emit(dict(record))

    # -- events ---------------------------------------------------------

    def event(self, type: str, **fields) -> None:
        self._emit({"type": type, **fields})

    def _emit(self, record: dict) -> None:
        self.events.append(record)
        if self.sink is not None:
            self.sink.emit(record)

    # -- lifecycle ------------------------------------------------------

    def metrics(self) -> dict:
        """Counter totals as a plain JSON-able dict."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
        }

    def close(self) -> None:
        """Emit the final metrics record and close the sink (if any)."""
        self._emit({"type": "metrics", **self.metrics()})
        if self.sink is not None:
            self.sink.close()


class NullObserver(Observer):
    """Does nothing, as fast as possible; the ``obs=None`` default."""

    enabled = False

    def __init__(self):  # no clocks, no storage
        pass

    def trace(self, name: str, **attrs) -> _NullSpanHandle:  # type: ignore[override]
        return _NULL_SPAN_HANDLE

    def count(self, name: str, n: int = 1) -> None:
        return None

    def merge(self, counters, events=()) -> None:
        return None

    def event(self, type: str, **fields) -> None:
        return None

    def metrics(self) -> dict:
        return {"counters": {}}

    def close(self) -> None:
        return None


NULL_OBSERVER = NullObserver()


def coerce_observer(obs: Optional[Observer]) -> Observer:
    """``None`` → the shared no-op observer."""
    return obs if obs is not None else NULL_OBSERVER


# ----------------------------------------------------------------------
# ambient observer — worker processes only
# ----------------------------------------------------------------------
#
# Campaign code threads ``obs=`` explicitly. The one place that cannot is
# a multiprocessing worker: its work spec must stay picklable, so the
# executor's telemetry wrapper installs a worker-local observer here and
# unit functions look it up to attribute e.g. cache hits.

_current: Observer = NULL_OBSERVER


def current() -> Observer:
    """The ambient observer (NULL unless a telemetry wrapper is active)."""
    return _current


class _Activation:
    __slots__ = ("_obs", "_previous")

    def __init__(self, obs: Observer):
        self._obs = obs

    def __enter__(self) -> Observer:
        global _current
        self._previous = _current
        _current = self._obs
        return self._obs

    def __exit__(self, *exc_info) -> None:
        global _current
        _current = self._previous


def activate(obs: Observer) -> _Activation:
    """Temporarily install ``obs`` as the ambient :func:`current` observer."""
    return _Activation(obs)


# ----------------------------------------------------------------------
# worker telemetry envelope
# ----------------------------------------------------------------------

@dataclass
class WorkerTelemetry:
    """A unit result plus the worker-side observability it produced."""

    result: Any
    counters: dict
    events: list
    wall: float


def observed_call(fn, spec):
    """Run one work unit under a fresh worker-local observer.

    Module-level so ``functools.partial(observed_call, fn)`` pickles for
    the multiprocessing path. The returned envelope travels back over the
    existing result channel; the executor unwraps and merges it.
    """
    obs = Observer()
    wall0 = time.perf_counter()
    with activate(obs):
        result = fn(spec)
    return WorkerTelemetry(
        result=result,
        counters=dict(obs.counters),
        events=list(obs.events),
        wall=time.perf_counter() - wall0,
    )


def default_events_path(label: str) -> Path:
    """``<cache root>/runs/<label>-<timestamp>-<pid>.jsonl`` — the default
    event-log location, a sibling of the checkpoint directory."""
    from repro.exec.cache import default_cache_root

    stamp = time.strftime("%Y%m%d-%H%M%S")
    return default_cache_root() / "runs" / f"{label}-{stamp}-{os.getpid()}.jsonl"


__all__ = [
    "Span",
    "JsonlSink",
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "WorkerTelemetry",
    "activate",
    "coerce_observer",
    "current",
    "default_events_path",
    "observed_call",
]
