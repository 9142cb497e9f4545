"""Deterministic fan-out of campaign work units over ``multiprocessing``.

Work units are picklable *specs* consumed by a module-level worker
function; results come back in spec order regardless of which worker
finished first, so merging tallies is deterministic by construction.
``workers=1`` never touches ``multiprocessing`` — it runs the same unit
function (or a caller-supplied in-process equivalent) in a plain loop,
which keeps serial and parallel campaigns bit-identical and keeps tests
on the fast path.

Fault tolerance: ``map`` always finalizes its progress reporter and
tears the pool down (a raising worker no longer leaks either), and can
additionally

- retry a failing unit with exponential backoff (``retries``/``backoff``),
- bound a unit's wall-clock time on the multiprocessing path
  (``unit_timeout`` — a hung or crashed worker is detected, the pool is
  rebuilt, and the unit is charged a failed attempt),
- quarantine a unit that exhausts its attempts into ``failed_units``
  instead of aborting the whole campaign (``on_error="quarantine"``), and
- skip/record units against a :class:`~repro.exec.checkpoint.CampaignCheckpoint`
  so an interrupted campaign resumes from the last completed unit.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional, TypeVar

from repro.exec.checkpoint import MISSING, CampaignCheckpoint
from repro.exec.progress import ProgressReporter
from repro.obs.core import Observer, WorkerTelemetry, coerce_observer, observed_call

S = TypeVar("S")
R = TypeVar("R")

#: placeholder for a spec whose unit never produced a result (quarantined)
_UNSET = object()


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a worker count: ``None`` → 1, ``0`` → all cores (min 1)."""
    if workers is None:
        return 1
    if workers == 0:
        # cpu_count() can return None (and 0 on some exotic containers);
        # a single-core host still gets one worker
        return max(1, os.cpu_count() or 1)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


@dataclass
class FailedUnit:
    """One quarantined work unit: the spec, the last error, attempts used."""

    spec: Any
    error: str
    attempts: int


class ParallelExecutor:
    """Maps a worker function over specs, optionally across processes.

    - ``workers`` — process count; 1 (default) runs in-process, 0 means
      one per CPU core.
    - ``chunk_size`` — specs handed to a worker per dispatch (larger
      chunks amortise IPC for many small units). ``None`` (default)
      picks ``max(1, pending_specs // (workers * 4))`` at dispatch
      time — about four chunks per worker, balancing IPC amortisation
      against tail latency when unit costs are uneven.
    - ``progress`` — a :class:`ProgressReporter` fed one ``advance`` per
      completed unit.
    - ``retries`` — extra attempts granted to a failing unit (0 = none).
    - ``unit_timeout`` — seconds a unit may run on the multiprocessing
      path before it counts as a failed attempt (None = unbounded; the
      in-process path cannot preempt a running unit and ignores it).
    - ``backoff`` — base delay before retry ``n`` sleeps
      ``backoff * 2**(n-1)`` seconds.
    - ``on_error`` — ``"raise"`` propagates a unit's final failure
      (after retries); ``"quarantine"`` records it in ``failed_units``
      and keeps going.
    - ``obs`` — a :class:`repro.obs.Observer`; counts units, attempts,
      per-category outcomes, retries/timeouts/quarantines and emits one
      ``unit`` event per completion. On the multiprocessing path each
      unit runs under a worker-local observer whose counters/events ride
      back inside the result and are merged in record order, so metrics
      are identical for any worker count.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        chunk_size: Optional[int] = None,
        progress: Optional[ProgressReporter] = None,
        start_method: Optional[str] = None,
        retries: int = 0,
        unit_timeout: Optional[float] = None,
        backoff: float = 0.05,
        on_error: str = "raise",
        obs: Optional[Observer] = None,
    ):
        self.workers = resolve_workers(workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if unit_timeout is not None and unit_timeout <= 0:
            raise ValueError(f"unit_timeout must be > 0, got {unit_timeout}")
        if on_error not in ("raise", "quarantine"):
            raise ValueError(f"on_error must be 'raise' or 'quarantine', got {on_error!r}")
        self.chunk_size = chunk_size
        self.progress = progress
        self._start_method = start_method
        self.retries = retries
        self.unit_timeout = unit_timeout
        self.backoff = backoff
        self.on_error = on_error
        self.obs = coerce_observer(obs)
        self.failed_units: list[FailedUnit] = []

    @property
    def parallel(self) -> bool:
        return self.workers > 1

    def resolve_chunk_size(self, pending: int) -> int:
        """The imap chunksize used for ``pending`` dispatchable specs.

        An explicit ``chunk_size`` is used as-is; ``None`` resolves to
        ``max(1, pending // (workers * 4))`` — roughly four chunks per
        worker, so stragglers cost at most ~a quarter of a worker's share.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, pending // (self.workers * 4))

    def _preferred_start_method(self) -> Optional[str]:
        if self._start_method is not None:
            return self._start_method
        methods = multiprocessing.get_all_start_methods()
        # fork shares the already-imported interpreter state (the cheap
        # path), but is unavailable on some platforms and unsafe under
        # macOS system frameworks — fall back to the platform default
        # (spawn) there.
        if sys.platform != "darwin" and "fork" in methods:
            return "fork"
        return None

    def _context(self):
        method = self._preferred_start_method()
        if method is not None:
            return multiprocessing.get_context(method)
        return multiprocessing.get_context()

    def map(
        self,
        fn: Callable[[S], R],
        specs: Iterable[S],
        serial_fn: Optional[Callable[[S], R]] = None,
        attempts_of: Optional[Callable[[R], int]] = None,
        categories_of: Optional[Callable[[R], dict]] = None,
        checkpoint: Optional[CampaignCheckpoint] = None,
        key_of: Optional[Callable[[S], str]] = None,
        encode: Optional[Callable[[R], Any]] = None,
        decode: Optional[Callable[[Any], R]] = None,
    ) -> list[Optional[R]]:
        """Run ``fn`` over every spec, returning results in spec order.

        ``fn`` must be a picklable module-level function; each spec must
        pickle cleanly. ``serial_fn`` (when given) replaces ``fn`` on the
        in-process path — callers use it to reuse already-built state
        (e.g. a shared glitcher) when the computation is provably
        identical. ``attempts_of`` / ``categories_of`` extract progress
        metrics from each unit result.

        ``checkpoint`` + ``key_of`` make the map resumable: specs whose
        key is already recorded are decoded (``decode``) instead of run,
        and every fresh completion is encoded (``encode``) and persisted
        before progress advances — so an interruption at any point loses
        at most the in-flight units. Quarantined specs (``on_error=
        "quarantine"``) yield ``None`` placeholders and are reported in
        ``self.failed_units``; with the default ``on_error="raise"`` the
        final failure propagates after the pool and reporter are torn
        down cleanly.
        """
        specs = list(specs)
        if checkpoint is not None and key_of is None:
            raise ValueError("checkpoint requires key_of to derive stable unit keys")
        progress = self.progress
        obs = self.obs
        if progress is not None:
            progress.start(len(specs))
        results: list[Any] = [_UNSET] * len(specs)
        self.failed_units = []

        def record(index: int, result: R, replayed: bool = False,
                   wall: Optional[float] = None) -> None:
            # worker-side telemetry rides back inside the result; unwrap
            # and merge it before the checkpoint/metric extractors run
            if isinstance(result, WorkerTelemetry):
                obs.merge(result.counters, result.events)
                wall = result.wall
                result = result.result
            results[index] = result
            if checkpoint is not None and not replayed:
                payload = encode(result) if encode is not None else result
                checkpoint.record(key_of(specs[index]), payload)
                obs.count("checkpoint.recorded")
            attempts = attempts_of(result) if attempts_of else 0
            categories = categories_of(result) if categories_of else None
            # replayed units count toward attempts/outcome totals so a
            # resumed run reports the same campaign-wide metrics as an
            # uninterrupted one
            obs.count("units.replayed" if replayed else "units.completed")
            obs.count("attempts", attempts)
            if categories:
                for category, n in categories.items():
                    obs.count(f"outcome.{category}", n)
            if obs.enabled:
                event = {
                    "key": key_of(specs[index]) if key_of is not None else index,
                    "attempts": attempts,
                    "replayed": replayed,
                }
                if wall is not None:
                    event["wall"] = round(wall, 6)
                obs.event("unit", **event)
            if progress is not None:
                progress.advance(units=1, attempts=attempts, categories=categories)

        def fail(index: int, error: BaseException, attempts: int) -> None:
            if self.on_error == "raise":
                raise error
            obs.count("exec.quarantined")
            if obs.enabled:
                obs.event(
                    "unit_failed",
                    key=key_of(specs[index]) if key_of is not None else index,
                    attempts=attempts,
                    error=repr(error),
                )
            self.failed_units.append(
                FailedUnit(spec=specs[index], error=repr(error), attempts=attempts)
            )

        with obs.trace("exec.map", units=len(specs), workers=self.workers):
            try:
                pending: list[int] = []
                for index, spec in enumerate(specs):
                    payload = checkpoint.get(key_of(spec)) if checkpoint is not None else MISSING
                    if payload is not MISSING:
                        record(index, decode(payload) if decode is not None else payload,
                               replayed=True)
                    else:
                        pending.append(index)
                if pending:
                    if not self.parallel or len(pending) <= 1:
                        run = serial_fn if serial_fn is not None else fn
                        self._run_serial(run, specs, pending, record, fail)
                    else:
                        self._run_parallel(fn, specs, pending, record, fail)
            finally:
                # a raising worker (or SIGINT) must still finalize the
                # reporter and persist every completed unit
                if progress is not None:
                    progress.finish()
                if checkpoint is not None:
                    checkpoint.flush()
        return [result if result is not _UNSET else None for result in results]

    # ------------------------------------------------------------------

    def _backoff_sleep(self, attempt: int) -> None:
        if self.backoff > 0:
            time.sleep(self.backoff * (2 ** (attempt - 1)))

    def _run_serial(self, run, specs, pending, record, fail) -> None:
        obs = self.obs
        for index in pending:
            attempts = 0
            while True:
                wall0 = time.perf_counter() if obs.enabled else 0.0
                try:
                    result = run(specs[index])
                except Exception as exc:  # KeyboardInterrupt/SystemExit propagate
                    attempts += 1
                    if attempts > self.retries:
                        fail(index, exc, attempts)
                        break
                    obs.count("exec.retries")
                    self._backoff_sleep(attempts)
                else:
                    wall = time.perf_counter() - wall0 if obs.enabled else None
                    record(index, result, wall=wall)
                    break

    def _run_parallel(self, fn, specs, pending, record, fail) -> None:
        obs = self.obs
        if obs.enabled:
            # wrap each unit in a worker-local observer; record() unwraps
            # the returned WorkerTelemetry envelope
            fn = partial(observed_call, fn)
        context = self._context()
        size = min(self.workers, len(pending))
        if self.retries == 0 and self.unit_timeout is None and self.on_error == "raise":
            # fast path: chunked imap, no per-unit bookkeeping
            with context.Pool(size) as pool:
                ordered = [specs[index] for index in pending]
                for index, result in zip(
                    pending,
                    pool.imap(fn, ordered, chunksize=self.resolve_chunk_size(len(ordered))),
                ):
                    record(index, result)
            return
        attempts = {index: 0 for index in pending}
        pool = context.Pool(size)
        try:
            while pending:
                handles = [(index, pool.apply_async(fn, (specs[index],))) for index in pending]
                retry: list[int] = []
                rebuild = False
                for index, handle in handles:
                    if rebuild:
                        # the pool died under this handle (a peer timed
                        # out); resubmit without charging an attempt
                        retry.append(index)
                        continue
                    try:
                        value = handle.get(self.unit_timeout)
                    except multiprocessing.TimeoutError:
                        attempts[index] += 1
                        obs.count("exec.timeouts")
                        rebuild = True  # the worker may be hung — rebuild the pool
                        if attempts[index] > self.retries:
                            fail(
                                index,
                                TimeoutError(
                                    f"work unit exceeded unit_timeout="
                                    f"{self.unit_timeout}s ({attempts[index]} attempts)"
                                ),
                                attempts[index],
                            )
                        else:
                            obs.count("exec.retries")
                            retry.append(index)
                    except Exception as exc:
                        attempts[index] += 1
                        if attempts[index] > self.retries:
                            fail(index, exc, attempts[index])
                        else:
                            obs.count("exec.retries")
                            retry.append(index)
                    else:
                        record(index, value)
                if rebuild:
                    pool.terminate()
                    pool.join()
                    pool = context.Pool(size)
                if retry:
                    self._backoff_sleep(max(attempts[index] for index in retry))
                pending = retry
        finally:
            pool.terminate()
            pool.join()


__all__ = ["ParallelExecutor", "FailedUnit", "resolve_workers"]
