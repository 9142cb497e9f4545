"""Deterministic fan-out of campaign work units over ``multiprocessing``.

Work units are picklable *specs* consumed by a module-level worker
function; results come back in spec order regardless of which worker
finished first, so merging tallies is deterministic by construction.
``workers=1`` never touches ``multiprocessing`` — it runs the same unit
function (or a caller-supplied in-process equivalent) in a plain loop,
which keeps serial and parallel campaigns bit-identical and keeps tests
on the fast path. With more workers, every pending unit is one
``apply_async`` dispatch on a fork (spawn on macOS or where fork is
missing) pool.

Fault tolerance: ``map`` always finalizes its progress reporter and
tears the pool down, and

- retries a failing unit with exponential backoff (``retries``; retry
  ``n`` waits ``BACKOFF_S * 2**(n-1)`` seconds),
- bounds a unit's wall-clock time on the multiprocessing path
  (``unit_timeout`` — a hung or crashed worker is detected, the pool is
  rebuilt, and the unit is charged a failed attempt),
- quarantines a unit that exhausts its attempts into ``failed_units``
  instead of aborting the whole campaign (only ``KeyboardInterrupt`` and
  ``SystemExit`` propagate), and
- skips/records units against a :class:`~repro.exec.checkpoint.CampaignCheckpoint`
  so an interrupted campaign resumes from the last completed unit.

Campaign drivers take one frozen :class:`ExecOptions` and run their units
through :meth:`ExecOptions.run`, which builds the executor and opens the
campaign's checkpoint.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Optional, TypeVar

from repro.exec.checkpoint import MISSING, CampaignCheckpoint, open_campaign_checkpoint
from repro.exec.progress import ProgressReporter
from repro.obs.core import Observer, WorkerTelemetry, activate, coerce_observer, observed_call

S = TypeVar("S")
R = TypeVar("R")

#: placeholder for a spec whose unit never produced a result (quarantined)
_UNSET = object()

#: seconds before a unit's first retry; each further retry doubles it
BACKOFF_S = 0.05


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
    """One quarantined work unit: the spec, the last error, attempts used,
    and the unit's ``key_of`` name."""

    spec: Any
    error: str
    attempts: int
    key: str


class ParallelExecutor:
    """Maps a worker function over specs, optionally across processes.

    - ``workers`` — process count; 1 (default) runs in-process, 0 means
      one per CPU core. Each pending unit is one ``apply_async`` dispatch.
    - ``progress`` — a :class:`ProgressReporter` fed one ``advance`` per
      completed unit.
    - ``retries`` — extra attempts granted to a failing unit (0 = none);
      retry ``n`` sleeps ``BACKOFF_S * 2**(n-1)`` seconds first.
    - ``unit_timeout`` — seconds a unit may run on the multiprocessing
      path before it counts as a failed attempt (None = unbounded; the
      in-process path cannot preempt a running unit and ignores it).
    - ``obs`` — a :class:`repro.obs.Observer`; counts units, attempts,
      per-category outcomes, retries/timeouts/quarantines and emits one
      ``unit`` event per completion. In-process, each unit runs with it
      as the ambient :func:`repro.obs.current` observer; on the
      multiprocessing path each unit runs under a worker-local observer
      whose counters/events ride back inside the result and are merged in
      record order, so metrics are identical for any worker count.

    A unit that exhausts its attempts is quarantined into
    ``failed_units``; only ``KeyboardInterrupt``/``SystemExit`` abort a map.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        progress: Optional[ProgressReporter] = None,
        retries: int = 0,
        unit_timeout: Optional[float] = None,
        obs: Optional[Observer] = None,
    ):
        self.workers = resolve_workers(workers)
        self.progress = progress
        self.retries = retries
        self.unit_timeout = unit_timeout
        self.obs = coerce_observer(obs)
        self.failed_units: list[FailedUnit] = []

    def _preferred_start_method(self) -> Optional[str]:
        methods = multiprocessing.get_all_start_methods()
        # fork shares the already-imported interpreter state (the cheap
        # path), but is unavailable on some platforms and unsafe under
        # macOS system frameworks — fall back to the platform default
        # (spawn) there.
        if sys.platform != "darwin" and "fork" in methods:
            return "fork"
        return None

    def map(
        self,
        fn: Callable[[S], R],
        specs: Iterable[S],
        *,
        key_of: Callable[[S], str],
        encode: Callable[[R], Any],
        decode: Callable[[Any], R],
        checkpoint: Optional[CampaignCheckpoint] = None,
        serial_fn: Optional[Callable[[S], R]] = None,
        attempts_of: Optional[Callable[[R], int]] = None,
        categories_of: Optional[Callable[[R], dict]] = None,
    ) -> list[Optional[R]]:
        """Run ``fn`` over every spec, returning results in spec order.

        ``fn`` must be a picklable module-level function; each spec must
        pickle cleanly. ``serial_fn`` (when given) replaces ``fn`` on the
        in-process path — callers use it to reuse already-built state
        (e.g. a shared glitcher) when the computation is provably
        identical. ``attempts_of`` / ``categories_of`` extract progress
        metrics from each unit result.

        ``key_of`` names each unit (in events and checkpoint records).
        With a ``checkpoint`` the map is resumable: specs whose key is
        already recorded are decoded (``decode``) instead of run, and
        every fresh completion is encoded (``encode``) and persisted
        before progress advances — so an interruption at any point loses
        at most the in-flight units. Quarantined specs yield ``None``
        placeholders and are reported in ``self.failed_units``; an
        interrupt propagates after the pool, reporter and checkpoint are
        finalized.
        """
        specs = list(specs)
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
                checkpoint.record(key_of(specs[index]), encode(result))
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
                event = {"key": key_of(specs[index]), "attempts": attempts,
                         "replayed": replayed}
                if wall is not None:
                    event["wall"] = round(wall, 6)
                obs.event("unit", **event)
            if progress is not None:
                progress.advance(units=1, attempts=attempts, categories=categories)

        def failed(index: int, error: BaseException, attempts: int) -> bool:
            """Charge a failed attempt: True to retry, False once quarantined."""
            if attempts <= self.retries:
                obs.count("exec.retries")
                return True
            obs.count("exec.quarantined")
            key = key_of(specs[index])
            if obs.enabled:
                obs.event("unit_failed", key=key, attempts=attempts, error=repr(error))
            self.failed_units.append(
                FailedUnit(spec=specs[index], error=repr(error), attempts=attempts, key=key)
            )
            return False

        with obs.trace("exec.map", units=len(specs), workers=self.workers):
            try:
                pending: list[int] = []
                for index, spec in enumerate(specs):
                    payload = checkpoint.get(key_of(spec)) if checkpoint is not None else MISSING
                    if payload is not MISSING:
                        record(index, decode(payload), replayed=True)
                    else:
                        pending.append(index)
                if pending:
                    if self.workers == 1 or len(pending) == 1:
                        run = serial_fn if serial_fn is not None else fn
                        self._run_serial(run, specs, pending, record, failed)
                    else:
                        self._run_parallel(fn, specs, pending, record, failed)
            finally:
                # an interrupt must still finalize the reporter and
                # persist every completed unit
                if progress is not None:
                    progress.finish()
                if checkpoint is not None:
                    checkpoint.flush()
        return [result if result is not _UNSET else None for result in results]

    # ------------------------------------------------------------------

    def _run_serial(self, run, specs, pending, record, failed) -> None:
        obs = self.obs
        for index in pending:
            attempts = 0
            while True:
                wall0 = time.perf_counter() if obs.enabled else 0.0
                try:
                    # units count on the ambient observer, as a worker's
                    # units count on their envelope's
                    with activate(obs):
                        result = run(specs[index])
                except Exception as exc:  # KeyboardInterrupt/SystemExit propagate
                    attempts += 1
                    if not failed(index, exc, attempts):
                        break
                    _backoff_sleep(attempts)
                else:
                    wall = time.perf_counter() - wall0 if obs.enabled else None
                    record(index, result, wall=wall)
                    break

    def _run_parallel(self, fn, specs, pending, record, failed) -> None:
        obs = self.obs
        if obs.enabled:
            # wrap each unit in a worker-local observer; record() unwraps
            # the returned WorkerTelemetry envelope
            fn = partial(observed_call, fn)
        context = multiprocessing.get_context(self._preferred_start_method())
        size = min(self.workers, len(pending))
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
                    except Exception as exc:
                        attempts[index] += 1
                        if isinstance(exc, multiprocessing.TimeoutError):
                            obs.count("exec.timeouts")
                            rebuild = True  # the worker may be hung — rebuild the pool
                            exc = TimeoutError(
                                f"work unit exceeded unit_timeout="
                                f"{self.unit_timeout}s ({attempts[index]} attempts)"
                            )
                        if failed(index, exc, attempts[index]):
                            retry.append(index)
                    else:
                        record(index, value)
                if rebuild:
                    pool.terminate()
                    pool.join()
                    pool = context.Pool(size)
                if retry:
                    _backoff_sleep(max(attempts[index] for index in retry))
                pending = retry
        finally:
            pool.terminate()
            pool.join()


def _backoff_sleep(attempt: int) -> None:
    time.sleep(BACKOFF_S * (2 ** (attempt - 1)))


@dataclass(frozen=True)
class ExecOptions:
    """How a campaign's work units run, passed once to every driver.

    - ``workers`` — process count (1 = in-process, 0 = one per core);
    - ``progress`` — a :class:`ProgressReporter` fed once per unit;
    - ``checkpoint_dir``/``resume`` — persist completed units as JSONL and
      replay them on resume (``checkpoint_dir=None`` with ``resume`` uses
      :func:`~repro.exec.checkpoint.default_checkpoint_root`);
    - ``retries``/``unit_timeout`` — retry a failing unit, bound a unit's
      wall-clock seconds on the multiprocessing path; a unit that exhausts
      its attempts is quarantined, never fatal.

    Invalid values (``workers < 0``, ``retries < 0``, a ``unit_timeout``
    not in ``(0, threading.TIMEOUT_MAX]``) raise ``ValueError`` at
    construction, before any campaign work.
    """

    workers: Optional[int] = 1
    progress: Optional[ProgressReporter] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    retries: int = 0
    unit_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        resolve_workers(self.workers)  # rejects a negative count
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        # a wait longer than TIMEOUT_MAX raises OverflowError in the pool,
        # which would quarantine every unit
        if self.unit_timeout is not None and not 0 < self.unit_timeout <= threading.TIMEOUT_MAX:
            raise ValueError(f"unit_timeout must be > 0 and <= {threading.TIMEOUT_MAX:.0f} s, "
                             f"got {self.unit_timeout}")

    def run(
        self,
        fn: Callable[[S], R],
        specs: Iterable[S],
        *,
        prefix: str,
        meta: dict,
        key_of: Callable[[S], str],
        encode: Callable[[R], Any],
        decode: Callable[[Any], R],
        serial_fn: Optional[Callable[[S], R]] = None,
        attempts_of: Optional[Callable[[R], int]] = None,
        categories_of: Optional[Callable[[R], dict]] = None,
        obs: Optional[Observer] = None,
    ) -> tuple[list[Optional[R]], list[FailedUnit]]:
        """Run one campaign's units: ``(results in spec order, failed units)``.

        Quarantined units leave ``None`` in the results. The checkpoint
        (named by ``prefix`` and a digest of ``meta``, see
        :func:`~repro.exec.checkpoint.open_campaign_checkpoint`) is opened
        only when ``checkpoint_dir`` or ``resume`` is set, and is always
        closed. The keyword arguments are :meth:`ParallelExecutor.map`'s.
        """
        executor = ParallelExecutor(
            workers=self.workers, progress=self.progress, retries=self.retries,
            unit_timeout=self.unit_timeout, obs=obs,
        )
        checkpoint = None
        if self.checkpoint_dir is not None or self.resume:
            checkpoint = open_campaign_checkpoint(
                self.checkpoint_dir, prefix, meta, resume=self.resume
            )
        try:
            results = executor.map(
                fn, specs, key_of=key_of, encode=encode, decode=decode,
                checkpoint=checkpoint, serial_fn=serial_fn,
                attempts_of=attempts_of, categories_of=categories_of,
            )
        finally:
            if checkpoint is not None:
                checkpoint.close()
        return results, executor.failed_units


__all__ = ["ExecOptions", "ParallelExecutor", "FailedUnit", "resolve_workers"]
