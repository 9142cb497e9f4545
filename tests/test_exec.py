"""Tests for the campaign-execution subsystem (``repro.exec``)."""

import json
import os
import shutil
import sys
import time
import warnings

import numpy as np
import pytest

from repro.exec import (
    CampaignCheckpoint,
    ExecOptions,
    OutcomeCache,
    ParallelExecutor,
    ProgressReporter,
    coerce_cache,
    console_progress,
    resolve_workers,
)
from repro.exec import executor as executor_mod
from repro.exec.progress import format_snapshot
from repro.glitchsim import SnippetHarness, branch_snippet, run_branch_campaign


def _square(x):  # module-level: picklable for the multiprocessing path
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _interrupt(x):
    raise KeyboardInterrupt


def _flaky(spec):
    """Fails on the first call for a given marker path, succeeds after."""
    path, value = spec
    if not os.path.exists(path):
        with open(path, "w"):
            pass
        raise RuntimeError("transient failure")
    return value * 2


def _hang_or_square(spec):
    if spec == "hang":
        time.sleep(60)
    return spec * spec


def _boom_on_negative(x):
    if x < 0:
        raise RuntimeError(f"poisoned spec {x}")
    return x * x


def _identity(value):
    return value


#: unit keys and the (identity) checkpoint codec, as every driver passes them
UNITS = dict(key_of=str, encode=_identity, decode=_identity)


@pytest.fixture
def no_backoff(monkeypatch):
    """Retry without the exponential backoff sleeps."""
    monkeypatch.setattr(executor_mod, "BACKOFF_S", 0.0)


class TestResolveWorkers:
    def test_defaults(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestParallelExecutor:
    def test_serial_map_preserves_order(self):
        executor = ParallelExecutor(workers=1)
        assert executor.map(_square, range(6), **UNITS) == [0, 1, 4, 9, 16, 25]

    def test_parallel_map_matches_serial(self):
        serial = ParallelExecutor(workers=1).map(_square, range(20), **UNITS)
        parallel = ParallelExecutor(workers=2).map(_square, range(20), **UNITS)
        assert serial == parallel

    def test_parallel_more_units_than_workers(self):
        # 40 units over 2 workers, one dispatch each, merged in spec order
        executor = ParallelExecutor(workers=2)
        assert executor.map(_square, range(40), **UNITS) == [x * x for x in range(40)]
        assert executor.failed_units == []

    def test_parallel_auto_chunked_matches_serial(self):
        # no dispatch knob to set: an odd unit count over 2 workers still
        # merges back in spec order with nothing quarantined
        serial = ParallelExecutor(workers=1).map(_square, range(21), **UNITS)
        executor = ParallelExecutor(workers=2)
        assert executor.map(_square, range(21), **UNITS) == serial
        assert executor.failed_units == []

    def test_serial_fn_used_in_process(self):
        calls = []

        def serial(x):
            calls.append(x)
            return x * x

        executor = ParallelExecutor(workers=1)
        assert executor.map(_square, [2, 3], serial_fn=serial, **UNITS) == [4, 9]
        assert calls == [2, 3]

    def test_progress_fed_per_unit(self):
        reporter = ProgressReporter()
        executor = ParallelExecutor(workers=1, progress=reporter)
        executor.map(
            _square, [1, 2, 3],
            attempts_of=lambda r: r,
            categories_of=lambda r: {"seen": 1},
            **UNITS,
        )
        assert reporter.units_done == 3
        assert reporter.units_total == 3
        assert reporter.attempts == 1 + 4 + 9
        assert reporter.categories["seen"] == 3


class TestExecutorFailurePaths:
    def test_serial_exception_propagates_but_finalizes_progress(self):
        # a unit's ordinary exception is quarantined; an interrupt
        # propagates, after the reporter is finalized
        reporter = ProgressReporter()
        executor = ParallelExecutor(workers=1, progress=reporter)
        assert executor.map(_boom, [1], **UNITS) == [None]
        with pytest.raises(KeyboardInterrupt):
            executor.map(_interrupt, [1, 2, 3], **UNITS)
        assert reporter.snapshot().finished  # finish() ran despite the raise

    def test_parallel_exception_propagates_but_finalizes_progress(self, tmp_path):
        # an interrupt while the parent collects results (here: from the
        # progress callback after the first unit) tears the pool down,
        # finalizes the reporter and keeps the completed unit on disk
        def stop_after_first(snapshot):
            if snapshot.units_done == 1 and not snapshot.finished:
                raise KeyboardInterrupt

        reporter = ProgressReporter(callback=stop_after_first)
        checkpoint = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={"t": 1})
        executor = ParallelExecutor(workers=2, progress=reporter)
        with pytest.raises(KeyboardInterrupt):
            executor.map(_square, [1, 2, 3, 4], checkpoint=checkpoint, **UNITS)
        checkpoint.close()
        assert reporter.snapshot().finished
        reloaded = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={"t": 1}, resume=True)
        assert reloaded.results == {"1": 1}

    def test_serial_retry_then_succeed(self, tmp_path, no_backoff):
        specs = [(str(tmp_path / f"marker-{i}"), i) for i in range(3)]
        executor = ParallelExecutor(workers=1, retries=2)
        assert executor.map(_flaky, specs, **UNITS) == [0, 2, 4]
        assert executor.failed_units == []

    def test_parallel_retry_then_succeed(self, tmp_path, no_backoff):
        specs = [(str(tmp_path / f"marker-{i}"), i) for i in range(4)]
        executor = ParallelExecutor(workers=2, retries=2)
        assert executor.map(_flaky, specs, **UNITS) == [0, 2, 4, 6]
        assert executor.failed_units == []

    def test_serial_quarantine_after_max_retries(self, no_backoff):
        executor = ParallelExecutor(workers=1, retries=3)
        results = executor.map(_boom, [7], **UNITS)
        assert results == [None]
        assert len(executor.failed_units) == 1
        failed = executor.failed_units[0]
        assert failed.spec == 7
        assert failed.attempts == 4  # 1 initial + 3 retries
        assert "boom" in failed.error

    def test_parallel_quarantine_keeps_remaining_units(self, no_backoff):
        # one poisoned spec must not abort its siblings
        executor = ParallelExecutor(workers=2, retries=1)
        results = executor.map(_boom_on_negative, [2, -1, 4, 5], **UNITS)
        assert results == [4, None, 16, 25]
        assert len(executor.failed_units) == 1
        assert executor.failed_units[0].spec == -1
        assert executor.failed_units[0].attempts == 2

    def test_parallel_timeout_quarantines_hung_unit(self):
        executor = ParallelExecutor(workers=2, unit_timeout=1.0)
        results = executor.map(_hang_or_square, [3, "hang", 5], **UNITS)
        assert results == [9, None, 25]
        assert len(executor.failed_units) == 1
        assert executor.failed_units[0].spec == "hang"
        assert "unit_timeout" in executor.failed_units[0].error

    def test_keyboard_interrupt_flushes_checkpoint(self, tmp_path):
        done = []

        def unit(x):
            if x == "stop":
                raise KeyboardInterrupt
            done.append(x)
            return x

        reporter = ProgressReporter()
        checkpoint = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={"t": 1})
        executor = ParallelExecutor(workers=1, progress=reporter)
        with pytest.raises(KeyboardInterrupt):
            executor.map(unit, [1, 2, "stop", 4], checkpoint=checkpoint, **UNITS)
        checkpoint.close()
        assert done == [1, 2]
        assert reporter.snapshot().finished
        # the completed prefix survived on disk
        reloaded = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={"t": 1}, resume=True)
        assert reloaded.results == {"1": 1, "2": 2}

    def test_checkpoint_replays_recorded_units(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={})
        checkpoint.record("2", 99)
        executed = []

        def unit(x):
            executed.append(x)
            return x * x

        executor = ParallelExecutor(workers=1)
        results = executor.map(unit, [1, 2, 3], checkpoint=checkpoint, **UNITS)
        checkpoint.close()
        assert results == [1, 99, 9]  # recorded payload wins, order preserved
        assert executed == [1, 3]

    def test_invalid_robustness_params_rejected(self):
        # rejected when the options are built, before any campaign work
        # (an infinite timeout would overflow the pool's wait and
        # quarantine every unit)
        for bad in (dict(workers=-1), dict(retries=-1), dict(unit_timeout=0),
                    dict(unit_timeout=-1.0), dict(unit_timeout=float("inf"))):
            with pytest.raises(ValueError):
                ExecOptions(**bad)


class TestStartMethodFallback:
    def test_fork_preferred_where_available(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "linux")
        executor = ParallelExecutor(workers=2)
        monkeypatch.setattr(
            executor_mod.multiprocessing, "get_all_start_methods",
            lambda: ["fork", "spawn", "forkserver"],
        )
        assert executor._preferred_start_method() == "fork"

    def test_darwin_falls_back_to_platform_default(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        executor = ParallelExecutor(workers=2)
        assert executor._preferred_start_method() is None

    def test_no_fork_falls_back_to_platform_default(self, monkeypatch):
        monkeypatch.setattr(
            executor_mod.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        executor = ParallelExecutor(workers=2)
        assert executor._preferred_start_method() is None

    def test_resolve_workers_zero_on_single_core_host(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_workers(0) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 0)
        assert resolve_workers(0) == 1


class TestProgressReporter:
    def test_snapshot_metrics(self):
        # clock is read at start() and once per snapshot() (no callback set)
        ticks = iter([0.0, 4.0])
        reporter = ProgressReporter(clock=lambda: next(ticks))
        reporter.start(4)
        reporter.advance(attempts=100)
        reporter.advance(attempts=100)
        snapshot = reporter.snapshot()
        assert snapshot.units_done == 2
        assert snapshot.attempts == 200
        assert snapshot.elapsed == 4.0
        assert snapshot.rate == 50.0
        assert snapshot.eta == 4.0  # 2 units left at 2s/unit

    def test_eta_undefined_before_first_unit(self):
        reporter = ProgressReporter()
        reporter.start(5)
        assert reporter.snapshot().eta is None

    def test_zero_elapsed_mid_run_has_no_rate_or_eta(self):
        # a unit completing in the same clock tick as start() must not
        # claim infinite throughput or a zero-second ETA
        reporter = ProgressReporter(clock=lambda: 0.0)
        reporter.start(4)
        reporter.advance(attempts=100)
        snapshot = reporter.snapshot()
        assert snapshot.elapsed == 0.0
        assert snapshot.rate == 0.0
        assert snapshot.eta is None

    def test_unknown_units_total_has_no_eta(self):
        ticks = iter([0.0, 2.0, 4.0])
        reporter = ProgressReporter(clock=lambda: next(ticks))
        reporter.start(0)  # total unknown (e.g. streamed specs)
        reporter.advance(attempts=10)
        snapshot = reporter.snapshot()
        assert snapshot.units_total == 0
        assert snapshot.eta is None
        assert snapshot.rate > 0

    def test_overshooting_units_total_clamps_eta_to_zero(self):
        ticks = iter([0.0, 2.0, 4.0, 6.0, 8.0])
        reporter = ProgressReporter(clock=lambda: next(ticks))
        reporter.start(2)
        reporter.advance()
        reporter.advance()
        reporter.advance()  # a late-discovered third unit
        snapshot = reporter.snapshot()
        assert snapshot.units_done == 3
        assert snapshot.eta == 0.0  # never negative

    def test_callback_and_restart(self):
        snapshots = []
        reporter = ProgressReporter(callback=snapshots.append)
        reporter.start(2)
        reporter.advance(attempts=10)
        reporter.finish()
        assert snapshots[-1].finished
        reporter.start(3)  # reusable across scans
        assert reporter.attempts == 0
        assert reporter.units_total == 3

    def test_format_snapshot_mentions_rate_and_eta(self):
        reporter = ProgressReporter()
        reporter.start(4)
        reporter.advance(attempts=50, categories={"success": 3})
        text = format_snapshot(reporter.snapshot())
        assert "1/4 units" in text
        assert "attempts" in text
        assert "success=3" in text

    def test_console_progress_writes_stream(self):
        class Sink:
            def __init__(self):
                self.text = ""

            def write(self, chunk):
                self.text += chunk

            def flush(self):
                pass

        sink = Sink()
        reporter = console_progress(label="scan", stream=sink, min_interval=0.0)
        reporter.start(1)
        reporter.advance(attempts=7)
        reporter.finish()
        assert "scan" in sink.text
        assert sink.text.endswith("\n")


def _codes(words, categories):
    from repro.exec.cache import CATEGORY_CODES

    return np.asarray(words), np.array([CATEGORY_CODES[c] for c in categories], dtype=np.uint8)


def _cached(cache, key):
    """``word -> category`` for every cached word of one shard."""
    from repro.exec.cache import CODE_CATEGORIES

    codes = cache.get_shard_codes(key)
    return {int(word): CODE_CATEGORIES[codes[word]] for word in np.nonzero(codes)[0]}


class TestOutcomeCache:
    KEY = "a" * 64  # shard keys are world digests (sha256 hex)

    def test_roundtrip_and_persistence(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        assert _cached(cache, self.KEY) == {}
        cache.put_shard_codes(self.KEY, *_codes([0x1234], ["success"]))
        assert _cached(cache, self.KEY) == {0x1234: "success"}
        cache.flush()
        # a second instance reads the shard back from disk
        assert _cached(OutcomeCache(tmp_path), self.KEY) == {0x1234: "success"}

    def test_zero_invalid_shards_are_separate(self, tmp_path):
        # the decode mode is part of the world digest, so one snippet
        # under both modes owns two shards
        cache = OutcomeCache(tmp_path)
        snippet = branch_snippet("eq")
        plain = SnippetHarness(snippet, disk_cache=cache)
        hardened = SnippetHarness(snippet, zero_is_invalid=True, disk_cache=cache)
        assert plain.world_digest() != hardened.world_digest()
        assert plain.run(0).category != hardened.run(0).category
        cache.flush()
        assert (tmp_path / f"{plain.world_digest()}.npz").exists()
        assert (tmp_path / f"{hardened.world_digest()}.npz").exists()
        assert _cached(OutcomeCache(tmp_path), hardened.world_digest()) == {
            0: "invalid_instruction"
        }

    def test_corrupt_legacy_shard_is_a_miss_not_an_error(self, tmp_path):
        """Stray files next to the shards (old JSON or ``.npy`` ones) are never read."""
        (tmp_path / f"{self.KEY}.json").write_text(json.dumps({"7": "success"}))
        np.save(tmp_path / f"{self.KEY}.npy", np.ones(1 << 16, dtype=np.uint8))
        cache = OutcomeCache(tmp_path)
        assert _cached(cache, self.KEY) == {}

    def test_corrupt_binary_shard_is_a_miss_not_an_error(self, tmp_path):
        (tmp_path / f"{self.KEY}.npz").write_bytes(b"PK garbage")
        cache = OutcomeCache(tmp_path)
        assert _cached(cache, self.KEY) == {}
        assert cache.semantic_misses == 0

    def test_context_manager_flushes(self, tmp_path):
        with OutcomeCache(tmp_path) as cache:
            cache.put_shard_codes(self.KEY, *_codes([1], ["no_effect"]))
        assert _cached(OutcomeCache(tmp_path), self.KEY) == {1: "no_effect"}

    def test_coerce_cache(self, tmp_path):
        assert coerce_cache(None) is None
        cache = OutcomeCache(tmp_path)
        assert coerce_cache(cache) is cache
        assert coerce_cache(str(tmp_path)).root == tmp_path

    def test_shard_bulk_roundtrip(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        cache.put_shard_codes(self.KEY, *_codes([1, 0x1FFFF], ["success", "no_effect"]))
        cache.flush()
        again = OutcomeCache(tmp_path)
        # words are masked to 16 bits on the way in
        assert _cached(again, self.KEY) == {1: "success", 0xFFFF: "no_effect"}
        # the view is read-only; mutation goes through put_shard_codes
        with pytest.raises(ValueError):
            again.get_shard_codes(self.KEY)[2] = 1
        # lookups do not touch the counters...
        assert (again.hits, again.misses) == (0, 0)
        # ...callers report totals explicitly instead
        again.account(hits=2, misses=1)
        assert (again.hits, again.misses) == (2, 1)

    def test_put_shard_empty_is_noop(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        cache.put_shard_codes(self.KEY, *_codes([], []))
        cache.flush()
        assert not (tmp_path / f"{self.KEY}.npz").exists()

    def test_put_shard_merges_with_existing_entries(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        cache.put_shard_codes(self.KEY, *_codes([1], ["success"]))
        cache.put_shard_codes(self.KEY, *_codes([2], ["no_effect"]))
        assert _cached(cache, self.KEY) == {1: "success", 2: "no_effect"}


class TestSemanticsFingerprint:
    def test_fingerprint_changes_with_one_source_byte(self, tmp_path):
        from repro.exec.cache import semantics_fingerprint, source_fingerprint

        import repro

        package = tmp_path / "repro"
        shutil.copytree(
            os.path.dirname(repro.__file__), package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        before = source_fingerprint(package)
        assert before == semantics_fingerprint()  # the installed package
        source = package / "isa" / "decoder.py"
        data = bytearray(source.read_bytes())
        data[-2] ^= 0x01
        source.write_bytes(bytes(data))
        assert source_fingerprint(package) != before

    def test_shard_of_other_code_is_reemulated_counted_and_rewritten(self, tmp_path):
        snippet = branch_snippet("eq")
        words = [0x0000, 0xD001, 0xFFFF]
        with OutcomeCache(tmp_path) as stale:
            stale.fingerprint = "0" * 64  # as if written before a decoder fix
            SnippetHarness(snippet, disk_cache=stale).run_many(words)

        cache = OutcomeCache(tmp_path)
        harness = SnippetHarness(snippet, disk_cache=cache)
        with pytest.warns(RuntimeWarning, match="written by different code"):
            harness.run_many(words)
        assert harness.words_executed == len(words)  # nothing served from disk
        assert (cache.hits, cache.misses, cache.semantic_misses) == (0, 3, 1)
        assert cache.counters()["cache.semantic_misses"] == 1
        cache.flush()

        warm = OutcomeCache(tmp_path)  # rewritten under today's fingerprint
        again = SnippetHarness(snippet, disk_cache=warm)
        again.run_many(words)
        assert again.words_executed == 0
        assert (warm.hits, warm.semantic_misses) == (3, 0)

    def test_semantic_misses_reach_the_campaign_observer(self, tmp_path):
        from repro.obs import Observer

        campaign = dict(k_values=(1,), conditions=["eq"])
        for workers in (1, 2):
            root = tmp_path / str(workers)
            with OutcomeCache(root) as stale:
                stale.fingerprint = "0" * 64
                run_branch_campaign("and", cache=stale, **campaign)
            obs = Observer()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                run_branch_campaign("and", cache=OutcomeCache(root),
                                    execution=ExecOptions(workers=workers), obs=obs,
                                    **campaign)
            assert obs.counters["cache.semantic_misses"] == 1
            assert obs.counters["cache.hits"] == 0
            # the campaign rewrote the shard under today's fingerprint
            warm = OutcomeCache(root)
            run_branch_campaign("and", cache=warm, **campaign)
            assert (warm.semantic_misses, warm.misses) == (0, 0)


class TestHarnessDiskCache:
    def test_disk_hit_skips_emulation(self, tmp_path):
        snippet = branch_snippet("eq")
        cache = OutcomeCache(tmp_path)
        first = SnippetHarness(snippet, disk_cache=cache).run(0x0000)
        assert first.category == "success"
        cache.flush()

        warm_cache = OutcomeCache(tmp_path)
        warm = SnippetHarness(snippet, disk_cache=warm_cache)
        executions = []
        warm._execute = lambda word: executions.append(word)  # must never run
        assert warm.run(0x0000).category == "success"
        assert executions == []
        assert warm_cache.hits == 1


class TestCampaignParallel:
    def test_workers_produce_identical_campaigns(self):
        serial = run_branch_campaign("and", k_values=(1, 2), conditions=["eq", "ne"])
        parallel = run_branch_campaign(
            "and", k_values=(1, 2), conditions=["eq", "ne"], execution=ExecOptions(workers=2)
        )
        assert serial == parallel
        assert repr(serial) == repr(parallel)

    def test_campaign_cache_warm_run_matches_cold(self, tmp_path):
        cold = run_branch_campaign("and", k_values=(1,), conditions=["eq"], cache=tmp_path)
        warm_cache = OutcomeCache(tmp_path)
        warm = run_branch_campaign(
            "and", k_values=(1,), conditions=["eq"], cache=warm_cache
        )
        assert cold == warm
        assert warm_cache.hits > 0

    def test_parallel_workers_write_cache_shards(self, tmp_path):
        run_branch_campaign(
            "and", k_values=(1,), conditions=["eq", "ne"], execution=ExecOptions(workers=2),
            cache=tmp_path
        )
        # one shard per replay world, named by its digest
        assert {path.stem for path in tmp_path.glob("*.npz")} == {
            SnippetHarness(branch_snippet(c)).world_digest() for c in ("eq", "ne")
        }

    def test_campaign_progress_counts_masks(self):
        reporter = ProgressReporter()
        run_branch_campaign(
            "and", k_values=(1,), conditions=["eq", "ne"],
            execution=ExecOptions(progress=reporter)
        )
        assert reporter.units_done == 2
        assert reporter.attempts == 2 * 16  # C(16,1) masks per branch
        assert sum(reporter.categories.values()) == reporter.attempts
