"""Campaign-as-a-service: dedup, streaming feeds, slots, restart/resume.

The contracts pinned here are the ones docs/SERVICE.md documents:

- identical submissions dedupe onto ONE in-flight unit whose tallies fan
  out bit-identical to every subscriber (and to a direct serial run);
- the JSONL feed streams partial tallies per completed work unit and
  tolerates torn trailing lines;
- a server killed mid-campaign resumes from checkpoints on the next
  identical submission and merges to tallies equal to an uninterrupted
  run;
- per-client slots backpressure one client without starving another,
  and priorities order the queue;
- the shared OutcomeCache evicts least-recently-used shards at its
  bound without ever losing entries.
"""

import asyncio
import json
import threading
import queue as queue_mod

import pytest

from repro.exec import OutcomeCache, ProgressReporter, SlotPool
from repro.glitchsim.campaign import run_branch_campaign
from repro.obs import Observer
from repro.service import (
    CampaignFeed,
    CampaignScheduler,
    ServiceClient,
    SpecError,
    execute_unit,
    normalize_spec,
    read_feed,
    serve,
    spec_fingerprint,
    tail_feed,
)
from repro.service.client import ServiceError
from repro.service.units import checkpoint_dir_for

# a fast-but-real campaign: 2 branches x (k=1,2) = 272 mask attempts
SPEC = {"kind": "branch", "model": "and", "k_values": [1, 2],
        "conditions": ["eq", "ne"]}


def encode_branch_result(result) -> dict:
    """The same encoding execute_unit produces, for bit-identity checks."""
    return {
        "kind": "branch",
        "model": result.model,
        "zero_is_invalid": result.zero_is_invalid,
        "sweeps": {
            sweep.mnemonic: {
                str(k): dict(counter) for k, counter in sorted(sweep.by_k.items())
            }
            for sweep in result.sweeps
        },
    }


# ----------------------------------------------------------------------
# specs and fingerprints
# ----------------------------------------------------------------------


class TestSpecs:
    def test_identical_specs_fingerprint_equal(self):
        a = spec_fingerprint(normalize_spec(SPEC))
        b = spec_fingerprint(normalize_spec(dict(SPEC)))
        assert a == b and a.startswith("svc-branch-")

    def test_execution_keys_do_not_change_fingerprint(self):
        base = spec_fingerprint(normalize_spec(SPEC))
        for override in ({"engine": "vector"}, {"engine": "snapshot"}):
            assert spec_fingerprint(normalize_spec(dict(SPEC, **override))) == base

    def test_parameter_changes_change_fingerprint(self):
        base = spec_fingerprint(normalize_spec(SPEC))
        for override in ({"model": "or"}, {"k_values": [1]},
                         {"conditions": ["eq"]}, {"zero_is_invalid": True}):
            assert spec_fingerprint(normalize_spec(dict(SPEC, **override))) != base

    def test_condition_order_is_canonicalized(self):
        a = normalize_spec(dict(SPEC, conditions=["ne", "eq"]))
        b = normalize_spec(dict(SPEC, conditions=["eq", "ne"]))
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_image_fingerprint_uses_digest_not_path(self, tmp_path):
        from repro.firmware.image import FirmwareImage, write_image

        image = FirmwareImage(base=0x08000000, data=bytes(range(16)) * 2,
                              entry=0x08000000)
        p1, p2 = str(tmp_path / "a.bin"), str(tmp_path / "b.bin")
        write_image(image, p1)
        write_image(image, p2)
        f1 = spec_fingerprint(normalize_spec(
            {"kind": "image", "path": p1, "base": image.base}))
        f2 = spec_fingerprint(normalize_spec(
            {"kind": "image", "path": p2, "base": image.base}))
        assert f1 == f2

    @pytest.mark.parametrize("bad", [
        {"kind": "nope"},
        {"kind": "branch", "model": "nand"},
        {"kind": "branch", "model": "and", "engine": "warp"},
        {"kind": "branch", "model": "and", "engine": "rebuild"},
        {"kind": "branch", "model": "and", "k_values": ["x"]},
        {"kind": "image"},
        {"kind": "experiment", "name": "table9"},
        {"kind": "experiment", "name": "table1", "stride": 0},
        [],
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(SpecError):
            normalize_spec(bad)


# ----------------------------------------------------------------------
# slots and cache eviction
# ----------------------------------------------------------------------


class TestSlotPool:
    def test_acquire_release_cycle(self):
        pool = SlotPool(2)
        assert pool.try_acquire("a") and pool.try_acquire("a")
        assert not pool.try_acquire("a")  # saturated
        assert pool.try_acquire("b")  # other keys unaffected
        assert pool.active("a") == 2 and pool.free("a") == 0
        assert pool.active_keys() == ["a", "b"] and len(pool) == 3
        pool.release("a")
        assert pool.try_acquire("a")

    def test_release_without_acquire_raises(self):
        with pytest.raises(ValueError):
            SlotPool(1).release("ghost")

    def test_per_key_must_be_positive(self):
        with pytest.raises(ValueError):
            SlotPool(0)


class TestCacheEviction:
    def fill(self, cache, n):
        for i in range(n):
            cache.put(f"op{i}", False, 1, "success")

    def test_lru_bound_is_enforced(self, tmp_path):
        cache = OutcomeCache(tmp_path, max_shards=3)
        self.fill(cache, 5)
        assert len(cache._shards) == 3
        assert cache.evictions == 2

    def test_eviction_flushes_dirty_shards(self, tmp_path):
        cache = OutcomeCache(tmp_path, max_shards=1)
        cache.put("bne", False, 7, "success")
        cache.put("beq", False, 9, "failed")  # evicts bne, must write it
        fresh = OutcomeCache(tmp_path)
        assert fresh.get("bne", False, 7) == "success"
        assert fresh.get("beq", False, 9) is None  # never flushed yet

    def test_evicted_shard_reloads_bit_identical(self, tmp_path):
        cache = OutcomeCache(tmp_path, max_shards=2)
        cache.put("beq", False, 1, "success")
        before = dict(cache.get_shard("beq", False))
        self.fill(cache, 4)  # pushes beq out
        assert dict(cache.get_shard("beq", False)) == before

    def test_touch_refreshes_lru_order(self, tmp_path):
        cache = OutcomeCache(tmp_path, max_shards=2)
        cache.put("a", False, 1, "success")
        cache.put("b", False, 1, "success")
        cache.get("a", False, 1)  # a becomes most recent
        cache.put("c", False, 1, "success")  # must evict b, not a
        assert ("a", False) in cache._shards
        assert ("b", False) not in cache._shards

    def test_unbounded_default_never_evicts(self, tmp_path):
        cache = OutcomeCache(tmp_path)
        self.fill(cache, 10)
        assert cache.evictions == 0 and len(cache._shards) == 10

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            OutcomeCache(tmp_path, max_shards=0)


# ----------------------------------------------------------------------
# streaming feed
# ----------------------------------------------------------------------


class TestFeed:
    def test_progress_then_result_stream(self, tmp_path):
        path = tmp_path / "job.jsonl"
        with CampaignFeed(path) as feed:
            feed.header("fp", {"kind": "branch"}, "branch and")
            reporter = feed.reporter()
            reporter.start(2)
            reporter.advance(attempts=10, categories={"success": 1})
            reporter.advance(attempts=10, categories={"no_effect": 9})
            feed.result({"ok": True})
        records = read_feed(path)
        types = [r["type"] for r in records]
        assert types[0] == "campaign" and types[-1] == "result"
        progress = [r for r in records if r["type"] == "progress"]
        # partial tallies accumulate unit by unit
        assert progress[-1]["units_done"] == 2
        assert progress[-1]["attempts"] == 20
        assert progress[-1]["categories"] == {"success": 1, "no_effect": 9}
        assert any(r["units_done"] == 1 for r in progress)

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "job.jsonl"
        with CampaignFeed(path) as feed:
            feed.header("fp", {}, "x")
            feed.emit({"type": "progress", "units_done": 1})
        with open(path, "a") as handle:  # simulate a crash mid-write
            handle.write('{"type": "progress", "units_do')
        records = read_feed(path)
        assert [r["type"] for r in records] == ["campaign", "progress"]

    def test_tail_feed_ignores_incomplete_lines_and_ends_on_result(self, tmp_path):
        path = tmp_path / "job.jsonl"
        with open(path, "w") as handle:
            handle.write('{"type": "campaign"}\n')
            handle.write('{"type": "progress", "units_done": 1}\n')
            handle.write('{"type": "result", "tallies": {}}\n')
            handle.write('{"type": "torn...')  # never newline-terminated
        types = [r["type"] for r in tail_feed(path, poll=0.01, timeout=5)]
        assert types == ["campaign", "progress", "result"]

    def test_tail_feed_times_out_without_terminal_record(self, tmp_path):
        path = tmp_path / "job.jsonl"
        path.write_text('{"type": "campaign"}\n')
        with pytest.raises(TimeoutError):
            list(tail_feed(path, poll=0.01, timeout=0.1))


# ----------------------------------------------------------------------
# scheduler: dedup, priorities, slots
# ----------------------------------------------------------------------


def run_scheduler(coro):
    return asyncio.run(coro)


class TestSchedulerDedup:
    def test_identical_submissions_execute_once_and_fan_out(self, tmp_path):
        """ISSUE acceptance: two identical submissions -> one execution,
        both clients receive tallies bit-identical to a serial CLI run,
        and service.deduped == 1."""
        obs = Observer()

        async def main():
            scheduler = CampaignScheduler(root=tmp_path, job_slots=1, obs=obs)
            await scheduler.start()
            job1, fut1, deduped1 = scheduler.submit(SPEC, client="alice")
            job2, fut2, deduped2 = scheduler.submit(dict(SPEC), client="bob")
            assert job1 is job2
            assert not deduped1 and deduped2
            results = await asyncio.gather(fut1, fut2)
            await scheduler.aclose()
            return results

        r1, r2 = run_scheduler(main())
        assert r1 == r2
        assert obs.counters["service.deduped"] == 1
        assert obs.counters["service.submissions"] == 2
        assert obs.counters["service.completed"] == 1
        # bit-identical to the campaign run directly (the serial CLI path)
        direct = run_branch_campaign("and", k_values=(1, 2),
                                     conditions=["eq", "ne"])
        assert r1 == encode_branch_result(direct)

    def test_engine_variant_dedupes_onto_same_unit(self, tmp_path):
        async def main():
            scheduler = CampaignScheduler(root=tmp_path, job_slots=1)
            await scheduler.start()
            _, fut1, _ = scheduler.submit(SPEC, client="a")
            _, fut2, deduped = scheduler.submit(dict(SPEC, engine="vector"),
                                                client="b")
            assert deduped
            r1, r2 = await asyncio.gather(fut1, fut2)
            await scheduler.aclose()
            assert r1 == r2

        run_scheduler(main())

    def test_distinct_submissions_do_not_dedupe(self, tmp_path):
        obs = Observer()

        async def main():
            scheduler = CampaignScheduler(root=tmp_path, obs=obs)
            await scheduler.start()
            _, fut1, _ = scheduler.submit(SPEC, client="a")
            _, fut2, deduped = scheduler.submit(dict(SPEC, model="xor"),
                                                client="a")
            assert not deduped
            r1, r2 = await asyncio.gather(fut1, fut2)
            await scheduler.aclose()
            assert r1 != r2

        run_scheduler(main())
        assert obs.counters["service.deduped"] == 0
        assert obs.counters["service.completed"] == 2

    def test_feed_streams_partial_tallies_before_completion(self, tmp_path):
        async def main():
            scheduler = CampaignScheduler(root=tmp_path)
            await scheduler.start()
            job, fut, _ = scheduler.submit(SPEC, client="a")
            await fut
            await scheduler.aclose()
            return job

        job = run_scheduler(main())
        records = read_feed(job.feed)
        types = [r["type"] for r in records]
        assert types[0] == "campaign" and types[-1] == "result"
        progress = [r for r in records if r["type"] == "progress"]
        assert any(0 < r["units_done"] < r["units_total"] for r in progress), (
            "feed must contain at least one mid-campaign partial tally"
        )
        # the streamed total matches the final tallies
        final = records[-1]["tallies"]
        streamed = progress[-1]["attempts"]
        summed = sum(n for sweep in final["sweeps"].values()
                     for counter in sweep.values() for n in counter.values())
        assert streamed == summed

    def test_failed_job_rejects_all_subscribers(self, tmp_path):
        bad = {"kind": "image", "path": "missing.hex"}

        async def main():
            scheduler = CampaignScheduler(root=tmp_path)
            await scheduler.start()
            with pytest.raises(SpecError):
                scheduler.submit(bad, client="a")
            await scheduler.aclose()

        run_scheduler(main())


class TestSchedulerOrdering:
    def test_priority_orders_queue(self, tmp_path):
        """With one job slot, a smaller priority number runs first even
        when submitted later."""
        order = []

        async def main():
            scheduler = CampaignScheduler(root=tmp_path, job_slots=1)
            # stall dispatch until all three are queued: submit before start
            a = scheduler.submit(dict(SPEC, conditions=["eq"]), "a", priority=5)
            b = scheduler.submit(dict(SPEC, conditions=["ne"]), "b", priority=1)
            c = scheduler.submit(dict(SPEC, conditions=["lt"]), "c", priority=3)
            for job, fut, _ in (a, b, c):
                fut.add_done_callback(
                    lambda _f, fp=job.fingerprint: order.append(fp))
            await scheduler.start()
            await asyncio.gather(a[1], b[1], c[1])
            await scheduler.aclose()
            return a[0].fingerprint, b[0].fingerprint, c[0].fingerprint

        fa, fb, fc = run_scheduler(main())
        assert order == [fb, fc, fa]

    def test_client_slots_backpressure_without_starvation(self, tmp_path):
        """A client at its slot budget defers to other clients' jobs even
        when its own were submitted first with equal priority."""

        async def main():
            scheduler = CampaignScheduler(root=tmp_path, job_slots=2,
                                          client_slots=1)
            jobs = [
                scheduler.submit(dict(SPEC, conditions=["eq"]), "greedy"),
                scheduler.submit(dict(SPEC, conditions=["ne"]), "greedy"),
                scheduler.submit(dict(SPEC, conditions=["lt"]), "polite"),
            ]
            await scheduler.start()
            # let the dispatcher fill both job slots
            while scheduler._running < 2:
                await asyncio.sleep(0)
            states = [job.state for job, _, _ in jobs]
            active = scheduler.slots.active_keys()
            await asyncio.gather(*(fut for _, fut, _ in jobs))
            await scheduler.aclose()
            return states, active, [job.state for job, _, _ in jobs]

        states, active, final = run_scheduler(main())
        # greedy got ONE slot; polite's later job overtook greedy's second
        assert states == ["running", "queued", "running"]
        assert active == ["greedy", "polite"]
        assert final == ["done", "done", "done"]  # nobody starves

    def test_status_reports_queue_and_jobs(self, tmp_path):
        async def main():
            scheduler = CampaignScheduler(root=tmp_path)
            await scheduler.start()
            _, fut, _ = scheduler.submit(SPEC, client="a")
            await fut
            status = scheduler.status()
            await scheduler.aclose()
            return status

        status = run_scheduler(main())
        assert status["queued"] == 0 and status["running"] == 0
        assert len(status["jobs"]) == 1
        assert status["jobs"][0]["state"] == "done"
        assert status["metrics"]["counters"]["service.submissions"] == 1
        assert status["metrics"]["gauges"]["service.queue_depth"] == 0


# ----------------------------------------------------------------------
# restart / resume
# ----------------------------------------------------------------------


class KillAtHalf(ProgressReporter):
    """Raises KeyboardInterrupt once half the campaign units completed."""

    def advance(self, units=1, attempts=0, categories=None):
        super().advance(units, attempts, categories)
        if self.units_done == self.units_total // 2:
            raise KeyboardInterrupt


class TestRestartResume:
    def test_killed_server_resumes_to_identical_tallies(self, tmp_path):
        """ISSUE acceptance: kill at 50%, restart, final tallies equal an
        uninterrupted run — and the resume provably replays checkpoints."""
        spec = {"kind": "branch", "model": "and", "k_values": [1, 2],
                "conditions": ["eq", "ne", "lt", "ge"]}
        norm = normalize_spec(spec)
        baseline = encode_branch_result(
            run_branch_campaign("and", k_values=(1, 2),
                                conditions=["eq", "ne", "lt", "ge"])
        )

        # server life 1: die halfway through the campaign
        with pytest.raises(KeyboardInterrupt):
            execute_unit(norm, root=tmp_path, progress=KillAtHalf())
        checkpoints = checkpoint_dir_for(tmp_path, spec_fingerprint(norm))
        assert any(checkpoints.glob("*.jsonl")), "no checkpoint survived the kill"

        # server life 2: same submission resumes instead of restarting
        obs = Observer()

        async def main():
            scheduler = CampaignScheduler(root=tmp_path, obs=obs)
            await scheduler.start()
            _, fut, _ = scheduler.submit(spec, client="back")
            result = await fut
            await scheduler.aclose()
            return result

        resumed = run_scheduler(main())
        assert resumed == baseline
        assert obs.counters["units.replayed"] >= 2, (
            "resume should replay the units completed before the kill"
        )
        assert obs.counters["units.completed"] <= 2

    def test_resubmit_after_completion_replays_everything(self, tmp_path):
        obs = Observer()

        async def main():
            scheduler = CampaignScheduler(root=tmp_path, obs=obs)
            await scheduler.start()
            _, fut, _ = scheduler.submit(SPEC, client="a")
            first = await fut
            # the fingerprint left the in-flight table: this is a fresh
            # job, but its checkpoints replay — no emulation re-runs
            _, fut2, deduped = scheduler.submit(SPEC, client="a")
            assert not deduped
            second = await fut2
            await scheduler.aclose()
            return first, second

        first, second = run_scheduler(main())
        assert first == second
        assert obs.counters["units.replayed"] == 2  # whole second run


# ----------------------------------------------------------------------
# socket server end-to-end
# ----------------------------------------------------------------------


@pytest.fixture
def running_server(tmp_path):
    """A real `repro serve` loop in a thread, on an ephemeral port."""
    ready: queue_mod.Queue = queue_mod.Queue()
    thread = threading.Thread(
        target=lambda: asyncio.run(
            serve(root=tmp_path, port=0, job_slots=1,
                  ready=lambda h, p: ready.put((h, p)))
        ),
        daemon=True,
    )
    thread.start()
    host, port = ready.get(timeout=10)
    yield host, port
    if thread.is_alive():
        try:
            with ServiceClient(host=host, port=port) as client:
                client.shutdown()
        except OSError:
            pass
        thread.join(timeout=30)


class TestServerEndToEnd:
    def test_submit_status_result_roundtrip(self, running_server):
        host, port = running_server
        with ServiceClient(host=host, port=port) as client:
            result = client.submit(SPEC, client="e2e")
            assert result["type"] == "result"
            assert result["accepted"]["deduped"] is False
            direct = run_branch_campaign("and", k_values=(1, 2),
                                         conditions=["eq", "ne"])
            assert result["tallies"] == encode_branch_result(direct)
            status = client.status()
            assert status["metrics"]["counters"]["service.completed"] == 1

    def test_malformed_submission_is_rejected_not_fatal(self, running_server):
        host, port = running_server
        with ServiceClient(host=host, port=port) as client:
            with pytest.raises(ServiceError):
                client.submit({"kind": "nope"})
            # the connection and the server both survive
            assert client.status()["queued"] == 0

    def test_no_wait_submission_feeds_are_tailable(self, running_server):
        host, port = running_server
        with ServiceClient(host=host, port=port) as client:
            accepted = client.submit(SPEC, client="e2e", wait=False)
            assert accepted["type"] == "accepted"
        records = list(tail_feed(accepted["feed"], poll=0.05, timeout=60))
        assert records[-1]["type"] == "result"

    def test_shutdown_drains_and_terminates(self, tmp_path):
        ready: queue_mod.Queue = queue_mod.Queue()
        thread = threading.Thread(
            target=lambda: asyncio.run(
                serve(root=tmp_path, port=0,
                      ready=lambda h, p: ready.put((h, p)))
            ),
            daemon=True,
        )
        thread.start()
        host, port = ready.get(timeout=10)
        with ServiceClient(host=host, port=port) as client:
            accepted = client.submit(SPEC, wait=False)
        with ServiceClient(host=host, port=port) as client:
            assert client.shutdown()["type"] == "bye"
        thread.join(timeout=60)
        assert not thread.is_alive()
        # the drained shutdown finished the in-flight job: its feed ends
        # with a terminal record (nothing torn, nothing lost)
        records = read_feed(accepted["feed"])
        assert records[-1]["type"] == "result"
