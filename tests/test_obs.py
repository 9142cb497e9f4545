"""Tests for the observability layer (``repro.obs``) and its integration
with the executor and campaigns, including the serial vs. parallel vs.
resume-from-checkpoint differential regression test."""

import json

import pytest

from repro.exec import CampaignCheckpoint, ExecOptions, OutcomeCache, ParallelExecutor
from repro.glitchsim import run_branch_campaign
from repro.obs import (
    NULL_OBSERVER,
    JsonlSink,
    NullObserver,
    Observer,
    coerce_observer,
    current,
    load_events,
    render_report,
)


def _square(x):  # module-level: picklable for the multiprocessing path
    return x * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


def _identity(value):
    return value


#: unit keys and the (identity) checkpoint codec, as every driver passes them
UNITS = dict(key_of=str, encode=_identity, decode=_identity)


def _counting_unit(x):
    # worker-side counting via the ambient observer
    current().count("widgets", x)
    return x


# ----------------------------------------------------------------------
# core observer behaviour
# ----------------------------------------------------------------------

class TestObserverCore:
    def test_counters(self):
        obs = Observer()
        obs.count("a")
        obs.count("a", 2)
        obs.count("zero", 0)  # no-op, key never appears
        assert obs.counters["a"] == 3
        assert "zero" not in obs.counters
        assert obs.metrics() == {"counters": {"a": 3}}

    def test_spans_nest_and_time(self):
        ticks = iter([0.0, 0.0, 1.0, 1.0, 3.0, 6.0, 10.0, 15.0])
        obs = Observer(clock=lambda: next(ticks), cpu_clock=lambda: 0.0)
        with obs.trace("outer", label="x"):
            with obs.trace("inner"):
                pass
        assert [s.name for s in obs.spans] == ["inner", "outer"]  # closed inner-first
        inner, outer = obs.spans
        assert inner.depth == 1 and outer.depth == 0
        assert outer.seq < inner.seq  # parents start before children
        assert inner.wall > 0 and outer.wall > inner.wall
        assert outer.attrs == {"label": "x"}

    def test_events_accumulate_and_close_emits_metrics(self):
        obs = Observer()
        obs.count("n", 7)
        obs.event("unit", key="beq", attempts=3)
        obs.close()
        assert obs.events[0]["type"] == "unit"
        assert obs.events[-1]["type"] == "metrics"
        assert obs.events[-1]["counters"] == {"n": 7}

    def test_merge_folds_worker_counters_and_events(self):
        obs = Observer()
        obs.count("n", 1)
        obs.merge({"n": 2, "m": 5}, events=[{"type": "unit", "key": "x"}])
        assert obs.counters == {"n": 3, "m": 5}
        assert obs.events == [{"type": "unit", "key": "x"}]

    def test_null_observer_is_inert_and_shared(self):
        obs = coerce_observer(None)
        assert obs is NULL_OBSERVER
        assert not obs.enabled
        with obs.trace("anything") as span:
            assert span is None
        obs.count("x", 5)
        obs.event("unit", key="y")
        obs.close()
        assert obs.metrics() == {"counters": {}}
        # trace() hands back one shared handle — no allocation per span
        assert obs.trace("a") is obs.trace("b")
        assert coerce_observer(obs) is obs
        assert isinstance(obs, NullObserver)

    def test_ambient_current_defaults_to_null(self):
        assert current() is NULL_OBSERVER


class TestJsonlSink:
    def test_sink_writes_parseable_jsonl(self, tmp_path):
        path = tmp_path / "runs" / "events.jsonl"
        obs = Observer(sink=JsonlSink(path))
        with obs.trace("fig2.campaign"):
            obs.count("attempts", 10)
            obs.event("unit", key="beq", attempts=10)
        obs.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["type"] for r in records] == ["unit", "span", "metrics"]
        assert records[-1]["counters"] == {"attempts": 10}

    def test_load_events_skips_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "unit", "key": "a"}\n{"type": "uni')
        events = load_events(path)
        assert events == [{"type": "unit", "key": "a"}]


class TestRenderReport:
    def test_report_sections(self):
        events = [
            {"type": "unit", "key": "beq", "attempts": 10, "wall": 0.5, "replayed": False},
            {"type": "unit", "key": "bne", "attempts": 10, "wall": 0.2, "replayed": True},
            {"type": "span", "name": "campaign", "depth": 0, "seq": 0,
             "wall": 1.0, "cpu": 0.9, "start": 0.0},
            {"type": "span", "name": "exec.map", "depth": 1, "seq": 1,
             "wall": 0.9, "cpu": 0.8, "start": 0.1},
            {"type": "metrics", "counters": {"attempts": 20}},
        ]
        text = render_report(events)
        assert "campaign" in text and "exec.map" in text
        assert "attempts" in text and "20" in text
        assert "2 (20 attempts, 1 replayed from checkpoint)" in text
        assert text.index("campaign") < text.index("exec.map")  # seq order

    def test_empty_log(self):
        assert render_report([]) == "(no events)"

    def test_counters_fall_back_to_unit_records_when_no_metrics(self):
        events = [{"type": "unit", "key": "a", "attempts": 7}]
        assert "7" in render_report(events)


# ----------------------------------------------------------------------
# executor integration
# ----------------------------------------------------------------------

class TestExecutorObservability:
    def test_counts_units_and_emits_unit_events(self):
        obs = Observer()
        executor = ParallelExecutor(workers=1, obs=obs)
        results = executor.map(_square, [1, 2, 3], attempts_of=lambda r: r, **UNITS)
        assert results == [1, 4, 9]
        assert obs.counters["units.completed"] == 3
        assert obs.counters["attempts"] == 1 + 4 + 9
        units = [e for e in obs.events if e["type"] == "unit"]
        assert len(units) == 3
        assert all("wall" in u for u in units)

    def test_retries_and_quarantine_counted(self, tmp_path, monkeypatch):
        from repro.exec import executor as executor_mod

        monkeypatch.setattr(executor_mod, "BACKOFF_S", 0.0)
        obs = Observer()
        executor = ParallelExecutor(workers=1, retries=2, obs=obs)
        results = executor.map(_boom, ["x"], **UNITS)
        assert results == [None]
        assert obs.counters["exec.retries"] == 2
        assert obs.counters["exec.quarantined"] == 1
        assert [e["type"] for e in obs.events] == ["unit_failed", "span"]

    def test_parallel_worker_telemetry_merged(self):
        obs = Observer()
        executor = ParallelExecutor(workers=2, obs=obs)
        results = executor.map(_counting_unit, [1, 2, 3, 4], **UNITS)
        assert results == [1, 2, 3, 4]
        # worker-side counts rode back over the result channel
        assert obs.counters["widgets"] == 10
        assert obs.counters["units.completed"] == 4

    def test_serial_and_parallel_counters_identical(self):
        serial, parallel = Observer(), Observer()
        ParallelExecutor(workers=1, obs=serial).map(
            _square, [3, 5], attempts_of=lambda r: r, **UNITS)
        ParallelExecutor(workers=2, obs=parallel).map(
            _square, [3, 5], attempts_of=lambda r: r, **UNITS)
        assert serial.counters == parallel.counters

    def test_replayed_units_counted_without_checkpoint_rewrite(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={"v": 1})
        obs1 = Observer()
        executor = ParallelExecutor(workers=1, obs=obs1)
        executor.map(_square, [2, 3], attempts_of=lambda r: r,
                     checkpoint=checkpoint, **UNITS)
        checkpoint.close()
        resumed = CampaignCheckpoint(tmp_path / "ck.jsonl", meta={"v": 1}, resume=True)
        obs2 = Observer()
        executor = ParallelExecutor(workers=1, obs=obs2)
        executor.map(_square, [2, 3], attempts_of=lambda r: r,
                     checkpoint=resumed, **UNITS)
        resumed.close()
        assert obs2.counters["units.replayed"] == 2
        assert "units.completed" not in obs2.counters
        # attempts still counted for replayed units: resumed totals match
        assert obs2.counters["attempts"] == obs1.counters["attempts"]
        assert obs1.counters["checkpoint.recorded"] == 2
        assert "checkpoint.recorded" not in obs2.counters


# ----------------------------------------------------------------------
# campaign integration + the fig2-slice acceptance criterion
# ----------------------------------------------------------------------

SLICE = dict(k_values=(1, 2), conditions=["eq", "ne", "cs", "cc"])


def _campaign_tallies(result):
    return [(s.mnemonic, sorted(s.totals.items())) for s in result.sweeps]


def _metric_counters(obs):
    """The counters that must be identical for any execution strategy."""
    return {
        name: count for name, count in obs.counters.items()
        if name == "attempts" or name.startswith("outcome.")
        or name.startswith("cache.") or name in ("exec.retries", "exec.quarantined")
    }


class TestCampaignObservability:
    def test_fig2_slice_counters_match_result_object(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs = Observer(sink=JsonlSink(path))
        cache = OutcomeCache(tmp_path / "cache")
        result = run_branch_campaign("and", cache=cache, obs=obs, **SLICE)
        obs.close()
        attempts = sum(sum(s.totals.values()) for s in result.sweeps)
        assert obs.counters["attempts"] == attempts
        for category in ("success", "no_effect"):
            assert obs.counters[f"outcome.{category}"] == sum(
                s.totals.get(category, 0) for s in result.sweeps
            )
        assert obs.counters["cache.hits"] == cache.hits
        assert obs.counters["cache.misses"] == cache.misses
        assert obs.counters.get("cache.memo_hits", 0) == cache.memo_hits
        assert cache.misses > 0
        assert obs.counters.get("exec.retries", 0) == 0
        assert obs.counters.get("exec.quarantined", 0) == len(result.failed_units) == 0
        # the event log is parseable and the report renders it
        events = load_events(path)
        assert events[-1]["type"] == "metrics"
        assert events[-1]["counters"] == {
            name: obs.counters[name] for name in sorted(obs.counters)
        }
        report = render_report(events)
        assert "campaign.branch[and]" in report
        assert "attempts" in report

    def test_parallel_campaign_cache_counters_via_workers(self, tmp_path):
        obs = Observer()
        cache = OutcomeCache(tmp_path / "cache")
        run_branch_campaign("and", cache=cache, execution=ExecOptions(workers=2), obs=obs,
                            **SLICE)
        # workers report their private cache handles through the envelope
        assert obs.counters["cache.misses"] > 0

    def test_differential_serial_parallel_resume(self, tmp_path):
        """Serial, parallel, and resume-from-50%-checkpoint runs produce
        byte-identical outcome tallies AND identical metrics counters."""
        obs_serial, obs_parallel, obs_resumed = Observer(), Observer(), Observer()

        serial = run_branch_campaign("and", obs=obs_serial, **SLICE)

        parallel = run_branch_campaign("and", execution=ExecOptions(workers=2),
                                       obs=obs_parallel, **SLICE)

        # interrupted run: record 2 of the slice's 3 world units (beq;
        # bne+bcs; bcc), then resume
        ck = tmp_path / "ck"
        partial = run_branch_campaign(
            "and", conditions=["eq", "cc"], k_values=SLICE["k_values"],
            execution=ExecOptions(checkpoint_dir=ck),
        )
        assert len(partial.sweeps) == 2
        # graft the recorded sweeps into the full campaign's checkpoint file
        full_meta = {
            "campaign": "branch", "model": "and", "zero_is_invalid": False,
            "k_values": list(SLICE["k_values"]),
            "conditions": sorted(f"b{c}" for c in SLICE["conditions"]),
        }
        from repro.exec.checkpoint import open_campaign_checkpoint

        full_ck = open_campaign_checkpoint(ck, "branch-and", full_meta, resume=False)
        for sweep in partial.sweeps:  # each a one-branch world unit
            full_ck.record(sweep.mnemonic, [sweep.to_payload()])
        full_ck.close()
        resumed = run_branch_campaign(
            "and", execution=ExecOptions(workers=2, checkpoint_dir=ck, resume=True),
            obs=obs_resumed, **SLICE,
        )

        assert _campaign_tallies(serial) == _campaign_tallies(parallel)
        assert _campaign_tallies(serial) == _campaign_tallies(resumed)
        assert repr(serial.sweeps) == repr(parallel.sweeps) == repr(resumed.sweeps)
        assert (
            _metric_counters(obs_serial)
            == _metric_counters(obs_parallel)
            == _metric_counters(obs_resumed)
        )
        assert obs_resumed.counters["units.replayed"] == 2

    def test_disabled_observability_unchanged_result(self):
        baseline = run_branch_campaign("and", **SLICE)
        observed = run_branch_campaign("and", obs=Observer(), **SLICE)
        assert repr(baseline.sweeps) == repr(observed.sweeps)


class TestMemoHitAccounting:
    """Serial `run()` loops and batched `run_many` report identical
    hit/miss/memo totals — memo hits used to be invisible to accounting."""

    WORDS = [1, 2, 3, 1, 2, 70000]  # dups + a word that aliases after masking

    @staticmethod
    def _harness(tmp_path, tag):
        from repro.glitchsim.harness import SnippetHarness
        from repro.glitchsim.snippets import branch_snippet

        cache = OutcomeCache(tmp_path / tag)
        return SnippetHarness(branch_snippet("eq"), disk_cache=cache), cache

    def _totals(self, cache):
        return (cache.hits, cache.misses, cache.memo_hits)

    def test_serial_equals_batched_cold_and_warm(self, tmp_path):
        serial, serial_cache = self._harness(tmp_path, "serial")
        for word in self.WORDS:
            serial.run(word)
        batched, batched_cache = self._harness(tmp_path, "batched")
        batched.run_many(self.WORDS)
        assert self._totals(serial_cache) == self._totals(batched_cache) == (0, 4, 2)
        serial_cache.flush()
        batched_cache.flush()

        # warm disk, fresh harnesses: every unique word is now a shard hit
        serial2, serial2_cache = self._harness(tmp_path, "serial")
        for word in self.WORDS:
            serial2.run(word)
        batched2, batched2_cache = self._harness(tmp_path, "batched")
        batched2.run_many(self.WORDS)
        assert self._totals(serial2_cache) == self._totals(batched2_cache) == (4, 0, 2)
        # both read through the shard: nothing re-emulated, same categories
        assert serial2.words_executed == batched2.words_executed == 0
        assert {word: serial2.run(word).category for word in self.WORDS} == {
            word: outcome.category
            for word, outcome in batched2.run_many(self.WORDS).items()
        }

    def test_memo_hits_surface_in_render_report(self):
        obs = Observer()
        obs.count("cache.memo_hits", 2)
        obs.close()
        assert "cache.memo_hits" in render_report(obs.events)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

GUARD_SOURCE = """
volatile int locked = 1;
void win(void) { for (;;) { } }
int main(void) {
    *(volatile unsigned int *)0x48000014 = 1;
    while (locked) { }
    win();
    return 0;
}
"""


class TestCliObservability:
    @pytest.fixture
    def guard_c(self, tmp_path):
        path = tmp_path / "guard.c"
        path.write_text(GUARD_SOURCE)
        return str(path)

    def test_attack_metrics_out_and_report(self, tmp_path, guard_c, capsys):
        from repro.cli import main

        events_path = tmp_path / "run.jsonl"
        assert main([
            "attack", guard_c, "--stride", "40",
            "--trace", "--metrics-out", str(events_path),
        ]) == 0
        captured = capsys.readouterr()
        assert "event log:" in captured.err
        assert "spans:" in captured.err  # --trace prints the report
        events = load_events(events_path)
        assert events[-1]["type"] == "metrics"
        assert any(e["type"] == "scan" for e in events)

        assert main(["report", str(events_path)]) == 0
        report = capsys.readouterr().out
        assert "scan.defense[single]" in report
        assert "counters:" in report

    def test_no_flags_means_no_observer(self, guard_c, capsys):
        from repro.cli import main

        assert main(["attack", guard_c, "--stride", "40"]) == 0
        assert "event log:" not in capsys.readouterr().err
