"""Checkpoint/resume fault-tolerance tests (``repro.exec.checkpoint``).

The acceptance contract: a campaign interrupted at an arbitrary work unit
and resumed produces tallies byte-identical to an uninterrupted run, and a
spec whose worker keeps raising lands in ``failed_units`` without aborting
the remaining units.
"""

import json

import pytest

from repro.exec import (
    CampaignCheckpoint,
    CheckpointMismatch,
    ProgressReporter,
    campaign_id,
    open_campaign_checkpoint,
)
from repro.exec.cache import semantics_fingerprint
from repro.glitchsim import run_branch_campaign
from repro.hw.scan import run_defense_scan, run_single_glitch_scan
from repro.hw.search import ParameterSearch


def _interrupt_after(units):
    """A reporter whose callback raises KeyboardInterrupt mid-campaign."""

    def callback(snapshot):
        if snapshot.units_done == units and not snapshot.finished:
            raise KeyboardInterrupt

    return ProgressReporter(callback=callback)


class TestCampaignCheckpointStore:
    def test_record_and_resume_roundtrip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignCheckpoint(path, meta={"model": "and"}) as checkpoint:
            checkpoint.record("beq", {"k": 1})
            checkpoint.record("bne", {"k": 2})
        resumed = CampaignCheckpoint(path, meta={"model": "and"}, resume=True)
        assert len(resumed) == 2
        assert "beq" in resumed
        assert resumed.get("bne") == {"k": 2}
        resumed.close()

    def test_meta_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignCheckpoint(path, meta={"model": "and"}).close()
        with pytest.raises(CheckpointMismatch, match="different campaign"):
            CampaignCheckpoint(path, meta={"model": "or"}, resume=True)

    def test_fresh_open_truncates_stale_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignCheckpoint(path, meta={}) as checkpoint:
            checkpoint.record("old", 1)
        fresh = CampaignCheckpoint(path, meta={})  # resume=False → start over
        fresh.close()
        resumed = CampaignCheckpoint(path, meta={}, resume=True)
        assert len(resumed) == 0
        resumed.close()

    def test_torn_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignCheckpoint(path, meta={}) as checkpoint:
            checkpoint.record("done", 1)
        with path.open("a") as handle:
            handle.write('{"key": "torn", "resu')  # crash mid-write
        resumed = CampaignCheckpoint(path, meta={}, resume=True)
        assert resumed.results == {"done": 1}
        resumed.close()

    def test_resume_without_file_starts_fresh(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "new.jsonl", meta={}, resume=True)
        assert len(checkpoint) == 0
        checkpoint.close()

    def test_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        checkpoint = CampaignCheckpoint(path, meta={}, flush_every=100)
        checkpoint.record("a", 1)
        checkpoint.flush()
        assert '"a"' in path.read_text()
        checkpoint.close()

    def test_campaign_id_is_parameter_sensitive(self):
        base = campaign_id("branch-and", {"k": [1, 2]})
        assert base.startswith("branch-and-")
        assert base == campaign_id("branch-and", {"k": [1, 2]})
        assert base != campaign_id("branch-and", {"k": [1, 3]})

    def test_open_campaign_checkpoint_places_file(self, tmp_path):
        checkpoint = open_campaign_checkpoint(tmp_path, "scan-single-a", {"s": 1})
        assert checkpoint.path.parent == tmp_path
        assert checkpoint.path.name.startswith("scan-single-a-")
        checkpoint.close()

    def test_checkpoint_of_other_code_is_never_resumed(self, tmp_path, monkeypatch):
        import repro.exec.checkpoint as checkpoint_mod

        checkpoint = open_campaign_checkpoint(tmp_path, "branch-and", {"s": 1})
        assert checkpoint.meta["semantics"] == semantics_fingerprint()
        checkpoint.record("beq", {"k": 1})
        checkpoint.close()
        monkeypatch.setattr(checkpoint_mod, "semantics_fingerprint", lambda: "0" * 64)
        resumed = open_campaign_checkpoint(tmp_path, "branch-and", {"s": 1}, resume=True)
        assert resumed.path != checkpoint.path  # a fresh file, not a merge
        assert len(resumed) == 0
        resumed.close()


CONDITIONS = ["eq", "ne", "lt", "ge"]
KS = (1, 2)


class TestCampaignResume:
    def test_interrupted_campaign_resumes_to_identical_tallies(self, tmp_path):
        baseline = run_branch_campaign("and", k_values=KS, conditions=CONDITIONS)
        with pytest.raises(KeyboardInterrupt):
            run_branch_campaign(
                "and", k_values=KS, conditions=CONDITIONS,
                checkpoint_dir=tmp_path, progress=_interrupt_after(2),
            )
        files = list(tmp_path.glob("*.jsonl"))
        assert len(files) == 1
        # meta header + the two completed world units survived the interrupt
        assert sum(1 for _ in files[0].open()) == 3
        resumed = run_branch_campaign(
            "and", k_values=KS, conditions=CONDITIONS,
            checkpoint_dir=tmp_path, resume=True,
        )
        assert resumed == baseline
        assert repr(resumed) == repr(baseline)

    def test_resumed_campaign_runs_only_missing_units(self, tmp_path, monkeypatch):
        with pytest.raises(KeyboardInterrupt):
            run_branch_campaign(
                "and", k_values=KS, conditions=CONDITIONS,
                checkpoint_dir=tmp_path, progress=_interrupt_after(2),
            )
        import repro.glitchsim.campaign as campaign_mod

        executed = []
        real = campaign_mod.sweep_instruction

        def spy(snippet, *args, **kwargs):
            executed.append(snippet.mnemonic)
            return real(snippet, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "sweep_instruction", spy)
        run_branch_campaign(
            "and", k_values=KS, conditions=CONDITIONS,
            checkpoint_dir=tmp_path, resume=True,
        )
        # four branches are three world units (bne and bge share one);
        # the interrupt dropped the last
        assert executed == ["blt"]

    def test_poisoned_sweep_quarantined_without_aborting(self, monkeypatch):
        import repro.glitchsim.campaign as campaign_mod

        real = campaign_mod.sweep_instruction
        calls = {"bne": 0}

        def poisoned(snippet, *args, **kwargs):
            if snippet.mnemonic == "bne":
                calls["bne"] += 1
                raise RuntimeError("emulator crashed")
            return real(snippet, *args, **kwargs)

        monkeypatch.setattr(campaign_mod, "sweep_instruction", poisoned)
        result = run_branch_campaign(
            "and", k_values=(1,), conditions=CONDITIONS, retries=2,
        )
        assert calls["bne"] == 3  # 1 initial + 2 retries
        # quarantine is per world: bge shares bne's world and goes with it
        assert [f.spec.mnemonics for f in result.failed_units] == [("bne", "bge")]
        assert result.failed_units[0].attempts == 3
        assert [s.mnemonic for s in result.sweeps] == ["beq", "blt"]

    def test_parallel_resume_matches_serial_baseline(self, tmp_path):
        baseline = run_branch_campaign("and", k_values=KS, conditions=CONDITIONS)
        with pytest.raises(KeyboardInterrupt):
            run_branch_campaign(
                "and", k_values=KS, conditions=CONDITIONS,
                checkpoint_dir=tmp_path, progress=_interrupt_after(1),
            )
        resumed = run_branch_campaign(
            "and", k_values=KS, conditions=CONDITIONS,
            checkpoint_dir=tmp_path, resume=True, workers=2,
        )
        assert resumed == baseline


class TestScanResume:
    def test_single_glitch_scan_resumes_to_identical_rows(self, tmp_path):
        kwargs = dict(cycles=range(3), stride=24)
        baseline = run_single_glitch_scan("a", **kwargs)
        with pytest.raises(KeyboardInterrupt):
            run_single_glitch_scan(
                "a", checkpoint_dir=tmp_path, progress=_interrupt_after(1), **kwargs
            )
        resumed = run_single_glitch_scan(
            "a", checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert resumed == baseline
        assert [row.instruction for row in resumed.rows] == [
            row.instruction for row in baseline.rows
        ]

    def test_defense_scan_resumes_to_identical_tally(self, tmp_path):
        from repro.firmware.guards import build_defended_guard
        from repro.resistor import ResistorConfig

        image = build_defended_guard("while_not_a", ResistorConfig.none()).image
        kwargs = dict(scenario="while_not_a", defense="none", stride=24)
        baseline = run_defense_scan(image, "long", **kwargs)
        with pytest.raises(KeyboardInterrupt):
            run_defense_scan(
                image, "long", checkpoint_dir=tmp_path,
                progress=_interrupt_after(4), **kwargs
            )
        resumed = run_defense_scan(
            image, "long", checkpoint_dir=tmp_path, resume=True, **kwargs
        )
        assert resumed == baseline


class TestSearchResume:
    def test_resumed_search_replays_without_touching_the_glitcher(self, tmp_path):
        baseline = ParameterSearch("a", checkpoint_dir=tmp_path)
        first = baseline.run(max_attempts=400)
        baseline.close()

        resumed = ParameterSearch("a", checkpoint_dir=tmp_path, resume=True)

        def forbidden(params):  # every attempt must come from the log
            raise AssertionError("resume re-ran a recorded attempt")

        resumed.glitcher.run_attempt = forbidden
        second = resumed.run(max_attempts=400)
        resumed.close()
        assert second == first

    def test_search_checkpoint_meta_guards_parameters(self, tmp_path):
        search = ParameterSearch("a", checkpoint_dir=tmp_path)
        search.run(max_attempts=50)
        search.close()
        # same dir, different stride → a different checkpoint file, not a clash
        other = ParameterSearch("a", coarse_stride=8, checkpoint_dir=tmp_path)
        other.run(max_attempts=50)
        other.close()
        assert len(list(tmp_path.glob("search-a-*.jsonl"))) == 2


class TestCliResumeFlags:
    def test_experiment_checkpoint_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        checkpoint_dir = str(tmp_path)
        assert main(["experiment", "table1", "--stride", "12",
                     "--checkpoint-dir", checkpoint_dir]) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("scan-single-*.jsonl"))
        assert main(["experiment", "table1", "--stride", "12",
                     "--checkpoint-dir", checkpoint_dir, "--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_attack_accepts_robustness_flags(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "guard.c"
        source.write_text(
            "void win(void) { for (;;) { } }\n"
            "int main(void) { if (0) { win(); } for (;;) { } return 0; }\n"
        )
        assert main(["attack", str(source), "--stride", "10",
                     "--checkpoint-dir", str(tmp_path / "ck"),
                     "--retries", "1", "--unit-timeout", "30"]) == 0
        assert "attempts" in capsys.readouterr().out
