"""CLI tests (``python -m repro ...``)."""

import os
import subprocess
import sys

import pytest

from repro.cli import EXIT_QUARANTINED, FAULT_MODEL_NAMES, main

DEMO_HEX = os.path.join(os.path.dirname(__file__), "..", "examples", "demo_fw.hex")


@pytest.fixture()
def guard_c(tmp_path):
    path = tmp_path / "guard.c"
    path.write_text(
        """
        enum Result { OK, BAD };
        void win(void) { for (;;) { } }
        int check(int x) { if (x == 7) { return OK; } return BAD; }
        int main(void) {
            if (check(3) == OK) { win(); }
            for (;;) { }
            return 0;
        }
        """
    )
    return str(path)


class TestAssembleDisassemble:
    def test_assemble(self, tmp_path, capsys):
        source = tmp_path / "t.s"
        source.write_text("start:\n    movs r0, #1\n    bkpt #0\n")
        assert main(["assemble", str(source)]) == 0
        out = capsys.readouterr().out
        assert "movs r0, #1" in out
        assert "start = 0x08000000" in out

    def test_assemble_custom_base(self, tmp_path, capsys):
        source = tmp_path / "t.s"
        source.write_text("nop\n")
        assert main(["assemble", str(source), "--base", "0x1000"]) == 0
        assert "0x00001000" in capsys.readouterr().out

    def test_disassemble(self, capsys):
        assert main(["disassemble", "0120 00be".replace(" ", "")]) == 0
        out = capsys.readouterr().out
        assert "movs r1, #32" in out or "movs" in out
        assert "bkpt" in out

    def test_disassemble_invalid_encoding(self, capsys):
        assert main(["disassemble", "00de"]) == 0
        assert "invalid" in capsys.readouterr().out


class TestHarden:
    def test_harden_all(self, guard_c, capsys):
        assert main(["harden", guard_c]) == 0
        out = capsys.readouterr().out
        assert "instrumentation report" in out
        assert "sections:" in out

    def test_harden_single_defense(self, guard_c, capsys):
        assert main(["harden", guard_c, "--defense", "branches"]) == 0
        assert "branches instrumented" in capsys.readouterr().out

    def test_harden_writes_assembly(self, guard_c, tmp_path, capsys):
        out_path = tmp_path / "out.s"
        assert main(["harden", guard_c, "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert "_start:" in text and "main" in text


class TestAttack:
    def test_attack_undefended(self, guard_c, capsys):
        assert main(["attack", guard_c, "--defense", "none", "--stride", "8"]) == 0
        out = capsys.readouterr().out
        assert "attempts" in out and "successes" in out

    def test_attack_defended(self, guard_c, capsys):
        assert main([
            "attack", guard_c, "--defense", "all-no-delay", "--stride", "10",
        ]) == 0
        assert "detections" in capsys.readouterr().out

    def test_attack_requires_win(self, tmp_path, capsys):
        path = tmp_path / "nowin.c"
        path.write_text("int main(void) { return 0; }")
        assert main(["attack", str(path)]) == 1
        assert "win()" in capsys.readouterr().err


class TestExperiment:
    def test_table7(self, capsys):
        assert main(["experiment", "table7"]) == 0
        assert "GlitchResistor" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["experiment", "table5"]) == 0
        assert "size overhead" in capsys.readouterr().out

    def test_table1_strided(self, capsys):
        assert main(["experiment", "table1", "--stride", "12"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table99"])

    @pytest.mark.parametrize("argv, flags", [
        (["fig2", "--fault-model", "voltage", "--stride", "2"],
         "--stride, --fault-model"),
        (["table1", "--cache-dir", "x"], "--cache-dir"),
        (["table4", "--workers", "2", "--trace"], "--workers, --trace"),
        (["search", "--workers", "2", "--retries", "1", "--unit-timeout", "5"],
         "--workers, --retries, --unit-timeout"),
    ])
    def test_flags_the_artifact_does_not_use_are_rejected(self, argv, flags, capsys):
        assert main(["experiment", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: experiment {argv[0]} does not use {flags}\n"

    def test_flag_left_at_its_default_is_accepted(self, capsys):
        assert main(["experiment", "table7", "--stride", "4", "--workers", "1"]) == 0
        assert "GlitchResistor" in capsys.readouterr().out


class TestInputErrors:
    """A bad flag value, path or source file is an ``error:`` line and a
    nonzero exit status, never a traceback."""

    @pytest.fixture()
    def inputs(self, tmp_path, guard_c):
        dollar = tmp_path / "dollar.c"
        dollar.write_text("int main(void) { return $; }\n")
        nomain = tmp_path / "nomain.c"
        nomain.write_text("int f(void) { return 0; }\n")
        return {"guard": guard_c, "missing": str(tmp_path / "missing.hex"),
                "dir": str(tmp_path), "dollar": str(dollar), "nomain": str(nomain),
                "demo": DEMO_HEX}

    @pytest.mark.parametrize("argv", [
        ["experiment", "table1", "--workers", "-1"],
        ["experiment", "table1", "--retries", "-1"],
        ["experiment", "table1", "--unit-timeout", "0"],
        ["experiment", "table1", "--unit-timeout", "inf"],
        ["experiment", "table1", "--stride", "0"],
        ["attack", "{guard}", "--stride", "0"],
        ["discover", "{missing}"],
        ["discover", "{dir}"],
        ["harden", "{dollar}"],
        ["harden", "{nomain}"],
        ["disassemble", "zz"],
        ["disassemble", "0120", "--base", "0xq"],
        ["discover", "{demo}", "--format", "raw", "--base", "xyz"],
        ["campaign", "--image", "{demo}", "--top", "-2"],
        ["campaign", "--image", "{demo}", "--top", "0"],
        ["experiment", "table1", "--fault-model", "bogus"],
    ], ids=["workers-negative", "retries-negative", "unit-timeout-zero",
            "unit-timeout-infinite", "stride-zero",
            "attack-stride-zero", "discover-missing", "discover-directory",
            "harden-bad-character", "harden-no-main", "disassemble-bad-hex",
            "disassemble-bad-base", "discover-bad-base", "campaign-top-negative",
            "campaign-top-zero", "fault-model-unknown"])
    def test_reported_as_an_error(self, argv, inputs, capsys):
        try:
            status = main([arg.format(**inputs) for arg in argv])
        except SystemExit as exc:  # argparse rejects the flag value
            status = exc.code
        err = capsys.readouterr().err
        assert status != 0
        assert "error:" in err
        assert "Traceback" not in err


class TestFaultModelFlag:
    """``--fault-model`` names a model or a bench calibration, from one registry."""

    def test_choices_are_the_registry(self):
        from repro.hw.models import FAULT_MODELS

        assert FAULT_MODEL_NAMES == tuple(sorted(FAULT_MODELS))

    def test_startup_does_not_import_numpy(self):
        code = "import sys, repro.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.strip() == "False"

    def test_profile_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "table1", "--profile", "em-probe-4mm"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err

    def test_calibration_name_runs_its_model(self, capsys):
        from repro.experiments import run_table1

        assert main(["experiment", "table1", "--stride", "12",
                     "--fault-model", "em-probe-4mm"]) == 0
        expected = run_table1(stride=12, fault_model="em-probe-4mm").render()
        assert capsys.readouterr().out == expected + "\n"
        assert expected != run_table1(stride=12, fault_model="em").render()


class TestExperimentQuarantineReport:
    """Quarantined work units must be named on stderr, and the command
    exits with ``EXIT_QUARANTINED`` after printing its result."""

    def test_table1_names_the_quarantined_row(self, monkeypatch, capsys):
        import repro.hw.scan as scan_mod

        real = scan_mod._defense_shape_unit

        def poisoned(spec, glitcher=None):
            if spec.ext_offset == 0:  # Table I's glitched cycle 0
                raise RuntimeError("board wedged")
            return real(spec, glitcher)

        monkeypatch.setattr(scan_mod, "_defense_shape_unit", poisoned)
        assert main(["experiment", "table1", "--stride", "24"]) == EXIT_QUARANTINED
        captured = capsys.readouterr()
        assert "total 8/175" in captured.out
        assert "3 work unit(s) quarantined" in captured.err
        # units are named by their key, ``ext_offset=<n>,repeat=<n>``
        assert "unit ext_offset=0,repeat=1: RuntimeError('board wedged')" in captured.err

    def test_fig2_names_the_quarantined_sweep(self, monkeypatch, capsys):
        import repro.glitchsim.campaign as campaign_mod

        real = campaign_mod.sweep_instruction

        def poisoned(snippet, model, zero_is_invalid=False, k_values=None, **kwargs):
            if snippet.mnemonic == "bne":
                raise RuntimeError("emulator crashed")
            # one flip count keeps the fourteen-branch figure fast
            return real(snippet, model, zero_is_invalid, k_values=(1,), **kwargs)

        monkeypatch.setattr(campaign_mod, "sweep_instruction", poisoned)
        assert main(["experiment", "fig2"]) == EXIT_QUARANTINED
        captured = capsys.readouterr()
        # a unit is a replay world under every model of one decode mode:
        # bne's world-mates go with it from every panel, and the quarantine
        # report names every member, once per decode mode
        world = ("bne", "bcs", "bpl", "bvc", "bhi", "bge", "bgt")
        for mnemonic in world:
            assert mnemonic.upper() not in captured.out
        assert "BEQ" in captured.out and "BLS" in captured.out
        assert "2 work unit(s) quarantined" in captured.err
        assert captured.err.count(f"unit {'+'.join(world)}: ") == 2
        assert "emulator crashed" in captured.err

    def test_attack_exits_quarantined(self, monkeypatch, capsys, guard_c):
        import repro.hw.scan as scan_mod

        def poisoned(spec, glitcher=None):
            raise RuntimeError("board wedged")

        monkeypatch.setattr(scan_mod, "_defense_shape_unit", poisoned)
        assert main(["attack", guard_c, "--defense", "none",
                     "--stride", "24"]) == EXIT_QUARANTINED
        captured = capsys.readouterr()
        assert "attempts:   0" in captured.out
        assert "board wedged" in captured.err
