"""CLI tests (``python -m repro ...``)."""

import pytest

from repro.cli import main


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
        (["table1", "--engine", "vector", "--cache-dir", "x"],
         "--cache-dir, --engine"),
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


class TestExperimentQuarantineReport:
    """Quarantined work units must be named on stderr, as for ``attack``."""

    def test_table1_names_the_quarantined_row(self, monkeypatch, capsys):
        import repro.hw.scan as scan_mod

        real = scan_mod._single_row

        def poisoned(glitcher, register, cycle, stride):
            if cycle == 0:
                raise RuntimeError("board wedged")
            return real(glitcher, register, cycle, stride)

        monkeypatch.setattr(scan_mod, "_single_row", poisoned)
        assert main(["experiment", "table1", "--stride", "24"]) == 0
        captured = capsys.readouterr()
        assert "total 8/175" in captured.out
        assert "3 work unit(s) quarantined" in captured.err
        assert "cycle=0" in captured.err and "board wedged" in captured.err

    def test_fig2_names_the_quarantined_sweep(self, monkeypatch, capsys):
        import repro.glitchsim.campaign as campaign_mod

        real = campaign_mod.sweep_instruction

        def poisoned(snippet, model, zero_is_invalid=False, k_values=None, **kwargs):
            if snippet.mnemonic == "bne":
                raise RuntimeError("emulator crashed")
            # one flip count keeps the fourteen-branch figure fast
            return real(snippet, model, zero_is_invalid, k_values=(1,), **kwargs)

        monkeypatch.setattr(campaign_mod, "sweep_instruction", poisoned)
        assert main(["experiment", "fig2"]) == 0
        captured = capsys.readouterr()
        # a unit is a replay world: bne's world-mates go with it, and the
        # quarantine report names every member, once per panel
        world = ("bne", "bcs", "bpl", "bvc", "bhi", "bge", "bgt")
        for mnemonic in world:
            assert mnemonic.upper() not in captured.out
        assert "BEQ" in captured.out and "BLS" in captured.out
        assert "4 work unit(s) quarantined" in captured.err
        assert captured.err.count(f"mnemonics={world!r}") == 4
        assert "emulator crashed" in captured.err
