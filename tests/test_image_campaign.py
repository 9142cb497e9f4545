"""Whole-image campaigns: differential sweep, resume, caching, CLI.

The differential contract: per-site tallies are **bit-identical** across
the vector engine, the scalar snapshot replay and the per-word rebuild
oracle, the
closed-form mask algebra equals the full mask enumeration oracle (both
oracles live in tests/oracles.py), and a campaign killed half-way resumes
from its checkpoint to the exact tallies of an uninterrupted run.
"""

import os

import pytest

from repro.campaign import (
    DEFAULT_MODELS,
    SiteHarness,
    discover_sites,
    run_image_campaign,
    sweep_site,
)
from repro.cli import main
from repro.exec import ExecOptions, ProgressReporter
from repro.firmware.image import load_image, write_image
from repro.obs import Observer
from tests.oracles import SnapshotSiteHarness, enumerate_by_k, rebuild_engine, snapshot_engine

DEMO_HEX = os.path.join(os.path.dirname(__file__), "..", "examples", "demo_fw.hex")

SMALL_KS = (0, 1, 2, 15, 16)


@pytest.fixture(scope="module")
def demo_image():
    return load_image(DEMO_HEX)


@pytest.fixture(scope="module")
def demo_sites(demo_image):
    return discover_sites(demo_image)


# ----------------------------------------------------------------------
# the differential sweep
# ----------------------------------------------------------------------

class TestDifferentialSweep:
    @pytest.mark.parametrize("model", DEFAULT_MODELS)
    def test_every_engine_bit_identical(self, demo_image, demo_sites, model):
        """snapshot / rebuild / vector agree mask-for-mask on every site."""
        for site in demo_sites:
            by_engine = {"vector": sweep_site(demo_image, site, model, k_values=SMALL_KS).by_k}
            with snapshot_engine():
                by_engine["snapshot"] = sweep_site(demo_image, site, model,
                                                   k_values=SMALL_KS).by_k
            with rebuild_engine():
                by_engine["rebuild"] = sweep_site(demo_image, site, model,
                                                  k_values=SMALL_KS).by_k
            reference = by_engine["snapshot"]
            for engine, by_k in by_engine.items():
                assert by_k == reference, (site.site_id, model, engine)

    @pytest.mark.parametrize("model", DEFAULT_MODELS)
    def test_tally_modes_bit_identical(self, demo_image, demo_sites, model):
        """Mask algebra equals the brute-force enumeration oracle."""
        for site in (demo_sites[0], demo_sites[3]):
            algebra = sweep_site(demo_image, site, model, k_values=(0, 1, 2))
            enumerate_ = enumerate_by_k(SnapshotSiteHarness(demo_image, site),
                                        site.word, model, (0, 1, 2))
            assert algebra.by_k == enumerate_, (site.site_id, model)

    def test_full_range_vector_matches_snapshot(self, demo_image, demo_sites):
        """All 2^16 xor masks, every k — the strongest single-site identity."""
        site = demo_sites[0]
        vector = sweep_site(demo_image, site, "xor")
        with snapshot_engine():
            snapshot = sweep_site(demo_image, site, "xor")
        assert vector.by_k == snapshot.by_k
        assert sum(vector.totals.values()) == 2 ** 16

    def test_pristine_word_is_no_effect(self, demo_image, demo_sites):
        """k=0 leaves the site intact: the taken branch executes (no_effect)."""
        for site in demo_sites:
            sweep = sweep_site(demo_image, site, "xor", k_values=(0,))
            assert dict(sweep.by_k[0]) == {"no_effect": 1}, site.site_id

    def test_unknown_tally_mode(self, demo_image, demo_sites):
        """There is one tallying strategy; the ``tally`` option is gone."""
        with pytest.raises(TypeError, match="tally"):
            sweep_site(demo_image, demo_sites[0], "xor", tally="algebra")


class TestArgumentErrors:
    """Bad arguments raise up front instead of quarantining every unit."""

    @pytest.mark.parametrize("kwargs", [
        {"models": ("andd",)},
        {"models": ("and", "nand")},  # one unknown model among known ones
        {"strategy": "bogus"},
    ])
    def test_bad_argument_raises_before_any_unit(self, demo_image, kwargs):
        obs = Observer()
        with pytest.raises(ValueError, match="unknown"):
            run_image_campaign(demo_image, k_values=(1,), obs=obs, **kwargs)
        assert not obs.counters  # no discovery, no unit ran

    @pytest.mark.parametrize("models, match", [
        (("and", "and"), "repeated"),  # would sweep AND twice
        (("and", "xor", "and"), "repeated"),
        ((), "no flip model"),
    ])
    def test_repeated_or_no_model_raises_before_any_unit(self, demo_image, models, match):
        obs = Observer()
        with pytest.raises(ValueError, match=match):
            run_image_campaign(demo_image, models=models, k_values=(1,), obs=obs)
        assert not obs.counters


# ----------------------------------------------------------------------
# campaign orchestration: resume, caching, observability
# ----------------------------------------------------------------------

class _KillAfter(ProgressReporter):
    """Raises KeyboardInterrupt after N completed units (mid-campaign kill)."""

    def __init__(self, after):
        super().__init__()
        self.after = after
        self.advanced = 0

    def advance(self, units=1, attempts=0, categories=None):
        super().advance(units, attempts, categories)
        self.advanced += 1
        if self.advanced == self.after:
            raise KeyboardInterrupt


class TestCampaignResume:
    KWARGS = dict(models=("and",), k_values=(0, 1, 2, 3))

    def _by_site(self, result):
        return {
            sweep.site.site_id: sweep.by_k
            for sweep in result.sweeps["and"]
        }

    def test_kill_at_half_then_resume_matches_uninterrupted(
        self, demo_image, demo_sites, tmp_path
    ):
        checkpoint_dir = str(tmp_path / "ck")
        with pytest.raises(KeyboardInterrupt):
            run_image_campaign(
                demo_image,
                execution=ExecOptions(progress=_KillAfter(len(demo_sites) // 2),
                                      checkpoint_dir=checkpoint_dir),
                **self.KWARGS,
            )
        obs = Observer()
        resumed = run_image_campaign(
            demo_image, execution=ExecOptions(checkpoint_dir=checkpoint_dir, resume=True),
            obs=obs, **self.KWARGS,
        )
        fresh = run_image_campaign(demo_image, **self.KWARGS)
        assert self._by_site(resumed) == self._by_site(fresh)
        assert [r.site.site_id for r in resumed.ranking()] == [
            r.site.site_id for r in fresh.ranking()
        ]
        # half the sites were replayed from the checkpoint, half ran live
        assert obs.counters["units.replayed"] == len(demo_sites) // 2
        assert (obs.counters["units.replayed"] + obs.counters["units.completed"]
                == len(demo_sites))

    def test_resume_with_different_shape_starts_fresh(
        self, demo_image, demo_sites, tmp_path
    ):
        """A changed campaign shape digests to a different checkpoint file,
        so nothing stale is replayed — every unit runs live."""
        checkpoint_dir = str(tmp_path / "ck")
        run_image_campaign(demo_image, execution=ExecOptions(checkpoint_dir=checkpoint_dir),
                           **self.KWARGS)
        obs = Observer()
        run_image_campaign(
            demo_image, execution=ExecOptions(checkpoint_dir=checkpoint_dir, resume=True),
            obs=obs, models=("and",), k_values=(0, 1),
        )
        assert obs.counters["units.replayed"] == 0
        assert obs.counters["units.completed"] == len(demo_sites)

    def test_resumed_campaign_may_switch_engine(
        self, demo_image, demo_sites, tmp_path
    ):
        """The harness class is absent from the fingerprint — tallies are
        bit-identical, so a resume may run on the snapshot oracle."""
        checkpoint_dir = str(tmp_path / "ck")
        run_image_campaign(demo_image, execution=ExecOptions(checkpoint_dir=checkpoint_dir),
                           **self.KWARGS)
        obs = Observer()
        with snapshot_engine():
            resumed = run_image_campaign(
                demo_image, execution=ExecOptions(checkpoint_dir=checkpoint_dir, resume=True),
                obs=obs, **self.KWARGS,
            )
        assert obs.counters["units.replayed"] == len(demo_sites)
        assert self._by_site(resumed)


class TestCampaignCacheAndObs:
    KWARGS = dict(models=("and", "or"), k_values=(0, 1, 2))

    def test_cache_shared_across_reruns(self, demo_image, demo_sites, tmp_path):
        cache_root = str(tmp_path / "cache")
        first_obs, second_obs = Observer(), Observer()
        first = run_image_campaign(demo_image, cache=cache_root, obs=first_obs,
                                   **self.KWARGS)
        second = run_image_campaign(demo_image, cache=cache_root, obs=second_obs,
                                    **self.KWARGS)
        assert first_obs.counters["cache.misses"] > 0
        assert second_obs.counters["cache.misses"] == 0
        assert second_obs.counters["cache.hits"] > 0
        for model in self.KWARGS["models"]:
            for a, b in zip(first.sweeps[model], second.sweeps[model]):
                assert a.by_k == b.by_k

    def test_work_shape_one_unit_and_batch_per_site(self, demo_image, demo_sites):
        """A cold serial campaign runs one unit per site, covering every
        model, and classifies each site's union of words in one batch: the
        union of and/or/xor over every k is all 65,536 words."""
        obs = Observer()
        run_image_campaign(demo_image, obs=obs)
        assert len(demo_sites) == 6
        assert obs.counters["units.completed"] == 6
        assert obs.counters["vector.batches"] == 6
        assert obs.counters["vector.lanes"] == 6 * 65536 == 393216
        assert obs.counters["sites.campaigned"] == 18

    def test_obs_counters(self, demo_image, demo_sites):
        obs = Observer()
        result = run_image_campaign(demo_image, obs=obs, **self.KWARGS)
        assert obs.counters["sites.discovered"] == len(demo_sites)
        assert obs.counters["sites.campaigned"] == len(demo_sites) * 2
        assert obs.counters["algebra.masks_derived"] > 0
        assert not result.failed_units

    def test_explicit_site_subset(self, demo_image, demo_sites):
        result = run_image_campaign(demo_image, sites=demo_sites[:2],
                                    **self.KWARGS)
        assert len(result.sweeps["and"]) == 2
        assert result.sweep_for(demo_sites[0].site_id, "and").by_k

    def test_render_top_footer(self, demo_image, demo_sites):
        result = run_image_campaign(demo_image, models=("and",),
                                    k_values=(0, 1))
        table = result.render(top=2)
        assert "Exploitability ranking" in table
        assert f"... {len(demo_sites) - 2} more site(s) not shown" in table
        assert result.render().count("0x0800") >= len(demo_sites)


class _FailingSite(SiteHarness):
    """A site harness whose replay point cannot be built at one address."""

    address = None

    def _snapshot_world(self):
        if self.site.address == self.address:
            raise RuntimeError("injected site failure")
        return super()._snapshot_world()


class TestQuarantine:
    """A failing site unit is quarantined once, for every model."""

    @pytest.fixture
    def failing_site(self, demo_sites, monkeypatch):
        import repro.campaign.image_campaign as image_campaign

        site = demo_sites[2]
        monkeypatch.setattr(_FailingSite, "address", site.address)
        monkeypatch.setattr(image_campaign, "SiteHarness", _FailingSite)
        return site

    def test_site_absent_from_every_model_and_the_ranking(
        self, demo_image, demo_sites, failing_site
    ):
        obs = Observer()
        result = run_image_campaign(demo_image, k_values=(0, 1), obs=obs)
        assert len(result.failed_units) == 1
        (failed,) = result.failed_units
        assert failed.spec.site == failing_site
        assert failed.spec.models == DEFAULT_MODELS
        assert failed.key == failing_site.site_id
        assert "injected site failure" in failed.error
        assert obs.counters["exec.quarantined"] == 1
        assert obs.counters["units.completed"] == len(demo_sites) - 1
        assert obs.counters["sites.campaigned"] == (len(demo_sites) - 1) * len(DEFAULT_MODELS)
        for model in DEFAULT_MODELS:
            ids = [sweep.site.site_id for sweep in result.sweeps[model]]
            assert ids == [s.site_id for s in demo_sites if s != failing_site]
            with pytest.raises(KeyError):
                result.sweep_for(failing_site.site_id, model)
        ranked = [entry.site.site_id for entry in result.ranking()]
        assert failing_site.site_id not in ranked
        assert len(ranked) == len(demo_sites) - 1
        # the table counts the ranked sites and says one is missing
        table = result.render()
        assert f"({len(demo_sites) - 1} sites, models:" in table
        assert table.endswith("\n... 1 site(s) quarantined, not ranked")
        top = result.render(top=2)
        assert f"... {len(demo_sites) - 3} more site(s) not shown\n" in top
        assert top.endswith("\n... 1 site(s) quarantined, not ranked")

    def test_cli_exits_quarantined(self, failing_site, capsys):
        from repro.cli import EXIT_QUARANTINED

        assert main(["campaign", "--image", DEMO_HEX]) == EXIT_QUARANTINED == 3
        captured = capsys.readouterr()
        assert "1 work unit(s) quarantined" in captured.err
        assert f"{failing_site.address:#010x}" not in captured.out
        assert "... 1 site(s) quarantined, not ranked" in captured.out
        # the unit is named by its site id, not by its spec (which holds
        # the image bytes)
        (line,) = [line for line in captured.err.splitlines() if line.startswith("  unit ")]
        assert line.startswith(f"  unit {failing_site.site_id}: ")
        assert len(line) < 120 and "\\x" not in line and "b'" not in line


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

class TestImageCli:
    def test_discover(self, capsys):
        assert main(["discover", DEMO_HEX]) == 0
        out = capsys.readouterr().out
        assert "; 6 conditional branch site(s) (linear discovery)" in out
        assert "0x08000008: bne -> 0x08000004" in out

    def test_discover_raw_with_base(self, demo_image, tmp_path, capsys):
        raw = tmp_path / "demo.bin"
        write_image(demo_image, str(raw))
        assert main(["discover", str(raw), "--base", "0x08000000",
                     "--strategy", "entry"]) == 0
        out = capsys.readouterr().out
        assert "; 6 conditional branch site(s) (entry discovery)" in out

    def test_discover_bad_image(self, tmp_path, capsys):
        bad = tmp_path / "bad.hex"
        bad.write_text(":00000001FE\n")  # wrong EOF checksum
        assert main(["discover", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_campaign(self, tmp_path, capsys):
        assert main([
            "campaign", "--image", DEMO_HEX, "--models", "and", "--top", "3",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "Exploitability ranking" in out
        assert "... 3 more site(s) not shown" in out

    def test_campaign_rejects_unknown_model(self, capsys):
        assert main(["campaign", "--image", DEMO_HEX, "--models", "nand"]) == 1
        assert "--models must be a comma-separated subset" in capsys.readouterr().err

    @pytest.mark.parametrize("models", ["and,and", "and, or,and", ","])
    def test_campaign_rejects_repeated_or_no_model(self, models, capsys):
        assert main(["campaign", "--image", DEMO_HEX, "--models", models]) == 1
        captured = capsys.readouterr()
        assert "--models must be a comma-separated subset" in captured.err
        assert "repeated flip model" in captured.err or "no flip model" in captured.err
        assert captured.out == ""

    def test_campaign_bad_image(self, tmp_path, capsys):
        bad = tmp_path / "odd.bin"
        bad.write_bytes(b"\x01\x02\x03")
        assert main(["campaign", "--image", str(bad)]) == 1
        assert "odd length 3" in capsys.readouterr().err

    def test_assemble_output_feeds_discover(self, tmp_path, capsys):
        source = tmp_path / "t.s"
        source.write_text(
            "_start:\n    movs r0, #1\n    cmp r0, #1\n"
            "    beq done\n    movs r1, #0\ndone:\n    bkpt #0\n"
        )
        out_hex = tmp_path / "t.hex"
        assert main(["assemble", str(source), "-o", str(out_hex)]) == 0
        assert f"; image written to {out_hex}" in capsys.readouterr().out
        assert main(["discover", str(out_hex)]) == 0
        assert "; 1 conditional branch site(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# scale: a generated >=100-site image through the multi-worker vector path
# ----------------------------------------------------------------------

class TestHundredSiteCampaign:
    """The multi-worker vector path on a 120-site generated image.

    A campaign over a synthetic firmware with 120 conditional branches,
    run on two workers (each building its own operand tables), is
    bit-identical to the serial campaign on the snapshot replay.
    """

    CONDS = ("eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
             "hi", "ls", "ge", "lt", "gt", "le")

    @pytest.fixture(scope="class")
    def big_image(self):
        from repro.firmware.image import FirmwareImage
        from repro.isa import assemble

        lines = ["_start:", "    movs r0, #1", "    movs r1, #1"]
        for i in range(120):
            cond = self.CONDS[i % len(self.CONDS)]
            lines += [
                "    cmp r0, r1",
                f"    b{cond} skip{i}",
                "    adds r2, r2, #1",
                f"skip{i}:",
            ]
        lines.append("    bkpt #0")
        program = assemble("\n".join(lines) + "\n")
        return FirmwareImage.from_program(program)

    def test_warm_parallel_vector_matches_serial_snapshot(self, big_image):
        kwargs = dict(models=("and", "xor"), k_values=(0, 1, 2))
        sites = discover_sites(big_image)
        assert len(sites) >= 100
        fast = run_image_campaign(big_image, execution=ExecOptions(workers=2), **kwargs)
        with snapshot_engine():
            reference = run_image_campaign(big_image, **kwargs)
        assert len(fast.sweeps["and"]) == len(sites)
        assert fast.sweeps == reference.sweeps
