"""Persisted operand tables: the vector engine's zero-copy decode stage.

The contract under test (docs/ARCHITECTURE.md "Operand-table
invariants"): `repro warm-tables` persists the 65,536-row decoded
operand table once; every later vector run — serial, forked worker, or
spawned worker — memory-maps the same read-only artifact, decodes zero
rows, and produces sweeps bit-identical to the lazy-decode path. Any
validation failure (torn write, version/mode mismatch, corrupt matrix)
degrades to the lazy fill, never to a wrong table.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.emu import vector
from repro.emu.vector import (
    _OperandTable,
    _TABLE_COLUMNS,
    load_operand_table,
    operand_table,
    preload_operand_tables,
    save_operand_table,
    table_path,
    warm_tables,
)
from repro.exec import ParallelExecutor
from repro.glitchsim import branch_snippet, run_branch_campaign, sweep_instruction
from repro.glitchsim.campaign import _WorldSpec, _world_unit
from repro.obs import Observer, activate

SMALL_KS = (0, 1, 2)


@pytest.fixture
def isolated_tables(tmp_path, monkeypatch):
    """Point the cache root at tmp and clear the process-wide registry.

    The registry is restored afterwards so other tests keep whatever
    (lazily filled) tables this pytest process already paid for.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    saved = dict(vector._TABLES)
    vector._TABLES.clear()
    yield tmp_path
    vector._TABLES.clear()
    vector._TABLES.update(saved)


class TestPersistenceRoundTrip:
    def test_warm_tables_writes_both_settings(self, isolated_tables):
        paths = warm_tables(root=isolated_tables)
        assert paths == [
            table_path(False, isolated_tables),
            table_path(True, isolated_tables),
        ]
        for path in paths:
            assert path.exists()
            assert path.with_name(path.name + ".meta.json").exists()

    def test_loaded_table_is_bit_identical_to_lazy_fill(self, isolated_tables):
        warm_tables(root=isolated_tables)
        loaded = load_operand_table(False, isolated_tables)
        assert loaded is not None and loaded.complete

        lazy = _OperandTable(False)
        lazy.fill_all()
        for column in _TABLE_COLUMNS:
            assert np.array_equal(
                np.asarray(getattr(loaded, column)),
                np.asarray(getattr(lazy, column)),
            ), f"column {column} differs after save/load"
        assert loaded.mnemonic == lazy.mnemonic

    def test_save_refuses_partial_table(self, isolated_tables):
        partial = _OperandTable(False)
        partial.ensure([0x4000])
        with pytest.raises(ValueError, match="partially-decoded"):
            save_operand_table(partial, root=isolated_tables)

    def test_loaded_table_is_immutable(self, isolated_tables):
        warm_tables(root=isolated_tables)
        loaded = load_operand_table(False, isolated_tables)
        with pytest.raises(ValueError):
            loaded.op[0] = 99


class TestValidationFallsBackToLazy:
    def test_missing_artifact_loads_nothing(self, isolated_tables):
        assert load_operand_table(False, isolated_tables) is None

    def test_torn_write_without_sidecar_is_ignored(self, isolated_tables):
        warm_tables(root=isolated_tables)
        path = table_path(False, isolated_tables)
        path.with_name(path.name + ".meta.json").unlink()
        assert load_operand_table(False, isolated_tables) is None

    def test_corrupt_matrix_is_ignored(self, isolated_tables):
        warm_tables(root=isolated_tables)
        table_path(False, isolated_tables).write_bytes(b"\x93NUMPY junk")
        assert load_operand_table(False, isolated_tables) is None

    def test_version_or_mode_mismatch_is_ignored(self, isolated_tables):
        warm_tables(root=isolated_tables)
        path = table_path(False, isolated_tables)
        meta_path = path.with_name(path.name + ".meta.json")
        meta = json.loads(meta_path.read_text())
        meta["format"] = 999
        meta_path.write_text(json.dumps(meta))
        assert load_operand_table(False, isolated_tables) is None

    def test_operand_table_falls_back_to_lazy_fill(self, isolated_tables):
        table = operand_table(False)
        assert not table.complete  # no artifact: the pre-PR lazy table


class TestZeroRedecode:
    def test_serial_sweep_decodes_zero_rows_after_warm(self, isolated_tables):
        warm_tables()
        vector._TABLES.clear()  # drop the in-process copy: force the load path
        obs = Observer()
        with activate(obs):
            warm = sweep_instruction(
                branch_snippet("eq"), "xor", k_values=SMALL_KS, engine="vector"
            )
        assert obs.counters["vector.table_loads"] == 1
        assert obs.counters.get("vector.table_rows_decoded", 0) == 0

        # the lazy path decodes rows — and tallies identically
        vector._TABLES.clear()
        for zero_is_invalid in (False, True):  # remove artifacts, keep the root
            table_path(zero_is_invalid, isolated_tables).unlink()
        lazy_obs = Observer()
        with activate(lazy_obs):
            lazy = sweep_instruction(
                branch_snippet("eq"), "xor", k_values=SMALL_KS, engine="vector"
            )
        assert lazy_obs.counters["vector.table_rows_decoded"] > 0
        assert lazy == warm

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_workers_decode_zero_rows_after_warm(self, isolated_tables, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        warm_tables()
        # bne and bcs share one replay world, so one unit sweeps both
        specs = [
            _WorldSpec(members, "xor", False, SMALL_KS, None, "vector")
            for members in (("beq",), ("bne", "bcs"))
        ]
        obs = Observer()
        executor = ParallelExecutor(
            workers=2,
            start_method=start_method,
            obs=obs,
            initializer=preload_operand_tables,
            initargs=(str(isolated_tables), (False,)),
        )
        sweeps = [sweep for unit in executor.map(_world_unit, specs) for sweep in unit]
        assert obs.counters.get("vector.table_rows_decoded", 0) == 0
        serial = [
            sweep_instruction(
                branch_snippet(mnemonic[1:]), spec.model,
                k_values=spec.k_values, engine="snapshot",
            )
            for spec in specs
            for mnemonic in spec.mnemonics
        ]
        assert sweeps == serial

    def test_campaign_threads_initializer_through_executor(self, isolated_tables):
        warm_tables()
        obs = Observer()
        result = run_branch_campaign(
            "xor", k_values=SMALL_KS, conditions=["eq", "ne"],
            workers=2, engine="vector", obs=obs,
        )
        assert obs.counters.get("vector.table_rows_decoded", 0) == 0
        baseline = run_branch_campaign(
            "xor", k_values=SMALL_KS, conditions=["eq", "ne"], engine="snapshot"
        )
        assert result == baseline
