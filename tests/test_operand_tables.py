"""The vector engine's operand tables: built in NumPy, checked word by word.

The contract under test (docs/ARCHITECTURE.md "Operand-table
invariants"): every process builds the 65,536-row table for each decode
mode itself, as NumPy mask passes over the decoder's format tables; the
result equals the scalar decoder on every halfword, the hardened table
differs from the base one only at ``0x0000``, the columns are read-only,
and forked or spawned workers sweep bit-identically to serial runs.
"""

import multiprocessing

import numpy as np
import pytest

from repro.emu import vector
from repro.emu.vector import OP_INVALID, _COLUMNS, operand_table, warm_tables
from repro.exec import ExecOptions, ParallelExecutor
from repro.glitchsim import branch_snippet, run_branch_campaign, sweep_instruction
from repro.glitchsim.campaign import _WorldSpec, _world_unit
from repro.obs import Observer, activate
from tests.oracles import SnapshotSnippetHarness, scalar_operand_columns, snapshot_engine

SMALL_KS = (0, 1, 2)


@pytest.fixture
def fresh_tables():
    """Clear the process-wide registry so the next lookup builds anew.

    The registry is restored afterwards so other tests keep the tables
    this pytest process already built.
    """
    saved = dict(vector._TABLES)
    vector._TABLES.clear()
    yield
    vector._TABLES.clear()
    vector._TABLES.update(saved)


class TestBuild:
    @pytest.mark.parametrize("zero_is_invalid", [False, True], ids=["base", "hardened"])
    def test_matches_scalar_decoder(self, fresh_tables, zero_is_invalid):
        table = operand_table(zero_is_invalid)
        reference = scalar_operand_columns(zero_is_invalid)
        mismatched = np.nonzero(table.op != reference["op"])[0]
        assert mismatched.size == 0, f"op differs at {[hex(hw) for hw in mismatched[:8]]}"
        valid = reference["op"] != OP_INVALID
        for column in _COLUMNS:
            differs = (getattr(table, column) != reference[column]) & valid
            rows = np.nonzero(differs)[0]
            assert rows.size == 0, f"{column} differs at {[hex(hw) for hw in rows[:8]]}"

    def test_hardened_differs_from_base_only_at_zero(self, fresh_tables):
        base, hardened = operand_table(False), operand_table(True)
        assert base.op[0] != OP_INVALID and hardened.op[0] == OP_INVALID
        for column in _COLUMNS:
            assert np.array_equal(getattr(base, column)[1:], getattr(hardened, column)[1:])

    def test_columns_are_read_only(self, fresh_tables):
        for zero_is_invalid in (False, True):
            table = operand_table(zero_is_invalid)
            for column in _COLUMNS:
                with pytest.raises(ValueError):
                    getattr(table, column)[0] = 1

    def test_warm_tables_rebuilds_after_clear(self, fresh_tables):
        warm_tables()
        vector._TABLES.clear()
        obs = Observer()
        with activate(obs):
            warm_tables()
        assert obs.counters["vector.table_rows_decoded"] > 0
        assert all(vector._TABLES[mode].complete for mode in (False, True))


class TestWorkers:
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_vector_workers_match_serial_snapshot(self, start_method, monkeypatch):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        # the executor's pool runs on whatever its platform probe picks
        monkeypatch.setattr(ParallelExecutor, "_preferred_start_method",
                            lambda self: start_method)
        # bne and bcs share one replay world, so one unit sweeps both
        # under both models
        specs = [
            _WorldSpec(members, ("xor", "and"), False, SMALL_KS, None)
            for members in (("beq",), ("bne", "bcs"))
        ]
        executor = ParallelExecutor(workers=2)
        units = executor.map(_world_unit, specs, key_of=repr, encode=list, decode=list)
        sweeps = [sweep for unit in units for sweep in unit]
        serial = [
            sweep_instruction(
                branch_snippet(mnemonic[1:]), model, k_values=spec.k_values,
                harness=SnapshotSnippetHarness(branch_snippet(mnemonic[1:])),
            )
            for spec in specs
            for model in spec.models
            for mnemonic in spec.mnemonics
        ]
        assert sweeps == serial

    def test_parallel_branch_campaign_matches_snapshot(self):
        result = run_branch_campaign(
            "xor", k_values=SMALL_KS, conditions=["eq", "ne"],
            execution=ExecOptions(workers=2),
        )
        with snapshot_engine():
            baseline = run_branch_campaign("xor", k_values=SMALL_KS, conditions=["eq", "ne"])
        assert result == baseline


class TestStepZeroPlan:
    def test_plan_is_built_once_per_table(self, fresh_tables):
        obs = Observer()
        with activate(obs):
            table = operand_table(False)
            plan = table.step_zero_plan()
            assert table.step_zero_plan() is plan
        assert obs.counters["vector.step_zero_plans"] == 1

    def test_rebuilt_table_gets_its_own_plan(self, fresh_tables):
        old = operand_table(False)
        old_plan = old.step_zero_plan()
        vector._TABLES.clear()  # as perfbench's set-up does
        obs = Observer()
        with activate(obs):
            new = operand_table(False)
            assert new is not old
            assert new.step_zero_plan() is not old_plan
        assert obs.counters["vector.step_zero_plans"] == 1
        for group, old_group in zip(new.step_zero_plan().groups, old_plan.groups, strict=True):
            assert (group.op, group.aux) == (old_group.op, old_group.aux)
            assert np.array_equal(group.lanes, old_group.lanes)
