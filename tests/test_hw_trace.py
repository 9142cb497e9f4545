"""Pipeline-trace visualiser tests."""

from repro.firmware import build_guard_firmware
from repro.hw.mcu import Board
from tests.oracles import trace_pipeline


class TestTrace:
    def _board(self):
        return Board(build_guard_firmware("not_a", "single"))

    def test_trigger_recorded(self):
        trace = trace_pipeline(self._board(), stop_after_trigger=10)
        assert trace.trigger_cycle is not None

    def test_window_matches_table1_attribution(self):
        trace = trace_pipeline(self._board(), stop_after_trigger=10)
        window = trace.window(0, 8)
        assert len(window) == 8
        assert window[0].execute.startswith("mov r3")
        assert window[4].execute.startswith("cmp r3")
        assert window[5].execute.startswith("beq")

    def test_render_contains_glitch_marker(self):
        trace = trace_pipeline(self._board(), stop_after_trigger=10)
        rendered = trace.render(start=0, length=8, glitch_cycles=(4,))
        assert "⚡" in rendered
        assert "cmp r3" in rendered

    def test_render_without_trigger_uses_absolute_cycles(self):
        from repro.isa import assemble
        from repro.hw.mcu import FLASH_BASE

        board = Board(assemble("_start:\nmovs r0, #1\nbkpt #0\nwin:\nnop", base=FLASH_BASE))
        trace = trace_pipeline(board, max_cycles=20)
        assert trace.trigger_cycle is None
        assert trace.records
        assert "cycle" in trace.render(length=6)

    def test_decode_and_fetch_columns_fill(self):
        trace = trace_pipeline(self._board(), stop_after_trigger=10)
        window = trace.window(0, 8)
        assert any(r.decode for r in window)
        assert any(r.fetch for r in window)
