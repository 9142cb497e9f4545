"""Parameter scans reproducing Tables I, II, and III.

Each scan sweeps the full ``[-49, 49] × [-49, 49]`` (width, offset) grid —
9,801 attempts — per clock cycle (or per cycle-range for long glitches)
and tallies successes, crashes, and the post-mortem comparator register
values the paper reports.

The serial path shares one :class:`~repro.hw.glitcher.ClockGlitcher`
across all rows (Table VI: all shape units) of a scan, so the glitcher's
boot records (see ``docs/ARCHITECTURE.md``) kick in automatically: the
pre-glitch boot up to the trigger cycle is simulated once per power-on
seed page and every later simulated attempt from that page restores the
record, and all units share one fault model and its point memo. On the
multiprocessing path each worker builds its own glitcher and records its
own boots. Tallies are identical with replay on or off
(``benchmarks/test_bench_table1.py`` runs the differential).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.exec import (
    FailedUnit,
    ParallelExecutor,
    ProgressReporter,
    open_campaign_checkpoint,
)
from repro.hw.clock import GRID_POINTS, GlitchParams, OFFSET_RANGE, WIDTH_RANGE
from repro.hw.faults import FaultModel
from repro.hw.glitcher import AttemptResult, ClockGlitcher
from repro.hw.models import model_label, resolve_fault_model
from repro.isa.disassembler import disassemble_one
from repro.obs import Observer, activate, coerce_observer, current


# ----------------------------------------------------------------------
# result containers
# ----------------------------------------------------------------------

@dataclass
class CycleRow:
    """One Table I row: a single glitched clock cycle."""

    cycle: int
    instruction: str
    attempts: int = 0
    successes: int = 0
    resets: int = 0
    register_values: Counter = field(default_factory=Counter)


@dataclass
class SingleGlitchScan:
    """Table I: single glitches across the loop's clock cycles."""

    guard: str
    rows: list[CycleRow]
    failed_units: list[FailedUnit] = field(default_factory=list)

    @property
    def total_attempts(self) -> int:
        return sum(row.attempts for row in self.rows)

    @property
    def total_successes(self) -> int:
        return sum(row.successes for row in self.rows)

    @property
    def success_rate(self) -> float:
        return self.total_successes / self.total_attempts if self.total_attempts else 0.0

    @property
    def unique_register_values(self) -> int:
        values: set[int] = set()
        for row in self.rows:
            values.update(row.register_values)
        return len(values)


@dataclass
class MultiCycleRow:
    """One Table II row: partial vs full double-glitch successes."""

    cycle: int
    attempts: int = 0
    partial: int = 0
    full: int = 0


@dataclass
class MultiGlitchScan:
    """Table II: two identical back-to-back glitches."""

    guard: str
    rows: list[MultiCycleRow]
    failed_units: list[FailedUnit] = field(default_factory=list)

    @property
    def total_attempts(self) -> int:
        return sum(row.attempts for row in self.rows)

    @property
    def total_partial(self) -> int:
        return sum(row.partial for row in self.rows)

    @property
    def total_full(self) -> int:
        return sum(row.full for row in self.rows)

    @property
    def partial_rate(self) -> float:
        return self.total_partial / self.total_attempts if self.total_attempts else 0.0

    @property
    def full_rate(self) -> float:
        return self.total_full / self.total_attempts if self.total_attempts else 0.0


@dataclass
class LongRangeRow:
    """One Table III row: a contiguous glitch over cycles 0..last."""

    last_cycle: int
    attempts: int = 0
    successes: int = 0


@dataclass
class LongGlitchScan:
    """Table III: long glitches over two subsequent loops."""

    guard: str
    rows: list[LongRangeRow]
    failed_units: list[FailedUnit] = field(default_factory=list)

    @property
    def total_attempts(self) -> int:
        return sum(row.attempts for row in self.rows)

    @property
    def total_successes(self) -> int:
        return sum(row.successes for row in self.rows)

    @property
    def success_rate(self) -> float:
        return self.total_successes / self.total_attempts if self.total_attempts else 0.0


# ----------------------------------------------------------------------
# grid iteration (with an optional stride for fast tests)
# ----------------------------------------------------------------------

def _validate_stride(stride: int) -> int:
    if not isinstance(stride, int) or isinstance(stride, bool):
        raise ValueError(f"stride must be a positive integer, got {stride!r}")
    if stride < 1:
        raise ValueError(
            f"stride must be >= 1, got {stride} (a non-positive stride would "
            f"produce an empty or reversed grid and a silently wrong scan)"
        )
    return stride


def _grid(stride: int) -> list[tuple[int, int]]:
    _validate_stride(stride)
    return [
        (width, offset)
        for width in WIDTH_RANGE[::stride]
        for offset in OFFSET_RANGE[::stride]
    ]


def map_cycles_to_instructions(glitcher: ClockGlitcher, n_cycles: int) -> dict[int, str]:
    """Observe which instruction *executes* at each post-trigger clock cycle.

    This regenerates Table I's cycle → instruction column directly from the
    pipeline rather than assuming it.
    """
    board = glitcher.board
    board.reset()
    pipeline = board.pipeline
    windows: list[int] = []
    board.trigger_callback = lambda value: windows.append(pipeline.cycles + 1)
    mapping: dict[int, str] = {}

    def trace(cycle: int, address: int, raw: tuple[int, ...]) -> None:
        if not windows:
            return
        rel = cycle - windows[0]
        if 0 <= rel < n_cycles and rel not in mapping:
            mapping[rel] = disassemble_one(raw[0], raw[1] if len(raw) == 2 else None)

    pipeline.trace_hook = trace
    budget = 10_000
    while pipeline.cycles < budget:
        if windows and pipeline.cycles - windows[0] >= n_cycles:
            break
        pipeline.step_cycle()
    board.persist_nonvolatile()
    # Pipeline-refill bubbles after a taken branch belong to the branch
    # (Table I lists BEQ spanning cycles 5-7).
    previous = "-"
    for rel in range(n_cycles):
        if rel in mapping:
            previous = mapping[rel]
        else:
            mapping[rel] = previous
    return mapping


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------
#
# Each scan is decomposed into per-row work units: a picklable spec names
# the guard/cycle/stride, and the worker rebuilds its own firmware +
# glitcher. The guard firmware never touches nonvolatile state, so a fresh
# board per row produces exactly the rows a single shared board would —
# which is what lets the in-process (``workers=1``) path keep one shared
# glitcher while the multiprocessing path stays bit-identical.

def _report_hw(glitcher: ClockGlitcher, before: dict) -> None:
    """Count a unit's ``hw.*`` attempt counters on the ambient observer."""
    obs = current()
    for name, total in glitcher.counters.items():
        obs.count(name, total - before[name])


def _observed(obs: Observer, unit):
    """``unit`` run with ``obs`` as the ambient observer.

    The in-process path of a scan, so units report their ``hw.*``
    counters exactly as the worker-envelope path does.
    """
    def run(spec):
        with activate(obs):
            return unit(spec)
    return run


def _single_row(
    glitcher: ClockGlitcher, comparator_register: int, cycle: int, stride: int
) -> CycleRow:
    before = dict(glitcher.counters)
    row = CycleRow(cycle=cycle, instruction="-")
    for width, offset in _grid(stride):
        result = glitcher.run_attempt(GlitchParams(cycle, width, offset))
        row.attempts += 1
        if result.category == "success":
            row.successes += 1
            value = result.registers[comparator_register] & 0xFFFFFFFF
            row.register_values[value] += 1
        elif result.category == "reset":
            row.resets += 1
    _report_hw(glitcher, before)
    return row


def _multi_row(glitcher: ClockGlitcher, cycle: int, stride: int) -> MultiCycleRow:
    before = dict(glitcher.counters)
    row = MultiCycleRow(cycle=cycle)
    for width, offset in _grid(stride):
        result = glitcher.run_attempt(GlitchParams(cycle, width, offset))
        row.attempts += 1
        if result.category == "success":
            row.full += 1
        elif result.category == "partial":
            row.partial += 1
    _report_hw(glitcher, before)
    return row


def _long_row(glitcher: ClockGlitcher, last: int, stride: int) -> LongRangeRow:
    before = dict(glitcher.counters)
    row = LongRangeRow(last_cycle=last)
    for width, offset in _grid(stride):
        result = glitcher.run_attempt(
            GlitchParams(ext_offset=0, width=width, offset=offset, repeat=last + 1)
        )
        row.attempts += 1
        if result.category == "success":
            row.successes += 1
    _report_hw(glitcher, before)
    return row


@dataclass(frozen=True)
class _GuardRowSpec:
    """Picklable work unit: one scan row against a freshly-built guard board."""

    kind: str  # "single" | "multi" | "long"
    guard: str
    cycle: int
    stride: int
    fault_model: Optional[FaultModel]


# checkpoint codecs: one JSON-able payload per completed scan row ----------

def _encode_single_row(row: CycleRow) -> dict:
    return {
        "cycle": row.cycle,
        "attempts": row.attempts,
        "successes": row.successes,
        "resets": row.resets,
        "register_values": {str(value): count for value, count in row.register_values.items()},
    }


def _decode_single_row(payload: dict) -> CycleRow:
    return CycleRow(
        cycle=payload["cycle"],
        instruction="-",  # re-derived from the live instruction map after the merge
        attempts=payload["attempts"],
        successes=payload["successes"],
        resets=payload["resets"],
        register_values=Counter(
            {int(value): count for value, count in payload["register_values"].items()}
        ),
    )


def _encode_multi_row(row: MultiCycleRow) -> dict:
    return {"cycle": row.cycle, "attempts": row.attempts,
            "partial": row.partial, "full": row.full}


def _decode_multi_row(payload: dict) -> MultiCycleRow:
    return MultiCycleRow(**payload)


def _encode_long_row(row: LongRangeRow) -> dict:
    return {"last_cycle": row.last_cycle, "attempts": row.attempts,
            "successes": row.successes}


def _decode_long_row(payload: dict) -> LongRangeRow:
    return LongRangeRow(**payload)


def _scan_checkpoint(
    checkpoint_dir, resume, kind: str, guard: str, cycles: list[int],
    stride: int, fault_model: Optional[FaultModel],
):
    """Open the checkpoint for one guard scan, or ``None`` when not requested."""
    if checkpoint_dir is None and not resume:
        return None
    meta = {
        "campaign": f"scan-{kind}",
        "guard": guard,
        "cycles": list(cycles),
        "stride": stride,
        "fault_seed": fault_model.seed if fault_model is not None else None,
        "fault_model": model_label(fault_model),
    }
    return open_campaign_checkpoint(
        checkpoint_dir, f"scan-{kind}-{guard}", meta, resume=resume
    )


def _guard_row_unit(spec: _GuardRowSpec):
    from repro.firmware.loops import build_guard_firmware, guard_descriptor

    if spec.kind == "single":
        firmware = build_guard_firmware(spec.guard, "single")
        glitcher = ClockGlitcher(firmware, fault_model=spec.fault_model)
        descriptor = guard_descriptor(spec.guard)
        return _single_row(glitcher, descriptor.comparator_register, spec.cycle, spec.stride)
    if spec.kind == "multi":
        firmware = build_guard_firmware(spec.guard, "double")
        glitcher = ClockGlitcher(firmware, fault_model=spec.fault_model, expected_triggers=2)
        return _multi_row(glitcher, spec.cycle, spec.stride)
    firmware = build_guard_firmware(spec.guard, "contiguous")
    glitcher = ClockGlitcher(firmware, fault_model=spec.fault_model)
    return _long_row(glitcher, spec.cycle, spec.stride)


def run_single_glitch_scan(
    guard: str,
    cycles: Iterable[int] = range(8),
    fault_model=None,
    stride: int = 1,
    glitcher: Optional[ClockGlitcher] = None,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> SingleGlitchScan:
    """Table I: scan every (width, offset) for each glitched clock cycle.

    ``fault_model`` accepts a :class:`FaultModel` instance or a registered
    model name; ``profile`` a named calibration from
    :data:`repro.hw.models.PROFILES` (see :func:`resolve_fault_model`).

    ``workers`` distributes the per-cycle rows over processes. A pre-built
    ``glitcher`` carries its own fault model, so combining it with
    ``fault_model``/``profile`` (or with ``workers > 1`` — a live board
    cannot be shipped to worker processes) raises ``ValueError``.

    ``checkpoint_dir``/``resume`` persist completed rows (keyed by cycle)
    so an interrupted scan restarts only its missing cycles; ``retries``/
    ``unit_timeout`` retry a failing row before quarantining it into
    ``failed_units``.
    """
    from repro.firmware.loops import build_guard_firmware, guard_descriptor

    if glitcher is not None and (fault_model is not None or profile is not None):
        raise ValueError(
            "pass either a pre-built glitcher or a fault_model/profile, not "
            "both: the glitcher was already constructed with its own fault "
            "model, so the fault_model argument would be silently ignored"
        )
    fault_model = resolve_fault_model(fault_model, profile)
    _validate_stride(stride)
    cycles = list(cycles)
    descriptor = guard_descriptor(guard)
    obs = coerce_observer(obs)
    executor = ParallelExecutor(
        workers=workers, chunk_size=chunk_size, progress=progress,
        retries=retries, unit_timeout=unit_timeout, on_error="quarantine",
        obs=obs,
    )
    if glitcher is not None and executor.parallel:
        raise ValueError(
            "a pre-built glitcher cannot be used with workers > 1; "
            "pass fault_model and let each worker build its own board"
        )
    if glitcher is None:
        firmware = build_guard_firmware(guard, "single")
        glitcher = ClockGlitcher(firmware, fault_model=fault_model)
    instruction_map = map_cycles_to_instructions(glitcher, max(cycles, default=0) + 1)
    shared = glitcher
    checkpoint = _scan_checkpoint(
        checkpoint_dir, resume, "single", guard, cycles, stride, fault_model
    )
    try:
        with obs.trace(f"scan.single[{guard}]", guard=guard, stride=stride,
                       cycles=len(cycles)):
            rows = executor.map(
                _guard_row_unit,
                [_GuardRowSpec("single", guard, cycle, stride, fault_model) for cycle in cycles],
                serial_fn=_observed(obs, lambda spec: _single_row(
                    shared, descriptor.comparator_register, spec.cycle, spec.stride
                )),
                attempts_of=lambda row: row.attempts,
                categories_of=lambda row: {"success": row.successes, "reset": row.resets},
                checkpoint=checkpoint,
                key_of=lambda spec: str(spec.cycle),
                encode=_encode_single_row,
                decode=_decode_single_row,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    rows = [row for row in rows if row is not None]
    for row in rows:
        row.instruction = instruction_map.get(row.cycle, "-")
    scan = SingleGlitchScan(
        guard=guard, rows=rows, failed_units=list(executor.failed_units)
    )
    if obs.enabled:
        obs.event("scan", kind="single", guard=guard,
                  attempts=scan.total_attempts, successes=scan.total_successes)
    return scan


def run_multi_glitch_scan(
    guard: str,
    cycles: Iterable[int] = range(8),
    fault_model=None,
    stride: int = 1,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> MultiGlitchScan:
    """Table II: the same glitch fired after each of two triggers."""
    from repro.firmware.loops import build_guard_firmware

    fault_model = resolve_fault_model(fault_model, profile)
    _validate_stride(stride)
    cycles = list(cycles)
    firmware = build_guard_firmware(guard, "double")
    glitcher = ClockGlitcher(firmware, fault_model=fault_model, expected_triggers=2)
    obs = coerce_observer(obs)
    executor = ParallelExecutor(
        workers=workers, chunk_size=chunk_size, progress=progress,
        retries=retries, unit_timeout=unit_timeout, on_error="quarantine",
        obs=obs,
    )
    checkpoint = _scan_checkpoint(
        checkpoint_dir, resume, "multi", guard, cycles, stride, fault_model
    )
    try:
        with obs.trace(f"scan.multi[{guard}]", guard=guard, stride=stride,
                       cycles=len(cycles)):
            rows = executor.map(
                _guard_row_unit,
                [_GuardRowSpec("multi", guard, cycle, stride, fault_model) for cycle in cycles],
                serial_fn=_observed(
                    obs, lambda spec: _multi_row(glitcher, spec.cycle, spec.stride)
                ),
                attempts_of=lambda row: row.attempts,
                categories_of=lambda row: {"full": row.full, "partial": row.partial},
                checkpoint=checkpoint,
                key_of=lambda spec: str(spec.cycle),
                encode=_encode_multi_row,
                decode=_decode_multi_row,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    scan = MultiGlitchScan(
        guard=guard,
        rows=[row for row in rows if row is not None],
        failed_units=list(executor.failed_units),
    )
    if obs.enabled:
        obs.event("scan", kind="multi", guard=guard,
                  attempts=scan.total_attempts, full=scan.total_full,
                  partial=scan.total_partial)
    return scan


def run_long_glitch_scan(
    guard: str,
    last_cycles: Iterable[int] = range(10, 21),
    fault_model=None,
    stride: int = 1,
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> LongGlitchScan:
    """Table III: one glitch spanning cycles 0..last over two adjacent loops."""
    from repro.firmware.loops import build_guard_firmware

    fault_model = resolve_fault_model(fault_model, profile)
    _validate_stride(stride)
    last_cycles = list(last_cycles)
    firmware = build_guard_firmware(guard, "contiguous")
    glitcher = ClockGlitcher(firmware, fault_model=fault_model)
    obs = coerce_observer(obs)
    executor = ParallelExecutor(
        workers=workers, chunk_size=chunk_size, progress=progress,
        retries=retries, unit_timeout=unit_timeout, on_error="quarantine",
        obs=obs,
    )
    checkpoint = _scan_checkpoint(
        checkpoint_dir, resume, "long", guard, last_cycles, stride, fault_model
    )
    try:
        with obs.trace(f"scan.long[{guard}]", guard=guard, stride=stride,
                       cycles=len(last_cycles)):
            rows = executor.map(
                _guard_row_unit,
                [_GuardRowSpec("long", guard, last, stride, fault_model) for last in last_cycles],
                serial_fn=_observed(
                    obs, lambda spec: _long_row(glitcher, spec.cycle, spec.stride)
                ),
                attempts_of=lambda row: row.attempts,
                categories_of=lambda row: {"success": row.successes},
                checkpoint=checkpoint,
                key_of=lambda spec: str(spec.cycle),
                encode=_encode_long_row,
                decode=_decode_long_row,
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    scan = LongGlitchScan(
        guard=guard,
        rows=[row for row in rows if row is not None],
        failed_units=list(executor.failed_units),
    )
    if obs.enabled:
        obs.event("scan", kind="long", guard=guard,
                  attempts=scan.total_attempts, successes=scan.total_successes)
    return scan


__all__ = [
    "CycleRow",
    "SingleGlitchScan",
    "MultiCycleRow",
    "MultiGlitchScan",
    "LongRangeRow",
    "LongGlitchScan",
    "run_single_glitch_scan",
    "run_multi_glitch_scan",
    "run_long_glitch_scan",
    "map_cycles_to_instructions",
]


# ----------------------------------------------------------------------
# Table VI: attacks against defended firmware
# ----------------------------------------------------------------------

@dataclass
class DefenseScanResult:
    """Successes and detections for one attack against one defended build."""

    scenario: str
    defense: str
    attack: str
    attempts: int = 0
    successes: int = 0
    detections: int = 0
    resets: int = 0
    no_effect: int = 0
    failed_units: list[FailedUnit] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0

    @property
    def detection_rate(self) -> float:
        """Paper's definition: detections / (detections + successes)."""
        denominator = self.detections + self.successes
        return self.detections / denominator if denominator else 0.0


#: Table VI attack shapes: (ext_offsets, repeat per attempt)
ATTACK_SHAPES = {
    # single glitch, clock cycle varied 0-10 → 11 × 9,801 = 107,811 attempts
    "single": tuple((ext, 1) for ext in range(0, 11)),
    # long glitch, 10-100 cycles in increments of 10 → 10 × 9,801 = 98,010
    "long": tuple((0, repeat) for repeat in range(10, 101, 10)),
    # windowed long glitch: fixed 10 cycles, start varied 0-100 by 10 → 107,811
    "windowed": tuple((start, 10) for start in range(0, 101, 10)),
}


@dataclass(frozen=True)
class _DefenseShapeSpec:
    """Picklable work unit: one attack shape element against one image."""

    image: object  # AssembledProgram — plain bytes/dicts, pickles cleanly
    ext_offset: int
    repeat: int
    stride: int
    fault_model: Optional[FaultModel]
    detect: Optional[str]


def _defense_shape_unit(
    spec: _DefenseShapeSpec, glitcher: Optional[ClockGlitcher] = None
) -> DefenseScanResult:
    """One shape element's grid, on a fresh glitcher or on the scan's
    shared one (whose boot records and fault model then carry over)."""
    if glitcher is None:
        glitcher = ClockGlitcher(
            spec.image, fault_model=spec.fault_model, detect_symbol=spec.detect
        )
    else:
        # start from the factory seed page, exactly as a fresh board does
        glitcher.board.erase_seed_page()
    before = dict(glitcher.counters)
    tally = DefenseScanResult(scenario="", defense="", attack="")
    for width, offset in _grid(spec.stride):
        outcome = glitcher.run_attempt(
            GlitchParams(
                ext_offset=spec.ext_offset, width=width, offset=offset, repeat=spec.repeat
            )
        )
        tally.attempts += 1
        if outcome.category == "success":
            tally.successes += 1
        elif outcome.category == "detected":
            tally.detections += 1
        elif outcome.category == "reset":
            tally.resets += 1
        else:
            tally.no_effect += 1
    _report_hw(glitcher, before)
    return tally


def run_defense_scan(
    image,
    attack: str,
    scenario: str = "",
    defense: str = "",
    fault_model=None,
    stride: int = 1,
    detect_symbol: Optional[str] = "gr_detected",
    workers: int = 1,
    progress: Optional[ProgressReporter] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    retries: int = 0,
    unit_timeout: Optional[float] = None,
    obs: Optional[Observer] = None,
    chunk_size: Optional[int] = None,
    profile=None,
) -> DefenseScanResult:
    """Attack a (possibly defended) firmware image with one Table VI attack.

    Each attack-shape element (one ``(ext_offset, repeat)`` pair, i.e. one
    9,801-point grid) starts from the factory seed page, as on a fresh
    board, so shape elements are independent of execution order and the
    scan tallies are identical for any ``workers`` count — including
    against firmware whose nonvolatile seed page evolves across attempts
    (the random-delay defense). Within a shape element the board's seed
    page persists attempt-to-attempt, exactly like real hardware.
    In process, all elements share one glitcher: every element replays the
    seed sequence of the first, so later elements restore boot records
    instead of booting.
    """
    try:
        shape = ATTACK_SHAPES[attack]
    except KeyError:
        raise ValueError(f"unknown attack {attack!r}; expected one of {sorted(ATTACK_SHAPES)}")
    fault_model = resolve_fault_model(fault_model, profile)
    _validate_stride(stride)
    detect = detect_symbol if detect_symbol and detect_symbol in image.symbols else None
    obs = coerce_observer(obs)
    executor = ParallelExecutor(
        workers=workers, chunk_size=chunk_size, progress=progress,
        retries=retries, unit_timeout=unit_timeout, on_error="quarantine",
        obs=obs,
    )
    checkpoint = None
    if checkpoint_dir is not None or resume:
        meta = {
            "campaign": "defense",
            "scenario": scenario,
            "defense": defense,
            "attack": attack,
            "stride": stride,
            "detect": detect,
            "fault_seed": fault_model.seed if fault_model is not None else None,
            "fault_model": model_label(fault_model),
        }
        checkpoint = open_campaign_checkpoint(
            checkpoint_dir, f"defense-{attack}", meta, resume=resume
        )
    shared = ClockGlitcher(image, fault_model=fault_model, detect_symbol=detect)
    try:
        with obs.trace(
            f"scan.defense[{attack}]", attack=attack,
            scenario=scenario, defense=defense, stride=stride,
        ):
            partials = executor.map(
                _defense_shape_unit,
                [
                    _DefenseShapeSpec(image, ext_offset, repeat, stride, fault_model, detect)
                    for ext_offset, repeat in shape
                ],
                serial_fn=_observed(obs, lambda spec: _defense_shape_unit(spec, shared)),
                attempts_of=lambda tally: tally.attempts,
                categories_of=lambda tally: {
                    "success": tally.successes,
                    "detected": tally.detections,
                    "reset": tally.resets,
                    "no_effect": tally.no_effect,
                },
                checkpoint=checkpoint,
                key_of=lambda spec: f"{spec.ext_offset}x{spec.repeat}",
                encode=lambda tally: {
                    "attempts": tally.attempts,
                    "successes": tally.successes,
                    "detections": tally.detections,
                    "resets": tally.resets,
                    "no_effect": tally.no_effect,
                },
                decode=lambda payload: DefenseScanResult(
                    scenario="", defense="", attack="", **payload
                ),
            )
    finally:
        if checkpoint is not None:
            checkpoint.close()
    result = DefenseScanResult(
        scenario=scenario, defense=defense, attack=attack,
        failed_units=list(executor.failed_units),
    )
    for tally in partials:
        if tally is None:
            continue
        result.attempts += tally.attempts
        result.successes += tally.successes
        result.detections += tally.detections
        result.resets += tally.resets
        result.no_effect += tally.no_effect
    if obs.enabled:
        obs.event("scan", kind="defense", attack=attack, scenario=scenario,
                  defense=defense, attempts=result.attempts,
                  successes=result.successes, detections=result.detections)
    return result
