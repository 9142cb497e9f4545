"""Parameter scans reproducing Tables I, II, III and VI.

Every scan is the same experiment: sweep the ``[-49, 49] × [-49, 49]``
(width, offset) grid — 9,801 attempts — for each element of a list of
``(ext_offset, repeat)`` glitch shapes on one firmware image, and tally
the outcome categories. The scans differ only in shapes and firmware:

- Table I (single): ``(cycle, 1)`` per glitched cycle, plus the
  post-mortem comparator register values of the successes;
- Table II (multi): ``(cycle, 1)`` on the double-trigger firmware, where
  the glitch fires after each of two triggers;
- Table III (long): ``(0, last + 1)``, one glitch over cycles 0..last;
- Table VI (defense): the :data:`ATTACK_SHAPES` of one attack.

One work unit is one shape element's grid. Which of its points the
fault-model fast path decides is a pure function of the model's
calibration and the shape, so the unit takes the counts and the points
left to simulate from a :class:`~repro.hw.faults.ShapePlan` memoized
process-wide, and simulates only those points, in grid order. The serial
path shares one :class:`~repro.hw.glitcher.ClockGlitcher` across all
units of a scan, so the glitcher's boot records (see
``docs/ARCHITECTURE.md``) kick in automatically: the unglitched run up
to the first glitched cycle is simulated once per power-on seed page and
glitch start, and every later simulated attempt from that page restores
the latest record at or before its own glitch start; all units share
one fault model and its point memo. On the multiprocessing path each
worker builds its own glitcher and records its own boots. Tallies are
identical with replay on or off (``benchmarks/test_bench_table1.py``
runs the differential).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.exec import ExecOptions, FailedUnit, resolve_workers
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE
from repro.hw.faults import FaultModel, ShapePlan
from repro.hw.glitcher import ClockGlitcher
from repro.hw.models import model_meta
from repro.isa.disassembler import disassemble_one
from repro.obs import Observer, coerce_observer, current


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
# the grid unit
# ----------------------------------------------------------------------

def _report_hw(glitcher: ClockGlitcher, before: dict) -> None:
    """Count a unit's ``hw.*`` attempt counters on the ambient observer."""
    obs = current()
    for name, total in glitcher.counters.items():
        obs.count(name, total - before[name])


@dataclass(frozen=True)
class _GridSpec:
    """Picklable work unit: one ``(ext_offset, repeat)`` shape element's
    grid against one image; a worker builds its own glitcher from it."""

    image: object = field(repr=False)  # AssembledProgram — pickles cleanly
    ext_offset: int
    repeat: int
    stride: int
    fault_model: FaultModel = field(repr=False)
    detect: Optional[str] = None
    expected_triggers: int = 1
    #: register whose post-mortem value Table I tallies per success
    comparator: Optional[int] = None


#: one unit's result: outcome category counts, comparator register values
_Tally = tuple[Counter, Counter]

#: (model memo key, ext_offset, repeat, stride) -> ShapePlan; cleared when full
_PLANS: dict = {}
_PLAN_LIMIT = 256


def _shape_plan(model: FaultModel, spec: _GridSpec) -> ShapePlan:
    """The fast-path plan of ``spec``'s grid, memoized process-wide: a
    Table VI regeneration asks for the same plans in every row of an
    attack, each row with its own model."""
    key = (model.memo_key(), spec.ext_offset, spec.repeat, spec.stride)
    plan = _PLANS.get(key)
    if plan is None:
        if len(_PLANS) >= _PLAN_LIMIT:
            _PLANS.clear()
        plan = _PLANS[key] = model.shape_plan(spec.ext_offset, spec.repeat, _grid(spec.stride))
    return plan


def _defense_shape_unit(spec: _GridSpec, glitcher: Optional[ClockGlitcher] = None) -> _Tally:
    """One shape element's grid, on a fresh glitcher or on the scan's
    shared one (whose boot records and fault model then carry over).

    The fast path's attempts are tallied from the memoized
    :func:`_shape_plan`; only the points it leaves go through
    ``run_attempt``, in grid order.

    Every scan's unit, not only Table VI's: the name is the one
    ``perfbench/layers.py`` attributes to its harness layer.
    """
    if glitcher is None:
        glitcher = ClockGlitcher(
            spec.image, fault_model=spec.fault_model, detect_symbol=spec.detect,
            expected_triggers=spec.expected_triggers,
        )
    else:
        # start from the factory seed page, exactly as a fresh board does
        glitcher.board.erase_seed_page()
    before = dict(glitcher.counters)
    plan = _shape_plan(glitcher.fault_model, spec)
    # Fast-path attempts never boot, so deciding them in bulk leaves the
    # seed-page sequence of the simulated ones as it was.
    glitcher.counters["hw.fastpath"] += plan.no_effect + plan.resets
    categories: Counter = Counter()
    values: Counter = Counter()
    for params in plan.simulate:
        result = glitcher.run_attempt(params)
        categories[result.category] += 1
        if spec.comparator is not None and result.category == "success":
            values[result.registers[spec.comparator] & 0xFFFFFFFF] += 1
    # in-place ``+=`` keeps positive counts only, as per-attempt tallying did
    categories += Counter(no_effect=plan.no_effect, reset=plan.resets)
    _report_hw(glitcher, before)
    return categories, values


def _encode_tally(tally: _Tally) -> dict:
    categories, values = tally
    return {"categories": dict(categories),
            "values": {str(value): count for value, count in values.items()}}


def _decode_tally(payload: dict) -> _Tally:
    return (Counter(payload["categories"]),
            Counter({int(value): count for value, count in payload["values"].items()}))


#: a scan unit's key, from its shape element; the checkpoint meta records
#: it, so checkpoints keyed another way start a fresh file
_UNIT_KEY = "ext_offset={},repeat={}"


def _sweep(
    kind: str, label: str, glitcher: ClockGlitcher, shapes: list[tuple[int, int]],
    stride: int, execution: ExecOptions, obs: Optional[Observer], meta: dict,
    detect: Optional[str] = None, comparator: Optional[int] = None,
) -> tuple[list[Optional[_Tally]], list[FailedUnit]]:
    """Run one scan's shape elements: a tally per shape (``None`` when
    quarantined) and the quarantined units.

    In process every unit runs on ``glitcher``; workers build their own
    from its firmware, fault model and trigger count. Checkpoints are
    keyed by shape element under ``meta`` plus the shapes, stride and
    the fault model's full calibration.
    """
    _validate_stride(stride)
    obs = coerce_observer(obs)
    specs = [
        _GridSpec(glitcher.firmware, ext_offset, repeat, stride, glitcher.fault_model,
                  detect, glitcher.expected_triggers, comparator)
        for ext_offset, repeat in shapes
    ]
    with obs.trace(f"scan.{kind}[{label}]", **meta, stride=stride, units=len(specs)):
        tallies, failed = execution.run(
            _defense_shape_unit,
            specs,
            prefix=f"scan-{kind}-{label}",
            meta={"campaign": f"scan-{kind}", **meta, "shapes": shapes,
                  "stride": stride, "detect": detect,
                  "fault_model": model_meta(glitcher.fault_model),
                  "unit_key": _UNIT_KEY},
            key_of=lambda spec: _UNIT_KEY.format(spec.ext_offset, spec.repeat),
            encode=_encode_tally,
            decode=_decode_tally,
            serial_fn=lambda spec: _defense_shape_unit(spec, glitcher),
            attempts_of=lambda tally: sum(tally[0].values()),
            categories_of=lambda tally: dict(tally[0]),
            obs=obs,
        )
    if obs.enabled:
        total: Counter = Counter()
        for tally in tallies:
            if tally is not None:
                total.update(tally[0])
        obs.event("scan", kind=kind, **meta, attempts=sum(total.values()),
                  outcomes=dict(total))
    return tallies, failed


# ----------------------------------------------------------------------
# Tables I-III: guard-loop scans
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _GuardKind:
    """How one guard scan kind maps rows onto the grid unit."""

    variant: str  # guard firmware variant (repro.firmware.loops)
    expected_triggers: int
    shape: Callable[[int], tuple[int, int]]  # row key → (ext_offset, repeat)
    row: Callable[[int, Counter, Counter], object]  # key, categories, values → row


_GUARD_KINDS = {
    "single": _GuardKind(
        "single", 1, lambda cycle: (cycle, 1),
        lambda cycle, c, values: CycleRow(cycle, "-", sum(c.values()), c["success"],
                                          c["reset"], values),
    ),
    "multi": _GuardKind(
        "double", 2, lambda cycle: (cycle, 1),
        lambda cycle, c, _: MultiCycleRow(cycle, sum(c.values()), c["partial"], c["success"]),
    ),
    "long": _GuardKind(
        "contiguous", 1, lambda last: (0, last + 1),
        lambda last, c, _: LongRangeRow(last, sum(c.values()), c["success"]),
    ),
}


def _guard_glitcher(kind: str, guard: str, fault_model) -> ClockGlitcher:
    """The scan's shared glitcher on the guard firmware for ``kind``."""
    from repro.firmware.loops import build_guard_firmware

    spec = _GUARD_KINDS[kind]
    return ClockGlitcher(
        build_guard_firmware(guard, spec.variant),
        fault_model=fault_model,
        expected_triggers=spec.expected_triggers,
    )


def _guard_scan(
    kind: str, guard: str, keys: Iterable[int], glitcher: ClockGlitcher, stride: int,
    execution: ExecOptions, obs: Optional[Observer],
) -> tuple[list, list[FailedUnit]]:
    """The rows of one Table I/II/III scan (one unit per key) and its
    quarantined units."""
    from repro.firmware.loops import guard_descriptor

    spec = _GUARD_KINDS[kind]
    keys = list(keys)
    comparator = guard_descriptor(guard).comparator_register if kind == "single" else None
    tallies, failed = _sweep(
        kind, guard, glitcher, [spec.shape(key) for key in keys], stride, execution, obs,
        meta={"guard": guard}, comparator=comparator,
    )
    rows = [spec.row(key, *tally) for key, tally in zip(keys, tallies) if tally is not None]
    return rows, failed


def run_single_glitch_scan(
    guard: str,
    cycles: Iterable[int] = range(8),
    fault_model=None,
    stride: int = 1,
    glitcher: Optional[ClockGlitcher] = None,
    execution: ExecOptions = ExecOptions(),
    obs: Optional[Observer] = None,
) -> SingleGlitchScan:
    """Table I: scan every (width, offset) for each glitched clock cycle.

    ``fault_model`` accepts a :class:`FaultModel` instance or a
    :data:`repro.hw.models.FAULT_MODELS` name (a model or a calibration).

    ``execution`` (an :class:`~repro.exec.ExecOptions`) distributes the
    per-cycle rows over processes, persists completed rows (keyed by
    cycle) so an interrupted scan restarts only its missing cycles, and
    retries a failing row before quarantining it into ``failed_units``.
    A pre-built ``glitcher`` carries its own fault model, so combining it
    with ``fault_model`` (or with more than one worker — a
    live board cannot be shipped to worker processes) raises
    ``ValueError``.
    """
    if glitcher is not None and fault_model is not None:
        raise ValueError(
            "pass either a pre-built glitcher or a fault_model, not "
            "both: the glitcher was already constructed with its own fault "
            "model, so the fault_model argument would be silently ignored"
        )
    if glitcher is not None and resolve_workers(execution.workers) > 1:
        raise ValueError(
            "a pre-built glitcher cannot be used with workers > 1; "
            "pass fault_model and let each worker build its own board"
        )
    if glitcher is None:
        glitcher = _guard_glitcher("single", guard, fault_model)
    cycles = list(cycles)
    instruction_map = map_cycles_to_instructions(glitcher, max(cycles, default=0) + 1)
    rows, failed = _guard_scan("single", guard, cycles, glitcher, stride, execution, obs)
    for row in rows:
        row.instruction = instruction_map.get(row.cycle, "-")
    return SingleGlitchScan(guard=guard, rows=rows, failed_units=failed)


def run_multi_glitch_scan(
    guard: str,
    cycles: Iterable[int] = range(8),
    fault_model=None,
    stride: int = 1,
    execution: ExecOptions = ExecOptions(),
    obs: Optional[Observer] = None,
) -> MultiGlitchScan:
    """Table II: the same glitch fired after each of two triggers."""
    glitcher = _guard_glitcher("multi", guard, fault_model)
    rows, failed = _guard_scan("multi", guard, cycles, glitcher, stride, execution, obs)
    return MultiGlitchScan(guard=guard, rows=rows, failed_units=failed)


def run_long_glitch_scan(
    guard: str,
    last_cycles: Iterable[int] = range(10, 21),
    fault_model=None,
    stride: int = 1,
    execution: ExecOptions = ExecOptions(),
    obs: Optional[Observer] = None,
) -> LongGlitchScan:
    """Table III: one glitch spanning cycles 0..last over two adjacent loops."""
    glitcher = _guard_glitcher("long", guard, fault_model)
    rows, failed = _guard_scan("long", guard, last_cycles, glitcher, stride, execution, obs)
    return LongGlitchScan(guard=guard, rows=rows, failed_units=failed)


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



def run_defense_scan(
    image,
    attack: str,
    scenario: str = "",
    defense: str = "",
    fault_model=None,
    stride: int = 1,
    detect_symbol: Optional[str] = "gr_detected",
    execution: ExecOptions = ExecOptions(),
    obs: Optional[Observer] = None,
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
        shapes = ATTACK_SHAPES[attack]
    except KeyError:
        raise ValueError(f"unknown attack {attack!r}; expected one of {sorted(ATTACK_SHAPES)}")
    detect = detect_symbol if detect_symbol and detect_symbol in image.symbols else None
    glitcher = ClockGlitcher(image, fault_model=fault_model, detect_symbol=detect)
    tallies, failed = _sweep(
        "defense", attack, glitcher, list(shapes), stride, execution, obs,
        meta={"scenario": scenario, "defense": defense, "attack": attack},
        detect=detect,
    )
    total: Counter = Counter()
    for categories, _ in filter(None, tallies):
        total.update(categories)
    attempts = sum(total.values())
    return DefenseScanResult(
        scenario=scenario, defense=defense, attack=attack, attempts=attempts,
        successes=total["success"], detections=total["detected"], resets=total["reset"],
        no_effect=attempts - total["success"] - total["detected"] - total["reset"],
        failed_units=failed,
    )


__all__ = [
    "CycleRow",
    "SingleGlitchScan",
    "MultiCycleRow",
    "MultiGlitchScan",
    "LongRangeRow",
    "LongGlitchScan",
    "DefenseScanResult",
    "ATTACK_SHAPES",
    "run_single_glitch_scan",
    "run_multi_glitch_scan",
    "run_long_glitch_scan",
    "run_defense_scan",
    "map_cycles_to_instructions",
]
