"""The benchmark's workloads: what each sets up, regenerates and checks.

A workload's ``setup(seed, clock)`` builds its inputs and returns a
state; ``steps(state, obs)`` returns the zero-argument calls that together
regenerate the artifact once (timed one by one); ``check(state, outputs)``
returns a description of what is wrong with their outputs, or ``None``.

Each of the program's two tracks gets one workload:

fig2-cold
    The full Figure 2 campaign (AND, OR, XOR and AND-with-0x0000-invalid
    panels x 14 branch conditions x all 65,536 masks) on the vector engine
    with no outcome cache, so every reachable corrupted word is emulated.
    Set-up is ``repro warm-tables`` into an empty cache root plus mapping
    the tables the way a fresh process does.  Figure 2's population is
    fixed by the paper, so the seed selects nothing; the output must match
    the golden mean skip rates bit for bit.
table6-defense
    Table VI at stride 12 with the paper's fault-model seed: three attacks
    against the two guard scenarios built undefended, with all defenses,
    and with all but random delay.  This is the cycle-accurate hw track
    (fault-model fast path, board boots, baseline replay, pipeline
    stepping and decode); each of the 18 rows is one step.  Set-up
    compiles and hardens the six builds.  The rows must match the golden
    tallies, and the seed picks one undefended row that is recomputed
    with baseline replay off, every attempt booted from reset.  (Taking
    the fault-model seed from ``--seed`` instead moves the table's
    simulated work by up to 70% between seeds.)

A warm-cache campaign over a generated 100-site image was tried as a
third workload and left out: its rescaled time spread 0.13 to 0.15
(interquartile range over median, five seeds, 2-vCPU host), too wide for
any bound the benchmark may set, and its cold set-up cost ~30 s a run.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from functools import partial
from pathlib import Path

from repro.emu import vector
from repro.experiments.fig2 import run_figure2
from repro.experiments.table6 import ATTACKS, DEFENSE_STACKS, SCENARIOS
from repro.firmware.guards import build_defended_guard
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.glitcher import ClockGlitcher
from repro.hw.scan import ATTACK_SHAPES, run_defense_scan


class Fig2Cold:
    #: mean skip rate per panel, as pinned by tests/test_golden_numbers.py
    GOLDEN = {
        "and": 0.4252232142857143,
        "or": 0.12009974888392858,
        "xor": 0.415924072265625,
        "and-0invalid": 0.40345982142857145,
    }

    def setup(self, seed, clock):
        shutil.rmtree(Path(os.environ["REPRO_CACHE_DIR"]) / "tables", ignore_errors=True)
        vector._TABLES.clear()
        with clock.span("build"):
            vector.warm_tables()
        vector._TABLES.clear()
        vector.preload_operand_tables()
        if not all(vector._TABLES[mode].complete for mode in (False, True)):
            raise RuntimeError("persisted operand tables did not load")
        return None

    def steps(self, state, obs):
        return [partial(run_figure2, engine="vector", obs=obs)]

    def check(self, state, outputs):
        (result,) = outputs
        for panel, golden in self.GOLDEN.items():
            rate = result.mean_success(panel)
            if rate != golden:
                return f"panel {panel}: mean skip rate {rate!r}, golden {golden!r}"
        return None


STRIDE = 12
GRID = [(w, o) for w in WIDTH_RANGE[::STRIDE] for o in OFFSET_RANGE[::STRIDE]]
DETECT_SYMBOL = "gr_detected"

#: (scenario, defense, attack) -> (attempts, successes, detections, resets,
#: no_effect) at stride 12 with the default fault model
TABLE6_GOLDEN = {
    ("while_not_a", "none", "single"): (891, 9, 0, 68, 814),
    ("while_not_a", "none", "long"): (810, 10, 0, 100, 700),
    ("while_not_a", "none", "windowed"): (891, 5, 0, 104, 782),
    ("while_not_a", "all", "single"): (891, 0, 0, 68, 823),
    ("while_not_a", "all", "long"): (810, 0, 0, 107, 703),
    ("while_not_a", "all", "windowed"): (891, 0, 0, 96, 795),
    ("while_not_a", "all_no_delay", "single"): (891, 7, 2, 68, 814),
    ("while_not_a", "all_no_delay", "long"): (810, 10, 0, 100, 700),
    ("while_not_a", "all_no_delay", "windowed"): (891, 1, 9, 96, 785),
    ("if_success", "none", "single"): (891, 6, 0, 68, 817),
    ("if_success", "none", "long"): (810, 0, 0, 108, 702),
    ("if_success", "none", "windowed"): (891, 1, 0, 106, 784),
    ("if_success", "all", "single"): (891, 0, 0, 68, 823),
    ("if_success", "all", "long"): (810, 0, 0, 107, 703),
    ("if_success", "all", "windowed"): (891, 0, 0, 93, 798),
    ("if_success", "all_no_delay", "single"): (891, 0, 2, 68, 821),
    ("if_success", "all_no_delay", "long"): (810, 0, 1, 107, 702),
    ("if_success", "all_no_delay", "windowed"): (891, 0, 0, 105, 786),
}


def _tally(scan) -> tuple:
    return (scan.attempts, scan.successes, scan.detections, scan.resets, scan.no_effect)


def _from_reset_row(image, attack) -> tuple:
    """One Table VI row with baseline replay off: every attempt boots."""
    detect = DETECT_SYMBOL if DETECT_SYMBOL in image.symbols else None
    counts = Counter()
    for ext_offset, repeat in ATTACK_SHAPES[attack]:
        glitcher = ClockGlitcher(image, detect_symbol=detect, replay=False)
        for width, offset in GRID:
            params = GlitchParams(ext_offset=ext_offset, width=width, offset=offset, repeat=repeat)
            counts[glitcher.run_attempt(params).category] += 1
    attempts = sum(counts.values())
    other = attempts - counts["success"] - counts["detected"] - counts["reset"]
    return (attempts, counts["success"], counts["detected"], counts["reset"], other)


class Table6Defense:
    def setup(self, seed, clock):
        with clock.span("build"):
            builds = {
                (scenario, defense): build_defended_guard(scenario, DEFENSE_STACKS[defense]())
                for scenario in SCENARIOS
                for defense in DEFENSE_STACKS
            }
        rng = random.Random(seed)
        oracle_row = (rng.choice(SCENARIOS), "none", rng.choice(ATTACKS))
        return {"builds": builds, "oracle_row": oracle_row, "oracle_done": False}

    def steps(self, state, obs):
        return [
            partial(run_defense_scan, state["builds"][(scenario, defense)].image, attack,
                    scenario=scenario, defense=defense, stride=STRIDE, obs=obs)
            for scenario, defense, attack in TABLE6_GOLDEN
        ]

    def check(self, state, outputs):
        for key, scan in zip(TABLE6_GOLDEN, outputs):
            if scan.failed_units:
                return f"row {key}: {len(scan.failed_units)} quarantined units"
            if _tally(scan) != TABLE6_GOLDEN[key]:
                return f"row {key}: {_tally(scan)}, golden {TABLE6_GOLDEN[key]}"
        if not state["oracle_done"]:
            state["oracle_done"] = True
            scenario, defense, attack = key = state["oracle_row"]
            oracle = _from_reset_row(state["builds"][(scenario, defense)].image, attack)
            if oracle != TABLE6_GOLDEN[key]:
                return f"row {key}: {oracle} from reset, golden {TABLE6_GOLDEN[key]}"
        return None


WORKLOADS = {
    "fig2-cold": Fig2Cold,
    "table6-defense": Table6Defense,
}
