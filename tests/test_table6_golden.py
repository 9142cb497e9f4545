"""Table VI golden tallies at stride 12, pinned in the tier-1 run.

Every row is deterministic given the default fault-model seed, so the
``(attempts, successes, detections, resets, no_effect)`` tallies are
exact.  They cover the cycle-accurate hw track end to end: the
fault-model fast path, board boots and baseline replay, the settled-loop
exit, pipeline stepping and decode.  One undefended row is recomputed
with baseline replay off, every attempt booted from reset.
"""

from collections import Counter

import pytest

from repro.experiments.table6 import run_table6
from repro.firmware.guards import build_defended_guard
from repro.hw.clock import OFFSET_RANGE, WIDTH_RANGE, GlitchParams
from repro.hw.glitcher import ClockGlitcher
from repro.hw.scan import ATTACK_SHAPES
from repro.resistor import ResistorConfig

STRIDE = 12

#: (scenario, defense, attack) -> (attempts, successes, detections,
#: resets, no_effect) at stride 12 with the default fault model
TABLE6_STRIDE12 = {
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


@pytest.fixture(scope="module")
def table6():
    return run_table6(stride=STRIDE)


@pytest.mark.parametrize("row", sorted(TABLE6_STRIDE12), ids="-".join)
def test_row_tally(table6, row):
    assert _tally(table6.get(*row)) == TABLE6_STRIDE12[row]


def test_every_row_pinned(table6):
    assert set(table6.results) == set(TABLE6_STRIDE12)


def test_undefended_row_from_reset():
    """``while_not_a``/``none``/``single`` with every attempt booted from reset."""
    image = build_defended_guard("while_not_a", ResistorConfig.none()).image
    counts = Counter()
    for ext_offset, repeat in ATTACK_SHAPES["single"]:
        glitcher = ClockGlitcher(image, replay=False)
        for width in WIDTH_RANGE[::STRIDE]:
            for offset in OFFSET_RANGE[::STRIDE]:
                params = GlitchParams(ext_offset, width, offset, repeat=repeat)
                counts[glitcher.run_attempt(params).category] += 1
    attempts = sum(counts.values())
    other = attempts - counts["success"] - counts["detected"] - counts["reset"]
    assert (attempts, counts["success"], counts["detected"], counts["reset"], other) == (
        TABLE6_STRIDE12[("while_not_a", "none", "single")]
    )
