"""Golden pin for the demo-image campaign (slow; run with ``-m slow``).

Like tests/test_model_zoo_golden.py: the exact numbers a full
``repro campaign --image examples/demo_fw.hex`` produces are frozen
here.  Success counts are integers over all 2^16 masks per flip model,
so any drift in the decoder, the emulator, the vector engine, or the
mask algebra shows up as an exact mismatch — not a tolerance failure.
"""

import os

import pytest

from repro.campaign import run_image_campaign
from repro.firmware.image import load_image

pytestmark = pytest.mark.slow

DEMO_HEX = os.path.join(os.path.dirname(__file__), "..", "examples", "demo_fw.hex")

DEMO_SITE_COUNT = 6
MASKS_PER_MODEL = 2 ** 16

#: flip model -> site_id -> masks classified *success* (of 65536)
GOLDEN_SUCCESS = {
    "and": {
        "0x08000008": 28672,
        "0x08000010": 28672,
        "0x0800001a": 24576,
        "0x08000024": 30592,
        "0x08000028": 28544,
        "0x0800002c": 28672,
    },
    "or": {
        "0x08000008": 15360,
        "0x08000010": 8608,
        "0x0800001a": 14640,
        "0x08000024": 12288,
        "0x08000028": 8192,
        "0x0800002c": 12336,
    },
    "xor": {
        "0x08000008": 27253,
        "0x08000010": 27252,
        "0x0800001a": 27246,
        "0x08000024": 27194,
        "0x08000028": 27226,
        "0x0800002c": 27208,
    },
}

#: most-exploitable first — what ``--top 5`` prints
GOLDEN_TOP5 = [
    "0x08000008",  # checksum-loop bne: 36.257% overall
    "0x08000024",  # retry-loop bgt:   35.641%
    "0x0800002c",  # bounds-check bcs: 34.696%
    "0x0800001a",  # privilege beq:    33.804%
    "0x08000010",  # auth-check bne:   32.823%
]


@pytest.fixture(scope="module")
def campaign():
    return run_image_campaign(load_image(DEMO_HEX))


def test_site_count(campaign):
    assert len(campaign.sites) == DEMO_SITE_COUNT


def test_success_counts_exact(campaign):
    measured = {
        model: {
            sweep.site.site_id: sweep.totals["success"]
            for sweep in campaign.sweeps[model]
        }
        for model in campaign.models
    }
    assert measured == GOLDEN_SUCCESS


def test_every_mask_accounted_for(campaign):
    for model in campaign.models:
        for sweep in campaign.sweeps[model]:
            assert sum(sweep.totals.values()) == MASKS_PER_MODEL


def test_top5_ranking(campaign):
    ranking = campaign.ranking()
    assert [entry.site.site_id for entry in ranking[:5]] == GOLDEN_TOP5
    # exploitability strictly decreases down the golden table
    overalls = [entry.overall for entry in ranking]
    assert overalls == sorted(overalls, reverse=True)


def test_rendered_table_top5(campaign):
    table = campaign.render(top=5)
    assert "36.257%" in table  # the #1 site's overall rate
    assert "... 1 more site(s) not shown" in table
    for site_id in GOLDEN_TOP5:
        assert site_id in table
