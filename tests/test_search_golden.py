"""Golden pin for the §V-B optimal-parameter search.

Root ``EXPERIMENTS.md`` quotes these runs as "659-758" attempts and
"1.1-1.2 min" of bench-equivalent time; the search is cheap enough to pin
in tier-1.
"""

import pytest

from repro.experiments.param_search import run_search
from repro.hw.clock import GlitchParams

#: guard -> (attempts, found (ext_offset, width, offset), modeled minutes)
SEARCH_GOLDEN = {
    "a": (758, (4, 13, -17), 1.21),
    "a_ne_const": (673, (1, 11, -13), 1.08),
    "not_a": (659, (0, 13, -12), 1.05),
}


@pytest.fixture(scope="module")
def search():
    return run_search()


@pytest.mark.parametrize("guard", sorted(SEARCH_GOLDEN))
def test_search_matches_golden(search, guard):
    attempts, (ext_offset, width, offset), minutes = SEARCH_GOLDEN[guard]
    result = search.results[guard]
    assert result.found
    assert result.attempts == attempts
    assert result.params == GlitchParams(ext_offset, width, offset)
    assert result.confirmed_rate == 1.0
    assert round(result.modeled_minutes, 2) == minutes


def test_search_covers_every_guard(search):
    assert list(search.results) == ["a", "a_ne_const", "not_a"]
