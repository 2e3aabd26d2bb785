"""Every benchmark entry's answer and work counters, and every seeded
document's diagnostics, match their golden digests."""

import pytest

import goldens


@pytest.mark.parametrize("seed", goldens.SEEDS)
def test_answers_and_counters_match_the_goldens(seed):
    assert goldens.changed_ids(seed) == []


@pytest.mark.parametrize("seed", goldens.SEEDS)
def test_diagnostics_match_the_goldens(seed):
    assert goldens.changed_ids(seed, kind="diagnostics-seed") == []
