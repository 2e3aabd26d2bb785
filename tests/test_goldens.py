"""Every benchmark entry's answer and work counters match its golden digest."""

import pytest

import goldens


@pytest.mark.parametrize("seed", goldens.SEEDS)
def test_answers_and_counters_match_the_goldens(seed):
    assert goldens.changed_ids(seed) == []
