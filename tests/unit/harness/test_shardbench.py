"""The sharded SQL mix reports every counter over the same measured window.

A window's count is the run's total at its end minus the total at its
start.  Runs are deterministic, so the totals at both edges come from two
unwindowed runs (zero warm-up) of the same seed.
"""

import pytest

from repro.harness.shardbench import run_shard_sql_mix

WARMUP_S = 0.1
MEASURE_S = 0.15
WINDOWED = ("txn_aborted", "failed_singles", "lock_conflicts")


@pytest.fixture(scope="module")
def runs():
    windowed = run_shard_sql_mix(warmup_s=WARMUP_S, measure_s=MEASURE_S)
    to_start = run_shard_sql_mix(warmup_s=0.0, measure_s=WARMUP_S)
    to_end = run_shard_sql_mix(warmup_s=0.0, measure_s=WARMUP_S + MEASURE_S)
    return windowed, to_start, to_end


def test_warmup_has_lock_conflicts(runs):
    # Otherwise the window test below could not tell a window from a total.
    _windowed, to_start, _to_end = runs
    assert to_start["lock_conflicts"] > 0


@pytest.mark.parametrize("key", WINDOWED)
def test_counter_is_windowed(runs, key):
    windowed, to_start, to_end = runs
    assert windowed[key] == to_end[key] - to_start[key]
