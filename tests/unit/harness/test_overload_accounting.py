"""Regression test for open-loop source-drop accounting.

An arrival tick that is dropped at the source — its simulated client
still has an operation outstanding, or no transport session is free — is
offered load the cluster never saw.  Such ticks used to be counted as
arrivals anyway, overstating ``arrived_tps`` at high multipliers; now
every tick is classified exactly once and the window obeys a
conservation identity.
"""

import pytest

from repro.harness.workload import run_aggregate_point

# A pinned 1x anchor: overload_config()'s closed-loop capacity at seed 3
# (estimate_capacity gives 26 842 ops/s), rounded down, so no test pays
# for an estimator run.
CAPACITY_TPS = 26_000.0
MEASURE_S = 0.1


@pytest.fixture(scope="module")
def saturated_point():
    # 3x offered load on a small session pool: arrivals routinely find
    # every session busy, forcing source drops.
    return run_aggregate_point(
        scenario="uniform",
        multiplier=3.0,
        capacity_tps=CAPACITY_TPS,
        warmup_s=0.05,
        measure_s=MEASURE_S,
        seed=3,
        sessions=6,
    )


def test_forces_source_drops(saturated_point):
    assert saturated_point.session_drops > 0


def test_window_conservation_identity(saturated_point):
    # Every tick of the measured window either submitted an operation or
    # was dropped at the source; submitted operations either completed in
    # the window or are still outstanding at its end:
    #   ticks == completed + (outstanding_end - outstanding_start) + drops
    point = saturated_point
    assert point.ticks == (
        point.completed
        + (point.outstanding_end - point.outstanding_start)
        + point.dropped_arrivals
    )


def test_drops_do_not_count_as_arrivals(saturated_point):
    # arrived_tps reflects only ticks that submitted an operation.
    point = saturated_point
    submitted = point.ticks - point.dropped_arrivals
    assert submitted == point.submitted
    assert round(point.arrived_tps * MEASURE_S) == submitted
    # ...and at 3x offered load the distinction is material: offered is
    # far above what actually arrived.
    assert point.offered_tps > point.arrived_tps
