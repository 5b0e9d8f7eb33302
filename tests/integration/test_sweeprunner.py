"""Serial ≡ parallel: the sweep runner's core guarantee, end to end.

A parallel sweep must be indistinguishable from a serial one — same
per-cell seeds, same results, byte-identical merged JSON — so CI can run
the cheap parallel sweep and still gate on deterministic output.
"""

import pytest

from repro.harness.sweeprunner import merged_json
from repro.harness.workload import run_aggregate_overload_sweep

# A pinned 1x anchor: overload_config()'s closed-loop capacity at seed 3
# (estimate_capacity gives 26 842 ops/s), rounded down, so no test pays
# for an estimator run.
CAPACITY_TPS = 26_000.0

SWEEP_KWARGS = dict(
    scenario="zipfian",
    sim_clients=100_000,
    multipliers=(1.0, 2.0),
    warmup_s=0.05,
    measure_s=0.1,
    seed=3,
    capacity_tps=CAPACITY_TPS,
)


@pytest.fixture(scope="module")
def serial_and_parallel():
    serial = run_aggregate_overload_sweep(workers=1, **SWEEP_KWARGS)
    parallel = run_aggregate_overload_sweep(workers=2, **SWEEP_KWARGS)
    return serial, parallel


def test_merged_json_byte_identical(serial_and_parallel):
    serial, parallel = serial_and_parallel
    assert merged_json(serial.to_dict()) == merged_json(parallel.to_dict())


def test_points_identical_objects(serial_and_parallel):
    serial, parallel = serial_and_parallel
    assert serial.points == parallel.points
    assert [p.multiplier for p in serial.points] == [1.0, 2.0]


def test_sweep_is_a_real_measurement(serial_and_parallel):
    serial, _ = serial_and_parallel
    point = serial.point_at(2.0)
    assert point.completed > 0
    assert point.inflight_hwm <= point.sessions
    # 100k simulated clients through a two-dozen-session pool.
    assert point.sim_clients == 100_000
