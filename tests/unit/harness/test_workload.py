"""The aggregate workload engine: determinism, skew, bounded memory.

One generator simulates the arrival process of N clients (a million by
default) and multiplexes them over the cluster's bounded session pool;
per-simulated-client state exists only while an operation is in flight.
These tests pin the three properties the engine is built on: same seed →
identical tick streams, Zipfian skew is real, and memory stays bounded by
the session pool no matter the population.
"""

import random

import pytest

from repro.common.errors import ConfigError
from repro.common.units import MILLISECOND
from repro.harness.workload import (
    DiurnalTiming,
    PoissonTiming,
    UniformPicker,
    ZipfianPicker,
    arrival_stream,
    make_workload,
    run_aggregate_point,
)

# A pinned 1x anchor: overload_config()'s closed-loop capacity at seed 3
# (estimate_capacity gives 26 842 ops/s), rounded down, so no test pays
# for an estimator run.
CAPACITY_TPS = 26_000.0
MILLION = 1_000_000


class TestDeterminism:
    def _stream(self, scenario: str, seed: int, count: int = 400):
        rng = random.Random(seed)
        if scenario == "zipfian":
            timing = PoissonTiming(20_000.0)
            picker = ZipfianPicker(MILLION, theta=0.99)
        else:
            timing = DiurnalTiming(20_000.0, day_ns=50 * MILLISECOND)
            picker = UniformPicker(MILLION)
        return arrival_stream(timing, picker, rng, count)

    @pytest.mark.parametrize("scenario", ["zipfian", "diurnal"])
    def test_same_seed_identical_ticks(self, scenario):
        assert self._stream(scenario, seed=7) == self._stream(scenario, seed=7)

    @pytest.mark.parametrize("scenario", ["zipfian", "diurnal"])
    def test_different_seed_different_ticks(self, scenario):
        assert self._stream(scenario, seed=7) != self._stream(scenario, seed=8)

    def test_arrival_times_strictly_increase(self):
        stream = self._stream("diurnal", seed=7)
        times = [t for t, _c in stream]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestZipfianPicker:
    def test_skew_is_real(self):
        # With theta=0.99 the hottest client should take a double-digit
        # share of draws — orders of magnitude above the uniform 1/n.
        picker = ZipfianPicker(1000, theta=0.99)
        rng = random.Random(11)
        counts: dict[int, int] = {}
        for _ in range(20_000):
            c = picker.pick(rng)
            counts[c] = counts.get(c, 0) + 1
        top_share = max(counts.values()) / 20_000
        assert top_share > 0.05          # uniform would give ~0.001
        assert len(counts) > 100         # but the tail is still exercised

    def test_rank_zero_is_hottest(self):
        picker = ZipfianPicker(1000, theta=0.99, scramble=False)
        rng = random.Random(11)
        counts = [0] * 1000
        for _ in range(20_000):
            counts[picker.rank(rng)] += 1
        assert counts[0] == max(counts)
        assert counts[0] > counts[1] > counts[10]

    def test_scramble_disperses_hot_ids(self):
        # The scrambled hot client must not simply be id 0.
        picker = ZipfianPicker(MILLION, theta=0.99)
        rng = random.Random(11)
        hot = [picker.pick(rng) for _ in range(50)]
        assert any(c > 1000 for c in hot)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ZipfianPicker(1)
        with pytest.raises(ConfigError):
            ZipfianPicker(100, theta=1.0)


class TestDiurnalTiming:
    def test_intensity_curve(self):
        # intensity() is the relative load in [floor, 1]: trough at phase
        # 0, peak mid-day, periodic with the day length.
        timing = DiurnalTiming(10_000.0, day_ns=100 * MILLISECOND, floor=0.2)
        trough = timing.intensity(0)
        peak = timing.intensity(50 * MILLISECOND)
        assert trough == pytest.approx(0.2)
        assert peak == pytest.approx(1.0)
        assert timing.intensity(100 * MILLISECOND) == pytest.approx(trough)

    def test_mean_rate_is_preserved(self):
        # The curve is normalized so the mean arrival rate still equals
        # rate_tps: peak intensity × mean relative load == rate.
        from repro.common.units import SECOND

        timing = DiurnalTiming(10_000.0, day_ns=100 * MILLISECOND, floor=0.2)
        mean_relative = (1.0 + 0.2) / 2.0
        assert timing.peak_per_ns * mean_relative * SECOND == pytest.approx(
            10_000.0
        )


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        make_workload(object(), "bursty", 100, 1000.0)


class TestBoundedMemoryAtOneMillion:
    """The tentpole claim: a 1,000,000-client point in bounded memory."""

    @pytest.mark.parametrize("scenario", ["zipfian", "diurnal"])
    def test_inflight_hwm_stays_at_session_pool(self, scenario):
        point = run_aggregate_point(
            scenario=scenario,
            sim_clients=MILLION,
            multiplier=1.5,
            capacity_tps=CAPACITY_TPS,
            warmup_s=0.05,
            measure_s=0.1,
            seed=5,
        )
        # Per-client state is materialized only in the in-flight table,
        # whose high-water mark is bounded by the session pool — four
        # orders of magnitude below the simulated population.
        assert point.sim_clients == MILLION
        assert 0 < point.inflight_hwm <= point.sessions
        assert point.sessions < MILLION // 10_000
        # Window accounting: every tick submitted, hit a busy simulated
        # client, or found no free session.  Nothing is double-counted.
        assert point.ticks == (
            point.completed
            + (point.outstanding_end - point.outstanding_start)
            + point.busy_skips
            + point.session_drops
        )
        assert point.submitted == round(point.arrived_tps * 0.1)
        assert point.completed > 0
