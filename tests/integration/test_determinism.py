"""Seed-determinism regression: same seed, same everything.

The whole repo leans on the simulation being a pure function of
(scenario, seed): the benchmark repeats one scenario per seed, the fault
campaign replays failures by seed, and the hot-path memos claim to
change wall clock only.  These tests pin those claims at the
integration level — a run repeated with the same seed must produce
identical measurements and metrics registries, and three end-to-end
runs must reproduce golden completed-op counts, simulated throughput,
latency percentiles and replicated state roots exactly.
"""

from repro.harness.measure import (
    run_analytics_workload,
    run_null_workload,
    run_sql_workload,
)
from repro.pbft.config import PbftConfig

WINDOW = dict(warmup_s=0.05, measure_s=0.15, seed=11)


def _null_run():
    captured = {}
    m = run_null_workload(
        PbftConfig(),
        name="determinism",
        payload_size=256,
        cluster_hook=lambda c: captured.update(cluster=c),
        **WINDOW,
    )
    snapshot = captured["cluster"].obs.registry.snapshot()
    fingerprint = (
        m.completed,
        m.tps,
        m.mean_latency_ns,
        m.p50_latency_ns,
        m.p99_latency_ns,
        m.retransmissions,
        m.view_changes,
    )
    return fingerprint, snapshot


def test_normal_operation_same_seed_twice_is_identical():
    first, first_metrics = _null_run()
    second, second_metrics = _null_run()
    assert first == second
    assert first_metrics == second_metrics


# Golden end-to-end outputs: PbftConfig(), seed 3, real crypto.  Every
# memo on the hot path (wire encodings, MAC tags, routes, Merkle batches,
# plan and node caches) must leave these bit-identical.  Layout:
# (completed ops, simulated TPS, p50 ns, p99 ns, state root or None).


def _pinned(runner, **kwargs):
    m = runner(PbftConfig(), seed=3, real_crypto=True, **kwargs)
    return (
        m.completed,
        m.tps,
        m.p50_latency_ns,
        m.p99_latency_ns,
        m.extras.get("state_root"),
    )


def test_sql_workload_golden_outputs():
    assert _pinned(run_sql_workload, warmup_s=0.2, measure_s=0.6) == (
        564, 940.0, 12_818_193, 13_019_954, "203b33d68bece8a095443bb7e3ba9f64"
    )


def test_analytics_workload_golden_outputs():
    assert _pinned(run_analytics_workload, warmup_s=0.2, measure_s=0.6) == (
        516, 860.0, 12_368_356, 25_997_762, "33ae553e312a43fb316f0b0c5cc9005c"
    )


def test_null_workload_golden_outputs():
    assert _pinned(
        run_null_workload, payload_size=1024, warmup_s=0.1, measure_s=0.4
    ) == (6960, 17400.0, 687_900, 761_725, None)
