"""The overload cluster and its closed-loop capacity anchor.

The paper's benchmarks are closed-loop — every client waits for its reply
before issuing the next operation — so offered load can never exceed what
the group sustains, and overload behaviour goes unmeasured.  The
aggregate open-loop engine (:mod:`repro.harness.workload`) drives
arrivals at multiples of an estimated capacity instead, to show whether
the admission pipeline (bounded queues, per-client caps, BUSY
backpressure — see DESIGN.md, "Overload model and graceful degradation")
degrades gracefully past saturation.  This module fixes the cluster those
sweeps run against and measures the 1.0× anchor on it.
"""

from __future__ import annotations

from repro.harness.measure import run_null_workload
from repro.pbft.config import PbftConfig


def overload_config() -> PbftConfig:
    """The cluster the sweep runs against: more clients than the queue
    budget admits at once, so saturation actually presses the shedding
    policy rather than just the batching pipeline."""
    return PbftConfig(
        num_clients=24,
        checkpoint_interval=64,
        log_window=128,
        pending_queue_budget=12,
        busy_retry_hint_ns=10_000_000,       # 10 ms
        client_busy_backoff_ns=10_000_000,   # 10 ms
        client_busy_backoff_cap_ns=160_000_000,
    )


def estimate_capacity(
    config: PbftConfig,
    payload_size: int = 256,
    warmup_s: float = 0.2,
    measure_s: float = 0.4,
    seed: int = 3,
) -> float:
    """Closed-loop throughput of the same cluster: the sweep's 1.0× anchor."""
    measurement = run_null_workload(
        config,
        name="capacity-estimate",
        payload_size=payload_size,
        warmup_s=warmup_s,
        measure_s=measure_s,
        seed=seed,
    )
    return measurement.tps
