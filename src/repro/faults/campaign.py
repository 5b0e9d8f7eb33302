"""The campaign runner: schedules × seeds, invariants checked after each.

One *run* builds a fresh deterministic cluster, drives a closed-loop
client workload, lets a :class:`~repro.faults.injector.FaultInjector`
apply one :class:`~repro.faults.schedule.FaultSchedule`, waits for every
fault to heal, drains outstanding operations, and then checks the
protocol invariants of :mod:`repro.faults.invariants`.  A *campaign*
sweeps a list of schedules across a list of RNG seeds.

Everything is deterministic in (schedule, seed): a failing run can be
re-executed with tracing enabled to produce a Chrome trace plus a
minimized protocol event log for forensics — which is exactly what
happens automatically when ``artifact_dir`` is set.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.common.units import MILLISECOND
from repro.obs import Observability
from repro.pbft.cluster import Cluster, build_cluster
from repro.pbft.config import PbftConfig
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    Violation,
    check_agreement,
    check_checkpoint_monotone,
    check_flood_liveness,
    check_liveness,
    check_membership_safety,
    check_no_committed_loss,
)
from repro.faults.schedule import FaultSchedule

PAYLOAD = bytes(128)


def campaign_config() -> PbftConfig:
    """The small/fast cluster configuration campaigns run against."""
    return PbftConfig(
        num_clients=3,
        checkpoint_interval=16,
        log_window=32,
        client_retransmit_ns=60 * MILLISECOND,
        client_retransmit_cap_ns=500 * MILLISECOND,
        view_change_timeout_ns=250 * MILLISECOND,
        status_interval_ns=100 * MILLISECOND,
        # Overload defenses sized for the Byzantine-client schedules: a
        # small queue budget so floods actually press against it, a tight
        # size limit for the oversized-client run, and a penalty box that
        # trips well inside a spam window.
        pending_queue_budget=32,
        max_request_bytes=4096,
        penalty_box_threshold=5,
        penalty_box_ns=200 * MILLISECOND,
        busy_retry_hint_ns=20 * MILLISECOND,
        client_busy_backoff_ns=20 * MILLISECOND,
        client_busy_backoff_cap_ns=200 * MILLISECOND,
    )


@dataclass
class RunResult:
    """Verdict of one (schedule, seed) run."""

    schedule: str
    seed: int
    violations: list[Violation]
    invoked_ops: int
    completed_ops: int
    max_view: int
    sim_time_ns: int
    fault_log: list[str] = field(default_factory=list)
    artifacts: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class CampaignResult:
    """All runs of one schedules × seeds sweep."""

    runs: list[RunResult]

    @property
    def ok(self) -> bool:
        return all(run.ok for run in self.runs)

    @property
    def failed_runs(self) -> list[RunResult]:
        return [run for run in self.runs if not run.ok]


@dataclass
class CampaignWorkload:
    """Every client's closed loop of ``PAYLOAD`` ops, and what it observed."""

    clients: list
    invoked: list[tuple[int, int]] = field(default_factory=list)
    completed: list[tuple[int, int]] = field(default_factory=list)
    completed_at_ns: list[int] = field(default_factory=list)
    issuing: bool = True

    def busy(self) -> bool:
        """True while some client still waits for a reply (the drain test)."""
        return any(client.pending is not None for client in self.clients)


def start_workload(cluster: Cluster) -> CampaignWorkload:
    """Start one closed loop per client; clearing ``issuing`` ends them."""
    workload = CampaignWorkload(clients=cluster.clients)
    for client in cluster.clients:

        def submit(client=client) -> None:
            def done(_res, _lat) -> None:
                workload.completed.append((client.node_id, req.req_id))
                workload.completed_at_ns.append(cluster.sim.now)
                if workload.issuing:
                    submit(client)

            req = client.invoke(PAYLOAD, callback=done)
            workload.invoked.append((client.node_id, req.req_id))

        submit()
    return workload


def run_phases(
    cluster,
    injectors: list[FaultInjector],
    workload: CampaignWorkload,
    run_ns: int,
    drain_ns: int,
    settle_ns: int,
) -> None:
    """Run until every injector is quiescent, drain the workload, settle.

    The caller starts the injectors before and stops them after, so they
    keep sampling through whatever the caller still runs past the settle.
    """
    step = 10 * MILLISECOND
    # Main phase: at least run_ns, extended until every fault has applied
    # and healed (bounded so a never-firing trigger cannot hang the run).
    deadline = cluster.sim.now + run_ns
    hard_cap = deadline + drain_ns
    while cluster.sim.now < deadline or (
        not all(injector.quiescent for injector in injectors)
        and cluster.sim.now < hard_cap
    ):
        cluster.run_for(step)
    for injector in injectors:
        if not injector.quiescent:
            injector.log.append(
                f"WARNING: {len(injector.pending)} fault(s) never triggered "
                f"and {injector.open_heals} heal(s) still open at the hard cap"
            )

    # Drain: stop issuing new work, let in-flight operations finish.
    workload.issuing = False
    drain_deadline = cluster.sim.now + drain_ns
    while workload.busy() and cluster.sim.now < drain_deadline:
        cluster.run_for(step)
    # Settle: no client traffic; status gossip catches stragglers up
    # before the committed-loss check examines their watermarks.
    cluster.run_for(settle_ns)


def check_group_invariants(
    group: Cluster,
    completed: list[tuple[int, int]],
    stability_samples,
) -> list[Violation]:
    """The per-group invariants #1-3 and #7: agreement, no committed loss,
    monotone checkpoints, and membership safety."""
    return (
        check_agreement(group)
        + check_no_committed_loss(group, completed)
        + check_checkpoint_monotone(stability_samples)
        + check_membership_safety(group)
    )


def check_invariants(
    cluster: Cluster, injector: FaultInjector, workload: CampaignWorkload
) -> list[Violation]:
    """The six single-group invariants (#1-5 and #7), checked after a run."""
    return (
        check_group_invariants(
            cluster, workload.completed, injector.stability_samples
        )
        + check_liveness(workload.invoked, workload.completed)
        + check_flood_liveness(
            injector.client_fault_windows, workload.completed_at_ns
        )
    )


def _execute(
    schedule: FaultSchedule,
    seed: int,
    config: PbftConfig,
    run_ns: int,
    drain_ns: int,
    settle_ns: int,
    trace: bool,
) -> tuple[RunResult, Cluster]:
    obs = Observability(tracing=trace)
    cluster = build_cluster(config, seed=seed, real_crypto=False, obs=obs)
    injector = FaultInjector(cluster, schedule)
    workload = start_workload(cluster)
    injector.start()
    run_phases(cluster, [injector], workload, run_ns, drain_ns, settle_ns)
    injector.stop()
    cluster.stop_clients()
    result = RunResult(
        schedule=schedule.name,
        seed=seed,
        violations=check_invariants(cluster, injector, workload),
        invoked_ops=len(workload.invoked),
        completed_ops=len(workload.completed),
        max_view=max(r.view for r in cluster.replicas),
        sim_time_ns=cluster.sim.now,
        fault_log=list(injector.log),
    )
    return result, cluster


def _dump_artifacts(
    result: RunResult, cluster: Cluster, artifact_dir: str
) -> list[str]:
    """Chrome trace + minimized protocol event log for a failed run."""
    os.makedirs(artifact_dir, exist_ok=True)
    stem = os.path.join(artifact_dir, f"{result.schedule}-seed{result.seed}")
    trace_path = stem + ".trace.json"
    events_path = stem + ".events.jsonl"
    cluster.obs.write_chrome_trace(trace_path)
    keep_cats = ("pbft", "net.drop", "client")
    with open(events_path, "w", encoding="utf-8") as fh:
        for violation in result.violations:
            fh.write(json.dumps({"violation": str(violation)}) + "\n")
        for line in result.fault_log:
            fh.write(json.dumps({"fault": line.strip()}) + "\n")
        for event in cluster.obs.tracer.events:
            if event.kind != "instant":
                continue
            if not event.cat.startswith(keep_cats):
                continue
            fh.write(
                json.dumps(
                    {
                        "ts": event.ts,
                        "track": event.track,
                        "name": event.name,
                        "cat": event.cat,
                        "args": event.args,
                    }
                )
                + "\n"
            )
    return [trace_path, events_path]


def _run_with_forensics(
    execute: Callable[[bool], tuple[RunResult, object]],
    trace: bool,
    artifact_dir: str | None,
) -> RunResult:
    """Run ``execute(trace)``; dump forensics if an invariant broke.

    The artifact pass re-executes the identical run with tracing enabled —
    determinism makes the re-run reproduce the failure, so the trace
    captures the actual violating execution without paying for tracing on
    healthy runs.
    """
    result, cluster = execute(trace)
    if result.violations and artifact_dir is not None:
        if not trace:
            result, cluster = execute(True)
        result.artifacts = _dump_artifacts(result, cluster, artifact_dir)
    return result


def run_schedule(
    schedule: FaultSchedule,
    seed: int,
    config: PbftConfig | None = None,
    run_ns: int = 1200 * MILLISECOND,
    drain_ns: int = 3000 * MILLISECOND,
    settle_ns: int = 400 * MILLISECOND,
    trace: bool = False,
    artifact_dir: str | None = None,
) -> RunResult:
    """Run one schedule at one seed; dump forensics if an invariant broke."""
    config = config or campaign_config()
    return _run_with_forensics(
        functools.partial(
            _execute, schedule, seed, config, run_ns, drain_ns, settle_ns
        ),
        trace,
        artifact_dir,
    )


def run_campaign(
    schedules: list[FaultSchedule],
    seeds: list[int],
    config: PbftConfig | None = None,
    run_ns: int = 1200 * MILLISECOND,
    drain_ns: int = 3000 * MILLISECOND,
    settle_ns: int = 400 * MILLISECOND,
    artifact_dir: str | None = None,
) -> CampaignResult:
    """Sweep every schedule across every seed."""
    runs = [
        run_schedule(
            schedule,
            seed,
            config=config,
            run_ns=run_ns,
            drain_ns=drain_ns,
            settle_ns=settle_ns,
            artifact_dir=artifact_dir,
        )
        for schedule in schedules
        for seed in seeds
    ]
    return CampaignResult(runs=runs)
