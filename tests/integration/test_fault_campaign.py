"""The fault-injection campaign: sweep, determinism, and forensics.

Also carries the end-to-end regressions for two protocol bugs the
campaign originally caught on the view-change/retransmit paths (the
``lossy-replica-links`` schedule at seed 2):

* a stable checkpoint advanced ``committed_upto`` over tentatively
  executed slots without finalizing their cached replies, so clients
  retransmitting an already-durable operation kept receiving
  tentative-flagged replies and could never assemble a stable quorum;
* per-client execution watermarks travelled in checkpoints and state
  transfer but the matching replies did not, so a replica that adopted a
  watermark treated retransmissions as already executed while having
  nothing cached to resend — a reply black hole.
"""

import json

from repro.common.units import MILLISECOND
from repro.faults import (
    CrashReplica,
    FaultSchedule,
    Trigger,
    Violation,
    builtin_schedules,
    run_campaign,
    run_schedule,
)
from repro.faults.library import lossy_replica_links
from repro.harness import SweepCell, run_cells

# Shortened phases keep the sweep fast; every schedule still applies and
# heals all its faults well inside the run window.
FAST = dict(run_ns=800 * MILLISECOND, drain_ns=2000 * MILLISECOND)


def test_campaign_all_schedules_all_seeds():
    campaign = run_campaign(builtin_schedules(), seeds=[1, 2, 3, 4, 5], **FAST)
    assert len(campaign.runs) == len(builtin_schedules()) * 5
    failures = [
        f"{run.schedule} seed={run.seed}: {[str(v) for v in run.violations]}"
        for run in campaign.failed_runs
    ]
    assert campaign.ok, "\n".join(failures)
    # Every run made real progress and completed everything it invoked.
    for run in campaign.runs:
        assert run.invoked_ops > 0
        assert run.completed_ops == run.invoked_ops


def test_same_seed_same_verdict():
    a = run_schedule(lossy_replica_links(), seed=7, **FAST)
    b = run_schedule(lossy_replica_links(), seed=7, **FAST)
    assert (a.ok, a.invoked_ops, a.completed_ops, a.max_view, a.sim_time_ns) == (
        b.ok, b.invoked_ops, b.completed_ops, b.max_view, b.sim_time_ns
    )
    assert a.fault_log == b.fault_log


def test_lossy_links_regression_tentative_and_transferred_replies():
    # Failed with a liveness violation before the reply-cache fixes: one
    # client retransmitted a durable op for seconds without ever forming
    # a reply quorum (see module docstring).
    result = run_schedule(lossy_replica_links(), seed=2, **FAST)
    assert result.ok, [str(v) for v in result.violations]
    assert result.completed_ops == result.invoked_ops


# f+1 permanent crashes destroy the quorum, so liveness must trip; the
# short phases keep the failing run cheap.
QUORUM_LOSS = FaultSchedule(
    name="quorum-loss",
    description="two permanent crashes (f=1): agreement halts",
    faults=(
        CrashReplica(replica=2, at=Trigger(at_ns=100 * MILLISECOND),
                     restart_after_ns=None),
        CrashReplica(replica=3, at=Trigger(at_ns=100 * MILLISECOND),
                     restart_after_ns=None),
    ),
)
SHORT = dict(
    run_ns=300 * MILLISECOND, drain_ns=400 * MILLISECOND,
    settle_ns=100 * MILLISECOND,
)


def test_violation_dumps_artifacts(tmp_path):
    # The campaign must re-run the failure deterministically with tracing
    # to dump a Chrome trace plus a minimized event log.
    result = run_schedule(
        QUORUM_LOSS, seed=1, artifact_dir=str(tmp_path), **SHORT
    )
    assert not result.ok
    assert any(v.invariant == "liveness" for v in result.violations)
    assert len(result.artifacts) == 2
    trace_path, events_path = result.artifacts
    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    assert trace["traceEvents"]
    lines = [json.loads(line) for line in open(events_path, encoding="utf-8")]
    assert any("violation" in line for line in lines)
    assert any("fault" in line for line in lines)


def test_fault_log_records_apply_and_heal():
    result = run_schedule(lossy_replica_links(), seed=1, **FAST)
    assert any("drop" in line for line in result.fault_log)
    assert any("close disturbance window" in line for line in result.fault_log)


def test_parallel_cells_match_serial_runs():
    # Worker processes must hand back the RunResults a serial run gives:
    # fault log and Violation objects included, not a lossy summary.
    cells = [
        SweepCell(
            fn=run_schedule, scenario="lossy-replica-links",
            params=dict(schedule=lossy_replica_links(), **FAST), seed=1,
        ),
        SweepCell(
            fn=run_schedule, scenario="quorum-loss",
            params=dict(schedule=QUORUM_LOSS, **SHORT), seed=1,
        ),
    ]
    parallel = run_cells(cells, workers=2)
    serial = [
        run_schedule(seed=cell.seed, **cell.params) for cell in cells
    ]
    assert parallel == serial
    assert parallel[0].ok and parallel[0].fault_log
    assert not parallel[1].ok
    assert all(isinstance(v, Violation) for v in parallel[1].violations)
