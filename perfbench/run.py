#!/usr/bin/env python3
"""The repository's benchmark: four workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload null-mac --seed 3 --seconds 20 --trace 0

``--trace 0`` repeats whole reps — set-up plus one measured window of
simulated time — while the next one fits in ``--seconds`` of wall time
(at least one), times extra set-ups up to ``MIN_SETUPS``, and prints
every end-to-end metric.  Simulated metrics are exact and must repeat in
every rep of a seed; wall metrics are medians over the reps, calibrated
to a reference host speed by :mod:`calibrate`.  ``--trace 1`` alternates
untraced and traced reps and prints the per-layer metrics: exact counts
read from the modules' own counters and wall self-time per layer from
:mod:`layers`.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a report with units, sample counts, host and the checks run.  A
failed correctness check or a determinism mismatch makes ``correct``
false and the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: the program's source is not at {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

from repro.common.units import MILLISECOND  # noqa: E402
from repro.obs import NULL_SPAN, Observability, Tracer  # noqa: E402
from repro.obs.phases import PHASE_NAMES, request_phases  # noqa: E402

from calibrate import CalibratedClock  # noqa: E402
from layers import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, WindowStats, pct_us, samples_beyond  # noqa: E402

MIN_REPS = 1
MIN_SETUPS = 9
SPANS_DIR = ROOT / ".perfbench"


def load_spec() -> dict:
    with open(HERE / "spec.json") as fh:
        return json.load(fh)


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# -- one rep ------------------------------------------------------------------


@dataclass
class Rep:
    """One set-up plus measured window of one workload at one seed."""

    setup: CalibratedClock
    window_clock: CalibratedClock
    sim: dict          # simulated end-to-end metrics and exact counts
    window: WindowStats
    counters_start: dict
    counters_end: dict
    extra: dict        # per-layer inputs a workload adds
    violations: list[str]
    phases_us: dict = field(default_factory=dict)


def run_rep(name: str, spec: dict, seed: int, recorder: SpanRecorder | None = None) -> Rep:
    """Set up, warm up, measure one window, quiesce and check.

    The window runs in ``slice_ms`` slices of simulated time with the
    calibration kernel between them; only the slices are timed.
    """
    if recorder is not None:
        recorder.install()
    try:
        # The traced rep records protocol phase marks during the window only.
        obs = Observability(tracer=PhaseMarkTracer(lambda: 0, enabled=False)) \
            if recorder is not None else None
        setup_clock, window_clock = CalibratedClock(), CalibratedClock()
        setup_clock.mark()
        started = time.perf_counter()
        workload = WORKLOADS[name](spec, seed, obs)
        workload.setup()
        setup_clock.add(time.perf_counter() - started)
        workload.start()
        sim = workload.sim
        sim.run_for(workload.warmup_ns)
        before, t0 = workload.counters(), sim.now
        slice_ns = spec["slice_ms"] * MILLISECOND
        window_clock.mark()
        for _ in range(workload.window_ns // slice_ns):
            if recorder is not None:
                recorder.recording = obs.tracer.enabled = True
            started = time.perf_counter()
            sim.run_for(slice_ns)
            elapsed = time.perf_counter() - started
            if recorder is not None:
                recorder.recording = obs.tracer.enabled = False
            window_clock.add(elapsed)
        after, t1 = workload.counters(), sim.now
        window = workload.window_stats(t0, t1, before, after)
        workload.at_window_end()
        phases = phase_means_us(obs.tracer, t0) if obs is not None else {}
        workload.quiesce_and_check()
    finally:
        if recorder is not None:
            recorder.uninstall()
    rep = Rep(
        setup=setup_clock,
        window_clock=window_clock,
        sim={},
        window=window,
        counters_start=before,
        counters_end=after,
        extra=workload.extra,
        violations=workload.violations,
        phases_us=phases,
    )
    rep.sim = {**window.sim_metrics(), **layer_counts(rep)}
    return rep


class PhaseMarkTracer(Tracer):
    """The program's tracer keeping only request phase marks: the phase
    breakdown needs nothing else, and recording every packet and CPU span
    as well would cost the traced rep most of its time and memory."""

    def event(self, *args, **kwargs) -> None:
        return None

    def begin(self, *args, **kwargs):
        return NULL_SPAN

    def complete(self, *args, **kwargs) -> None:
        return None


# -- metrics --------------------------------------------------------------------


def phase_means_us(tracer, since_ns: int) -> dict:
    """Mean microseconds per protocol phase over requests completed after
    ``since_ns``.  Phase marks pair up by (client id, request id), which a
    shard router's clients reuse in every group, so each group's marks —
    on tracks prefixed ``s<group>-`` — are paired separately."""
    by_group: dict[str, list] = {}
    for event in tracer.events:
        group = re.match(r"(s\d+-)?", event.track).group(0)
        by_group.setdefault(group, []).append(event)
    totals = dict.fromkeys(PHASE_NAMES, 0)
    count = 0
    for events in by_group.values():
        for phases in request_phases(SimpleNamespace(events=events)).values():
            if phases[-1][2] < since_ns:
                continue
            count += 1
            for phase, start, end in phases:
                totals[phase] += end - start
    return {phase: ns / count / 1000 for phase, ns in totals.items()} if count else {}


def layer_counts(rep: Rep) -> dict:
    """Per-layer metrics derived from exact counters: identical every rep."""
    b, a = rep.counters_start, rep.counters_end
    d = {k: a[k] - b[k] for k in a if isinstance(a[k], int)}
    ops = rep.window.completed
    window_ns = rep.window.t1 - rep.window.t0

    def per_op(x):
        return x / ops if ops else 0.0

    def ratio(x, y):
        return x / y if y else 0.0

    busy = max(a["replica_cpu_busy_ns"][h] - b["replica_cpu_busy_ns"][h]
               for h in a["replica_cpu_busy_ns"])
    out = {
        "sim.events_per_op": per_op(d["events_run"]),
        "sim.timers_cancelled_per_op": per_op(d["events_cancelled"]),
        "sim.queue_hwm": a["queue_hwm"],
        "net.datagrams_per_op": per_op(d["packets_sent"]),
        "net.bytes_per_op": per_op(d["bytes_sent"]),
        "net.primary_cpu_busy_share": busy / window_ns,
        "crypto.macs_computed_per_op": per_op(d["mac_misses"]),
        "crypto.mac_cache_hit_ratio": ratio(d["mac_hits"], d["mac_hits"] + d["mac_misses"]),
        "pbft.batch_size_mean": ratio(d["batched_requests"], d["batches_issued"]),
        "pbft.messages_per_op": per_op(d["messages_handled"]),
        "pbft.view_changes": d["max_view"],
        "pbft.retransmissions_per_op": per_op(d["retransmissions"]),
        "pbft.busy_replies_per_op": per_op(d["busy_sent"]),
        "pbft.readonly_share": ratio(
            d["readonly_executed"], d["readonly_executed"] + d["requests_executed"]
        ),
        "pbft.checkpoints_per_kop": per_op(1000 * d["checkpoints_taken"] / a["replicas"]),
        "sqlstate.plan_cache_hit_ratio": ratio(d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
        "sqlstate.rows_scanned_per_op": per_op(d["rows_scanned"]),
        "sqlstate.pages_journaled_per_op": per_op(d["pages_journaled"]),
        "sqlstate.syncs_per_op": per_op(d["syncs"]),
        "membership.join_sim_ms": rep.extra.get("join_sim_ns", 0) / MILLISECOND,
        "shard.txn_commit_ratio": ratio(
            d.get("txns_committed", 0), d.get("txns_committed", 0) + d.get("txns_aborted", 0)
        ),
        "shard.lock_conflicts_per_txn": ratio(d.get("lock_conflicts", 0), d.get("txns_started", 0)),
        "shard.prepare_timeouts": d.get("prepare_timeouts", 0),
        "workload.session_drop_share": ratio(
            rep.extra.get("session_drops", 0), rep.extra.get("ticks", 0)
        ),
        "workload.inflight_hwm": a.get("workload", {}).get("inflight_hwm", 0),
        "sim_read_latency_p50_us": pct_us(rep.window.kind_latencies("read"), 0.50),
        "sim_read_latency_p90_us": pct_us(rep.window.kind_latencies("read"), 0.90),
        "sim_txn_latency_p90_us": pct_us(rep.window.kind_latencies("txn"), 0.90),
    }
    return out


def layer_times(rep: Rep, recorder: SpanRecorder) -> dict:
    """Per-layer wall self-time, rescaled to the reference host like every
    wall metric, and the counts only the wrappers can see."""
    ops = rep.window.completed
    factor = rep.window_clock.factor
    own = {layer: ns * factor for layer, ns in recorder.self_ns_by_layer().items()}
    counts = recorder.counts

    def per_op(x):
        return x / ops if ops else 0.0

    checkpoints = rep.counters_end["checkpoints_taken"] - rep.counters_start["checkpoints_taken"]
    ticks = rep.extra.get("ticks", 0)
    refresh_ns = recorder.inclusive_ns("PagedState.refresh_tree") * factor
    return {
        "sim.self_us_per_op": per_op(own["sim"] / 1000),
        "net.self_us_per_op": per_op(own["net"] / 1000),
        "crypto.self_us_per_op": per_op(own["crypto"] / 1000),
        "crypto.signatures_per_op": per_op(recorder.calls("rabin_sign")),
        "pbft.self_us_per_op": per_op(own["pbft"] / 1000),
        "pbft.encodes_per_op": per_op(counts.get("encodes", 0)),
        "statemgr.pages_modified_per_op": per_op(counts.get("PagedState.modify", 0)),
        "statemgr.refresh_tree_us_per_checkpoint": (
            refresh_ns / 1000 / checkpoints if checkpoints else 0.0
        ),
        "statemgr.self_us_per_op": per_op(own["statemgr"] / 1000),
        "sqlstate.execute_us_per_op": per_op(own["sqlstate"] / 1000),
        "shard.router_self_us_per_op": per_op(own["shard"] / 1000),
        "workload.generator_us_per_arrival": own["workload"] / 1000 / ticks if ticks else 0.0,
    }


def host_info() -> dict:
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the run ----------------------------------------------------------------------


def determinism_violations(values: list[dict]) -> list[str]:
    """Every rep of one seed must report identical exact metrics."""
    out = []
    for index, other in enumerate(values[1:], start=1):
        for metric in sorted(values[0]):
            if values[0][metric] != other.get(metric):
                out.append(
                    f"determinism bug: {metric} = {values[0][metric]!r} in rep 0 "
                    f"but {other.get(metric)!r} in rep {index}"
                )
    return out


def rate(rep: Rep) -> float:
    """Completed simulated ops per calibrated wall second of the window."""
    return rep.window.completed / rep.window_clock.calibrated_s


def time_setup(name: str, spec: dict, seed: int) -> float:
    """Calibrated wall seconds of one more set-up, discarded afterwards."""
    clock = CalibratedClock()
    clock.mark()
    started = time.perf_counter()
    WORKLOADS[name](spec, seed).setup()
    clock.add(time.perf_counter() - started)
    return clock.calibrated_s


def end_to_end(untraced: list[Rep], setups: list[float], rss_mb: float) -> dict:
    first = untraced[0].sim
    return {
        "sim_ops_per_wall_s": statistics.median(rate(rep) for rep in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
        **{k: first[k] for k in (
            "sim_goodput_tps", "sim_latency_p50_us", "sim_latency_p98_us", "failed_share",
        )},
    }


def per_layer(name: str, seed: int, wl_spec: dict, untraced: list[Rep],
              traced: list[tuple[Rep, SpanRecorder]]) -> dict:
    metrics = dict(untraced[0].sim)
    timed = [layer_times(rep, recorder) for rep, recorder in traced]
    for key in timed[0]:
        metrics[key] = statistics.median(t[key] for t in timed)
    for phase in PHASE_NAMES:
        metrics[f"pbft.phase.{phase}_us"] = traced[0][0].phases_us.get(phase, 0.0)
    metrics["membership.join_wall_s"] = statistics.median(
        rep.extra.get("join_wall_s", 0.0) * rep.setup.factor for rep in untraced
    )
    baseline = getattr(WORKLOADS[name](wl_spec, seed), "unreplicated_goodput", None)
    metrics["pbft.replication_cost_ratio"] = (
        baseline() / metrics["sim_goodput_tps"] if baseline else 0.0
    )
    metrics["trace.overhead_ratio"] = statistics.median(
        rep.window_clock.calibrated_s for rep, _ in traced
    ) / statistics.median(rep.window_clock.calibrated_s for rep in untraced)
    return metrics


def trace_checks(traced: list[tuple[Rep, SpanRecorder]]) -> list[str]:
    out = []
    for rep, recorder in traced:
        if sum(recorder.self_ns_by_layer().values()) > rep.window_clock.raw_s * 1e9:
            out.append("layer self times add up to more than the traced wall time")
    out += determinism_violations(
        [{**rec.counts, "signatures": rec.calls("rabin_sign")} for _, rec in traced]
    )
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report)."""
    wl_spec = load_spec()["workloads"][name]
    started = time.perf_counter()
    untraced: list[Rep] = []
    traced: list[tuple[Rep, SpanRecorder]] = []
    rss_mb = 0.0
    while True:
        untraced.append(run_rep(name, wl_spec, seed))
        # Peak memory of the first rep: later reps only add allocator noise.
        rss_mb = rss_mb or peak_rss_mb()
        if trace:
            recorder = SpanRecorder()
            traced.append((run_rep(name, wl_spec, seed, recorder), recorder))
        elapsed = time.perf_counter() - started
        if len(untraced) >= MIN_REPS and elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    setups = [rep.setup.calibrated_s for rep in untraced]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(time_setup(name, wl_spec, seed))

    reps = untraced + [rep for rep, _ in traced]
    violations = [v for rep in reps for v in rep.violations]
    violations += determinism_violations([rep.sim for rep in reps])
    window = untraced[0].window
    for metric, p in (("sim_latency_p98_us", 0.98), ("sim_latency_p99_us", 0.99)):
        beyond = samples_beyond(window.completed, p)
        if beyond < 10:
            violations.append(f"{metric} has only {beyond} samples beyond it")
    bench = load_benchmark()
    if trace:
        metrics = per_layer(name, seed, wl_spec, untraced, traced)
        violations += trace_checks(traced)
        SPANS_DIR.mkdir(exist_ok=True)
        traced[0][1].write(str(SPANS_DIR / f"spans-{name}.jsonl.gz"))
        wanted = bench["per_layer"]
    else:
        metrics = end_to_end(untraced, setups, rss_mb)
        wanted = bench["end_to_end"]
    samples = sample_counts(window, len(untraced), len(setups), len(traced))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        violations.append(f"metrics not produced: {missing}")
    result = {
        "correct": not violations,
        "attempted": window.attempted,
        "failed": window.errors,
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    reads, txns = window.kind_latencies("read"), window.kind_latencies("txn")
    report = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "wall_s": time.perf_counter() - started,
        "samples": {m["name"]: samples.get(m["name"], window.completed) for m in wanted},
        "beyond": {
            "sim_latency_p98_us": samples_beyond(window.completed, 0.98),
            "sim_latency_p99_us": samples_beyond(window.completed, 0.99),
            "sim_read_latency_p90_us": samples_beyond(len(reads), 0.90),
            "sim_txn_latency_p90_us": samples_beyond(len(txns), 0.90),
        },
        "window": {"sim_ms": (window.t1 - window.t0) / MILLISECOND,
                   "refused": window.refused, "outstanding": window.outstanding},
        "raw_wall": {
            "sim_ops_per_wall_s": [rep.window.completed / rep.window_clock.raw_s
                                   for rep in untraced],
            "setup_s": [rep.setup.raw_s for rep in untraced],
            "setups_calibrated": setups,
            "host_speed_factor": [rep.window_clock.factor for rep in untraced],
        },
        "violations": violations,
        "sim_digest": hashlib.sha256(
            json.dumps(untraced[0].sim, sort_keys=True).encode()
        ).hexdigest()[:16],
        "spec": wl_spec,
        **host_info(),
    }
    return result, report


def sample_counts(window: WindowStats, reps: int, setups: int, traced: int) -> dict:
    """How many samples each metric rests on; metrics not listed rest on
    the window's completed ops."""
    reads, txns = window.kind_latencies("read"), window.kind_latencies("txn")
    return {
        "sim_ops_per_wall_s": reps,
        "setup_s": setups,
        "peak_rss_mb": 1,
        "failed_share": window.attempted,
        "sim_read_latency_p50_us": len(reads),
        "sim_read_latency_p90_us": len(reads),
        "sim_txn_latency_p90_us": len(txns),
        "trace.overhead_ratio": traced,
        "membership.join_wall_s": reps,
    }


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("perfbench report: " + json.dumps(report, sort_keys=True))
    for metric, entry in result["metrics"].items():
        print(f"  {metric:44s} {entry['value']:>16.6f} {entry['unit']:10s}"
              f" n={report['samples'][metric]}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
