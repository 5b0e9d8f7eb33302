"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    EvotingRobust,
    NullMac,
    OpLog,
    WindowStats,
    ZipfFailover,
    cluster_seed,
    input_rng,
    samples_beyond,
)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = run.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny(name: str) -> dict:
    """The workload's spec with a window just long enough to exercise it."""
    spec = dict(SPEC["workloads"][name])
    spec["window_ms"] = 2 * spec["slice_ms"]
    return spec


# -- the contract ---------------------------------------------------------------


def test_benchmark_json_has_the_contract_shape():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert 1 <= BENCH["run_seconds"] <= 60
    names = [w["name"] for w in BENCH["workloads"]]
    assert names == list(SPEC["workloads"]) == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_held_out_seed_is_not_the_default():
    assert SPEC["held_out_seed"] != SPEC["default_seed"]


# -- generators -----------------------------------------------------------------


def test_generators_are_deterministic_in_the_seed():
    a = [input_rng("null-mac", 5, "x").random() for _ in range(3)]
    b = [input_rng("null-mac", 5, "x").random() for _ in range(3)]
    c = [input_rng("null-mac", 6, "x").random() for _ in range(3)]
    assert a == b != c
    assert cluster_seed("sharded-2pc", 9) == cluster_seed("sharded-2pc", 9)
    assert cluster_seed("sharded-2pc", 9) != cluster_seed("sharded-2pc", 10)


def test_workload_inputs_repeat_for_a_seed_and_differ_across_seeds():
    null = SPEC["workloads"]["null-mac"]
    assert NullMac(null, 4).payloads == NullMac(null, 4).payloads
    assert NullMac(null, 4).payloads != NullMac(null, 5).payloads
    ev = SPEC["workloads"]["evoting-robust"]
    ops = lambda seed: [EvotingRobust(ev, seed).op(s, q) for s in range(12) for q in range(8)]
    assert ops(4) == ops(4)
    assert ops(4) != ops(5)


def test_evoting_ops_mix_three_ballots_per_tally_with_distinct_voters():
    wl = EvotingRobust(SPEC["workloads"]["evoting-robust"], 1)
    ops = [wl.op(s, q) for s in range(12) for q in range(40)]
    reads = [op for op, readonly in ops if readonly]
    ballots = [op for op, readonly in ops if not readonly]
    assert len(ballots) == 3 * len(reads)
    assert len(set(ballots)) == len(ballots)


# -- accounting -----------------------------------------------------------------


def test_failed_share_counts_refused_and_outstanding_over_attempted():
    clock = [0]
    log = OpLog(lambda: clock[0])
    clock[0] = 5
    early = log.begin("write")          # before the window: not attempted
    clock[0] = 10
    done = log.begin("write")
    refused = log.begin("write")
    late = log.begin("write")           # still outstanding at the window's end
    clock[0] = 20
    log.finish(early, True)
    log.finish(done, True)
    log.finish(refused, False, error=True)
    stats = log.window(10, 30)
    clock[0] = 40
    log.finish(late, True)
    assert (stats.attempted, stats.refused, stats.outstanding) == (3, 1, 1)
    assert stats.failed_share == pytest.approx(2 / 3)
    assert stats.completed == 2         # completions in the window, early op too
    assert stats.errors == 1


def test_open_loop_accounting_uses_arrivals_minus_busy_skips():
    wl = ZipfFailover.__new__(ZipfFailover)
    wl.name, wl.violations, wl.extra = "zipf-failover", [], {}

    class Engine:
        completions = [(15, 5), (18, 4)]

    wl.workload = Engine()
    before = {"ticks": 0, "completed": 0, "failed": 0, "busy_skips": 0,
              "session_drops": 0, "outstanding": 1}
    after = {"ticks": 10, "completed": 2, "failed": 1, "busy_skips": 3,
             "session_drops": 4, "outstanding": 1}
    stats = wl.window_stats(10, 20, {"workload": before}, {"workload": after})
    assert wl.violations == []
    assert stats.attempted == 7                    # 10 arrivals - 3 busy skips
    assert stats.refused == 5                      # 4 session drops + 1 failure
    assert stats.errors == 1
    assert stats.failed_share == pytest.approx((5 + 1) / 7)
    after["ticks"] = 11                            # one arrival unaccounted for
    wl.window_stats(10, 20, {"workload": before}, {"workload": after})
    assert any("not conserved" in v for v in wl.violations)


def test_unavailable_time_ignores_old_requests_finishing_in_an_outage():
    stats = WindowStats(t0=0, t1=1000)
    for start, end in ((0, 10), (5, 15), (290, 300), (299, 450), (300, 800),
                       (301, 801), (805, 815)):
        stats.add_completion(end, end - start, "write")
    # The op invoked at 300 is the first whose service took until 800;
    # the retransmitted op from 299 finishing at 450 is not service.
    assert stats.unavailable_ns() == 500


def test_samples_beyond_matches_nearest_rank():
    assert samples_beyond(1000, 0.99) == 10
    assert samples_beyond(999, 0.99) == 9
    assert samples_beyond(0, 0.99) == 0


# -- tracing ---------------------------------------------------------------------


def test_self_times_subtract_children_and_fit_the_wall():
    ticks = iter(range(0, 1000, 10))
    rec = layers.SpanRecorder(clock=lambda: next(ticks))
    rec.names, rec.layer_of = ["outer", "inner"], ["sim", "net"]
    outer = rec._span_wrapper(0, lambda f: f())
    inner = rec._span_wrapper(1, lambda: None)
    rec.recording = True
    outer(inner)   # outer 0..30, inner 10..20
    assert list(rec.span_parent) == [-1, 0]
    assert rec.self_ns_by_layer()["sim"] == 20
    assert rec.self_ns_by_layer()["net"] == 10
    assert sum(rec.self_ns_by_layer().values()) == 30


def test_traced_rep_attributes_layers_and_restores_the_program():
    from repro.sim.simulator import Simulator

    original = Simulator.__dict__["run_until"]
    recorder = layers.SpanRecorder()
    rep = run.run_rep("null-mac", tiny("null-mac"), 3, recorder)
    assert Simulator.__dict__["run_until"] is original
    own = recorder.self_ns_by_layer()
    assert all(v >= 0 for v in own.values())
    assert own["sim"] > 0 and own["crypto"] > 0 and own["pbft"] > 0
    assert sum(own.values()) <= rep.window_clock.raw_s * 1e9
    untraced = run.run_rep("null-mac", tiny("null-mac"), 3)
    assert untraced.sim == rep.sim   # tracing never changes simulated results


# -- printed metrics ---------------------------------------------------------------


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_printed_metric_names_match_benchmark_json(name):
    spec = tiny(name)
    untraced = [run.run_rep(name, spec, 3)]
    recorder = layers.SpanRecorder()
    traced = [(run.run_rep(name, spec, 3, recorder), recorder)]
    assert untraced[0].violations == []
    e2e = run.end_to_end(untraced, [untraced[0].setup.calibrated_s], run.peak_rss_mb())
    assert list(e2e) == [m["name"] for m in BENCH["end_to_end"]]
    assert all(v > 0 for v in e2e.values()), e2e
    per_layer = run.per_layer(name, 3, spec, untraced, traced)
    assert set(m["name"] for m in BENCH["per_layer"]) <= set(per_layer)


def test_phase_marks_pair_within_each_shard_group():
    from repro.obs.tracer import Tracer

    now = [0]
    tracer = Tracer(lambda: now[0], enabled=True)
    boundaries = ("invoke", "primary-recv", "pre-prepare", "prepared",
                  "committed", "executed", "done")
    # Router clients reuse one client id in every group: the same
    # (client, request) pair is a different request in s0- and s1-.
    for prefix, start, step in (("s0-", 0, 10), ("s1-", 1000, 30)):
        for i, boundary in enumerate(boundaries):
            now[0] = start + i * step
            tracer.mark((700, 1), boundary, f"{prefix}client700")
    phases = run.phase_means_us(tracer, 0)
    assert phases["client-send"] == pytest.approx((10 + 30) / 2 / 1000)
    assert sum(phases.values()) == pytest.approx((60 + 180) / 2 / 1000)
