#!/usr/bin/env python3
"""The fault-injection campaign: schedules × seeds, invariants after each.

Every built-in fault schedule — primary/backup crash and restart, primary
partition, lossy/delaying/duplicating/reordering links, mute primary,
equivocating primary, the Byzantine clients (flooding, invalid-MAC spam,
oversized requests), Markov replica churn, and a live replica replace —
runs against a fresh deterministic cluster at each RNG seed.  After every
run the protocol invariants are checked:

* agreement (replicas never diverge),
* no committed-op loss across view changes,
* monotone checkpoint stability,
* client liveness once every fault has healed,
* honest-client liveness while a Byzantine client misbehaves,
* membership safety (same epoch installed at the same boundary
  everywhere).

A failing run is deterministically re-executed with tracing enabled and
dumps a Chrome trace plus a minimized event log under ``--artifacts``.

Run:  python examples/fault_campaign.py [--smoke] [--seeds N] [--workers W]
          [--artifacts DIR]
      --smoke runs one seed per schedule (the CI-sized sweep).
      --workers W farms the schedule × seed grid across W processes; each
      cell carries its seed explicitly, so the report is identical at any
      worker count.
Exits non-zero if any invariant was violated.
"""

import argparse
import sys
import time

from repro.common.units import MILLISECOND
from repro.faults import CampaignResult, builtin_schedules, run_schedule
from repro.harness import SweepCell, format_campaign, run_cells


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="single-seed sweep sized for CI (runs in well under 30 s)",
    )
    parser.add_argument(
        "--seeds", type=int, default=5, metavar="N",
        help="number of RNG seeds to sweep per schedule (default 5)",
    )
    parser.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="directory for Chrome traces + event logs of failing runs",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="W",
        help="processes to farm the schedule × seed grid across "
        "(default 1 = in-process)",
    )
    args = parser.parse_args()

    seeds = [1] if args.smoke else list(range(1, args.seeds + 1))
    # Smoke mode shortens the phases too: every built-in schedule still
    # applies and heals all of its faults well inside the 800 ms window
    # (tests/integration/test_fault_campaign.py sweeps all seeds at these
    # timings), and the sweep fits CI's budget with room to spare.
    timings = (
        dict(run_ns=800 * MILLISECOND, drain_ns=2000 * MILLISECOND)
        if args.smoke
        else {}
    )
    cells = [
        SweepCell(
            fn=run_schedule,
            scenario=schedule.name,
            params=dict(
                schedule=schedule, artifact_dir=args.artifacts, **timings
            ),
            seed=seed,
        )
        for schedule in builtin_schedules()
        for seed in seeds
    ]
    start = time.time()
    campaign = CampaignResult(
        runs=run_cells(cells, base_seed=seeds[0], workers=args.workers)
    )
    wall = time.time() - start

    print(format_campaign(campaign))
    print(f"wall time: {wall:.1f}s for {len(campaign.runs)} runs")
    for run in campaign.failed_runs:
        for path in run.artifacts:
            print(f"  forensics: {path}")
    return 0 if campaign.ok else 1


if __name__ == "__main__":
    sys.exit(main())
