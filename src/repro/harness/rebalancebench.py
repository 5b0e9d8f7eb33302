"""Live-rebalancing benchmark: goodput before, during, and after a move.

One deployment, one continuous run: two PBFT groups, closed-loop routers
driving a skewed workload, and a
:class:`~repro.shard.rebalance.ShardRebalancer` moving the hottest
sub-range to shard 1 mid-run.  Routers play three roles — *movers* write
only keys inside the moving sub-range, *hot* routers write the rest of
the hot range, *cold* routers write the remaining hash space — so
shard 0 starts with ~70% of the load and ends near even.  Three goodput
windows are reported:

* **before** — steady state under the skewed placement;
* **during** — from the FREEZE to the directory publish.  Writes into
  the moving sub-range draw ``ST_FROZEN`` and park in backoff until the
  move lands (a closed-loop mover completes nothing meanwhile), so this
  window prices the protocol's availability cost: everything *outside*
  the moving range must keep flowing;
* **after** — steady state under the rebalanced placement, measured
  once the movers' backoff tail has drained.

A second, separate run measures the **evenly-placed baseline**: the same
workload against a directory where the move has already happened.  The
rebalanced deployment should land within a few percent of it — the move
buys the balanced placement without leaving residual overhead beyond the
source group's tombstone checks.

All ratios are simulated-time and deterministic: the CI gate compares
them, never wall-clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.common.units import MILLISECOND, SECOND
from repro.harness.shardbench import shard_bench_config, start_put_loop
from repro.pbft.config import PbftConfig
from repro.shard.directory import ShardDirectory, key_position
from repro.shard.router import ShardRouter
from repro.shard.topology import ShardedCluster, build_sharded_cluster

_KEYS_PER_ROUTER = 16  # bounded per-router key set: the store never fills

# The moving sub-range is the lower half of the hot range; the hot range
# is the lower half of shard 0's default stripe.  Router roles repeat in
# blocks of four — mover, hot, cold, cold — so the moving range carries
# 25% of the offered load, the rest of the hot range another 25%, and
# the remaining space 50%: shard 0 starts near 70/30 and the move takes
# the split close to even.
HOT_LO, HOT_HI = 0, 1 << 30
MOVE_LO, MOVE_HI = 0, 1 << 29


@dataclass
class RebalanceBenchResult:
    """Goodput around one live move, plus the evenly-placed control."""

    before_tps: float
    during_tps: float
    after_tps: float
    even_tps: float
    move_ms: float
    chunks: int
    frozen_refusals: int
    wrong_shard_redirects: int
    routers: int
    wall_s: float = 0.0

    @property
    def during_ratio(self) -> float:
        return self.during_tps / self.before_tps if self.before_tps else 0.0

    @property
    def after_ratio(self) -> float:
        return self.after_tps / self.before_tps if self.before_tps else 0.0

    @property
    def after_vs_even(self) -> float:
        return self.after_tps / self.even_tps if self.even_tps else 0.0


def _mine_key(tag: str, index: int, lo: int, hi: int) -> bytes:
    """The ``index``-th deterministic key whose position is in [lo, hi)."""
    found = 0
    for i in range(1_000_000):
        key = f"{tag}-{i}".encode()
        if lo <= key_position(key) < hi:
            if found == index:
                return key
            found += 1
    raise RuntimeError(f"could not mine key {index} for {tag!r}")


def _router_keys(router: ShardRouter) -> list[bytes]:
    """A router's key cycle, by role (router_id % 4).

    Mined from raw hash positions (never from a directory), so the live
    run and the evenly-placed control run drive byte-identical key
    streams.
    """
    router_id = router.router_id
    role = router_id % 4
    if role == 0:  # mover: inside the range being migrated
        lo, hi, tag = MOVE_LO, MOVE_HI, "mover"
    elif role == 1:  # hot: the hot range's half that stays behind
        lo, hi, tag = MOVE_HI, HOT_HI, "hot"
    else:  # cold: everything outside the hot range
        lo, hi, tag = HOT_HI, 1 << 32, "cold"
    return [
        _mine_key(f"r{router_id}-{tag}", i, lo, hi)
        for i in range(_KEYS_PER_ROUTER)
    ]


def _completed(cluster: ShardedCluster) -> int:
    return sum(r.completed_singles for r in cluster.routers)


def _measure(cluster: ShardedCluster, window_s: float) -> float:
    base, start_ns = _completed(cluster), cluster.sim.now
    cluster.run_for(int(window_s * SECOND))
    elapsed_s = (cluster.sim.now - start_ns) / SECOND
    return (_completed(cluster) - base) / elapsed_s


def run_rebalance_bench(
    smoke: bool = False,
    seed: int = 3,
    num_routers: int = 8,
    config: Optional[PbftConfig] = None,
) -> RebalanceBenchResult:
    """Measure one live move end to end, then the evenly-placed control."""
    config = config or shard_bench_config()
    warmup_s = 0.1 if smoke else 0.2
    window_s = 0.25 if smoke else 0.5
    start_wall = time.time()

    # -- the live run: skewed placement, mid-run move ------------------------
    cluster = build_sharded_cluster(
        2, config=config, seed=seed, real_crypto=False,
        num_routers=num_routers, router_hosts=num_routers,
    )
    start_put_loop(cluster, _router_keys)
    cluster.run_for(int(warmup_s * SECOND))
    before_tps = _measure(cluster, window_s)

    rebalancer = cluster.make_rebalancer(chunk_budget=2048)
    moves: list = []
    move_start_ns = cluster.sim.now
    move_start_completed = _completed(cluster)
    rebalancer.move_range(MOVE_LO, MOVE_HI, 1, on_done=moves.append)
    move_cap = cluster.sim.now + 20 * SECOND
    while not moves and cluster.sim.now < move_cap:
        cluster.run_for(10 * MILLISECOND)
    if not moves or moves[0].state != "done":
        reason = moves[0].reason if moves else "timed out"
        raise RuntimeError(f"the live move did not complete: {reason}")
    record = moves[0]
    move_s = (cluster.sim.now - move_start_ns) / SECOND
    during_tps = (_completed(cluster) - move_start_completed) / move_s

    # Settle: the movers' frozen-backoff tail (up to ~200ms between
    # retries) drains and redirect healing finishes before measuring.
    cluster.run_for(600 * MILLISECOND)
    after_tps = _measure(cluster, window_s)
    frozen = sum(int(r.stats["frozen_refusals"]) for r in cluster.routers)
    redirects = sum(
        int(r.stats["wrong_shard_redirects"]) for r in cluster.routers
    )
    cluster.stop()

    # -- the control run: the same workload, already-even placement ----------
    even_directory = ShardDirectory(2)
    even_directory.move_range(MOVE_LO, MOVE_HI, 1)
    control = build_sharded_cluster(
        2, config=config, seed=seed, real_crypto=False,
        num_routers=num_routers, router_hosts=num_routers,
        directory=even_directory,
    )
    start_put_loop(control, _router_keys)
    control.run_for(int(warmup_s * SECOND))
    even_tps = _measure(control, window_s)
    control.stop()

    return RebalanceBenchResult(
        before_tps=before_tps,
        during_tps=during_tps,
        after_tps=after_tps,
        even_tps=even_tps,
        move_ms=(record.finished_at - record.started_at) / MILLISECOND,
        chunks=record.chunks,
        frozen_refusals=frozen,
        wrong_shard_redirects=redirects,
        routers=num_routers,
        wall_s=time.time() - start_wall,
    )


def format_rebalance_bench(result: RebalanceBenchResult) -> str:
    lines = [
        "live rebalance: goodput around a hot-range move (2 shards)",
        f"  before (skewed ~70/30): {result.before_tps:7.0f} op/s",
        f"  during the move:       {result.during_tps:8.0f} op/s "
        f"({result.during_ratio:.0%} of steady state)",
        f"  after  (balanced):     {result.after_tps:8.0f} op/s "
        f"({result.after_ratio:.0%} of steady state)",
        f"  evenly-placed control: {result.even_tps:8.0f} op/s "
        f"(post-move = {result.after_vs_even:.0%} of control)",
        f"  move: {result.move_ms:.1f}ms, {result.chunks} chunk(s), "
        f"{result.frozen_refusals} frozen refusals, "
        f"{result.wrong_shard_redirects} redirects",
    ]
    return "\n".join(lines)
