"""Sharded-deployment benchmarks: goodput scaling and mixed SQL traffic.

Two workloads:

* **kv scaling** — S independent PBFT groups, S x ``routers_per_shard``
  closed-loop routers, every router writing keys that live on its home
  shard.  The workload is perfectly partitionable, so goodput should
  scale close to linearly in S; the committed gate is 4-shard goodput
  >= 2.5x 1-shard (coordination overheads, shared-fabric scheduling, and
  per-group batching keep it below 4.0).
* **mixed SQL** — two shards each owning one table, routers interleaving
  single-shard INSERTs with cross-shard transfer transactions driven
  through the deterministic 2PC of :mod:`repro.shard`.  Reported numbers
  separate single-op goodput from transaction commit/abort rates, and
  lock conflicts between the direct path and the 2PC path show up as
  retried or failed singles rather than wrong answers.

Simulated time only — wall-clock is reported for orientation but the
assertions are about simulated goodput ratios, which are deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.kvstore import encode_put
from repro.apps.sqlapp import (
    SqlApplication,
    decode_sql_op,
    encode_sql_op,
    tables_of_sql,
)
from repro.common.units import SECOND
from repro.obs import nearest_rank_percentile
from repro.pbft.config import PbftConfig
from repro.shard.campaign import key_for_shard
from repro.shard.directory import ShardDirectory
from repro.shard.router import ShardRouter, SqlShardCodec
from repro.shard.topology import ShardedCluster, build_sharded_cluster

PAYLOAD = bytes(128)
_KEYS_PER_ROUTER = 32  # bounded key space so the kv store never fills


def shard_bench_config() -> PbftConfig:
    """Per-group configuration for the sharding benchmarks."""
    return PbftConfig().with_options(num_clients=0)


@dataclass
class ShardPoint:
    """One shard-count measurement of the kv scaling sweep."""

    shards: int
    routers: int
    tps: float
    p50_latency_ns: int
    p99_latency_ns: int
    completed: int

    def as_json(self) -> dict:
        return {
            "shards": self.shards,
            "routers": self.routers,
            "sim_tps": round(self.tps, 1),
            "sim_p50_latency_us": round(self.p50_latency_ns / 1000, 1),
            "sim_p99_latency_us": round(self.p99_latency_ns / 1000, 1),
            "completed": self.completed,
        }


@dataclass
class ShardBenchResult:
    """The full sharding benchmark: scaling points plus the SQL mix."""

    points: list[ShardPoint]
    sql: dict
    wall_s: float = 0.0

    def speedup(self, shards: int) -> float:
        base = next(p.tps for p in self.points if p.shards == 1)
        point = next(p.tps for p in self.points if p.shards == shards)
        return point / base if base else 0.0


def _percentiles(latencies: list[int]) -> tuple[int, int]:
    latencies = sorted(latencies)
    return (
        nearest_rank_percentile(latencies, 0.50),
        nearest_rank_percentile(latencies, 0.99),
    )


def _router_latencies(cluster: ShardedCluster, skip: dict) -> list[int]:
    latencies: list[int] = []
    for router in cluster.routers:
        for shard, client in router.clients.items():
            latencies.extend(client.latencies_ns[skip[(router.router_id, shard)]:])
    return latencies


def _latency_marks(cluster: ShardedCluster) -> dict:
    return {
        (router.router_id, shard): len(client.latencies_ns)
        for router in cluster.routers
        for shard, client in router.clients.items()
    }


def start_put_loop(
    cluster: ShardedCluster, keys_of: Callable[[ShardRouter], list[bytes]]
) -> None:
    """Every router runs a closed loop of kv puts, cycling through
    ``keys_of(router)``."""

    def start(router: ShardRouter) -> None:
        keys = keys_of(router)
        state = {"n": 0}

        def submit() -> None:
            key = keys[state["n"] % len(keys)]
            state["n"] += 1
            router.invoke(encode_put(key, PAYLOAD), callback=lambda _r: submit())

        submit()

    for router in cluster.routers:
        start(router)


def run_shard_scaling_point(
    num_shards: int,
    routers_per_shard: int = 4,
    warmup_s: float = 0.2,
    measure_s: float = 0.5,
    seed: int = 3,
    config: Optional[PbftConfig] = None,
) -> ShardPoint:
    """Measure single-shard put goodput at one shard count.

    Every router writes a bounded key set chosen to live on its home
    shard (``router_id % num_shards``), so the offered load per shard is
    constant as the deployment grows — the scaling question is whether
    adding groups adds goodput, not whether one group survives more
    clients.
    """
    num_routers = routers_per_shard * num_shards
    cluster = build_sharded_cluster(
        num_shards,
        config=config or shard_bench_config(),
        seed=seed,
        real_crypto=False,
        num_routers=num_routers,
        router_hosts=num_routers,
    )

    def home_keys(router) -> list[bytes]:
        home = router.router_id % num_shards
        return [
            key_for_shard(cluster.directory, home, f"r{router.router_id}-k{i}")
            for i in range(_KEYS_PER_ROUTER)
        ]

    start_put_loop(cluster, home_keys)

    cluster.run_for(int(warmup_s * SECOND))
    start_completed = sum(r.completed_singles for r in cluster.routers)
    marks = _latency_marks(cluster)
    cluster.run_for(int(measure_s * SECOND))
    completed = sum(r.completed_singles for r in cluster.routers) - start_completed
    p50, p99 = _percentiles(_router_latencies(cluster, marks))
    cluster.stop()
    return ShardPoint(
        shards=num_shards,
        routers=num_routers,
        tps=completed / measure_s,
        p50_latency_ns=p50,
        p99_latency_ns=p99,
        completed=completed,
    )


def _sql_lock_keys(op: bytes) -> tuple[bytes, ...]:
    sql, _params = decode_sql_op(op)
    return tuple(f"table:{t}".encode() for t in tables_of_sql(sql))


def run_shard_sql_mix(
    warmup_s: float = 0.2,
    measure_s: float = 0.6,
    seed: int = 3,
    num_routers: int = 4,
    txn_every: int = 8,
    config: Optional[PbftConfig] = None,
) -> dict:
    """Mixed single-/cross-shard SQL: per-table placement, 2PC transfers.

    Shard ``s`` owns table ``ledger{s}``; every ``txn_every``-th router
    operation is a cross-shard transfer writing both ledgers atomically.
    Cross-shard transactions lock whole tables, so singles colliding
    with an in-flight transfer are retried (or refused) — that pressure
    is part of what the benchmark reports.
    """
    table_map = {"ledger0": 0, "ledger1": 1}

    def schema(shard: int) -> str:
        return (
            f"CREATE TABLE ledger{shard} (id INTEGER PRIMARY KEY, "
            "who TEXT NOT NULL, amount INTEGER NOT NULL);"
        )

    cluster = build_sharded_cluster(
        2,
        config=config or shard_bench_config(),
        seed=seed,
        real_crypto=False,
        inner_app_factory=lambda shard: SqlApplication(schema_sql=schema(shard)),
        codec_factory=SqlShardCodec,
        keys_of=_sql_lock_keys,
        table_map=table_map,
        num_routers=num_routers,
        router_hosts=num_routers,
    )

    def insert(shard: int, who: str, amount: int) -> bytes:
        return encode_sql_op(
            f"INSERT INTO ledger{shard} (who, amount) VALUES (?, ?)",
            (who, amount),
        )

    def start(router) -> None:
        state = {"n": 0}

        def submit() -> None:
            n = state["n"]
            state["n"] += 1
            done = lambda _r: submit()
            if n % txn_every == txn_every - 1:
                # A transfer: debit on shard 0, credit on shard 1.
                router.invoke_txn(
                    [
                        insert(0, f"r{router.router_id}", -(n % 97)),
                        insert(1, f"r{router.router_id}", n % 97),
                    ],
                    callback=done,
                )
            else:
                router.invoke(
                    insert(n % 2, f"r{router.router_id}-{n}", n % 97),
                    callback=done,
                )

        submit()

    for router in cluster.routers:
        start(router)

    def totals() -> dict:
        routers = cluster.routers
        return {
            "singles": sum(r.completed_singles for r in routers),
            "committed": sum(r.committed_txns for r in routers),
            "aborted": sum(r.aborted_txns for r in routers),
            "failed": sum(r.stats["failed_singles"] for r in routers),
            "conflicts": sum(r.stats["lock_conflicts"] for r in routers),
        }

    cluster.run_for(int(warmup_s * SECOND))
    base = totals()
    marks = _latency_marks(cluster)
    cluster.run_for(int(measure_s * SECOND))
    window = {key: value - base[key] for key, value in totals().items()}
    p50, p99 = _percentiles(_router_latencies(cluster, marks))
    cluster.stop()
    return {
        "shards": 2,
        "routers": num_routers,
        "txn_every": txn_every,
        "singles_tps": round(window["singles"] / measure_s, 1),
        "txn_commit_tps": round(window["committed"] / measure_s, 1),
        "txn_aborted": window["aborted"],
        "failed_singles": window["failed"],
        "lock_conflicts": window["conflicts"],
        "sim_p50_latency_us": round(p50 / 1000, 1),
        "sim_p99_latency_us": round(p99 / 1000, 1),
    }


def run_shard_bench(
    smoke: bool = False,
    seed: int = 3,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    workers: int = 1,
) -> ShardBenchResult:
    """The full sharding benchmark: scaling sweep plus the SQL mix.

    Every measurement is an independent sweep cell, so ``workers > 1``
    farms them across processes; the cells carry the caller's seed
    explicitly (it is part of each measurement's identity), and results
    come back in cell order, so the bench output is identical at any
    worker count.
    """
    from repro.harness.sweeprunner import SweepCell, run_cells

    warmup_s = 0.1 if smoke else 0.2
    measure_s = 0.25 if smoke else 0.5
    start = time.time()
    cells = [
        SweepCell(
            fn=run_shard_scaling_point,
            scenario=f"kv-{shards}shard",
            params=dict(
                num_shards=shards, warmup_s=warmup_s, measure_s=measure_s
            ),
            seed=seed,
        )
        for shards in shard_counts
    ]
    cells.append(
        SweepCell(
            fn=run_shard_sql_mix,
            scenario="sql-mix",
            params=dict(warmup_s=warmup_s, measure_s=max(measure_s, 0.3)),
            seed=seed,
        )
    )
    results = run_cells(cells, base_seed=seed, workers=workers)
    return ShardBenchResult(
        points=results[:-1], sql=results[-1], wall_s=time.time() - start
    )


def format_shard_bench(result: ShardBenchResult) -> str:
    header = f"{'Shards':>6s} {'Routers':>7s} {'Goodput':>10s} {'p50':>9s} {'p99':>9s} {'Scale':>6s}"
    lines = ["kv put goodput vs shard count", header, "-" * len(header)]
    for point in result.points:
        lines.append(
            f"{point.shards:6d} {point.routers:7d} {point.tps:10.0f} "
            f"{point.p50_latency_ns / 1000:8.1f}u {point.p99_latency_ns / 1000:8.1f}u "
            f"{result.speedup(point.shards):5.2f}x"
        )
    sql = result.sql
    lines.append("")
    lines.append(
        "mixed SQL (2 shards): "
        f"{sql['singles_tps']:.0f} single-op/s, "
        f"{sql['txn_commit_tps']:.0f} cross-shard commit/s, "
        f"{sql['txn_aborted']} aborted, {sql['failed_singles']} failed "
        f"singles, {sql['lock_conflicts']} lock conflicts, "
        f"p50 {sql['sim_p50_latency_us']:.0f}us"
    )
    return "\n".join(lines)
