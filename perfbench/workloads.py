"""The benchmark's four workloads, each a deterministic function of its seed.

A workload builds a deployment (set-up), starts its clients, runs a
warm-up and then one measured window of simulated time, quiesces, and
checks that what the clients observed is correct.  Everything the
program receives — the cluster seed, payload bytes, voter names, votes,
amounts — comes from generators seeded by ``(workload, seed)``; the
program never sees the seed itself.

Every quantity a workload reports about its window is simulated data or
an exact count, so two reps of one seed must report identical values;
the runner treats any difference as a determinism bug.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps.evoting import EvotingApplication, EvotingClient, voter_credential
from repro.apps.sqlapp import (
    SqlApplication,
    decode_rows_reply,
    decode_sql_op,
    encode_sql_op,
    tables_of_sql,
)
from repro.apps.unreplicated import build_unreplicated
from repro.common.units import MILLISECOND, SECOND
from repro.faults.injector import FaultInjector
from repro.faults.invariants import (
    check_agreement,
    check_cross_shard_atomicity,
    check_no_committed_loss,
)
from repro.faults.library import primary_crash_restart
from repro.harness.configs import build_config, row_by_name
from repro.harness.overload import overload_config
from repro.harness.shardbench import shard_bench_config
from repro.harness.workload import make_workload
from repro.membership import join_client
from repro.obs import Observability, nearest_rank_percentile
from repro.pbft.cluster import Cluster, build_cluster
from repro.pbft.replica import NullApplication
from repro.shard.router import SqlShardCodec
from repro.shard.topology import build_sharded_cluster

# Longest simulated time quiescing waits for in-flight work to finish.
_DRAIN_LIMIT_NS = 3 * SECOND


def input_rng(workload: str, seed: int, stream: str = "") -> random.Random:
    """The generator every input of ``workload`` at ``seed`` comes from."""
    return random.Random(f"perfbench:{workload}:{seed}:{stream}")


def cluster_seed(workload: str, seed: int) -> int:
    """The deployment's RNG seed: a generated input like any other."""
    return input_rng(workload, seed, "cluster").randrange(1, 2**31)


# -- per-op accounting ------------------------------------------------------


class OpLog:
    """Issue and completion times of every operation a workload submits.

    ``ok`` is None while the op is outstanding, True once it completed
    with an accepted result, False once it was refused or failed.
    """

    def __init__(self, clock: Callable[[], int]) -> None:
        self.clock = clock
        self.start: list[int] = []
        self.end: list[int] = []
        self.ok: list[Optional[bool]] = []
        self.kind: list[str] = []
        self.error: list[bool] = []  # ended in an error, not a designed refusal
        self.outstanding = 0

    def begin(self, kind: str) -> int:
        self.outstanding += 1
        self.start.append(self.clock())
        self.end.append(-1)
        self.ok.append(None)
        self.kind.append(kind)
        self.error.append(False)
        return len(self.start) - 1

    def finish(self, index: int, ok: bool, error: bool = False) -> None:
        self.outstanding -= 1
        self.end[index] = self.clock()
        self.ok[index] = ok
        self.error[index] = error

    def window(self, t0: int, t1: int) -> "WindowStats":
        stats = WindowStats(t0=t0, t1=t1)
        for start, end, ok, kind, error in zip(
            self.start, self.end, self.ok, self.kind, self.error
        ):
            done_in_window = ok is not None and t0 <= end <= t1
            if done_in_window and ok:
                stats.add_completion(end, end - start, kind)
            if t0 <= start < t1:
                stats.attempted += 1
                if ok is None or end > t1:
                    stats.outstanding += 1
                elif not ok:
                    stats.refused += 1
                    stats.errors += error
        return stats


@dataclass
class WindowStats:
    """What clients observed in one measured window of simulated time."""

    t0: int
    t1: int
    attempted: int = 0
    refused: int = 0     # refused or failed, errors included
    errors: int = 0      # failed with an error rather than a designed refusal
    outstanding: int = 0
    completions: list[tuple[int, int]] = field(default_factory=list)  # (start, end)
    latencies: dict[str, list[int]] = field(default_factory=dict)

    def add_completion(self, end: int, latency: int, kind: str) -> None:
        self.completions.append((end - latency, end))
        self.latencies.setdefault(kind, []).append(latency)

    @property
    def completed(self) -> int:
        return len(self.completions)

    @property
    def failed_share(self) -> float:
        """Refused or failed ops, plus ops still outstanding at the window's
        end, over the ops attempted in the window."""
        if not self.attempted:
            return 0.0
        return (self.refused + self.outstanding) / self.attempted

    def all_latencies(self) -> list[int]:
        return sorted(lat for lats in self.latencies.values() for lat in lats)

    def kind_latencies(self, kind: str) -> list[int]:
        return sorted(self.latencies.get(kind, ()))

    def unavailable_ns(self) -> int:
        """Longest wait, from an instant in the window, until some op
        invoked at or after that instant completed: the time a newly
        arriving request sees no service.  Requests invoked before an
        outage and finished by a retransmission during it do not count
        as service."""
        longest, soonest = 0, None
        for start, end in sorted(self.completions, reverse=True):
            if start < self.t0:
                break
            soonest = end if soonest is None else min(soonest, end)
            longest = max(longest, soonest - start)
        return longest

    def sim_metrics(self) -> dict:
        """The simulated client-side metrics (all deterministic)."""
        window_s = (self.t1 - self.t0) / SECOND
        lats = self.all_latencies()
        return {
            "sim_goodput_tps": self.completed / window_s,
            "sim_latency_p50_us": pct_us(lats, 0.50),
            "sim_latency_p98_us": pct_us(lats, 0.98),
            "sim_latency_p99_us": pct_us(lats, 0.99),
            "failed_share": self.failed_share,
            "sim_unavailable_ms": self.unavailable_ns() / MILLISECOND,
        }


def pct_us(sorted_ns: list[int], p: float) -> float:
    return nearest_rank_percentile(sorted_ns, p) / 1000


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked beyond the nearest-rank ``p`` percentile of ``n``."""
    return n - max(1, math.ceil(p * n)) if n else 0


# -- deployment counters ----------------------------------------------------


def _sql_app(app) -> Optional[SqlApplication]:
    if isinstance(app, SqlApplication):
        return app
    inner = getattr(app, "inner", None)
    return inner if isinstance(inner, SqlApplication) else None


def deployment_counters(sim, fabric, groups: list[Cluster], clients) -> dict:
    """Cumulative counters the program's modules already publish.

    Summed over the whole deployment; the runner takes their deltas over
    the measured window and divides by completed ops.
    """
    replicas = [r for g in groups for r in g.replicas]
    c = {
        "events_run": sim.events_run,
        "events_cancelled": sim.events_cancelled,
        "queue_hwm": sim.max_queue_len,
        "packets_sent": fabric.packets_sent,
        "bytes_sent": fabric.bytes_sent,
        "mac_hits": sum(g.keys.mac_cache.hits for g in groups),
        "mac_misses": sum(g.keys.mac_cache.misses for g in groups),
        "messages_handled": sum(r.messages_handled for r in replicas)
        + sum(cl.messages_handled for cl in clients),
        "retransmissions": sum(cl.retransmissions for cl in clients),
        "max_view": max(r.view for r in replicas),
        "replica_cpu_busy_ns": {r.host.name: r.host.cpu_busy_ns for r in replicas},
        "replicas": len(replicas),
    }
    for key in (
        "batches_issued",
        "batched_requests",
        "busy_sent",
        "readonly_executed",
        "requests_executed",
        "checkpoints_taken",
    ):
        c[key] = sum(r.stats[key] for r in replicas)
    sql = {"rows_scanned": 0, "pages_journaled": 0, "syncs": 0,
           "plan_hits": 0, "plan_misses": 0}
    for replica in replicas:
        app = _sql_app(replica.app)
        if app is None or app.db is None:
            continue
        db = app.db
        sql["rows_scanned"] += db.executor.rows_scanned
        journal = db.pager.journal
        sql["pages_journaled"] += journal.pages_journaled_total if journal else 0
        sql["syncs"] += app.disk.syncs
        sql["plan_hits"] += db.plan_cache_hits
        sql["plan_misses"] += db.plan_cache_misses
    c.update(sql)
    return c


# -- the workloads ----------------------------------------------------------


class Workload:
    """Template: set up, start, warm up, measure one window, quiesce, check."""

    name = ""

    def __init__(self, spec: dict, seed: int, obs: Optional[Observability] = None):
        self.spec = spec
        self.seed = seed
        self.obs = obs
        self.warmup_ns = spec["warmup_ms"] * MILLISECOND
        self.window_ns = spec["window_ms"] * MILLISECOND
        self.violations: list[str] = []
        self.extra: dict = {}

    # hooks -------------------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def start(self) -> None:
        raise NotImplementedError

    def counters(self) -> dict:
        c = self.cluster
        return deployment_counters(c.sim, c.fabric, [c], c.clients)

    def window_stats(self, t0: int, t1: int, before: dict, after: dict) -> WindowStats:
        """What clients observed between ``t0`` and ``t1``; ``before`` and
        ``after`` are :meth:`counters` at those times."""
        return self.log.window(t0, t1)

    def at_window_end(self) -> None:
        """Called at the window's end, before quiescing."""

    def quiesce_and_check(self) -> None:
        raise NotImplementedError

    @property
    def sim(self):
        return self.cluster.sim

    # shared helpers ----------------------------------------------------
    def fail(self, message: str) -> None:
        self.violations.append(f"{self.name}: {message}")

    def run_until(self, done: Callable[[], bool], limit_ns: int) -> bool:
        deadline = self.sim.now + limit_ns
        while not done() and self.sim.now < deadline:
            self.sim.run_for(MILLISECOND)
        return done()

    def check_roots(self, cluster: Cluster, label: str = "") -> None:
        """Replicas that executed the same prefix hold the same state."""
        live = [r for r in cluster.replicas if not r.crashed]
        top = max(r.last_exec for r in live)
        current = [r for r in live if r.last_exec == top]
        if len(current) < cluster.config.quorum:
            self.fail(f"{label}only {len(current)} replicas reached seq {top}")
        roots = {r.state.refresh_tree() for r in current}
        if len(roots) != 1:
            self.fail(f"{label}{len(roots)} distinct state roots at seq {top}")


class ClosedLoop(Workload):
    """Workloads whose sessions each wait for a reply before the next op."""

    def start(self) -> None:
        self.log = OpLog(lambda: self.sim.now)
        self.issuing = True
        for session in range(self.num_sessions()):
            self.submit(session, 0)

    def num_sessions(self) -> int:
        raise NotImplementedError

    def submit(self, session: int, seq: int) -> None:
        raise NotImplementedError

    def next_op(self, session: int, seq: int) -> None:
        if self.issuing:
            self.submit(session, seq + 1)

    def at_window_end(self) -> None:
        self.issuing = False

    def drain(self) -> None:
        if not self.run_until(lambda: self.log.outstanding == 0, _DRAIN_LIMIT_NS):
            self.fail(f"{self.log.outstanding} ops still outstanding after drain")

    def quiesce_and_check(self) -> None:
        self.drain()
        self.check_roots(self.cluster)
        self.cluster.stop_clients()


class NullMac(ClosedLoop):
    """Table 1's default row: 12 closed-loop clients, 1 KiB null ops."""

    name = "null-mac"

    def __init__(self, spec: dict, seed: int, obs: Optional[Observability] = None):
        super().__init__(spec, seed, obs)
        gen = input_rng(self.name, seed, "payloads")
        self.payloads = [gen.randbytes(spec["request_bytes"]) for _ in range(64)]
        self.config = build_config(row_by_name("sta_mac_allbig_batch"))

    def setup(self) -> None:
        self.cluster = build_cluster(
            self.config,
            seed=cluster_seed(self.name, self.seed),
            real_crypto=True,
            app_factory=lambda: NullApplication(reply_size=self.spec["reply_bytes"]),
            obs=self.obs,
        )

    def num_sessions(self) -> int:
        return len(self.cluster.clients)

    def op(self, session: int, seq: int) -> bytes:
        return self.payloads[(session * 31 + seq) % len(self.payloads)]

    def submit(self, session: int, seq: int) -> None:
        index = self.log.begin("write")

        def done(_result: bytes, _latency: int) -> None:
            self.log.finish(index, True)
            self.next_op(session, seq)

        self.cluster.clients[session].invoke(self.op(session, seq), callback=done)

    def unreplicated_goodput(self) -> float:
        """The same op stream on the single-server baseline."""
        dep = build_unreplicated(
            self.config,
            seed=cluster_seed(self.name, self.seed),
            app_factory=lambda: NullApplication(reply_size=self.spec["reply_bytes"]),
        )
        return _unreplicated_closed_loop(dep, self.op, self.warmup_ns, self.window_ns)


def _unreplicated_closed_loop(dep, make_op, warmup_ns: int, window_ns: int) -> float:
    """Goodput (ops per simulated second) of a closed loop on the baseline."""

    def loop(session: int) -> None:
        client = dep.clients[session]
        seq = [0]

        def done(_result: bytes, _latency: int) -> None:
            seq[0] += 1
            client.invoke(make_op(session, seq[0]), callback=done)

        client.invoke(make_op(session, 0), callback=done)

    for session in range(len(dep.clients)):
        loop(session)
    dep.run_for(warmup_ns)
    before = dep.total_completed()
    dep.run_for(window_ns)
    return (dep.total_completed() - before) / (window_ns / SECOND)


class _OpCapture:
    """Stands in for a PBFT client under :class:`EvotingClient`: records the
    operation the app's client helper builds instead of sending it, so the
    benchmark can submit it itself and inspect each raw reply (an SQL
    error must be counted, not raised inside the simulation)."""

    node_id = 0

    def invoke(self, op: bytes, readonly: bool = False, callback=None) -> None:
        self.op, self.readonly = op, readonly


class EvotingRobust(ClosedLoop):
    """Fig. 5's most robust configuration serving the e-voting app.

    The stations serve ``ELECTIONS`` concurrent elections (precincts), so
    a tally scans one precinct's ballots rather than every ballot cast.
    """

    name = "evoting-robust"
    ELECTIONS = 4
    CANDIDATES = ("alvarez", "baptiste", "chen")

    def __init__(self, spec: dict, seed: int, obs: Optional[Observability] = None):
        super().__init__(spec, seed, obs)
        self.config = build_config(row_by_name("sql_nosta_nomac_noallbig"))
        self.stations = [f"station{i}" for i in range(self.config.num_clients)]
        self.votes = [input_rng(self.name, seed, f"votes{i}") for i in range(len(self.stations))]
        self.vote_plan: list[list[str]] = [[] for _ in self.stations]

    def election(self, session: int) -> int:
        return 1 + session % self.ELECTIONS

    def setup(self) -> None:
        self.cluster = build_cluster(
            self.config,
            seed=cluster_seed(self.name, self.seed),
            real_crypto=True,
            app_factory=EvotingApplication,
            obs=self.obs,
        )
        # Registration happens before the polls open, outside the
        # replication protocol, identically at every replica.
        for replica in self.cluster.replicas:
            self.seed_roll(replica.app)
            replica.state.end_of_execution()
        self.join_all()

    def seed_roll(self, app) -> None:
        """Register the elections, candidates and voter roll through the
        app's own admin operations, executed directly on one replica's
        application as the deployment does before the polls open."""
        capture = _OpCapture()
        admin = EvotingClient(capture)
        ops = []
        for election in range(1, self.ELECTIONS + 1):
            admin.create_election(election, f"precinct {election}")
            ops.append(capture.op)
            for name in self.CANDIDATES:
                admin.add_candidate(election, name)
                ops.append(capture.op)
        for session, username in enumerate(self.stations):
            admin.register_voter(self.election(session), username, voter_credential(username))
            ops.append(capture.op)
        for op in ops:
            if decode_rows_reply(app.execute(op, 0, 0, False)) != 1:
                raise RuntimeError("voter roll registration failed")
        app.take_accumulated_cost()  # not charged to the first ballot

    def join_all(self) -> None:
        rng = input_rng(self.name, self.seed, "joins")
        joined_at: list[int] = []
        wall0, sim0 = time.perf_counter(), self.sim.now
        for client, username in zip(self.cluster.clients, self.stations):
            idbuf = f"{username}:{voter_credential(username)}".encode()
            join_client(client, idbuf, rng,
                        callback=lambda _id: joined_at.append(self.sim.now))
        ok = self.run_until(lambda: len(joined_at) == len(self.stations), 5 * SECOND)
        self.extra["join_wall_s"] = time.perf_counter() - wall0
        self.extra["join_sim_ns"] = max(joined_at, default=self.sim.now) - sim0
        if not ok:
            raise RuntimeError(f"only {len(joined_at)} of {len(self.stations)} sessions joined")

    def num_sessions(self) -> int:
        return len(self.stations)

    def vote(self, session: int, seq: int) -> str:
        plan = self.vote_plan[session]
        while len(plan) <= seq:
            plan.append(self.votes[session].choice(self.CANDIDATES))
        return plan[seq]

    def is_tally(self, seq: int) -> bool:
        return seq % 4 == 3

    def op(self, session: int, seq: int) -> tuple[bytes, bool]:
        """(operation, read-only) of op ``seq`` of ``session``."""
        capture = _OpCapture()
        election = self.election(session)
        if self.is_tally(seq):
            EvotingClient(capture).view_results(election)
        else:
            voter = f"{self.stations[session]}-ballot{seq}"
            EvotingClient(capture, voter).cast_vote(election, self.vote(session, seq))
        return capture.op, capture.readonly

    def start(self) -> None:
        elections = range(1, self.ELECTIONS + 1)
        self.ballots_issued = {e: 0 for e in elections}
        self.committed = {e: {name: 0 for name in self.CANDIDATES} for e in elections}
        super().start()

    def submit(self, session: int, seq: int) -> None:
        election = self.election(session)
        op, readonly = self.op(session, seq)
        if self.is_tally(seq):
            index = self.log.begin("read")

            def tallied(reply: bytes, _latency: int) -> None:
                ok = reply[:1] == b"\x01"
                self.log.finish(index, ok, error=not ok)
                if not ok:
                    self.fail(f"tally {session}/{seq} got an error reply")
                else:
                    total = sum(count for _vote, count in decode_rows_reply(reply))
                    if total > self.ballots_issued[election]:
                        self.fail(f"election {election} tally {total} exceeds "
                                  f"{self.ballots_issued[election]} ballots issued")
                self.next_op(session, seq)

            self.cluster.clients[session].invoke(op, readonly=readonly, callback=tallied)
            return
        index = self.log.begin("write")
        vote = self.vote(session, seq)
        self.ballots_issued[election] += 1

        def cast(reply: bytes, _latency: int) -> None:
            ok = reply[:1] == b"\x02" and decode_rows_reply(reply) == 1
            self.log.finish(index, ok, error=not ok)
            if ok:
                self.committed[election][vote] += 1
            else:
                self.fail(f"ballot {session}/{seq} got an error reply")
            self.next_op(session, seq)

        self.cluster.clients[session].invoke(op, readonly=readonly, callback=cast)

    def quiesce_and_check(self) -> None:
        """After the last ballot, each election's tally equals the ballots
        its clients saw committed, candidate by candidate."""
        self.drain()
        finals: dict[int, bytes] = {}
        for session in range(self.ELECTIONS):
            op, _ = self.op(session, 3)
            self.cluster.clients[session].invoke(
                op, readonly=True,
                callback=lambda reply, _lat, e=self.election(session): finals.__setitem__(e, reply),
            )
        if not self.run_until(lambda: len(finals) == self.ELECTIONS, _DRAIN_LIMIT_NS):
            self.fail("final tallies did not complete")
        for election, reply in sorted(finals.items()):
            final = dict(decode_rows_reply(reply))
            expected = {k: v for k, v in self.committed[election].items() if v}
            if final != expected:
                self.fail(f"election {election}: final tally {final} != "
                          f"committed ballots {expected}")
        self.check_roots(self.cluster)
        self.cluster.stop_clients()

    def unreplicated_goodput(self) -> float:
        dep = build_unreplicated(
            self.config,
            seed=cluster_seed(self.name, self.seed),
            app_factory=EvotingApplication,
        )
        self.seed_roll(dep.server.app)
        dep.server.state.end_of_execution()
        return _unreplicated_closed_loop(
            dep, lambda session, seq: self.op(session, seq)[0],
            self.warmup_ns, self.window_ns,
        )


class ZipfFailover(Workload):
    """The open-loop aggregate engine at a fixed rate through a primary crash."""

    name = "zipf-failover"

    def setup(self) -> None:
        config = overload_config()
        self.cluster = build_cluster(
            config, seed=cluster_seed(self.name, self.seed), real_crypto=True, obs=self.obs
        )
        self.workload = make_workload(
            self.cluster,
            "zipfian",
            self.spec["sim_clients"],
            self.spec["offered_rate_ops_s"],
            payload_size=self.spec["request_bytes"],
        )
        self.injector = FaultInjector(self.cluster, primary_crash_restart())

    def start(self) -> None:
        self.injector.start()
        self.workload.start()

    def counters(self) -> dict:
        counters = super().counters()
        counters["workload"] = {**self.workload.snapshot(),
                                "inflight_hwm": self.workload.inflight_hwm}
        return counters

    def window_stats(self, t0: int, t1: int, before: dict, after: dict) -> WindowStats:
        """Attempted and failed per the open-loop definitions, plus the
        engine's conservation identity over the window."""
        stats = WindowStats(t0=t0, t1=t1)
        for finish, latency in self.workload.completions:
            if t0 <= finish <= t1:
                stats.add_completion(finish, latency, "write")
        before, after = before["workload"], after["workload"]
        d = {k: after[k] - before[k] for k in
             ("ticks", "completed", "failed", "busy_skips", "session_drops")}
        d_out = after["outstanding"] - before["outstanding"]
        if d["ticks"] != d["completed"] + d["failed"] + d_out + d["busy_skips"] + d["session_drops"]:
            self.fail(f"arrival accounting not conserved: {d}, outstanding {d_out:+d}")
        if d["completed"] != stats.completed:
            self.fail(f"engine counted {d['completed']} completions, window {stats.completed}")
        stats.attempted = d["ticks"] - d["busy_skips"]
        stats.refused = d["session_drops"] + d["failed"]
        stats.errors = d["failed"]
        stats.outstanding = after["outstanding"]
        self.extra["session_drops"] = d["session_drops"]
        self.extra["ticks"] = d["ticks"]
        return stats

    def at_window_end(self) -> None:
        # Highest completed request per session: req ids are sequential
        # per client, and only the latest matters to the invariant.
        self.completed_ids = []
        for client in self.cluster.clients:
            last = client.next_req_id - (1 if client.pending is not None else 0)
            if last > 0 and client.failed_ops == 0:
                self.completed_ids.append((client.node_id, last))
        self.workload.stop()

    def quiesce_and_check(self) -> None:
        cluster = self.cluster
        if not self.run_until(
            lambda: self.workload.outstanding == 0 and self.injector.quiescent,
            _DRAIN_LIMIT_NS,
        ):
            self.fail(f"{self.workload.outstanding} ops outstanding after drain")
        # Let the restarted replica finish catching up before comparing.
        self.run_until(
            lambda: all(not r.recovering for r in cluster.replicas if not r.crashed),
            _DRAIN_LIMIT_NS,
        )
        for violation in check_agreement(cluster) + check_no_committed_loss(
            cluster, self.completed_ids
        ):
            self.fail(str(violation))
        self.check_roots(cluster)
        self.injector.stop()
        cluster.stop_clients()


def _sql_lock_keys(op: bytes) -> tuple[bytes, ...]:
    sql, _params = decode_sql_op(op)
    return tuple(f"table:{t}".encode() for t in tables_of_sql(sql))


class Sharded2pc(ClosedLoop):
    """Two groups, per-table placement, 1 in 8 ops a cross-shard transfer."""

    name = "sharded-2pc"
    TXN_EVERY = 8

    def setup(self) -> None:
        self.cluster = build_sharded_cluster(
            2,
            config=shard_bench_config(),
            seed=cluster_seed(self.name, self.seed),
            real_crypto=True,
            inner_app_factory=lambda shard: SqlApplication(
                schema_sql=f"CREATE TABLE ledger{shard} (id INTEGER PRIMARY KEY, "
                "who TEXT NOT NULL, amount INTEGER NOT NULL);"
            ),
            codec_factory=SqlShardCodec,
            keys_of=_sql_lock_keys,
            table_map={"ledger0": 0, "ledger1": 1},
            num_routers=self.spec["routers"],
            router_hosts=self.spec["routers"],
            obs=self.obs,
        )
        self.amounts = [
            input_rng(self.name, self.seed, f"amounts{i}")
            for i in range(len(self.cluster.routers))
        ]

    def num_sessions(self) -> int:
        return len(self.cluster.routers)

    def start(self) -> None:
        self.singles_done = [0, 0]
        self.transfers = {"committed": 0, "net": 0}
        super().start()

    @staticmethod
    def insert(shard: int, who: str, amount: int) -> bytes:
        return encode_sql_op(
            f"INSERT INTO ledger{shard} (who, amount) VALUES (?, ?)", (who, amount)
        )

    def submit(self, session: int, seq: int) -> None:
        router = self.cluster.routers[session]
        amount = self.amounts[session].randrange(1, 97)
        if seq % self.TXN_EVERY == self.TXN_EVERY - 1:
            index = self.log.begin("txn")
            who = f"r{session}"

            def decided(result) -> None:
                self.log.finish(index, result.committed)
                if result.committed:
                    self.transfers["committed"] += 1
                    self.transfers["net"] += amount
                self.next_op(session, seq)

            router.invoke_txn(
                [self.insert(0, who, -amount), self.insert(1, who, amount)],
                callback=decided,
            )
            return
        index = self.log.begin("single")
        shard = seq % 2

        def done(result) -> None:
            # A single refused because its table stayed locked past the
            # router's retries is a refusal, like an aborted transfer.
            error = not result.committed and result.reason != "locked"
            self.log.finish(index, result.committed, error=error)
            if result.committed:
                self.singles_done[shard] += 1
            self.next_op(session, seq)

        router.invoke(self.insert(shard, f"r{session}-{seq}", amount), callback=done)

    def counters(self) -> dict:
        c = self.cluster
        clients = [cl for g in c.groups for cl in g.clients] + [
            cl for r in c.routers for cl in r.clients.values()
        ]
        counters = deployment_counters(c.sim, c.fabric, c.groups, clients)
        for key in ("txns_started", "txns_committed", "txns_aborted",
                    "lock_conflicts", "prepare_timeouts"):
            counters[key] = sum(r.stats[key] for r in c.routers)
        return counters

    def quiesce_and_check(self) -> None:
        cluster = self.cluster
        self.drain()
        cluster.reconcile()
        for violation in check_cross_shard_atomicity(cluster.groups):
            self.fail(str(violation))
        for shard, group in enumerate(cluster.groups):
            self.check_roots(group, f"group {shard}: ")
            db = group.replicas[0].app.inner.db
            rows = db.execute(f"SELECT COUNT(*) FROM ledger{shard}").scalar()
            want = self.singles_done[shard] + self.transfers["committed"]
            if rows != want:
                self.fail(f"ledger{shard} holds {rows} rows, clients saw {want} commits")
            net = sum(
                db.execute(
                    f"SELECT SUM(amount) FROM ledger{shard} WHERE who = ?", (f"r{r}",)
                ).scalar() or 0
                for r in range(len(cluster.routers))
            )
            sign = -1 if shard == 0 else 1
            if net != sign * self.transfers["net"]:
                self.fail(f"ledger{shard} transfer total {net} != {sign * self.transfers['net']}")
        cluster.stop()


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (NullMac, EvotingRobust, ZipfFailover, Sharded2pc)
}
