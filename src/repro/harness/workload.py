"""Aggregate open-loop workload engine: millions of simulated clients.

The paper's evaluation (section 4) is closed-loop with tens of clients,
and until this module "millions of users" meant instantiating millions of
Python client objects — the wall was the harness, not the protocol.  Here
one *generator* simulates the arrival process of N clients in aggregate:

* **timing** — when the next operation arrives anywhere in the population
  (Poisson at a fixed rate, or a non-homogeneous diurnal curve thinned
  against its peak);
* **picker** — which simulated client it belongs to (uniform, or
  Zipfian-skewed via Gray's O(1) approximate sampler, the YCSB
  generator);
* **sessions** — a bounded pool of real :class:`~repro.pbft.client.
  PbftClient` endpoints the simulated population multiplexes through.
  Each arrival borrows a free session, travels the PR-4 admission path
  (in-flight caps, deterministic shedding, BUSY backpressure) like any
  other request, and returns the session on completion or failure.

Per-simulated-client state exists *only while an operation is in
flight*, so the in-flight table is bounded by the session pool — its
high-water mark is published as the ``workload.inflight_hwm`` gauge and
asserted « N by the tests — and a 1,000,000-client scenario runs in the
same memory as a 24-client one.

Accounting is conserved per window:
``ticks == completed + (outstanding_end - outstanding_start) +
busy_skips + session_drops`` — a tick suppressed because its simulated
client still has an operation outstanding (``busy_skips``) or because no
transport session was free (``session_drops``) never counts toward
``arrived_tps``.

Everything is deterministic in (scenario, seed): the generator draws
timing and picker variates from one named RNG stream in a fixed order,
so identical runs produce identical tick streams, shed sets, and
percentiles.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

from repro.common.errors import ConfigError
from repro.common.units import MILLISECOND, SECOND
from repro.obs import nearest_rank_percentile
from repro.pbft.cluster import Cluster, build_cluster
from repro.pbft.config import PbftConfig
from repro.harness.overload import estimate_capacity, overload_config

# The library scenarios.  Each names a (timing, picker) pair built by
# :func:`make_workload`; the sweep runner derives per-cell seeds from the
# scenario name, so the names are part of the deterministic contract.
SCENARIOS = ("uniform", "zipfian", "diurnal")

DEFAULT_SIM_CLIENTS = 1_000_000

# Per-replica and per-session overload counters sampled around the
# measured window.
_REPLICA_STATS = (
    "requests_shed",
    "busy_sent",
    "inflight_capped",
    "waiting_shed",
    "duplicate_inflight",
    "oversized_rejected",
    "penalty_box_drops",
)
_CLIENT_STATS = ("busy_received", "busy_retries", "retransmissions")


# -- arrival timing -----------------------------------------------------------------


class PoissonTiming:
    """Homogeneous Poisson arrivals: exponential inter-arrival times whose
    mean is the aggregate population rate — one draw per arrival no matter
    how many clients the population simulates."""

    def __init__(self, rate_tps: float) -> None:
        if rate_tps <= 0:
            raise ConfigError(f"arrival rate must be positive, got {rate_tps}")
        self.rate_per_ns = rate_tps / SECOND

    def delay(self, rng, now_ns: int) -> int:
        return max(1, int(rng.expovariate(self.rate_per_ns)))


class DiurnalTiming:
    """Non-homogeneous Poisson arrivals on a compressed diurnal curve.

    The intensity follows a raised cosine between ``floor`` (night) and
    1.0 (peak) over one simulated ``day_ns``, scaled so the *mean* rate
    equals ``rate_tps`` — multipliers of estimated capacity keep their
    meaning.  Arrivals are drawn by thinning against the peak rate:
    candidate arrivals at the peak rate are accepted with probability
    ``intensity(t)``, the textbook method for inhomogeneous processes,
    and both draws come from the same stream so the tick sequence is a
    pure function of the seed.
    """

    def __init__(
        self, rate_tps: float, day_ns: int = 200 * MILLISECOND, floor: float = 0.2
    ) -> None:
        if rate_tps <= 0:
            raise ConfigError(f"arrival rate must be positive, got {rate_tps}")
        if day_ns <= 0:
            raise ConfigError(f"day length must be positive, got {day_ns}")
        if not 0.0 < floor <= 1.0:
            raise ConfigError(f"diurnal floor {floor} outside (0, 1]")
        self.day_ns = day_ns
        self.floor = floor
        mean_intensity = (1.0 + floor) / 2.0
        self.peak_per_ns = rate_tps / mean_intensity / SECOND

    def intensity(self, now_ns: int) -> float:
        """Relative load in [floor, 1]: trough at phase 0, peak mid-day."""
        phase = (now_ns % self.day_ns) / self.day_ns
        return self.floor + (1.0 - self.floor) * 0.5 * (
            1.0 - math.cos(2.0 * math.pi * phase)
        )

    def delay(self, rng, now_ns: int) -> int:
        t = now_ns
        while True:
            t += max(1, int(rng.expovariate(self.peak_per_ns)))
            if rng.random() <= self.intensity(t):
                return t - now_ns


# -- client pickers -----------------------------------------------------------------


class UniformPicker:
    """Every simulated client equally likely."""

    def __init__(self, num_clients: int) -> None:
        if num_clients <= 0:
            raise ConfigError(f"population must be positive, got {num_clients}")
        self.num_clients = num_clients

    def pick(self, rng) -> int:
        return rng.randrange(self.num_clients)


_ZETA_CACHE: dict[tuple[int, float], float] = {}


def _zeta(n: int, theta: float) -> float:
    """Generalized harmonic number sum(1/i^theta, i=1..n), memoized — the
    only O(n) cost of the Zipfian sampler, paid once per (n, theta)."""
    key = (n, theta)
    cached = _ZETA_CACHE.get(key)
    if cached is None:
        cached = _ZETA_CACHE[key] = float(
            sum(1.0 / i**theta for i in range(1, n + 1))
        )
    return cached


def _fnv1a_64(value: int) -> int:
    """FNV-1a over the value's 8 little-endian bytes."""
    h = 0xCBF29CE484222325
    for _ in range(8):
        h = ((h ^ (value & 0xFF)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        value >>= 8
    return h


class ZipfianPicker:
    """Zipfian-skewed client choice: Gray et al.'s approximate sampler
    (the YCSB generator) — O(1) per draw, O(1) memory, no per-client
    weight table.  Ranks are scattered across the id space with an FNV
    hash so the popular clients are not the adjacent low ids."""

    def __init__(
        self, num_clients: int, theta: float = 0.99, scramble: bool = True
    ) -> None:
        if num_clients < 2:
            raise ConfigError(f"zipfian needs at least 2 clients, got {num_clients}")
        if not 0.0 < theta < 1.0:
            raise ConfigError(f"zipfian theta {theta} outside (0, 1)")
        self.num_clients = num_clients
        self.theta = theta
        self.scramble = scramble
        self.zetan = _zeta(num_clients, theta)
        self.alpha = 1.0 / (1.0 - theta)
        zeta2 = 1.0 + 0.5**theta
        self.eta = (1.0 - (2.0 / num_clients) ** (1.0 - theta)) / (
            1.0 - zeta2 / self.zetan
        )
        self.second_threshold = 1.0 + 0.5**theta

    def rank(self, rng) -> int:
        """Popularity rank: 0 is the hottest simulated client."""
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < self.second_threshold:
            return 1
        r = int(self.num_clients * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return min(r, self.num_clients - 1)

    def pick(self, rng) -> int:
        r = self.rank(rng)
        if not self.scramble:
            return r
        return _fnv1a_64(r) % self.num_clients


def arrival_stream(timing, picker, rng, count: int, start_ns: int = 0) -> list:
    """The first ``count`` ticks as (arrival time, simulated client) pairs.

    Exactly the draw order :class:`AggregateWorkload` uses — one timing
    delay, then one picker draw per tick — so the engine's tick stream
    for a seed equals this function's output for the same-seeded stream.
    """
    out = []
    now = start_ns
    for _ in range(count):
        now += timing.delay(rng, now)
        out.append((now, picker.pick(rng)))
    return out


# -- the engine ---------------------------------------------------------------------


class AggregateWorkload:
    """One generator driving N simulated clients through a session pool.

    State per simulated client exists only in ``inflight`` (client id →
    borrowed session index) while its operation is outstanding, so memory
    is bounded by the session pool regardless of the population size.
    """

    def __init__(
        self,
        cluster: Cluster,
        timing,
        picker,
        payload: bytes = bytes(256),
        rng_name: str = "workload-arrivals",
    ) -> None:
        if not cluster.clients:
            raise ConfigError("aggregate workload needs at least one session client")
        self.cluster = cluster
        self.timing = timing
        self.picker = picker
        self.payload = payload
        self.rng = cluster.rng.stream(rng_name)
        self.sessions = list(cluster.clients)
        # LIFO free list: index order is deterministic and reuse favors
        # warm sessions.
        self.free = list(range(len(self.sessions) - 1, -1, -1))
        self.inflight: dict[int, int] = {}
        self.inflight_hwm = 0
        self.ticks = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.busy_skips = 0
        self.session_drops = 0
        self.completions: list[tuple[int, int]] = []  # (finish time, latency)
        self._timer = None
        self._stopped = False
        registry = cluster.obs.registry
        self._inflight_gauge = registry.gauge("workload.inflight")
        self._hwm_gauge = registry.gauge("workload.inflight_hwm")
        self.stats = registry.view("workload.")

    # -- lifecycle ------------------------------------------------------------------

    def start(self) -> None:
        self._schedule_next()

    def stop(self) -> None:
        """Quiesce the generator; outstanding sessions are reclaimed via
        their fail callbacks when the cluster cancels them."""
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # -- the arrival loop -----------------------------------------------------------

    def _schedule_next(self) -> None:
        delay = self.timing.delay(self.rng, self.cluster.sim.now)
        self._timer = self.cluster.sim.schedule(delay, self._arrival)

    def _arrival(self) -> None:
        self._timer = None
        self.ticks += 1
        sim_client = self.picker.pick(self.rng)
        if sim_client in self.inflight:
            # The simulated client still has its one allowed operation
            # outstanding (the middleware allows one per client): the
            # tick is suppressed at the source.
            self.busy_skips += 1
        elif not self.free:
            # Offered load beyond the transport's concurrency: every
            # session is occupied, so this arrival is shed before the
            # cluster ever sees it.
            self.session_drops += 1
        else:
            index = self.free.pop()
            self.inflight[sim_client] = index
            if len(self.inflight) > self.inflight_hwm:
                self.inflight_hwm = len(self.inflight)
            self.submitted += 1
            self.sessions[index].invoke(
                self.payload,
                callback=lambda _res, lat, c=sim_client, i=index: self._complete(
                    c, i, lat
                ),
                on_fail=lambda _reason, c=sim_client, i=index: self._failed(c, i),
            )
        self._schedule_next()

    def _complete(self, sim_client: int, index: int, latency: int) -> None:
        self.completed += 1
        self.completions.append((self.cluster.sim.now, latency))
        self._release(sim_client, index)

    def _failed(self, sim_client: int, index: int) -> None:
        if self._stopped:
            return
        self.failed += 1
        self._release(sim_client, index)

    def _release(self, sim_client: int, index: int) -> None:
        del self.inflight[sim_client]
        self.free.append(index)

    # -- accounting -----------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return len(self.inflight)

    def snapshot(self) -> dict:
        """Current counters (cumulative); also publishes the obs metrics."""
        self._inflight_gauge.set(len(self.inflight))
        self._hwm_gauge.update_max(self.inflight_hwm)
        for key in (
            "ticks", "submitted", "completed", "failed",
            "busy_skips", "session_drops",
        ):
            self.stats[key] = getattr(self, key)
        return {
            "ticks": self.ticks,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "busy_skips": self.busy_skips,
            "session_drops": self.session_drops,
            "outstanding": len(self.inflight),
            "completions": len(self.completions),
        }


def make_workload(
    cluster: Cluster,
    scenario: str,
    sim_clients: int,
    rate_tps: float,
    payload_size: int = 256,
    zipf_theta: float = 0.99,
    day_ns: int = 200 * MILLISECOND,
) -> AggregateWorkload:
    """Build a library scenario against an existing cluster."""
    if scenario == "uniform":
        timing, picker = PoissonTiming(rate_tps), UniformPicker(sim_clients)
    elif scenario == "zipfian":
        timing = PoissonTiming(rate_tps)
        picker = ZipfianPicker(sim_clients, theta=zipf_theta)
    elif scenario == "diurnal":
        timing = DiurnalTiming(rate_tps, day_ns=day_ns)
        picker = UniformPicker(sim_clients)
    else:
        raise ConfigError(
            f"unknown workload scenario {scenario!r}; have {', '.join(SCENARIOS)}"
        )
    return AggregateWorkload(
        cluster, timing, picker, payload=bytes(payload_size)
    )


# -- measured points and sweeps -----------------------------------------------------


def _snapshot(cluster: Cluster) -> tuple[dict, dict, int]:
    replica = {
        key: sum(r.stats[key] for r in cluster.replicas) for key in _REPLICA_STATS
    }
    client = {
        key: sum(c.stats[key] for c in cluster.clients) for key in _CLIENT_STATS
    }
    views = sum(r.stats["view_changes_started"] for r in cluster.replicas)
    return replica, client, views


@dataclass
class AggregatePoint:
    """One (scenario, multiplier) measured window of an aggregate sweep."""

    scenario: str
    sim_clients: int
    sessions: int
    multiplier: float
    offered_tps: float      # target aggregate arrival rate
    arrived_tps: float      # ticks that actually submitted an operation
    goodput_tps: float
    ticks: int
    submitted: int
    completed: int
    busy_skips: int         # simulated client's own op still outstanding
    session_drops: int      # no free transport session: shed at the source
    outstanding_start: int
    outstanding_end: int
    inflight_hwm: int       # peak materialized per-client state, run-wide
    mean_latency_ns: float
    p50_latency_ns: int
    p99_latency_ns: int
    replica_stats: dict = field(default_factory=dict)
    client_stats: dict = field(default_factory=dict)
    view_changes: int = 0

    @property
    def shed(self) -> int:
        return self.replica_stats.get("requests_shed", 0)

    @property
    def busy_replies(self) -> int:
        return self.replica_stats.get("busy_sent", 0)

    @property
    def dropped_arrivals(self) -> int:
        return self.busy_skips + self.session_drops


@dataclass
class AggregateSweep:
    """All points of one aggregate overload sweep, lowest multiplier first."""

    scenario: str
    sim_clients: int
    capacity_tps: float
    seed: int
    payload_size: int
    points: list[AggregatePoint]

    def point_at(self, multiplier: float) -> AggregatePoint:
        for point in self.points:
            if abs(point.multiplier - multiplier) < 1e-9:
                return point
        raise KeyError(f"no sweep point at multiplier {multiplier}")

    def graceful(
        self, at: float = 2.0, reference: float = 1.0, threshold: float = 0.8
    ) -> bool:
        ref = self.point_at(reference).goodput_tps
        return self.point_at(at).goodput_tps >= threshold * ref

    def to_dict(self) -> dict:
        return asdict(self)


def run_aggregate_point(
    scenario: str = "uniform",
    sim_clients: int = DEFAULT_SIM_CLIENTS,
    multiplier: float = 1.0,
    capacity_tps: float = 0.0,
    payload_size: int = 256,
    warmup_s: float = 0.3,
    measure_s: float = 0.5,
    seed: int = 3,
    sessions: int | None = None,
    zipf_theta: float = 0.99,
    day_ns: int = 200 * MILLISECOND,
    config: PbftConfig | None = None,
) -> AggregatePoint:
    """Measure one aggregate open-loop point on a fresh deterministic cluster.

    ``capacity_tps`` anchors the offered rate (``multiplier`` times it)
    and must be supplied — sweep drivers estimate it once, closed loop,
    so every cell of a sweep shares the same anchor.
    """
    if capacity_tps <= 0:
        raise ConfigError("run_aggregate_point needs a positive capacity_tps anchor")
    config = config or overload_config()
    if sessions is not None:
        config = config.with_options(num_clients=sessions)
    cluster = build_cluster(config, seed=seed, real_crypto=False)
    offered_tps = capacity_tps * multiplier
    workload = make_workload(
        cluster, scenario, sim_clients, offered_tps,
        payload_size=payload_size, zipf_theta=zipf_theta, day_ns=day_ns,
    )
    workload.start()

    cluster.run_for(int(warmup_s * SECOND))
    before = workload.snapshot()
    replica_before, client_before, views_before = _snapshot(cluster)

    cluster.run_for(int(measure_s * SECOND))
    after = workload.snapshot()
    replica_after, client_after, views_after = _snapshot(cluster)

    window = workload.completions[before["completions"]:]
    latencies = sorted(lat for _t, lat in window)

    workload.stop()
    cluster.stop_clients()

    delta = {key: after[key] - before[key] for key in
             ("ticks", "submitted", "completed", "busy_skips", "session_drops")}
    return AggregatePoint(
        scenario=scenario,
        sim_clients=sim_clients,
        sessions=len(workload.sessions),
        multiplier=multiplier,
        offered_tps=offered_tps,
        arrived_tps=delta["submitted"] / measure_s,
        goodput_tps=len(window) / measure_s,
        ticks=delta["ticks"],
        submitted=delta["submitted"],
        completed=len(window),
        busy_skips=delta["busy_skips"],
        session_drops=delta["session_drops"],
        outstanding_start=before["outstanding"],
        outstanding_end=after["outstanding"],
        inflight_hwm=workload.inflight_hwm,
        mean_latency_ns=(sum(latencies) / len(latencies)) if latencies else 0.0,
        p50_latency_ns=nearest_rank_percentile(latencies, 0.50),
        p99_latency_ns=nearest_rank_percentile(latencies, 0.99),
        replica_stats={
            key: replica_after[key] - replica_before[key] for key in _REPLICA_STATS
        },
        client_stats={
            key: client_after[key] - client_before[key] for key in _CLIENT_STATS
        },
        view_changes=views_after - views_before,
    )


def run_aggregate_overload_sweep(
    scenario: str = "uniform",
    sim_clients: int = DEFAULT_SIM_CLIENTS,
    multipliers: tuple[float, ...] = (0.5, 1.0, 1.5, 2.0),
    payload_size: int = 256,
    warmup_s: float = 0.3,
    measure_s: float = 0.5,
    seed: int = 3,
    capacity_tps: float | None = None,
    workers: int = 1,
    sessions: int | None = None,
) -> AggregateSweep:
    """Sweep offered load across multipliers of estimated capacity, one
    fresh cluster per point, farming the points across ``workers``
    processes through :mod:`repro.harness.sweeprunner` (cells are
    independent; per-cell seeds are hash-derived and collision-free, and
    serial and parallel runs produce identical results)."""
    from repro.harness.sweeprunner import SweepCell, run_cells

    if capacity_tps is None:
        capacity_tps = estimate_capacity(
            overload_config(), payload_size=payload_size, seed=seed
        )
    cells = [
        SweepCell(
            fn=run_aggregate_point,
            scenario=scenario,
            params=dict(
                scenario=scenario,
                sim_clients=sim_clients,
                multiplier=multiplier,
                capacity_tps=capacity_tps,
                payload_size=payload_size,
                warmup_s=warmup_s,
                measure_s=measure_s,
                sessions=sessions,
            ),
        )
        for multiplier in sorted(multipliers)
    ]
    return AggregateSweep(
        scenario=scenario,
        sim_clients=sim_clients,
        capacity_tps=capacity_tps,
        seed=seed,
        payload_size=payload_size,
        points=run_cells(cells, base_seed=seed, workers=workers),
    )
