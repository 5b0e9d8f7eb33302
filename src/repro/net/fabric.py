"""Hosts, NICs, links and the datagram fabric."""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Callable, Optional

from repro.common.errors import ConfigError, NetworkError
from repro.common.units import MICROSECOND, SECOND
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator

Address = tuple[str, int]  # (host name, port)


@dataclass(frozen=True)
class Packet:
    """A datagram in flight.

    ``payload`` is the protocol message object; ``size`` is its wire size in
    bytes (computed from the byte codec in :mod:`repro.pbft.wire`), which is
    what the bandwidth model charges for.
    """

    src: Address
    dst: Address
    payload: object
    size: int
    kind: str = ""


@dataclass
class TraceRecord:
    """One line of the common-clock message log (paper section 2.2)."""

    time: int
    src: Address
    dst: Address
    kind: str
    size: int
    dropped: bool
    reason: str = ""


@dataclass
class LinkSpec:
    """Latency/bandwidth/loss parameters for one directed host pair.

    Defaults model the paper's testbed: a 1 GbE switch with sub-millisecond
    round trips (the paper reports 134-183 microseconds ping RTT; we use a
    one-way base latency in that neighbourhood) and 938 Mbit/s iperf
    bandwidth.
    """

    latency_ns: int = 70 * MICROSECOND
    jitter_ns: int = 10 * MICROSECOND
    bandwidth_bps: int = 938_000_000
    loss_probability: float = 0.0

    def validate(self) -> None:
        if self.latency_ns < 0 or self.jitter_ns < 0:
            raise ConfigError("link latency and jitter must be non-negative")
        if self.bandwidth_bps <= 0:
            raise ConfigError("link bandwidth must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigError("loss probability must be within [0, 1]")


@dataclass
class NetworkConfig:
    """Fabric-wide defaults plus per-pair overrides."""

    default_link: LinkSpec = field(default_factory=LinkSpec)
    overrides: dict[tuple[str, str], LinkSpec] = field(default_factory=dict)
    # Datagrams above this size are split into MTU-sized fragments for the
    # bandwidth model (loss applies per datagram, as with UDP over Ethernet
    # where any lost fragment loses the datagram).
    mtu: int = 1472

    def link_for(self, src_host: str, dst_host: str) -> LinkSpec:
        return self.overrides.get((src_host, dst_host), self.default_link)


class DropRule:
    """Targeted fault injection: drop packets matching a predicate.

    Section 2.4 of the paper studies what a *single* lost datagram does to
    the middleware; a rule with ``count=1`` reproduces exactly that.
    """

    def __init__(
        self,
        predicate: Callable[[Packet], bool],
        count: Optional[int] = None,
        name: str = "drop-rule",
    ) -> None:
        self.predicate = predicate
        self.remaining = count  # None = unlimited
        self.name = name
        self.matched = 0

    def wants(self, packet: Packet) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if not self.predicate(packet):
            return False
        self.matched += 1
        if self.remaining is not None:
            self.remaining -= 1
        return True


class LinkFault:
    """A windowed link disturbance for fault-injection campaigns.

    While ``active``, every packet whose endpoints match the ``src``/``dst``
    host patterns (``fnmatch`` style, e.g. ``"replica*"``) is subjected to
    probabilistic drop, fixed extra delay, probabilistic duplication, and
    probabilistic reordering (a one-off large delay that pushes the packet
    behind later traffic).  Campaign schedules toggle ``active`` to model
    disturbance windows; counters record what actually happened so
    invariant reports can say which faults bit.
    """

    def __init__(
        self,
        src: str = "*",
        dst: str = "*",
        drop_probability: float = 0.0,
        extra_delay_ns: int = 0,
        duplicate_probability: float = 0.0,
        duplicate_delay_ns: int = 200 * MICROSECOND,
        reorder_probability: float = 0.0,
        reorder_delay_ns: int = 2_000 * MICROSECOND,
        name: str = "link-fault",
    ) -> None:
        for prob in (drop_probability, duplicate_probability, reorder_probability):
            if not 0.0 <= prob <= 1.0:
                raise ConfigError("link fault probabilities must be within [0, 1]")
        if extra_delay_ns < 0 or duplicate_delay_ns < 0 or reorder_delay_ns < 0:
            raise ConfigError("link fault delays must be non-negative")
        self.src = src
        self.dst = dst
        self.drop_probability = drop_probability
        self.extra_delay_ns = extra_delay_ns
        self.duplicate_probability = duplicate_probability
        self.duplicate_delay_ns = duplicate_delay_ns
        self.reorder_probability = reorder_probability
        self.reorder_delay_ns = reorder_delay_ns
        self.name = name
        self.active = True
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self.reordered = 0

    def matches(self, packet: Packet) -> bool:
        if not self.active:
            return False
        return fnmatch(packet.src[0], self.src) and fnmatch(packet.dst[0], self.dst)


class Host:
    """A simulated machine: a clock (with optional skew), one CPU, one NIC.

    The CPU is a serial resource: work submitted via :meth:`execute` runs
    back-to-back, so a flood of incoming messages queues behind crypto work
    exactly as it would on the paper's single-threaded PBFT replica process.
    """

    def __init__(self, fabric: "NetworkFabric", name: str, clock_skew_ns: int = 0) -> None:
        self.fabric = fabric
        self.name = name
        self.clock_skew_ns = clock_skew_ns
        self._cpu_free_at = 0
        self._nic_free_at = 0
        self.cpu_busy_ns = 0  # accumulated, for utilization reporting

    @property
    def sim(self) -> Simulator:
        return self.fabric.sim

    def local_time(self) -> int:
        """This host's wall clock: simulated time plus its skew.

        Replicas use this for request timestamps and non-determinism
        validation (paper section 2.5), so skew matters.
        """
        return self.sim.now + self.clock_skew_ns

    def execute(self, cost_ns: int, work: Callable[[], None]) -> None:
        """Run ``work`` after ``cost_ns`` of CPU time, honouring the queue.

        ``work`` fires when the CPU finishes this job; the CPU is busy from
        ``max(now, cpu_free_at)`` until then.
        """
        if cost_ns < 0:
            raise ConfigError(f"negative CPU cost {cost_ns}")
        start = max(self.sim.now, self._cpu_free_at)
        done = start + cost_ns
        self._cpu_free_at = done
        self.cpu_busy_ns += cost_ns
        self.sim.schedule_anonymous(done, work)

    def charge_cpu(self, cost_ns: int) -> tuple[int, int]:
        """Account CPU time with no completion callback (fire-and-forget cost).

        Returns the ``(start, end)`` interval the work occupies on this
        CPU, so callers can trace where the time actually goes (the start
        is pushed back behind whatever the CPU is already chewing on).
        """
        if cost_ns <= 0:
            at = max(self.sim.now, self._cpu_free_at)
            return (at, at)
        start = max(self.sim.now, self._cpu_free_at)
        self._cpu_free_at = start + cost_ns
        self.cpu_busy_ns += cost_ns
        return (start, self._cpu_free_at)

    def _reserve_nic(self, tx_ns: int) -> int:
        """Reserve the NIC for ``tx_ns``; return the time serialization ends."""
        start = max(self.sim.now, self._nic_free_at)
        done = start + tx_ns
        self._nic_free_at = done
        return done


class DatagramSocket:
    """An unreliable datagram endpoint bound to (host, port).

    Mirrors the PBFT implementation's use of UDP: no connection, no
    delivery guarantee, no ordering guarantee.
    """

    def __init__(self, host: Host, port: int) -> None:
        self.host = host
        self.port = port
        self.handler: Optional[Callable[[Packet], None]] = None
        self.closed = False
        self.received = 0
        self.sent = 0

    @property
    def address(self) -> Address:
        return (self.host.name, self.port)

    def on_receive(self, handler: Callable[[Packet], None]) -> None:
        self.handler = handler

    def send(self, dst: Address, payload: object, size: int, kind: str = "") -> None:
        """Send one datagram. May be silently lost; never raises for loss."""
        if self.closed:
            raise NetworkError(f"socket {self.address} is closed")
        self.sent += 1
        packet = Packet(src=self.address, dst=dst, payload=payload, size=size, kind=kind)
        self.host.fabric.transmit(packet)

    def multicast(
        self, dsts: list[Address], payload: object, size: int, kind: str = ""
    ) -> None:
        """Send the same datagram to each destination (serial unicasts).

        The paper disables IP multicast in all experiments ("the networks we
        are targeting (WANs) do not support it"), so a multicast is n
        unicasts sharing the sender's NIC — the cost that makes the primary
        the bottleneck when it must forward full request bodies.
        """
        for dst in dsts:
            self.send(dst, payload, size, kind)

    def close(self) -> None:
        self.closed = True
        self.host.fabric.unbind(self.address)


class NetworkFabric:
    """The switched network connecting all hosts."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngStreams,
        config: Optional[NetworkConfig] = None,
        trace_enabled: bool = False,
        trace_limit: int = 200_000,
        tracer=None,
    ) -> None:
        self.sim = sim
        self.rng = rng.stream("net.loss")
        self.jitter_rng = rng.stream("net.jitter")
        # Link faults draw from their own stream so installing a campaign
        # cannot perturb the loss/jitter sequences of an un-faulted run.
        self.fault_rng = rng.stream("net.faults")
        self.config = config or NetworkConfig()
        self.config.default_link.validate()
        self.hosts: dict[str, Host] = {}
        self.sockets: dict[Address, DatagramSocket] = {}
        self.drop_rules: list[DropRule] = []
        self.link_faults: list[LinkFault] = []
        self.trace_enabled = trace_enabled
        self.trace_limit = trace_limit
        self.trace: list[TraceRecord] = []
        # The structured tracer generalizes the TraceRecord list: packets
        # become flight spans / drop instants on the "net" track of the
        # common-clock trace (repro.obs), alongside protocol phases.
        self.tracer = tracer
        self.packets_sent = 0
        self.packets_dropped = 0
        self.bytes_sent = 0
        self.partitions: set[frozenset[str]] = set()
        # Hot-path memos.  Routes — the (Host, link) pair for a (src, dst)
        # host pair — and serialization times are pure functions of
        # topology, which is fixed at build time (hosts are only added,
        # link overrides only set at construction), so the memos can never
        # go stale mid-run.
        self._route_memo: dict[tuple[str, str], tuple[Host, LinkSpec]] = {}
        self._txtime_memo: dict[tuple[int, int, int], int] = {}

    # -- topology -----------------------------------------------------------

    def add_host(self, name: str, clock_skew_ns: int = 0) -> Host:
        if name in self.hosts:
            raise ConfigError(f"duplicate host name {name!r}")
        host = Host(self, name, clock_skew_ns)
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}") from None

    def bind(self, host_name: str, port: int) -> DatagramSocket:
        host = self.host(host_name)
        addr = (host_name, port)
        if addr in self.sockets:
            raise NetworkError(f"address {addr} already bound")
        sock = DatagramSocket(host, port)
        self.sockets[addr] = sock
        return sock

    def unbind(self, addr: Address) -> None:
        self.sockets.pop(addr, None)

    # -- fault injection ----------------------------------------------------

    def add_drop_rule(self, rule: DropRule) -> DropRule:
        self.drop_rules.append(rule)
        return rule

    def add_link_fault(self, fault: LinkFault) -> LinkFault:
        self.link_faults.append(fault)
        return fault

    def remove_link_fault(self, fault: LinkFault) -> None:
        fault.active = False
        if fault in self.link_faults:
            self.link_faults.remove(fault)

    def partition(self, group_a: set[str], group_b: set[str]) -> None:
        """Disconnect every (a, b) host pair in both directions."""
        for a in group_a:
            for b in group_b:
                self.partitions.add(frozenset((a, b)))

    def unpartition(self, group_a: set[str], group_b: set[str]) -> None:
        """Heal exactly the (a, b) pairs cut by a matching :meth:`partition`.

        Unlike :meth:`heal_partition` this leaves other concurrent
        partitions in place, so overlapping fault windows heal
        independently.
        """
        for a in group_a:
            for b in group_b:
                self.partitions.discard(frozenset((a, b)))

    def heal_partition(self) -> None:
        self.partitions.clear()

    # -- transmission -------------------------------------------------------

    def transmit(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        route_key = (packet.src[0], packet.dst[0])
        route = self._route_memo.get(route_key)
        if route is None:
            route = self._route_memo[route_key] = (
                self.host(packet.src[0]),
                self.config.link_for(packet.src[0], packet.dst[0]),
            )
        src_host, link = route
        if not (
            self.partitions
            or self.drop_rules
            or self.link_faults
            or link.loss_probability > 0.0
            or self.trace_enabled
        ):
            # Fault-free fast path: with no drop source active the
            # packet provably survives and no RNG draws are owed, so
            # the drop/fault machinery is skipped entirely.  Memoized
            # serialization time, same arrival as the general path.
            tx_key = (packet.size, link.bandwidth_bps, self.config.mtu)
            tx_ns = self._txtime_memo.get(tx_key)
            if tx_ns is None:
                tx_ns = self._tx_time(packet.size, link)
                self._txtime_memo[tx_key] = tx_ns
            serialized_at = src_host._reserve_nic(tx_ns)
            jitter = self.jitter_rng.randrange(link.jitter_ns + 1) if link.jitter_ns else 0
            arrival = serialized_at + link.latency_ns + jitter
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                self._trace_packet(packet, self.sim.now, arrival, "")
            self.sim.schedule_anonymous(arrival, lambda p=packet: self._deliver(p))
            return

        dropped, reason = self._drop_decision(packet, link)
        if self.trace_enabled and len(self.trace) < self.trace_limit:
            self.trace.append(
                TraceRecord(
                    time=self.sim.now,
                    src=packet.src,
                    dst=packet.dst,
                    kind=packet.kind,
                    size=packet.size,
                    dropped=dropped,
                    reason=reason,
                )
            )
        # The sender's NIC serializes the bytes whether or not the network
        # later drops them.
        tx_ns = self._tx_time(packet.size, link)
        serialized_at = src_host._reserve_nic(tx_ns)
        if dropped:
            self.packets_dropped += 1
            self._trace_packet(packet, self.sim.now, None, reason)
            return
        jitter = self.jitter_rng.randrange(link.jitter_ns + 1) if link.jitter_ns else 0
        arrival = serialized_at + link.latency_ns + jitter
        arrival = self._apply_link_faults(packet, arrival)
        self._trace_packet(packet, self.sim.now, arrival, "")
        self.sim.schedule_anonymous(arrival, lambda p=packet: self._deliver(p))

    def _apply_link_faults(self, packet: Packet, arrival: int) -> int:
        """Delay/duplicate/reorder a surviving packet per active faults.

        Drops were already decided in :meth:`_drop_decision` (so they share
        the normal trace/accounting path); what remains here only ever
        *adds* copies or delay.
        """
        for fault in self.link_faults:
            if not fault.matches(packet):
                continue
            if fault.extra_delay_ns:
                fault.delayed += 1
                arrival += fault.extra_delay_ns
            if (
                fault.reorder_probability
                and self.fault_rng.random() < fault.reorder_probability
            ):
                # A one-off large delay: the packet lands behind traffic
                # sent after it, which is what reordering looks like to UDP.
                fault.reordered += 1
                arrival += fault.reorder_delay_ns
            if (
                fault.duplicate_probability
                and self.fault_rng.random() < fault.duplicate_probability
            ):
                fault.duplicated += 1
                dup_at = arrival + fault.duplicate_delay_ns
                self.sim.schedule_anonymous(dup_at, lambda p=packet: self._deliver(p))
        return arrival

    def _trace_packet(
        self, packet: Packet, sent_at: int, arrival: Optional[int], reason: str
    ) -> None:
        """Structured-trace one datagram: a flight span, or a drop tick."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        args = {
            "src": f"{packet.src[0]}:{packet.src[1]}",
            "dst": f"{packet.dst[0]}:{packet.dst[1]}",
            "size": packet.size,
        }
        name = packet.kind or "datagram"
        if arrival is None:
            args["reason"] = reason
            tracer.event("net", name + " DROPPED", cat="net.drop", args=args)
        else:
            tracer.complete("net", name, sent_at, arrival, cat="net", args=args)

    def _tx_time(self, size: int, link: LinkSpec) -> int:
        # Ethernet/IP/UDP framing overhead per MTU-sized fragment.
        fragments = max(1, -(-size // self.config.mtu))
        wire_bytes = size + fragments * 46
        return (wire_bytes * 8 * SECOND) // link.bandwidth_bps

    def _drop_decision(self, packet: Packet, link: LinkSpec) -> tuple[bool, str]:
        if frozenset((packet.src[0], packet.dst[0])) in self.partitions:
            return True, "partition"
        for rule in self.drop_rules:
            if rule.wants(packet):
                return True, rule.name
        for fault in self.link_faults:
            if (
                fault.drop_probability
                and fault.matches(packet)
                and self.fault_rng.random() < fault.drop_probability
            ):
                fault.dropped += 1
                return True, fault.name
        if link.loss_probability > 0.0 and self.rng.random() < link.loss_probability:
            return True, "random-loss"
        return False, ""

    def _deliver(self, packet: Packet) -> None:
        sock = self.sockets.get(packet.dst)
        if sock is None or sock.closed or sock.handler is None:
            # UDP: datagrams to unbound ports vanish (the restarted-replica
            # window in the recovery experiments relies on this).
            return
        sock.received += 1
        sock.handler(packet)

    # -- introspection ------------------------------------------------------

    def collect_metrics(self, registry, prefix: str = "net.") -> None:
        """Publish fabric and per-host counters into a metrics registry."""
        registry.gauge(prefix + "packets_sent").set(self.packets_sent)
        registry.gauge(prefix + "packets_dropped").set(self.packets_dropped)
        registry.gauge(prefix + "bytes_sent").set(self.bytes_sent)
        for name, host in self.hosts.items():
            registry.gauge(f"host.{name}.cpu_busy_ns").set(host.cpu_busy_ns)

    def trace_lines(self) -> list[str]:
        """Human-readable trace, one line per packet (paper section 2.2)."""
        lines = []
        for rec in self.trace:
            flag = f" DROPPED({rec.reason})" if rec.dropped else ""
            lines.append(
                f"{rec.time:>12d}ns {rec.src[0]}:{rec.src[1]} -> "
                f"{rec.dst[0]}:{rec.dst[1]} {rec.kind} {rec.size}B{flag}"
            )
        return lines
