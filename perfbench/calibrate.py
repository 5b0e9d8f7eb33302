"""Host-speed calibration for the benchmark's wall-clock metrics.

On a shared virtual machine the interpreter's speed can change by half
within tens of seconds (co-tenants, frequency scaling), which swamps any
code change worth measuring: on a 2-vCPU VM, raw simulated ops per wall
second of ten identical null-mac reps had an interquartile range of 30%
of their median, and 4% once calibrated.  So every measured stretch of
wall time is bracketed by runs of :func:`kernel`, a fixed pure-Python
workload with the simulator's operation mix — a heap-ordered event loop
over small slotted objects, dict counters, struct packing and a
truncated HMAC on every eighth event — and is rescaled to what it would
have taken on a host where the kernel takes ``REFERENCE_KERNEL_S``::

    calibrated = measured * REFERENCE_KERNEL_S / kernel_seconds_beside_it

The kernel shares no code with the program under test, so a slowdown in
the program still shows; only the host's speed is divided out.
"""

from __future__ import annotations

import hashlib
import heapq
import hmac
import struct
import time

# Kernel time on the reference host; any fixed value works, it only sets
# the unit.  Never change it: calibrated results from different commits
# are compared against each other.
REFERENCE_KERNEL_S = 0.004

_PACK = struct.Struct(">QQI")
_KEY = b"calibration-key!"


class _Event:
    __slots__ = ("when", "seq", "kind", "payload")

    def __init__(self, when: int, seq: int, kind: int, payload) -> None:
        self.when = when
        self.seq = seq
        self.kind = kind
        self.payload = payload


def kernel(events: int = 1500) -> int:
    """The fixed calibration workload; returns a checksum-like count."""
    queue: list = []
    seen: dict[int, int] = {}
    tags: list[bytes] = []

    def handle(event: _Event) -> bytes:
        count = seen.get(event.kind, 0) + 1
        seen[event.kind] = count
        data = _PACK.pack(event.when, event.seq, count)
        if event.seq % 8 == 0:
            tags.append(hmac.new(_KEY, data, hashlib.md5).digest()[:4])
        return data

    seq = 0
    for i in range(64):
        heapq.heappush(queue, (i, seq, _Event(i, seq, i % 7, None)))
        seq += 1
    for _ in range(events):
        when, _seq, event = heapq.heappop(queue)
        data = handle(event)
        nxt = _Event(when + (event.seq * 2654435761) % 97 + 1, seq, (event.kind + 1) % 7, data)
        heapq.heappush(queue, (nxt.when, seq, nxt))
        seq += 1
    return len(tags)


def kernel_seconds() -> float:
    """Wall seconds one kernel run takes on this host right now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


class CalibratedClock:
    """Accumulates wall time, raw and rescaled to the reference host.

    Call :meth:`mark` before the first timed stretch; each :meth:`add`
    then scales its stretch by the mean of the kernel times measured just
    before and just after it.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self._before = 0.0

    def mark(self) -> None:
        self._before = kernel_seconds()

    def add(self, seconds: float) -> None:
        after = kernel_seconds()
        self.raw_s += seconds
        self.calibrated_s += seconds * REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after

    @property
    def factor(self) -> float:
        """Calibrated over raw: below 1 on a host faster than the reference."""
        return self.calibrated_s / self.raw_s if self.raw_s else 1.0
