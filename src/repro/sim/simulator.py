"""The event-queue simulator and cancellable timers."""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.common.errors import ConfigError


class Timer:
    """A handle to a scheduled event that can be cancelled or rescheduled.

    PBFT replicas and clients use many timers (request retransmission,
    view-change, checkpoint, authenticator rebroadcast).  Cancellation is
    lazy: a cancelled timer stays in the heap but its callback is skipped.
    """

    __slots__ = ("deadline", "callback", "cancelled", "fired")

    def __init__(self, deadline: int, callback: Callable[[], None]) -> None:
        self.deadline = deadline
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the timer's callback from running."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the timer is armed and has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired


class Simulator:
    """A deterministic discrete-event simulator.

    Events scheduled for the same instant run in scheduling order (a
    monotonically increasing tiebreak sequence guarantees heap stability),
    which keeps runs bit-for-bit reproducible.
    """

    def __init__(self) -> None:
        self._now: int = 0
        self._queue: list[tuple[int, int, Timer]] = []
        self._seq: int = 0
        self._events_run: int = 0
        self._events_cancelled: int = 0
        self._max_queue_len: int = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Total number of event callbacks executed so far."""
        return self._events_run

    @property
    def events_scheduled(self) -> int:
        """Total number of events ever scheduled."""
        return self._seq

    @property
    def events_cancelled(self) -> int:
        """Events popped after cancellation (scheduled but never run)."""
        return self._events_cancelled

    @property
    def max_queue_len(self) -> int:
        """High-water mark of the event queue."""
        return self._max_queue_len

    @property
    def pending_events(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._queue)

    def collect_metrics(self, registry, prefix: str = "sim.") -> None:
        """Publish event-loop counters into a metrics registry."""
        registry.gauge(prefix + "now_ns").set(self._now)
        registry.gauge(prefix + "events_run").set(self._events_run)
        registry.gauge(prefix + "events_scheduled").set(self._seq)
        registry.gauge(prefix + "events_cancelled").set(self._events_cancelled)
        registry.gauge(prefix + "pending_events").set(len(self._queue))
        registry.gauge(prefix + "max_queue_len").set(self._max_queue_len)

    def schedule(self, delay: int, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run ``delay`` nanoseconds from now."""
        if delay < 0:
            raise ConfigError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, when: int, callback: Callable[[], None]) -> Timer:
        """Schedule ``callback`` to run at absolute time ``when``."""
        if when < self._now:
            raise ConfigError(
                f"cannot schedule at t={when} which is before now={self._now}"
            )
        timer = Timer(when, callback)
        heapq.heappush(self._queue, (when, self._seq, timer))
        self._seq += 1
        if len(self._queue) > self._max_queue_len:
            self._max_queue_len = len(self._queue)
        return timer

    def schedule_anonymous(self, when: int, callback: Callable[[], None]) -> None:
        """Schedule a fire-and-forget event with no cancellation handle.

        The hot path (packet delivery, CPU-queue completions) schedules an
        event per datagram and never cancels it, so the :class:`Timer`
        handle is pure overhead there; this queues the bare callable under
        the same ``(when, seq)`` ordering key, making the event sequence
        identical to :meth:`schedule_at`'s.
        """
        if when < self._now:
            raise ConfigError(
                f"cannot schedule at t={when} which is before now={self._now}"
            )
        heapq.heappush(self._queue, (when, self._seq, callback))
        self._seq += 1
        if len(self._queue) > self._max_queue_len:
            self._max_queue_len = len(self._queue)

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains (or ``max_events`` callbacks ran)."""
        budget = max_events if max_events is not None else float("inf")
        while self._queue and budget > 0:
            self._pop_and_run()
            budget -= 1

    def run_until(self, deadline: int) -> None:
        """Run all events with time <= ``deadline``; advance the clock to it.

        Events scheduled beyond the deadline stay queued, so a later
        ``run_until`` continues seamlessly.
        """
        while self._queue and self._queue[0][0] <= deadline:
            self._pop_and_run()
        if deadline > self._now:
            self._now = deadline

    def run_for(self, duration: int) -> None:
        """Run for ``duration`` nanoseconds of simulated time."""
        self.run_until(self._now + duration)

    def _pop_and_run(self) -> None:
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        if event.__class__ is Timer:
            if event.cancelled:
                self._events_cancelled += 1
                return
            event.fired = True
            self._events_run += 1
            event.callback()
        else:
            # A bare callable from schedule_anonymous: nothing to cancel.
            self._events_run += 1
            event()
