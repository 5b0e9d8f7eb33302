"""Per-layer attribution for the traced run.

Before the traced deployment is built, :class:`SpanRecorder` wraps the
public entry points of each module (``ENTRY_POINTS``) with a timing
wrapper.  While recording, every call becomes a span — name, wall start,
wall end, and the enclosing span as its parent, by call stack.  Spans
stay in memory; :meth:`SpanRecorder.write` dumps them when the run ends.
A span's self time is its duration minus the time its child spans cover,
and a layer's self time is the sum over its spans, so nested calls into
the same or another layer are never counted twice.

Only the traced run pays for the wrappers; the end-to-end numbers come
from untraced reps, and the difference is ``trace.overhead_ratio``.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from array import array
from typing import Callable, Optional

# (layer, module, attribute path) of every timed entry point.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("sim", "repro.sim.simulator", "Simulator.run_until"),
    ("net", "repro.net.fabric", "NetworkFabric.transmit"),
    ("crypto", "repro.crypto.authenticators", "MacCache.tag"),
    ("crypto", "repro.crypto.authenticators", "MacCache.verify"),
    ("crypto", "repro.crypto.authenticators", "MacCache.authenticator"),
    ("crypto", "repro.crypto.rabin", "rabin_sign"),
    ("crypto", "repro.crypto.rabin", "rabin_verify"),
    ("pbft", "repro.pbft.replica", "Replica.dispatch"),
    ("pbft", "repro.pbft.client", "PbftClient.dispatch"),
    ("statemgr", "repro.statemgr.pages", "PagedState.modify"),
    ("statemgr", "repro.statemgr.pages", "PagedState.write"),
    ("statemgr", "repro.statemgr.pages", "PagedState.refresh_tree"),
    ("sqlstate", "repro.sqlstate.engine", "Database.execute"),
    ("shard", "repro.shard.router", "ShardRouter.invoke"),
    ("shard", "repro.shard.router", "ShardRouter.invoke_txn"),
    ("workload", "repro.harness.workload", "ZipfianPicker.pick"),
    ("workload", "repro.harness.workload", "PoissonTiming.delay"),
)

# Modules that imported a wrapped function by name, and so hold their
# own reference to it.
ALIASES: dict[str, tuple[str, ...]] = {
    "rabin_sign": ("repro.pbft.node",),
    "rabin_verify": ("repro.pbft.node",),
}

# Call counts without timing: (module, attribute path, counter name).
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("repro.pbft.wire", "Encoder.finish", "encodes"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _m, _a in ENTRY_POINTS))


def _pages_notified(args, _kwargs) -> int:
    """Pages a ``PagedState.modify(offset, length)`` call notifies."""
    state, offset, length = args[:3]
    if length <= 0:
        return 0
    size = state.page_size
    return (offset + length - 1) // size - offset // size + 1


class SpanRecorder:
    """Timing wrappers around the layer entry points, and their spans."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.layer_of: list[str] = []
        # Millions of spans per traced rep: packed arrays, not int lists.
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.counts: dict[str, int] = {}
        self.recording = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name_id: int, fn, tally: Optional[Callable] = None):
        stack = self._stack
        names, starts, ends, parents = (
            self.span_name, self.span_start, self.span_end, self.span_parent
        )
        clock = self.clock
        counts = self.counts
        counter = self.names[name_id]

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if tally is not None:
                counts[counter] = counts.get(counter, 0) + tally(args, kwargs)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, counter: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.recording:
                counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module: str, path: str, make: Callable) -> None:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else getattr(owner, attr)
        wrapped = make(original)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original, had_own))
        for alias in ALIASES.get(path, ()):
            alias_module = importlib.import_module(alias)
            if getattr(alias_module, attr) is original:
                setattr(alias_module, attr, wrapped)
                self._patches.append((alias_module, attr, original, True))

    def install(self) -> None:
        """Wrap every entry point; call before building the deployment."""
        for layer, module, path in ENTRY_POINTS:
            name_id = len(self.names)
            self.names.append(path)
            self.layer_of.append(layer)
            tally = _pages_notified if path == "PagedState.modify" else None
            self._patch(module, path,
                        lambda fn, i=name_id, t=tally: self._span_wrapper(i, fn, t))
        for module, path, counter in COUNTED:
            self._patch(module, path, lambda fn, c=counter: self._count_wrapper(c, fn))

    def uninstall(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def calls(self, path: str) -> int:
        name_id = self.names.index(path)
        return sum(1 for n in self.span_name if n == name_id)

    def span_self_ns(self) -> list[int]:
        """Self time of every span: its duration minus its children's."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        own = list(durations)
        for index, parent in enumerate(self.span_parent):
            if parent >= 0:
                own[parent] -= durations[index]
        return own

    def self_ns_by_layer(self) -> dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for name_id, own in zip(self.span_name, self.span_self_ns()):
            totals[self.layer_of[name_id]] += own
        return totals

    def inclusive_ns(self, path: str) -> int:
        name_id = self.names.index(path)
        return sum(
            e - s
            for n, s, e in zip(self.span_name, self.span_start, self.span_end)
            if n == name_id
        )

    def write(self, path: str) -> None:
        """Gzipped JSON lines: a header naming the spans and their layers,
        then one line per span: name index, start ns, end ns, parent span
        index (-1 for a root)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "layers": self.layer_of}) + "\n")
            fh.writelines(
                f"[{n}, {s}, {e}, {p}]\n"
                for n, s, e, p in zip(self.span_name, self.span_start,
                                      self.span_end, self.span_parent)
            )
