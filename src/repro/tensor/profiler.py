"""Op-level profiler (the PyTorch-Profiler / TensorBoard stand-in).

The profiler collects one event per executed op: name, wall time, bytes read
and written, and the device the op ran on.  Downstream consumers:

* ``repro.viz.breakdown`` renders the Figure-2 per-operator runtime breakdown,
* ``repro.backends.gpu_sim`` / ``wasm_sim`` feed the events into their cost
  models to produce simulated device times,
* :meth:`Profiler.to_chrome_trace` writes a ``chrome://tracing`` compatible
  JSON file (what TensorBoard's trace viewer consumes).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Iterable

from repro.tensor.device import Device

# Profiler/lane activation is **execution-scoped**: each thread has its own
# activation stacks, so concurrent executions on a serving worker pool never
# see each other's profilers, and a profiler is active exactly where it was
# entered.  Code that hands an execution to another thread ships the caller's
# activation along with it via :func:`capture_scope` — without that, ops
# dispatched on the worker thread would find no active profiler and their
# events would be silently dropped (wrong simulated kernel times, missing
# lane events).
_STATE = threading.local()


def current_profiler() -> "Profiler | None":
    stack = getattr(_STATE, "stack", None)
    if not stack:
        return None
    return stack[-1]


def capture_scope() -> "ProfileScope":
    """Snapshot the calling thread's profiler/lane activation.

    The returned :class:`ProfileScope` is a context manager that re-activates
    the captured profilers on whatever thread enters it.  A serving runtime
    captures the scope at request admission and enters it on the worker
    thread around the execution, so profiled results are identical whether a
    query runs on the caller thread or a pool thread.
    """
    return ProfileScope(list(getattr(_STATE, "stack", None) or ()),
                        list(getattr(_STATE, "lanes", None) or ()),
                        list(getattr(_STATE, "shards", None) or ()))


class ProfileScope:
    """A captured profiler/lane activation, re-enterable on any thread.

    Entering pushes the captured profilers onto the *current* thread's
    activation stack (recording itself is thread-safe, see
    :meth:`Profiler.record`); exiting restores the thread's previous state.
    Re-entrant and usable from several threads at once.
    """

    def __init__(self, stack: "list[Profiler]", lanes: "list[int]",
                 shards: "list[int] | None" = None):
        self._stack = stack
        self._lanes = lanes
        self._shards = shards or []

    @property
    def is_empty(self) -> bool:
        """True when no profiler was active at capture time."""
        return not self._stack and not self._lanes and not self._shards

    def __enter__(self) -> "ProfileScope":
        saved = (getattr(_STATE, "stack", None) or [],
                 getattr(_STATE, "lanes", None) or [],
                 getattr(_STATE, "shards", None) or [])
        if not hasattr(_STATE, "saved"):
            _STATE.saved = []
        _STATE.saved.append(saved)
        _STATE.stack = saved[0] + self._stack
        _STATE.lanes = saved[1] + self._lanes
        _STATE.shards = saved[2] + self._shards
        return self

    def __exit__(self, *exc_info) -> None:
        saved = _STATE.saved.pop() if getattr(_STATE, "saved", None) \
            else ([], [], [])
        _STATE.stack, _STATE.lanes, _STATE.shards = saved


# -- worker-lane annotation ---------------------------------------------------
#
# Operators under a ``lanes`` partitioning (``repro.core.operators.partition``)
# execute one morsel at a time on a simulated worker lane.  While a lane is
# active every recorded op event carries its lane id, and every traced graph
# node is stamped with a ``lane`` attribute — which is how the device cost
# models reconstruct per-worker timelines from a single-threaded run, on both
# the eager and the traced (graph-replay) backends.


def current_lane() -> "int | None":
    """The active worker lane id, or ``None`` outside any parallel region."""
    lanes = getattr(_STATE, "lanes", None)
    if not lanes:
        return None
    return lanes[-1]


class lane_scope:
    """Context manager marking ops executed inside it as worker-lane work."""

    def __init__(self, lane: int):
        self.lane = lane

    def __enter__(self) -> "lane_scope":
        lanes = getattr(_STATE, "lanes", None)
        if lanes is None:
            lanes = []
            _STATE.lanes = lanes
        lanes.append(self.lane)
        return self

    def __exit__(self, *exc_info) -> None:
        lanes = getattr(_STATE, "lanes", [])
        if lanes:
            lanes.pop()


# -- device-shard annotation --------------------------------------------------
#
# Operators under a ``shards`` partitioning execute one table shard at a time
# on a simulated device.  While a shard scope is active every recorded
# op event carries its shard id and every traced graph node is stamped with a
# ``shard`` attribute — the per-device analogue of worker lanes: the cost
# models reconstruct per-device timelines (and charge interconnect transfers
# between them) from a single-threaded run.


def current_shard() -> "int | None":
    """The active device-shard id, or ``None`` outside any sharded region."""
    shards = getattr(_STATE, "shards", None)
    if not shards:
        return None
    return shards[-1]


class shard_scope:
    """Context manager marking ops executed inside it as per-shard work."""

    def __init__(self, shard: int):
        self.shard = shard

    def __enter__(self) -> "shard_scope":
        shards = getattr(_STATE, "shards", None)
        if shards is None:
            shards = []
            _STATE.shards = shards
        shards.append(self.shard)
        return self

    def __exit__(self, *exc_info) -> None:
        shards = getattr(_STATE, "shards", [])
        if shards:
            shards.pop()


@dataclasses.dataclass
class OpEvent:
    """One executed op."""

    op: str
    elapsed_s: float
    input_bytes: int
    output_bytes: int
    device: str
    timestamp_s: float
    scope: str = ""
    #: Simulated worker lane the op ran on (``None`` = serial region).
    lane: "int | None" = None
    #: Simulated device shard the op ran on (``None`` = host/unsharded).
    shard: "int | None" = None

    @property
    def total_bytes(self) -> int:
        return self.input_bytes + self.output_bytes


@dataclasses.dataclass
class OpSummary:
    """Aggregated statistics for one op name (or one scope)."""

    key: str
    calls: int = 0
    total_s: float = 0.0
    total_bytes: int = 0

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0


class Profiler:
    """Collects :class:`OpEvent` records while active as a context manager."""

    def __init__(self, name: str = "profile"):
        self.name = name
        self.events: list[OpEvent] = []
        self._scopes: list[str] = []
        self._start = time.perf_counter()
        # Appends are guarded so a profiler propagated to worker threads (see
        # :func:`capture_scope`) collects every event instead of losing some
        # to a torn list append.
        self._record_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record(self, op: str, elapsed_s: float, input_bytes: int,
               output_bytes: int, device: Device) -> None:
        event = OpEvent(
            op=op,
            elapsed_s=elapsed_s,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
            device=str(device),
            timestamp_s=time.perf_counter() - self._start,
            scope=self._scopes[-1] if self._scopes else "",
            lane=current_lane(),
            shard=current_shard(),
        )
        with self._record_lock:
            self.events.append(event)

    def push_scope(self, scope: str) -> None:
        """Enter a named scope (used to attribute ops to relational operators)."""
        self._scopes.append(scope)

    def pop_scope(self) -> None:
        if self._scopes:
            self._scopes.pop()

    class _ScopeGuard:
        def __init__(self, profiler: "Profiler", scope: str):
            self._profiler = profiler
            self._scope = scope

        def __enter__(self):
            self._profiler.push_scope(self._scope)
            return self

        def __exit__(self, *exc_info):
            self._profiler.pop_scope()

    def scope(self, name: str) -> "_ScopeGuard":
        return Profiler._ScopeGuard(self, name)

    # -- aggregation ---------------------------------------------------------

    def by_op(self) -> list[OpSummary]:
        """Aggregate events per op name, sorted by total time descending."""
        return self._aggregate(lambda e: e.op)

    def by_scope(self) -> list[OpSummary]:
        """Aggregate events per scope (relational operator), sorted by time."""
        return self._aggregate(lambda e: e.scope or "<unscoped>")

    def _aggregate(self, key_fn) -> list[OpSummary]:
        summaries: dict[str, OpSummary] = {}
        for event in self.events:
            key = key_fn(event)
            summary = summaries.setdefault(key, OpSummary(key))
            summary.calls += 1
            summary.total_s += event.elapsed_s
            summary.total_bytes += event.total_bytes
        return sorted(summaries.values(), key=lambda s: s.total_s, reverse=True)

    def total_time_s(self) -> float:
        return sum(e.elapsed_s for e in self.events)

    def total_bytes(self) -> int:
        return sum(e.total_bytes for e in self.events)

    def partition(self, transfer_ops: "set[str] | frozenset[str]"
                  ) -> tuple[list[OpEvent], list[OpEvent]]:
        """Split events into ``(transfer_events, kernel_events)``.

        Device cost models use this to charge host<->device copies against
        interconnect bandwidth and everything else as kernel launches.  With
        kernel fusion active, each ``fused_kernel`` event counts as a single
        launch — the property that makes launch-overhead accounting physical.
        """
        transfers: list[OpEvent] = []
        kernels: list[OpEvent] = []
        for event in self.events:
            (transfers if event.op in transfer_ops else kernels).append(event)
        return transfers, kernels

    # -- export --------------------------------------------------------------

    def to_chrome_trace(self) -> list[dict]:
        """Events in Chrome Trace Event format (complete events, microseconds)."""
        trace = []
        for event in self.events:
            trace.append({
                "name": event.op,
                "cat": event.scope or "op",
                "ph": "X",
                "ts": event.timestamp_s * 1e6,
                "dur": event.elapsed_s * 1e6,
                "pid": 0,
                "tid": 0 if event.device == "cpu" else 1,
                "args": {
                    "device": event.device,
                    "input_bytes": event.input_bytes,
                    "output_bytes": event.output_bytes,
                },
            })
        return trace

    def save_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": self.to_chrome_trace()}, f)

    # -- context management ----------------------------------------------

    def __enter__(self) -> "Profiler":
        stack = getattr(_STATE, "stack", None)
        if stack is None:
            stack = []
            _STATE.stack = stack
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        # Remove this profiler from the current thread's activation stack
        # wherever it sits: an unbalanced inner enter/exit (or an exception
        # unwinding through several activations) must never leave a dead
        # profiler active on a long-lived serving worker thread.
        stack = getattr(_STATE, "stack", [])
        for index in range(len(stack) - 1, -1, -1):
            if stack[index] is self:
                del stack[index]
                break


def merge_profiles(profiles: Iterable[Profiler], name: str = "merged") -> Profiler:
    """Combine several profiles into one (used by multi-run benchmarks)."""
    merged = Profiler(name)
    for profile in profiles:
        merged.events.extend(profile.events)
    return merged
