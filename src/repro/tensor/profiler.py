"""Op-level profiler (the PyTorch-Profiler / TensorBoard stand-in).

The profiler collects one event per executed op: name, wall time, bytes read
and written, the device the op ran on, and *where in the plan* it ran — the
:class:`Stamp` of relational operator and device shard that was active.
Downstream consumers:

* ``repro.viz.breakdown`` renders the Figure-2 per-operator runtime breakdown,
* ``repro.backends.gpu_sim`` / ``wasm_sim`` feed the events into their cost
  models to produce simulated device times,
* :meth:`Profiler.to_chrome_trace` writes a ``chrome://tracing`` compatible
  JSON file (what TensorBoard's trace viewer consumes).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
import time
from typing import Iterable, Iterator, NamedTuple

from repro.tensor.device import Device

# -- where an op ran ----------------------------------------------------------
#
# One annotation, two fields.  ``scope`` names the relational operator — its
# plan-unique scope, ``label#id`` (what Figure 2 breaks runtime down by, and
# what the plan's ``lanes`` map keys the cost models' lanes widths by);
# ``shard`` is the simulated device a partition runs on
# (``repro.core.operators.partition``), from which the cost models reconstruct
# concurrent timelines out of a single-threaded run.  The stamp is pushed
# whether or not anything profiles:
# :meth:`Profiler.record` reads it for eager events, ``ops._record_trace``
# writes it onto every traced node, and both replay executors hand it back, so
# a profile says the same thing on every backend.


class Stamp(NamedTuple):
    """Where an op ran.  The defaults mean: no operator, on the host."""

    scope: str = ""
    shard: "int | None" = None

    def as_attrs(self) -> dict:
        """The set fields, as the attributes a traced node carries them in."""
        return {name: value for name, value in zip(self._fields, self)
                if value not in ("", None)}

    @classmethod
    def of(cls, attrs: dict) -> "Stamp":
        """The stamp a traced node carries (unset where it carries none)."""
        return cls(attrs.get("scope", ""), attrs.get("shard"))


_NOWHERE = Stamp()


class _ThreadState(threading.local):
    """Activation is **execution-scoped**: each thread has its own stack of
    active profilers and its own stack of stamps, so concurrent executions on
    a serving worker pool never see each other's, and a profiler is active
    exactly where it was entered.  Code that hands an execution to another
    thread ships the caller's activation along with it via
    :func:`capture_scope` — without that, ops dispatched on the worker thread
    would find no active profiler and their events would be silently dropped
    (wrong simulated kernel times, missing per-operator events)."""

    def __init__(self):
        self.stack: "list[Profiler]" = []
        self.stamps = [_NOWHERE]


_STATE = _ThreadState()


def current_profiler() -> "Profiler | None":
    stack = _STATE.stack
    return stack[-1] if stack else None


def current_stamp() -> Stamp:
    """The calling thread's innermost :class:`stamped` frame."""
    return _STATE.stamps[-1]


class stamped:
    """Context manager: ops inside run under these fields.  A scope or shard
    left unset keeps the value of the frame below."""

    def __init__(self, scope: str = "", shard: "int | None" = None):
        self._given = (scope, shard)

    def __enter__(self) -> "stamped":
        stamps = _STATE.stamps
        below = stamps[-1]
        scope, shard = self._given
        stamps.append(Stamp(scope or below.scope,
                            below.shard if shard is None else shard))
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.stamps.pop()


@contextlib.contextmanager
def unprofiled() -> Iterator[None]:
    """Ops inside record no events on the calling thread's profilers: work
    that belongs to no query (load-time shard placement) stays out of every
    profile."""
    saved, _STATE.stack = _STATE.stack, []
    try:
        yield
    finally:
        _STATE.stack = saved


def capture_scope() -> "Activation":
    """Snapshot the calling thread's profilers and stamp.

    The returned :class:`Activation` is a context manager that re-activates
    them on whatever thread enters it.  A serving runtime captures it at
    request admission and enters it on the worker thread around the
    execution, so profiled results are identical whether a query runs on the
    caller thread or a pool thread.
    """
    return Activation(list(_STATE.stack), current_stamp())


class Activation:
    """Captured profilers and stamp, re-enterable on any thread.

    Entering pushes the captured profilers onto the *current* thread's
    activation stack (recording itself is thread-safe, see
    :meth:`Profiler.record`) and the captured stamp onto its stamp stack;
    exiting removes exactly those.  Re-entrant and usable from several
    threads at once.
    """

    def __init__(self, profilers: "list[Profiler]", stamp: Stamp):
        self._profilers = profilers
        self._stamp = stamp

    @property
    def is_empty(self) -> bool:
        """True when nothing was active at capture time."""
        return not self._profilers and self._stamp == _NOWHERE

    def __enter__(self) -> "Activation":
        _STATE.stack.extend(self._profilers)
        _STATE.stamps.append(self._stamp)
        return self

    def __exit__(self, *exc_info) -> None:
        _STATE.stamps.pop()
        for profiler in reversed(self._profilers):
            profiler.__exit__()


def leading_rows(op: str, inputs, outputs) -> int:
    """The rows ``op`` runs over: the longest leading dimension of its inputs
    — of its outputs for a gather or slice, which read only the rows they
    write (a scalar counts one row, no array none)."""
    arrays = outputs if op in ("take", "slice") else inputs
    return max((array.shape[0] if array.shape else 1 for array in arrays),
               default=0)


@dataclasses.dataclass
class OpEvent:
    """One executed op."""

    op: str
    elapsed_s: float
    input_bytes: int
    output_bytes: int
    device: str
    timestamp_s: float
    #: The operator's plan-unique scope (``label#id``); the plan's ``lanes``
    #: map says how many worker lanes the cost models spread it over.
    scope: str = ""
    #: Simulated device shard the op ran on (``None`` = host/unsharded).
    shard: "int | None" = None
    #: Rows the op ran over (:func:`leading_rows`), cut into morsels by the
    #: lanes model.
    rows: int = 0

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
        self._start = time.perf_counter()
        # Appends are guarded so a profiler propagated to worker threads (see
        # :func:`capture_scope`) collects every event instead of losing some
        # to a torn list append.
        self._record_lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def record(self, op: str, elapsed_s: float, input_bytes: int,
               output_bytes: int, device: Device, rows: int = 0) -> None:
        event = OpEvent(op, elapsed_s, input_bytes, output_bytes, str(device),
                        time.perf_counter() - self._start, *current_stamp(),
                        rows)
        with self._record_lock:
            self.events.append(event)

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
        _STATE.stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        # Remove this profiler from the current thread's activation stack
        # wherever it sits: an unbalanced inner enter/exit (or an exception
        # unwinding through several activations) must never leave a dead
        # profiler active on a long-lived serving worker thread.
        stack = _STATE.stack
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
