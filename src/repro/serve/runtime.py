"""The serving runtime: a bounded worker pool over one shared session.

A deployed TQP instance does not run one query at a time — it serves many
logical clients whose requests arrive concurrently and mostly repeat a small
set of statement shapes.  :class:`ServingRuntime` is the piece between those
clients and a :class:`~repro.core.session.TQPSession`:

* **Shared statement routing.**  Every request — raw SQL text or a prepared
  handle plus bindings — resolves through the session's plan/statement
  cache, so all clients share one compiled (and traced) artifact per
  statement shape.  Concurrent misses on a cold statement are single-flighted
  by :meth:`~repro.core.plan_cache.PlanCache.get_or_create`.

* **Admission control.**  The request queue is bounded
  (``max_queue_depth``); a submit against a full queue fails fast with a
  typed :class:`~repro.errors.AdmissionError` instead of letting latency grow
  without bound.  A per-request ``timeout`` bounds queueing delay the same
  way: a request that waited past its deadline fails with
  :class:`~repro.errors.RequestTimeoutError` *instead of executing* (the
  timeout is a queueing deadline — a request already running is not
  preempted).

* **Inter-query bind batching.**  When a worker picks up a request, it also
  drains every queued request for the *same* compiled statement (up to
  ``batch_window``) and replays all their bindings through one
  :meth:`~repro.core.session.CompiledQuery.execute_many` call — the entry
  every caller-thread execution takes too, so which generation of the
  session's state a batch sees, and who learns from it, is not this
  module's business; a request picked up alone is a batch of one.  On the
  graph backends a batch costs one input flattening plus one
  generated-function call per binding.  Requests from unrelated clients thus
  amortize each other's fixed costs, while every client still receives
  exactly the result of its own binding (``on_error="collect"`` keeps one
  bad request from poisoning its batch neighbours).  Within a batch,
  requests whose *validated* bindings are identical collapse onto one replay
  and share its result — under skewed traffic most of a hot statement's
  requests repeat a few bindings, so the batcher executes the distinct work,
  not the arrival count.

The submitter's active profilers and stamp are captured at submission
(:func:`repro.tensor.profiler.capture_scope`) and re-entered on the worker
thread, so a profiled request reports the same events whether it runs on the
caller's thread or the pool's.
"""

from __future__ import annotations

import collections
import threading
import time
from typing import Any, Optional, Sequence

from repro.core.executor import ExecutionResult
from repro.core.options import ExecutionOptions
from repro.core.session import CompiledQuery, PreparedQuery, TQPSession
from repro.errors import (
    AdmissionError,
    BatchBindingError,
    BindingError,
    RequestTimeoutError,
    ServingError,
)
from repro.core.parameters import positional_binding
from repro.tensor.profiler import capture_scope


class ServingTicket:
    """Handle for one submitted request; resolves to its execution result.

    ``result()`` blocks until a worker completed the request, then returns
    its :class:`~repro.core.executor.ExecutionResult` or raises the typed
    error the request failed with (:class:`~repro.errors.AdmissionError`
    never reaches a ticket — admission failures raise at ``submit`` time).
    """

    __slots__ = ("_done", "_result", "_error", "submitted_at", "completed_at")

    def __init__(self):
        self._done = threading.Event()
        self._result: Optional[ExecutionResult] = None
        self._error: Optional[BaseException] = None
        #: ``perf_counter`` stamps for latency accounting (p50/p99 in the
        #: serving benchmark): set at admission and at completion.
        self.submitted_at = time.perf_counter()
        self.completed_at: Optional[float] = None

    # -- worker side -------------------------------------------------------

    def _complete(self, result: ExecutionResult) -> None:
        self._result = result
        self.completed_at = time.perf_counter()
        self._done.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self.completed_at = time.perf_counter()
        self._done.set()

    # -- client side -------------------------------------------------------

    def done(self) -> bool:
        return self._done.is_set()

    @property
    def latency_s(self) -> Optional[float]:
        """Admission-to-completion wall time, once the request finished."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def result(self, timeout: Optional[float] = None) -> ExecutionResult:
        if not self._done.wait(timeout):
            raise RequestTimeoutError(
                f"request did not complete within {timeout} s")
        if self._error is not None:
            raise self._error
        return self._result

    def run(self, timeout: Optional[float] = None):
        """``result(...)`` as a DataFrame (mirrors ``BoundQuery.run``)."""
        return self.result(timeout).to_dataframe()


class _Request:
    """One admitted request, queued for a worker."""

    __slots__ = ("compiled", "bound", "profile", "scope", "deadline", "ticket")

    def __init__(self, compiled: CompiledQuery, bound: dict, profile: bool,
                 deadline: Optional[float]):
        self.compiled = compiled
        self.bound = bound
        self.profile = profile
        # The submitter's profilers and stamp travel with the request so
        # pooled execution profiles exactly like caller-thread execution.
        self.scope = capture_scope()
        self.deadline = deadline
        self.ticket = ServingTicket()

    @property
    def batchable(self) -> bool:
        """Batch only plain requests: profiled ones (or ones submitted under
        an active profiler) need their own program invocation so their event
        streams stay per-request."""
        return not self.profile and self.scope.is_empty


class ServingStatement:
    """A prepared statement registered with a runtime; submit bindings to it.

    Thin wrapper pairing a :class:`~repro.core.session.PreparedQuery` (which
    lives in the session's shared statement cache) with the runtime that
    executes its bindings.  Two clients preparing the same SQL hold handles
    to the *same* compiled artifact, which is what makes their requests
    batchable with each other.
    """

    def __init__(self, runtime: "ServingRuntime", prepared: PreparedQuery):
        self.runtime = runtime
        self.prepared = prepared

    @property
    def parameters(self):
        return self.prepared.parameters

    def submit(self, *args: Any, timeout: Optional[float] = None,
               profile: bool = False, **kwargs: Any) -> ServingTicket:
        """Validate a binding and enqueue it; returns immediately."""
        return self.runtime.submit(self, params=_merge_binding(args, kwargs),
                                   timeout=timeout, profile=profile)

    def execute(self, *args: Any, timeout: Optional[float] = None,
                **kwargs: Any) -> ExecutionResult:
        """Submit and block for the result (one synchronous client turn)."""
        return self.submit(*args, timeout=timeout, **kwargs).result()

    def run(self, *args: Any, **kwargs: Any):
        return self.execute(*args, **kwargs).to_dataframe()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ServingStatement({self.prepared!r})"


def _merge_binding(args: Sequence[Any], kwargs: dict) -> "dict | tuple | None":
    if args and kwargs:
        raise BindingError(
            "bind either positionally (for '?' markers) or by name "
            "(for ':name' markers), not both")
    if args:
        return tuple(args)
    return kwargs or None


class ServingRuntime:
    """Multiplexes concurrent clients over one shared :class:`TQPSession`.

    Args:
        session: the shared session; its plan cache and registered tables
            (with their converted inputs) are what all clients serve from.
        workers: worker threads executing admitted requests.
        max_queue_depth: bound on *queued* (not yet picked up) requests;
            submits beyond it raise :class:`~repro.errors.AdmissionError`.
        batch_window: max bindings of one compiled statement a worker folds
            into a single ``execute_many`` replay (1 disables batching).
        default_options: options for statements prepared through the
            runtime; ``None`` inherits the session defaults.
        default_timeout: queueing deadline (seconds) applied to requests
            submitted without an explicit ``timeout``.

    Use as a context manager, or call :meth:`close` — pending requests are
    drained before the workers exit.
    """

    def __init__(self, session: TQPSession, workers: int = 4,
                 max_queue_depth: int = 64, batch_window: int = 8,
                 default_options: Optional[ExecutionOptions] = None,
                 default_timeout: Optional[float] = None):
        if workers < 1:
            raise ServingError("workers must be >= 1")
        if max_queue_depth < 1:
            raise ServingError("max_queue_depth must be >= 1")
        if batch_window < 1:
            raise ServingError("batch_window must be >= 1")
        self.session = session
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.batch_window = batch_window
        self.default_options = default_options
        self.default_timeout = default_timeout
        self._queue: "collections.deque[_Request]" = collections.deque()
        self._cond = threading.Condition()
        self._closed = False
        self._counters = {
            "submitted": 0, "completed": 0, "failed": 0, "timed_out": 0,
            "rejected": 0, "cancelled": 0, "batches": 0,
            "batched_requests": 0, "deduped_requests": 0, "max_batch": 0,
        }
        self._threads = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"serving-worker-{i}")
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- client API --------------------------------------------------------

    def prepare(self, sql: str,
                options: Optional[ExecutionOptions] = None) -> ServingStatement:
        """Prepare ``sql`` through the shared statement cache."""
        prepared = self.session.prepare(
            sql, options=options if options is not None else self.default_options)
        return ServingStatement(self, prepared)

    def submit(self, statement: "ServingStatement | PreparedQuery | str",
               params: "dict | Sequence[Any] | None" = None,
               timeout: Optional[float] = None,
               profile: bool = False,
               options: Optional[ExecutionOptions] = None) -> ServingTicket:
        """Admit one request; returns its :class:`ServingTicket` immediately.

        ``statement`` is raw SQL text (resolved through the statement cache,
        so repeats from any client hit the same compiled plan) or a prepared
        handle.  ``params`` binds its parameters — a dict for ``:name``
        markers, a sequence for ``?`` markers — and is validated *here*, on
        the client's thread: a bad binding raises a typed
        :class:`~repro.errors.BindingError` without consuming queue space.

        Raises :class:`~repro.errors.AdmissionError` when the queue is at
        ``max_queue_depth`` and :class:`~repro.errors.ServingError` once the
        runtime is closed.
        """
        compiled = self._resolve(statement, options)
        bound = self._validate_binding(compiled, params)
        deadline = None
        timeout = timeout if timeout is not None else self.default_timeout
        if timeout is not None:
            deadline = time.monotonic() + timeout
        request = _Request(compiled, bound, profile, deadline)
        with self._cond:
            if self._closed:
                raise ServingError("serving runtime is closed")
            depth = len(self._queue)
            if depth >= self.max_queue_depth:
                self._counters["rejected"] += 1
                raise AdmissionError(
                    f"serving queue is full ({depth} requests pending, "
                    f"limit {self.max_queue_depth})", queue_depth=depth)
            self._queue.append(request)
            self._counters["submitted"] += 1
            self._cond.notify()
        return request.ticket

    def execute(self, statement: "ServingStatement | PreparedQuery | str",
                params: "dict | Sequence[Any] | None" = None,
                timeout: Optional[float] = None,
                profile: bool = False,
                options: Optional[ExecutionOptions] = None) -> ExecutionResult:
        """Submit and block for the result."""
        return self.submit(statement, params=params, timeout=timeout,
                           profile=profile, options=options).result()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def stats(self) -> dict:
        """Counter snapshot (submissions, batches, rejections, ...)."""
        with self._cond:
            stats = dict(self._counters)
            stats["queue_depth"] = len(self._queue)
            stats["workers"] = self.workers
            return stats

    def close(self, drain: bool = True) -> None:
        """Stop the workers.  ``drain=True`` (default) runs every queued
        request first; ``drain=False`` fails pending tickets with a
        :class:`~repro.errors.ServingError` instead."""
        with self._cond:
            if self._closed and not self._threads:
                return
            self._closed = True
            pending: list[_Request] = []
            if not drain:
                pending = list(self._queue)
                self._queue.clear()
            self._cond.notify_all()
        for request in pending:
            self._counters["cancelled"] += 1
            request.ticket._fail(
                ServingError("serving runtime closed before the request ran"))
        for thread in self._threads:
            thread.join()
        self._threads = []

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ---------------------------------------------------------

    def _resolve(self, statement: "ServingStatement | PreparedQuery | str",
                 options: Optional[ExecutionOptions]) -> CompiledQuery:
        if isinstance(statement, ServingStatement):
            return statement.prepared.compiled
        if isinstance(statement, PreparedQuery):
            return statement.compiled
        if isinstance(statement, CompiledQuery):
            return statement
        if isinstance(statement, str):
            return self.session.compile(
                statement,
                options=options if options is not None else self.default_options)
        raise ServingError(
            f"cannot serve a {type(statement).__name__}; submit SQL text, "
            "a ServingStatement, or a PreparedQuery")

    @staticmethod
    def _validate_binding(compiled: CompiledQuery,
                          params: "dict | Sequence[Any] | None") -> dict:
        if params is None:
            params = {}
        elif not isinstance(params, dict):
            params = positional_binding(compiled.params, tuple(params))
        return compiled.executor.bind(params)

    def _worker(self) -> None:
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._process(batch)

    def _next_batch(self) -> "list[_Request] | None":
        """Block for work; returns up to ``batch_window`` requests for one
        compiled statement, or ``None`` when the runtime shut down."""
        with self._cond:
            while not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            first = self._queue.popleft()
            batch = [first]
            if first.batchable and self.batch_window > 1:
                kept: "collections.deque[_Request]" = collections.deque()
                while self._queue and len(batch) < self.batch_window:
                    request = self._queue.popleft()
                    if request.batchable and request.compiled is first.compiled:
                        batch.append(request)
                    else:
                        kept.append(request)
                kept.extend(self._queue)
                self._queue = kept
            return batch

    def _process(self, batch: "list[_Request]") -> None:
        # Enforce queueing deadlines at pickup: an expired request fails
        # typed instead of executing (running work is never preempted).
        now = time.monotonic()
        live: list[_Request] = []
        for request in batch:
            if request.deadline is not None and now > request.deadline:
                with self._cond:
                    self._counters["timed_out"] += 1
                request.ticket._fail(RequestTimeoutError(
                    "request spent longer than its timeout in the serving "
                    "queue"))
            else:
                live.append(request)
        if live:
            self._run_batch(live)

    def _run_batch(self, live: "list[_Request]") -> None:
        # Zipfian traffic repeats not just statements but *bindings*: within
        # one batch, requests with identical (validated, normalized) values
        # collapse onto a single replay and share its result — the queries
        # are read-only, so every client still receives exactly the result
        # its own binding produces.
        slot_by_key: dict = {}
        distinct: list[dict] = []
        slots: list[int] = []
        for request in live:
            # Validated values are python scalars or strings: always hashable.
            key = tuple(sorted(request.bound.items()))
            slot = slot_by_key.get(key)
            if slot is None:
                slot = slot_by_key[key] = len(distinct)
                distinct.append(request.bound)
            slots.append(slot)
        first = live[0]
        try:
            # One generation of the session's state for the whole batch: a
            # concurrent register() either precedes or follows all of it, and
            # a stale statement is re-planned before anything executes.  Only
            # an unbatchable request — always alone — has a scope to enter or
            # a profile to ask for; a single request is a batch of one.
            with first.scope:
                outcomes = first.compiled.execute_many(
                    distinct, profile=first.profile, on_error="collect")
        except Exception as exc:  # noqa: BLE001 - forwarded to the tickets
            self._fail_all(live, exc)
            return
        completed = failed = 0
        for request, slot in zip(live, slots):
            outcome = outcomes[slot]
            if isinstance(outcome, BatchBindingError):
                failed += 1
                request.ticket._fail(outcome)
            else:
                completed += 1
                request.ticket._complete(outcome)
        with self._cond:
            self._counters["completed"] += completed
            self._counters["failed"] += failed
            if len(live) > 1:  # a singleton pickup is not a batch
                self._counters["batches"] += 1
                self._counters["batched_requests"] += len(live)
                self._counters["deduped_requests"] += len(live) - len(distinct)
                self._counters["max_batch"] = max(self._counters["max_batch"],
                                                  len(live))

    def _fail_all(self, requests: "list[_Request]",
                  error: BaseException) -> None:
        with self._cond:
            self._counters["failed"] += len(requests)
        for request in requests:
            request.ticket._fail(error)
