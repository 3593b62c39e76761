"""Unit tests for the concurrent serving runtime and the thread-safety fixes
that make it possible: admission control, queueing timeouts, inter-query bind
batching, single-flight plan compilation, profiler-scope propagation across
worker threads, and re-registration while requests are in flight."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.core.plan_cache import PlanCache
from repro.errors import (
    AdmissionError,
    BatchBindingError,
    BindingError,
    ExecutionError,
    RequestTimeoutError,
    ServingError,
)
from repro.serve import ServingRuntime
from repro.storage import BLOCK_ROWS
from repro.tensor.profiler import Profiler, capture_scope

SQL = "select sum(amount) as total from sales where amount >= :lo"
OPTIONS = ExecutionOptions(backend="torchscript", device="cpu")
#: PREDICT through a gated model callable runs on the eager backend, where
#: the model executes on every request — the hook the tests use to hold a
#: worker mid-request deterministically.
BLOCKER_SQL = "select sum(predict('gate', amount)) as total from sales"
EAGER = ExecutionOptions(backend="pytorch", device="cpu")


def make_session() -> TQPSession:
    frame = DataFrame({
        "region": np.array(["eu", "us", "eu", "apac", "us", "eu"], dtype=object),
        "amount": np.array([10.0, 25.0, 35.0, 15.0, 5.0, 20.0]),
    })
    session = TQPSession()
    session.register("sales", frame)
    return session


class WorkerGate:
    """Registered as a model; blocks the executing worker until released."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, args, num_rows):
        self.entered.set()
        assert self.release.wait(20), "test gate never released"
        return args[0]


def gated_runtime(session=None, **kwargs):
    session = session or make_session()
    gate = WorkerGate()
    session.register_model("gate", gate)
    runtime = ServingRuntime(session, workers=kwargs.pop("workers", 1),
                             default_options=OPTIONS, **kwargs)
    return runtime, gate, session


# -- basic routing ----------------------------------------------------------


def test_execute_matches_direct_session_result():
    session = make_session()
    expected = session.prepare(SQL, options=OPTIONS).run(lo=15.0).to_dict()
    with ServingRuntime(session, workers=2, default_options=OPTIONS) as runtime:
        result = runtime.execute(SQL, params={"lo": 15.0})
        assert result.to_dataframe().to_dict() == expected
        statement = runtime.prepare(SQL)
        assert statement.run(lo=15.0).to_dict() == expected
        assert statement.execute(lo=15.0).to_dataframe().to_dict() == expected
    stats = runtime.stats()
    assert stats["submitted"] == 3 and stats["completed"] == 3
    assert stats["failed"] == 0
    # A request picked up alone is a batch of one to the worker, not to the
    # counters: batching statistics describe requests that shared a replay.
    assert stats["batches"] == stats["batched_requests"] == 0
    assert stats["max_batch"] == 0


def test_statements_share_one_compiled_artifact():
    session = make_session()
    with ServingRuntime(session, default_options=OPTIONS) as runtime:
        first = runtime.prepare(SQL)
        second = runtime.prepare("  SELECT sum(amount) AS total "
                                 "FROM sales WHERE amount >= :lo ")
        assert first.prepared.compiled is second.prepared.compiled


def test_submit_validates_bindings_on_the_client_thread():
    runtime, gate, _ = gated_runtime()
    try:
        with pytest.raises(BindingError):
            runtime.submit(SQL, params={"wrong": 1.0})
        with pytest.raises(BindingError):
            runtime.submit(SQL, params={"lo": "not-a-number"})
        # Failed validation consumed no queue slot and admitted nothing.
        stats = runtime.stats()
        assert stats["submitted"] == 0 and stats["queue_depth"] == 0
    finally:
        gate.release.set()
        runtime.close()


def test_closed_runtime_rejects_submissions():
    runtime, gate, _ = gated_runtime()
    gate.release.set()
    runtime.close()
    with pytest.raises(ServingError):
        runtime.submit(SQL, params={"lo": 0.0})


# -- admission control and timeouts ----------------------------------------


def test_admission_control_bounds_the_queue():
    runtime, gate, _ = gated_runtime(max_queue_depth=2)
    try:
        blocker = runtime.submit(BLOCKER_SQL, options=EAGER)
        assert gate.entered.wait(10)  # the only worker is now held
        queued = [runtime.submit(SQL, params={"lo": 0.0}) for _ in range(2)]
        with pytest.raises(AdmissionError) as excinfo:
            runtime.submit(SQL, params={"lo": 0.0})
        assert excinfo.value.queue_depth == 2
        assert isinstance(excinfo.value, ServingError)
        assert isinstance(excinfo.value, ExecutionError)
        assert runtime.stats()["rejected"] == 1
        gate.release.set()
        assert blocker.result(20) is not None
        for ticket in queued:
            assert ticket.result(20) is not None
        # The queue drained; admission opens up again.
        assert runtime.execute(SQL, params={"lo": 0.0}) is not None
    finally:
        gate.release.set()
        runtime.close()


def test_request_timeout_expires_in_queue():
    runtime, gate, _ = gated_runtime(max_queue_depth=8)
    try:
        blocker = runtime.submit(BLOCKER_SQL, options=EAGER)
        assert gate.entered.wait(10)
        victim = runtime.submit(SQL, params={"lo": 0.0}, timeout=0.02)
        survivor = runtime.submit(SQL, params={"lo": 0.0})
        time.sleep(0.1)  # the victim's deadline passes while queued
        gate.release.set()
        with pytest.raises(RequestTimeoutError):
            victim.result(20)
        # Expiry is per request: neighbours and the runtime are unaffected.
        assert survivor.result(20) is not None
        assert blocker.result(20) is not None
        stats = runtime.stats()
        assert stats["timed_out"] == 1
        assert stats["completed"] == 2
    finally:
        gate.release.set()
        runtime.close()


def test_close_without_drain_fails_pending_requests():
    runtime, gate, _ = gated_runtime(max_queue_depth=8)
    blocker = runtime.submit(BLOCKER_SQL, options=EAGER)
    assert gate.entered.wait(10)
    victim = runtime.submit(SQL, params={"lo": 0.0})
    closer = threading.Thread(target=runtime.close, kwargs={"drain": False})
    closer.start()
    with pytest.raises(ServingError):
        victim.result(20)
    gate.release.set()
    closer.join(20)
    assert not closer.is_alive()
    assert blocker.result(20) is not None
    assert runtime.stats()["cancelled"] == 1


# -- bind batching ----------------------------------------------------------


def test_queued_bindings_batch_into_one_replay():
    runtime, gate, session = gated_runtime(batch_window=8, max_queue_depth=64)
    try:
        blocker = runtime.submit(BLOCKER_SQL, options=EAGER)
        assert gate.entered.wait(10)
        statement = runtime.prepare(SQL)
        values = [0.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        tickets = [statement.submit(lo=value) for value in values]
        gate.release.set()
        results = [ticket.result(20) for ticket in tickets]
        blocker.result(20)
        expected = [session.prepare(SQL, options=OPTIONS).run(lo=value).to_dict()
                    for value in values]
        assert [r.to_dataframe().to_dict() for r in results] == expected
        stats = runtime.stats()
        assert stats["batches"] == 1
        assert stats["batched_requests"] == len(values)
        assert stats["max_batch"] == len(values)
    finally:
        gate.release.set()
        runtime.close()


def test_identical_bindings_share_one_replay():
    runtime, gate, _ = gated_runtime(batch_window=8, max_queue_depth=64)
    try:
        blocker = runtime.submit(BLOCKER_SQL, options=EAGER)
        assert gate.entered.wait(10)
        statement = runtime.prepare(SQL)
        tickets = [statement.submit(lo=15.0) for _ in range(5)]
        gate.release.set()
        results = [ticket.result(20) for ticket in tickets]
        blocker.result(20)
        values = {r.to_dataframe().to_dict()["total"][0] for r in results}
        assert values == {95.0}
        stats = runtime.stats()
        assert stats["batches"] == 1
        assert stats["deduped_requests"] == 4
    finally:
        gate.release.set()
        runtime.close()


def test_batch_window_one_disables_batching():
    runtime, gate, _ = gated_runtime(batch_window=1, max_queue_depth=64)
    try:
        blocker = runtime.submit(BLOCKER_SQL, options=EAGER)
        assert gate.entered.wait(10)
        statement = runtime.prepare(SQL)
        tickets = [statement.submit(lo=value) for value in (0.0, 10.0, 20.0)]
        gate.release.set()
        for ticket in tickets:
            assert ticket.result(20) is not None
        blocker.result(20)
        assert runtime.stats()["batches"] == 0
    finally:
        gate.release.set()
        runtime.close()


# -- batch binding errors ---------------------------------------------------


def test_execute_many_raises_indexed_batch_binding_error():
    session = make_session()
    prepared = session.prepare(SQL, options=OPTIONS)
    with pytest.raises(BatchBindingError) as excinfo:
        prepared.execute_many([{"lo": 0.0}, {"bad": 1.0}, {"lo": 5.0}])
    assert excinfo.value.index == 1
    assert isinstance(excinfo.value, BindingError)
    assert isinstance(excinfo.value.cause, BindingError)


def test_execute_many_collect_isolates_the_bad_binding():
    session = make_session()
    prepared = session.prepare(SQL, options=OPTIONS)
    outcomes = prepared.execute_many(
        [{"lo": 0.0}, {"bad": 1.0}, {"lo": 15.0}], on_error="collect")
    assert isinstance(outcomes[1], BatchBindingError)
    assert outcomes[1].index == 1
    assert outcomes[0].to_dataframe().to_dict()["total"] == [110.0]
    assert outcomes[2].to_dataframe().to_dict()["total"] == [95.0]
    # The failure poisoned nothing: the same statement keeps serving.
    again = prepared.execute_many([{"lo": 15.0}])
    assert again[0].to_dataframe().to_dict()["total"] == [95.0]


def test_execute_many_positional_arity_error_is_indexed():
    session = make_session()
    prepared = session.prepare(
        "select count(*) as c from sales where amount >= ?", options=OPTIONS)
    outcomes = prepared.execute_many([(0.0,), (1.0, 2.0), (15.0,)],
                                     on_error="collect")
    assert isinstance(outcomes[1], BatchBindingError)
    assert outcomes[1].index == 1
    assert outcomes[0].to_dataframe().to_dict()["c"] == [6]
    assert outcomes[2].to_dataframe().to_dict()["c"] == [4]


def test_all_bad_bindings_short_circuits_without_tracing():
    session = make_session()
    prepared = session.prepare(SQL, options=OPTIONS)
    outcomes = prepared.execute_many([{"bad": 1.0}], on_error="collect")
    assert len(outcomes) == 1 and isinstance(outcomes[0], BatchBindingError)


# -- single-flight compilation ----------------------------------------------


def test_plan_cache_get_or_create_single_flight():
    cache = PlanCache(capacity=8)
    calls, results, barrier = [], [], threading.Barrier(6)

    def factory():
        calls.append(threading.get_ident())
        time.sleep(0.02)
        return object()

    def contender():
        barrier.wait()
        results.append(cache.get_or_create("key", factory))

    threads = [threading.Thread(target=contender) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(calls) == 1, "concurrent misses must share one compilation"
    assert all(entry is results[0] for entry in results)


def test_plan_cache_get_or_create_retries_after_factory_failure():
    cache = PlanCache(capacity=8)
    attempts = []

    def flaky():
        attempts.append(None)
        if len(attempts) == 1:
            raise RuntimeError("first build fails")
        return "built"

    with pytest.raises(RuntimeError):
        cache.get_or_create("key", flaky)
    assert cache.get_or_create("key", flaky) == "built"
    assert len(attempts) == 2


def test_concurrent_session_compiles_share_one_entry():
    session = make_session()
    compiled, barrier = [], threading.Barrier(4)

    def compile_it():
        barrier.wait()
        compiled.append(session.compile(SQL, options=OPTIONS))

    threads = [threading.Thread(target=compile_it) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert all(entry is compiled[0] for entry in compiled)
    assert session.plan_cache.stats()["size"] == 1


# -- profiler scope propagation ---------------------------------------------


def test_profiled_results_identical_on_caller_and_pool_thread():
    session = make_session()
    inline = session.prepare(SQL, options=OPTIONS).bind(lo=15.0).execute(
        profile=True)
    with ServingRuntime(session, workers=2, default_options=OPTIONS) as runtime:
        pooled = runtime.execute(SQL, params={"lo": 15.0}, profile=True)
    assert pooled.profile is not None
    assert ([(e.op, e.scope, e.shard) for e in inline.profile.events]
            == [(e.op, e.scope, e.shard) for e in pooled.profile.events])
    assert (inline.to_dataframe().to_dict() == pooled.to_dataframe().to_dict())


def test_capture_scope_carries_active_profiler_to_worker_thread():
    session = make_session()
    with Profiler("baseline") as baseline:
        session.prepare(SQL, options=EAGER).bind(lo=15.0).execute()
    assert baseline.events, "eager ops should record into the active profiler"

    with ServingRuntime(session, workers=2, default_options=EAGER) as runtime:
        with Profiler("outer") as outer:
            # The submission happens under an active profiler; the captured
            # scope re-activates it on whichever worker runs the request.
            runtime.execute(SQL, params={"lo": 15.0}, options=EAGER)
    assert ([e.op for e in outer.events] == [e.op for e in baseline.events])


def test_capture_scope_restores_previous_thread_state():
    scope = capture_scope()
    assert scope.is_empty
    profiler = Profiler("p")
    with profiler:
        captured = capture_scope()
        assert not captured.is_empty
    recorded = []

    def worker():
        with captured:
            from repro.tensor.profiler import current_profiler
            recorded.append(current_profiler())
        from repro.tensor.profiler import current_profiler
        recorded.append(current_profiler())

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert recorded[0] is profiler
    assert recorded[1] is None


# -- re-registration while serving ------------------------------------------


def _generation_frame(flipped: bool) -> DataFrame:
    """Four zone-map blocks of x; both generations sum to the same value
    under ``x >= 5`` but prune *different* blocks, so a traced program, zone
    maps, and converted columns from different generations can never agree."""
    n = 4 * BLOCK_ROWS
    x = np.empty(n)
    if flipped:
        x[:n // 2], x[n // 2:] = 9.0, 1.0
    else:
        x[:n // 2], x[n // 2:] = 1.0, 9.0
    return DataFrame({"x": x})


def test_reregister_while_serving_never_mixes_generations():
    expected = 9.0 * 2 * BLOCK_ROWS  # either generation's correct answer
    session = TQPSession()
    session.register("t", _generation_frame(False))
    stop = threading.Event()
    failures: list = []

    with ServingRuntime(session, workers=4, max_queue_depth=4096,
                        default_options=OPTIONS) as runtime:
        statement = runtime.prepare("select sum(x) as s from t where x >= 5")

        def hammer():
            while not stop.is_set():
                try:
                    value = statement.run()["s"][0]
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    failures.append(exc)
                    return
                if value != expected:
                    failures.append(AssertionError(
                        f"mixed-generation result: {value} != {expected}"))
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for flip in range(10):
            session.register("t", _generation_frame(flip % 2 == 0))
            time.sleep(0.01)
        stop.set()
        for thread in threads:
            thread.join(30)
    assert not failures, failures[0]


def test_live_statement_follows_a_re_registered_model(scaling_model):
    """A model swap is a new generation like a table swap: the statement a
    runtime holds re-plans instead of serving the captured old model."""
    sql = ("select sum(predict('m', amount)) as total from sales "
           "where amount >= :lo")
    session = make_session()
    session.register_model("m", scaling_model(2.0))
    with ServingRuntime(session, workers=2, default_options=OPTIONS) as runtime:
        statement = runtime.prepare(sql)
        other = runtime.prepare(SQL)
        assert statement.run(lo=15.0).to_dict() == {"total": [190.0]}
        assert other.run(lo=15.0).to_dict() == {"total": [95.0]}
        warm = other.prepared.compiled.executor
        session.register_model("m", scaling_model(10.0))
        fresh = session.sql(sql, options=OPTIONS, params={"lo": 15.0})
        assert fresh.to_dict() == {"total": [950.0]}
        assert statement.run(lo=15.0).to_dict() == fresh.to_dict()
        tickets = [statement.submit(lo=15.0) for _ in range(6)]
        assert all(t.run(20).to_dict() == fresh.to_dict() for t in tickets)
        # Statements that call no model (or another one) stay warm.
        assert other.run(lo=15.0).to_dict() == {"total": [95.0]}
        assert other.prepared.compiled.executor is warm
