"""Unit tests for the execution layer (Executor) and the public session API."""

import sys
import threading
import time

import numpy as np
import pytest

from repro import DataFrame, TQPSession
from repro.core import ir
from repro.core.columnar import DEFAULT_MORSEL_ROWS
from repro.core.executor import Executor
from repro.errors import (
    BatchBindingError,
    BindingError,
    CatalogError,
    CodegenError,
    ExecutionError,
)
from repro.tensor import onnxlike, passes
from repro import ExecutionOptions

SQL = ("select region, sum(amount) as total from sales "
       "where amount > 10 group by region order by total desc")


@pytest.fixture
def session():
    frame = DataFrame({
        "region": np.array(["eu", "us", "eu", "apac", "us"], dtype=object),
        "amount": np.array([10.0, 25.0, 35.0, 15.0, 5.0]),
    })
    session = TQPSession()
    session.register("sales", frame)
    return session


def test_compile_produces_all_artifacts(session):
    compiled = session.compile(SQL)
    assert compiled.physical_plan is not None
    assert isinstance(compiled.ir, ir.IRNode)
    assert compiled.operator_plan.scans and compiled.operator_plan.output_fields
    explain = compiled.explain()
    assert "Physical plan" in explain and "TQP IR" in explain and "Operator plan" in explain


def test_execute_returns_result_metadata(session):
    outcome = session.compile(SQL, options=ExecutionOptions(backend="pytorch")).execute()
    assert outcome.backend == "pytorch" and outcome.device == "cpu"
    assert outcome.measured_s > 0 and outcome.reported_s == outcome.measured_s
    assert outcome.to_dataframe().to_dict() == {
        "region": ["eu", "us", "apac"], "total": [35.0, 25.0, 15.0]}


@pytest.mark.parametrize("backend", ["pytorch", "torchscript", "onnx",
                                     "torchscript-noopt"])
def test_all_backends_agree(session, backend):
    reference = session.compile(SQL, options=ExecutionOptions(backend="pytorch")).run()
    assert session.compile(SQL, options=ExecutionOptions(backend=backend)).run().equals(reference)


@pytest.mark.parametrize("device", ["cpu", "cuda"])
def test_devices_agree_and_simulated_time_reported(session, device):
    outcome = session.compile(SQL, options=ExecutionOptions(backend="torchscript", device=device)).execute()
    assert outcome.to_dataframe()["total"].tolist() == [35.0, 25.0, 15.0]
    if device == "cuda":
        assert outcome.profile is not None
        assert outcome.reported_s != outcome.measured_s


def test_wasm_device_requires_onnx_backend(session):
    with pytest.raises(ExecutionError):
        session.compile(SQL, options=ExecutionOptions(backend="torchscript", device="wasm"))
    outcome = session.compile(SQL, options=ExecutionOptions(backend="onnx", device="wasm")).execute()
    assert outcome.to_dataframe().num_rows == 3


def test_profile_collects_operator_scopes(session):
    outcome = session.compile(SQL, options=ExecutionOptions(backend="pytorch")).execute(profile=True)
    scopes = {row.key for row in outcome.profile.by_scope()}
    assert any(scope.startswith("HashAggregate") for scope in scopes)
    assert any(scope.startswith("Filter") for scope in scopes)


def test_executor_graph_and_onnx_export(session, tmp_path):
    compiled = session.compile(SQL, options=ExecutionOptions(backend="torchscript"))
    graph = compiled.executor_graph()
    assert graph.op_counts().get("scatter_add", 0) >= 1
    path = tmp_path / "query.onnx.json"
    compiled.export_onnx(str(path))
    restored = onnxlike.load(str(path))
    assert restored.op_counts() == graph.op_counts()


def test_compiled_program_is_cached_and_input_layout_checked(session):
    compiled = session.compile(SQL, options=ExecutionOptions(backend="torchscript"))
    inputs = session.prepare_inputs(compiled.executor)
    # The first execution publishes the traced program unlowered, the
    # second lowers it once, and later ones replay that same record.
    assert compiled.executor.execute(inputs).executor_mode == "traced"
    traced = compiled.executor._program
    assert (traced.scripted, traced.serve) == (None, None)
    assert compiled.executor.execute(inputs).executor_mode == "compiled"
    lowered = compiled.executor._program
    assert lowered.scripted is not None and lowered.graph is traced.graph
    compiled.executor.execute(inputs)
    assert compiled.executor._program is lowered
    assert compiled.executor.compile_count == 1
    for run in (compiled.executor.execute,
                lambda inputs: compiled.executor.execute_many(inputs, [{}])):
        with pytest.raises(ExecutionError, match="does not match"):
            run({})


def test_register_replaces_table_and_invalidates_cache(session):
    compiled = session.compile("select sum(amount) as s from sales")
    assert compiled.run().to_dict() == {"s": [90.0]}
    session.register("sales", DataFrame({
        "region": np.array(["eu"], dtype=object),
        "amount": np.array([1.0]),
    }))
    assert session.compile("select sum(amount) as s from sales").run().to_dict() == \
        {"s": [1.0]}


def test_session_validation_errors(session):
    with pytest.raises(ExecutionError):
        TQPSession(default_options=ExecutionOptions(backend="tvm"))
    with pytest.raises(Exception):
        session.compile(SQL, options=ExecutionOptions(backend="not-a-backend"))
    with pytest.raises(CatalogError):
        session.dataframe("missing")
    assert session.table_names() == ["sales"]


def test_prepare_inputs_converts_only_needed_columns(session):
    compiled = session.compile("select sum(amount) as s from sales")
    inputs = session.prepare_inputs(compiled.executor)
    table = inputs[compiled.operator_plan.scans[0].alias]
    assert table.column_names == ["sales.amount"]


def test_sql_convenience_method(session):
    assert session.sql("select count(*) as n from sales").to_dict() == {"n": [5]}


# -- one program, one replay loop ----------------------------------------------


@pytest.fixture(scope="module")
def blocks_session():
    """Five zone-map blocks clustered on ``k``, so a range predicate prunes
    and ``ExecutionResult.pruning`` has something to say."""
    k = np.repeat(np.arange(5, dtype=np.int64), DEFAULT_MORSEL_ROWS)
    session = TQPSession()
    session.register("t", DataFrame({"k": k, "v": np.arange(k.size) / 7.0}))
    return session


@pytest.mark.parametrize("device", ["cpu", "cuda"])
@pytest.mark.parametrize("backend", ["pytorch", "torchscript", "onnx"])
@pytest.mark.parametrize("profile", [False, True])
@pytest.mark.parametrize("sql,params", [
    ("select count(*) as c, sum(v) as s from t where k >= :lo and k <= :hi",
     {"lo": 1, "hi": 1}),
    ("select count(*) as c, sum(v) as s from t where k >= 1 and k <= 1", None),
])
def test_execute_is_the_one_binding_case_of_execute_many(
        blocks_session, event_stream, sql, params, profile, backend, device):
    compiled = blocks_session.compile(
        sql, options=ExecutionOptions(backend=backend, device=device))
    executor = compiled.executor
    inputs = blocks_session.prepare_inputs(executor)
    one = executor.execute(inputs, profile=profile, params=params)
    [many] = executor.execute_many(inputs, [params or {}], profile=profile)

    assert one.to_dataframe().to_dict() == many.to_dataframe().to_dict()
    assert one.to_dataframe()["c"].tolist() == [DEFAULT_MORSEL_ROWS]
    assert (one.backend, one.device) == (many.backend, many.device)
    # Only the first of them traces, and it returns the trace's result
    # when nothing profiles (the simulated devices always do).
    assert (one.executor_mode, many.executor_mode) == (
        ("eager", "eager") if backend == "pytorch" else
        ("compiled", "compiled") if profile or device == "cuda" else
        ("traced", "compiled"))
    assert one.pruning == many.pruning
    # A trace cannot bake a parameter-dependent block choice in, so only the
    # eager plan and literal predicates skip blocks.
    traced_with_params = bool(params) and backend != "pytorch"
    assert one.pruning["t"]["blocks_skipped"] == (
        0 if traced_with_params else 4)
    # Profiles exist under the same conditions and hold the same events ...
    profiled = profile or device == "cuda"
    for result in (one, many):
        assert (result.profile is not None) == profiled
        # ... and each reported time is what the device's model makes of that
        # result's own wall clock and profile: one basis for both entries.
        assert result.measured_s > 0
        assert result.reported_s == executor.cost_model.report_time(
            result.measured_s, result.profile)
    if profiled:
        assert event_stream(one.profile) == event_stream(many.profile)
    else:
        assert one.reported_s == one.measured_s
    if device == "cuda":
        # The roofline reads bytes and event order only: equal streams, equal
        # modelled time.
        assert one.reported_s == many.reported_s

    # The same bad binding is a BindingError from execute and the indexed
    # subclass from execute_many; neither disturbs the program.
    bad = {"lo": 1} if params else {"stray": 1}
    with pytest.raises(BindingError) as single:
        executor.execute(inputs, params=bad)
    assert not isinstance(single.value, BatchBindingError)
    with pytest.raises(BatchBindingError) as batched:
        executor.execute_many(inputs, [params or {}, bad])
    assert batched.value.index == 1
    assert str(batched.value.cause) == str(single.value)
    collected = executor.execute_many(inputs, [bad, params or {}],
                                      on_error="collect")
    assert isinstance(collected[0], BatchBindingError)
    assert collected[1].to_dataframe().to_dict() == one.to_dataframe().to_dict()
    assert executor.compile_count == (0 if backend == "pytorch" else 1)


@pytest.mark.parametrize("backend,device", [
    (backend, device)
    for backend in ("torchscript", "torchscript-noopt", "onnx")
    for device in ("cpu", "cuda", "wasm")
    if device != "wasm" or backend == "onnx"])
def test_graph_backends_replay_generated_code_by_default(session, backend,
                                                         device):
    options = ExecutionOptions(backend=backend, device=device)
    assert options.executor == "compiled"
    compiled = session.compile(SQL, options=options)
    # An unprofiled first run on the cpu returns its trace's result; every
    # later run, and every run a profile is taken of, replays generated code.
    for profile, mode in ((False, "traced" if device == "cpu" else "compiled"),
                          (False, "compiled"), (True, "compiled")):
        result = compiled.execute(profile=profile)
        assert result.executor_mode == mode
        assert result.to_dataframe()["total"].tolist() == [35.0, 25.0, 15.0]
    program = compiled.executor._program
    assert program.scripted.compiled_source is not None
    assert program.serve is not None
    interpreted = session.compile(SQL, options=options.replace(
        executor="interpret")).execute()
    assert interpreted.executor_mode == "interpreted"
    assert session.compile(
        SQL, options=ExecutionOptions(backend="pytorch")
    ).execute().executor_mode == "eager"


@pytest.mark.parametrize("backend", ["torchscript", "onnx"])
def test_racing_first_executions_trace_once_and_return_one_trace(
        session, monkeypatch, backend):
    """Threads that execute a fresh statement at once make one trace: its
    thread gets the ``traced`` result, every other thread waits, then one of
    them lowers and all of them replay generated code."""
    workers = 4
    traces = []
    trace = Executor._trace_locked

    def slow_trace(self, *args):
        traces.append(1)
        time.sleep(0.05)  # let the other threads reach the lock
        return trace(self, *args)

    monkeypatch.setattr(Executor, "_trace_locked", slow_trace)
    compiled = session.compile(SQL, options=ExecutionOptions(backend=backend))
    barrier = threading.Barrier(workers)
    results = [None] * workers

    def first_execute(slot):
        barrier.wait()
        results[slot] = compiled.execute()

    threads = [threading.Thread(target=first_execute, args=(slot,))
               for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    modes = sorted(result.executor_mode for result in results)
    assert modes == ["compiled"] * (workers - 1) + ["traced"]
    assert len(traces) == compiled.executor.compile_count == 1
    assert compiled.executor._program.scripted is not None
    for result in results:
        assert result.to_dataframe()["total"].tolist() == [35.0, 25.0, 15.0]


@pytest.mark.parametrize("backend", ["torchscript", "onnx"])
def test_first_execute_many_of_several_bindings_replays_generated_code(
        session, backend):
    """A first call with several bindings traces, lowers and replays every
    binding; one with a single binding returns its trace's result."""
    sql = "select sum(amount) as s from sales where amount > :lo"
    bindings = [{"lo": 10.0}, {"lo": 20.0}, {"lo": 10.0}]
    options = ExecutionOptions(backend=backend)
    prepared = session.prepare(sql, options=options)
    results = prepared.execute_many(bindings)
    assert [r.executor_mode for r in results] == ["compiled"] * 3
    assert [r.to_dataframe()["s"].tolist() for r in results] == [
        [75.0], [60.0], [75.0]]
    assert prepared.compiled.executor.compile_count == 1
    session.plan_cache.clear()
    single = session.prepare(sql, options=options)
    assert [r.executor_mode for r in single.execute_many(bindings[:1])] == [
        "traced"]
    assert [r.executor_mode for r in single.execute_many(bindings)] == [
        "compiled"] * 3


def test_unlowerable_graph_raises_at_first_execute(session, monkeypatch):
    """No silent change of path: a graph the emitter cannot lower raises a
    typed ``CodegenError`` at first execute, publishes nothing, and runs on
    the reference interpreter when asked to."""
    optimize = passes.optimize

    def optimize_then_taint(graph):
        graph = optimize(graph)
        graph.nodes[0].attrs["hook"] = object()   # not JSON-stable
        return graph

    monkeypatch.setattr(passes, "optimize", optimize_then_taint)
    compiled = session.compile(SQL, options=ExecutionOptions(
        backend="torchscript"))
    for _ in range(2):
        with pytest.raises(CodegenError, match="portable"):
            compiled.execute()
    assert compiled.executor._program is None
    interpreted = session.compile(SQL, options=ExecutionOptions(
        backend="torchscript", executor="interpret")).execute()
    assert interpreted.executor_mode == "interpreted"
    assert interpreted.to_dataframe()["total"].tolist() == [35.0, 25.0, 15.0]
