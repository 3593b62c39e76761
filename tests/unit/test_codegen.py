"""Unit tests for the codegen executor (:mod:`repro.tensor.codegen`).

Covers the three contracts the compiled path makes:

* **no fallback** — every unsupported construct is named by
  :func:`codegen.unsupported_reason`, and the default (``compiled``) executor
  raises a typed :class:`~repro.errors.CodegenError` for it instead of
  changing path; ``executor="interpret"`` still runs the graph;
* **rebinding** — a prepared statement compiled once keeps answering
  correctly as bindings change shape, including rebinding to an empty
  selection and back;
* **event parity** — a profiled compiled run records the same event stream
  (op, bytes, device, scope, lane, shard) as interpreted replay, which is what keeps
  the simulated cost models executor-blind.
"""

from __future__ import annotations

import gc
import linecache
import sys
import threading
import traceback

import numpy as np
import pytest

from repro import ExecutionOptions
from repro.errors import CodegenError
from repro.tensor import Profiler, ScriptedProgram, codegen, onnxlike, ops, trace
from repro.tensor.passes import optimize


def _graph():
    def fn(x, y):
        return ops.sum_(ops.mul(x, y) + 0.5)

    return trace(fn, [ops.tensor([1.0, 2.0]), ops.tensor([3.0, 4.0])])


def _fused_graph():
    """An optimized graph containing a ``fused_kernel`` node."""
    def fn(x):
        return ops.sum_(ops.mul(ops.add(x, 1.0), 2.0))

    graph = optimize(trace(fn, [ops.tensor([1.0, 2.0, 3.0])]))
    assert "fused_kernel" in graph.op_counts()
    return graph


# -- compiled vs interpreted on plain traced graphs ---------------------------


def test_compiled_program_matches_interpreter():
    inputs = [ops.tensor([2.0, 3.0]), ops.tensor([4.0, 5.0])]
    interpreted = ScriptedProgram(_graph(), executor="interpret")
    compiled = ScriptedProgram(_graph(), executor="compiled")
    assert interpreted.compiled_source is None
    assert interpreted.serving_fn("cpu") is None
    assert "def run(" in compiled.compiled_source
    a = interpreted.run(inputs)[0].numpy()
    b = compiled.run(inputs)[0].numpy()
    np.testing.assert_array_equal(a, b)


def test_compiled_is_the_default_and_auto_is_gone():
    program = ScriptedProgram(_graph())
    assert program.executor == "compiled"
    assert program.compiled_source is not None
    with pytest.raises(ValueError, match="executor"):
        ScriptedProgram(_graph(), executor="auto")


def test_compiled_fused_graph_matches_interpreter():
    graph = _fused_graph()
    compiled = ScriptedProgram(graph, executor="compiled")
    interpreted = ScriptedProgram(graph.clone(), executor="interpret")
    x = [ops.tensor([0.5, 1.5, -2.0])]
    np.testing.assert_array_equal(compiled.run(x)[0].numpy(),
                                  interpreted.run(x)[0].numpy())


# -- what cannot be lowered raises, typed ---------------------------------------


def test_unknown_op_is_a_codegen_error():
    graph = _graph()
    graph.nodes[0].op = "frobnicate"
    assert "frobnicate" in codegen.unsupported_reason(graph)
    with pytest.raises(CodegenError, match="frobnicate"):
        codegen.compile_graph(graph)


def test_unknown_fused_step_is_a_codegen_error():
    graph = _fused_graph()
    fused = next(n for n in graph.nodes if n.op == "fused_kernel")
    fused.attrs["steps"][0]["op"] = "frobnicate"
    reason = codegen.unsupported_reason(graph)
    assert reason.startswith("fused step:") and "frobnicate" in reason
    with pytest.raises(CodegenError, match="fused step"):
        codegen.compile_graph(graph)


def test_unportable_attrs_raise_under_compiled_and_run_under_interpret():
    """The declared edge: a loaded portable graph that picked up an attribute
    JSON cannot express names its op in a ``CodegenError`` under the default
    executor — no silent change of path — and still runs on the reference
    interpreter (the kernel ignores the attribute)."""
    graph = onnxlike.loads(onnxlike.dumps(_graph()))
    op = graph.nodes[0].op
    graph.nodes[0].attrs["hook"] = object()   # does not survive the JSON IR
    assert "portable" in codegen.unsupported_reason(graph)
    with pytest.raises(CodegenError, match=f"{op!r}.*portable"):
        codegen.compile_graph(graph)
    with pytest.raises(CodegenError, match=f"{op!r}.*portable"):
        ScriptedProgram(graph)
    interpreted = ScriptedProgram(graph, executor="interpret")
    out = interpreted.run([ops.tensor([2.0, 3.0]), ops.tensor([4.0, 5.0])])
    assert out[0].numpy() == pytest.approx(24.0)


def test_numpy_scalar_attrs_are_portable():
    assert codegen._attrs_are_portable({"q": np.float64(24.0),
                                        "n": np.int64(3),
                                        "b": np.bool_(True)})
    assert not codegen._attrs_are_portable({"fn": lambda: None})


# -- generated sources live exactly as long as their program ------------------


def _codegen_entries():
    return {name for name in linecache.cache if name.startswith("<tqp-codegen")}


def _generated_frame(program, profiled):
    """The traceback entry of the generated function when a kernel raises."""
    mismatched = [ops.tensor([1.0, 2.0]), ops.tensor([1.0, 2.0, 3.0])]
    with pytest.raises(ValueError) as raised:
        if profiled:
            with Profiler():
                program.run(mismatched)
        else:
            program.run(mismatched)
    return next(entry for entry in traceback.extract_tb(raised.tb)
                if entry.filename.startswith("<tqp-codegen"))


def test_generated_source_shows_in_tracebacks_and_dies_with_the_program():
    before = _codegen_entries()
    program = codegen.compile_graph(_graph())
    fast = _generated_frame(program, profiled=False)
    assert fast.line and fast.line in program.source
    twin = _generated_frame(program, profiled=True)
    assert twin.filename == fast.filename[:-1] + ":profiled>"
    assert twin.line and twin.line in program.profiled_source
    mine = {fast.filename, twin.filename}
    assert _codegen_entries() - before == mine
    del program
    gc.collect()
    assert not _codegen_entries() & mine


def test_racing_compiles_never_share_a_module_name():
    """Two programs under one filename would show each other's source in
    tracebacks, and the first to die would evict the survivor's."""
    workers, each = 8, 25
    graphs = [[_graph() for _ in range(each)] for _ in range(workers)]
    programs = [[] for _ in range(workers)]
    barrier = threading.Barrier(workers)

    def compile_all(slot):
        barrier.wait(timeout=30)
        for graph in graphs[slot]:
            programs[slot].append(codegen.compile_graph(graph))

    before = _codegen_entries()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=compile_all, args=(slot,))
                   for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sum(map(len, programs)) == workers * each
    assert len(_codegen_entries() - before) == workers * each


# -- parameter rebinding through the compiled serving path --------------------


@pytest.fixture
def prepared_pair(toy_session):
    """The same parameterized query prepared under both executors."""
    sql = """select customer, sum(price * quantity) as spend
             from orders join items on items.order_id = orders.order_id
             where quantity < :q group by customer order by customer"""

    def prepare(executor):
        options = ExecutionOptions(backend="torchscript", device="cpu",
                                   executor=executor)
        return toy_session.prepare(sql, options=options)

    return prepare("interpret"), prepare("compiled")


def test_compiled_rebinding_matches_interpreter(prepared_pair):
    interpreted, compiled = prepared_pair
    # Bindings sweep selectivity down to empty and back up: the single
    # compiled function must serve every intermediate shape.
    bindings = [{"q": 10}, {"q": 2}, {"q": 0}, {"q": 7}]
    interp_results = interpreted.execute_many(bindings)
    compiled_results = compiled.execute_many(bindings)
    assert all(r.executor_mode == "interpreted" for r in interp_results)
    assert all(r.executor_mode == "compiled" for r in compiled_results)
    for binding, left, right in zip(bindings, interp_results,
                                    compiled_results):
        tl, tr = left.table.decoded(), right.table.decoded()
        assert tl.column_names == tr.column_names
        for name in tl.column_names:
            np.testing.assert_array_equal(
                tl.column(name).tensor.data, tr.column(name).tensor.data,
                err_msg=f"binding {binding}, column {name}")


def test_compiled_rebind_to_empty_and_back(prepared_pair):
    _, compiled = prepared_pair
    full = compiled.bind(q=10).execute()
    empty = compiled.bind(q=0).execute()
    again = compiled.bind(q=10).execute()
    assert empty.table.num_rows == 0
    assert full.table.num_rows > 0
    np.testing.assert_array_equal(
        full.table.decoded().column("spend").tensor.data,
        again.table.decoded().column("spend").tensor.data)
    # One trace served every binding — rebinding never recompiled.
    assert compiled.compiled.executor.compile_count == 1


# -- profile-event parity -----------------------------------------------------


def test_profiled_compiled_run_records_identical_events(event_stream):
    graph = _fused_graph()
    compiled = ScriptedProgram(graph, executor="compiled")
    interpreted = ScriptedProgram(graph.clone(), executor="interpret")
    x = [ops.tensor([1.0, 2.0, 3.0, 4.0])]
    with Profiler() as interp_prof:
        interpreted.run(x, device="cuda")
    # The profiled body does not exist until a run profiles, and the first
    # run of this program is the profiled one.
    assert compiled.compiled_profiled_source is None
    with Profiler() as compiled_prof:
        profiled_out = compiled.run(x, device="cuda")
    assert compiled.compiled_profiled_source.startswith("def run_profiled(")
    assert "def run_profiled(" not in compiled.compiled_source
    assert len(interp_prof.events) > 0
    assert event_stream(interp_prof) == event_stream(compiled_prof)
    np.testing.assert_array_equal(profiled_out[0].numpy(),
                                  compiled.run(x, device="cuda")[0].numpy())


def test_session_profile_events_match_across_executors(toy_session,
                                                       event_stream):
    sql = """select region, sum(price) as total from items
             join orders on items.order_id = orders.order_id
             group by region order by total desc"""
    profiles = {}
    for mode in ("interpret", "compiled"):
        options = ExecutionOptions(backend="torchscript", device="cuda",
                                   executor=mode)
        result = toy_session.compile(sql, options=options).execute(profile=True)
        assert result.executor_mode == ("compiled" if mode == "compiled"
                                        else "interpreted")
        profiles[mode] = result
    interp, compiled = profiles["interpret"], profiles["compiled"]
    assert event_stream(interp.profile) == event_stream(compiled.profile)
    # ... operator scopes included: both replays say which operator ran what
    # (the input transfers precede every operator).
    assert {e.scope.split("[")[0].split("(")[0] for e in compiled.profile.events
            if e.op != "to_device"} == {"HashJoin", "HashAggregate", "Sort"}
    # Identical events mean identical simulated accounting.
    assert interp.reported_s == compiled.reported_s
