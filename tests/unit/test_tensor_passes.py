"""Unit tests for graph optimization passes."""

import numpy as np
import pytest

from repro.tensor import GraphInterpreter, ops, passes, trace


def _run(graph, *arrays):
    return GraphInterpreter(graph).run([ops.tensor(a) for a in arrays])


def test_dead_code_elimination_removes_unused_nodes():
    def fn(x):
        ops.mul(x, 100.0)        # dead
        return ops.add(x, 1.0)

    graph = trace(fn, [ops.tensor([1.0])])
    assert len(graph.nodes) == 2
    passes.dead_code_elimination(graph)
    assert [n.op for n in graph.nodes] == ["add"]
    np.testing.assert_allclose(_run(graph, [5.0])[0].numpy(), [6.0])


def test_constant_folding_evaluates_constant_subgraphs():
    def fn(x):
        constant = ops.mul(ops.tensor([2.0, 2.0]), ops.tensor([3.0, 3.0]))
        return ops.add(x, constant)

    graph = trace(fn, [ops.tensor([1.0, 1.0])])
    passes.constant_folding(graph)
    assert [n.op for n in graph.nodes] == ["add"]
    np.testing.assert_allclose(_run(graph, [1.0, 2.0])[0].numpy(), [7.0, 8.0])


def test_constant_folding_drops_an_all_true_operand():
    """``and(x, TRUE)`` is ``x`` and ``or(y, TRUE)`` is TRUE when the other
    operand is bool and has the output's shape; anything else is kept."""
    def fn(x, y, n):
        mask = ops.gt(x, 1.0)
        kept = ops.logical_and(ops.tensor(np.array(True)), mask)
        decided = ops.logical_or(ops.logical_not(mask), ops.tensor(
            np.array([True, True, True])))
        # ``y`` broadcasts (its shape is not the output's); ``n`` is no bool.
        broadcast = ops.logical_and(ops.gt(y, 0.0),
                                    ops.tensor(np.array([True])))
        return [kept, ops.logical_and(kept, decided), broadcast,
                ops.logical_and(n, ops.tensor(np.array(True)))]

    graph = trace(fn, [ops.tensor([0.0, 2.0, 3.0]), ops.tensor(np.array(1.0)),
                       ops.tensor(np.array([1, 0, 2]))])
    passes.constant_folding(graph)
    passes.dead_code_elimination(graph)
    assert [n.op for n in graph.nodes] == [
        "gt", "gt", "logical_and", "logical_and"]
    mask = graph.nodes[0].outputs[0]
    assert graph.outputs[:2] == [mask, mask]
    outputs = _run(graph, [0.0, 2.0, 3.0], np.array(1.0), np.array([1, 0, 2]))
    assert [out.numpy().tolist() for out in outputs] == [
        [False, True, True], [False, True, True], [True], [True, False, True]]


def test_constant_folding_keeps_an_or_a_parameter_reaches():
    """A folded ``or(y, TRUE)`` would be an all-true constant of the traced
    shape; where a bind parameter reaches ``y`` a replay may see another
    size, so the ``or`` stays (the ``and`` rule bakes no shape and applies)."""
    def fn(x, threshold):
        kept = ops.nonzero(ops.gt(x, threshold))
        mask = ops.gt(ops.take(x, kept), 1.0)
        valid = ops.tensor(np.array(True))
        return [ops.logical_or(valid, ops.logical_not(mask)),
                ops.logical_and(mask, valid)]

    graph = trace(fn, [ops.tensor([0.0, 2.0, 3.0]), ops.tensor(np.array(0.5))],
                  input_names=["t.x", "param:threshold"])
    passes.constant_folding(graph)
    passes.dead_code_elimination(graph)
    assert [n.op for n in graph.nodes].count("logical_or") == 1
    assert "logical_and" not in [n.op for n in graph.nodes]
    outputs = _run(graph, [0.0, 2.0, 3.0], np.array(-1.0))
    assert [out.numpy().tolist() for out in outputs] == [
        [True, True, True], [False, True, True]]


def test_cse_merges_identical_subexpressions():
    def fn(x):
        return ops.add(ops.mul(x, 2.0), ops.mul(x, 2.0))

    graph = trace(fn, [ops.tensor([1.0])])
    assert sum(1 for n in graph.nodes if n.op == "mul") == 2
    passes.common_subexpression_elimination(graph)
    passes.dead_code_elimination(graph)
    assert sum(1 for n in graph.nodes if n.op == "mul") == 1
    np.testing.assert_allclose(_run(graph, [3.0])[0].numpy(), [12.0])


def test_peephole_collapses_cast_chains():
    def fn(x):
        return ops.cast(ops.cast(x, "int64"), "float64")

    graph = trace(fn, [ops.tensor(np.array([3], dtype=np.int32))])
    passes.peephole(graph)
    passes.dead_code_elimination(graph)
    assert [n.attrs["dtype"] for n in graph.nodes if n.op == "cast"] == ["float64"]
    out = _run(graph, np.array([-7], dtype=np.int32))[0]
    assert out.dtype.name == "float64" and out.tolist() == [-7.0]


@pytest.mark.parametrize("value,chain", [
    (np.array([1.7, 2.2, -3.9, 10.5]), ("int64", "float64")),   # truncation
    (np.array([2**40 + 5], dtype=np.int64), ("int32", "int64")),  # wrap-around
    (np.array([5], dtype=np.int64), ("bool", "int64")),           # saturation
    (np.array([2**53 + 1], dtype=np.int64), ("float64", "int64")),  # mantissa
])
def test_peephole_keeps_a_lossy_inner_cast(value, chain):
    def fn(x):
        return ops.cast(ops.cast(x, chain[0]), chain[1])

    example = [ops.tensor(value)]
    graph = trace(fn, example)
    expected = fn(*example).numpy()
    assert not np.array_equal(expected, value)  # the chain is not the identity
    optimized = passes.optimize(graph)
    assert sum(1 for n in optimized.nodes for step in
               (n.attrs.get("steps") or [{"op": n.op}]) if step["op"] == "cast") == 2
    np.testing.assert_array_equal(_run(optimized, value)[0].numpy(), expected)


def test_peephole_keeps_both_casts_when_the_source_dtype_is_unknown():
    graph = trace(lambda x: ops.cast(ops.cast(x, "int64"), "float64"),
                  [ops.tensor(np.array([3], dtype=np.int32))])
    graph.values[graph.inputs[0]].dtype = None
    passes.peephole(graph)
    assert sum(1 for n in graph.nodes if n.op == "cast") == 2


def test_peephole_removes_noop_cast():
    def fn(x):
        return ops.add(ops.cast(x, "float64"), 1.0)

    graph = trace(fn, [ops.tensor([1.0])])
    passes.optimize(graph)
    assert all(n.op != "cast" for n in graph.nodes)
    np.testing.assert_allclose(_run(graph, [1.0])[0].numpy(), [2.0])


def test_optimize_preserves_results_on_composite_program():
    def fn(x, y):
        mask = ops.logical_and(x > 1.0, x > 1.0)   # duplicate comparison (CSE)
        kept = ops.boolean_mask(y, mask)
        return ops.sum_(ops.mul(kept, ops.add(ops.tensor(1.0), ops.tensor(1.0))))

    example = [ops.tensor([0.5, 2.0, 3.0]), ops.tensor([10.0, 20.0, 30.0])]
    graph = trace(fn, example)
    expected = GraphInterpreter(graph.clone()).run(example)[0].item()
    optimized = passes.optimize(graph)
    assert GraphInterpreter(optimized).run(example)[0].item() == expected
    assert len(optimized.nodes) < 8


def test_impure_ops_not_folded_or_merged():
    def fn(x):
        a = ops.to_device(x, "cuda")
        b = ops.to_device(x, "cuda")
        return ops.add(a, b)

    graph = trace(fn, [ops.tensor([1.0])])
    passes.optimize(graph)
    assert sum(1 for n in graph.nodes if n.op == "to_device") == 2


# -- late materialization: structure ------------------------------------------


def _late(fn, example):
    """``fn`` traced and run through DCE + the late-materialization pass."""
    graph = passes.dead_code_elimination(trace(fn, example))
    expected = [t.numpy() for t in GraphInterpreter(graph.clone()).run(example)]
    graph = passes.late_materialization(graph)
    graph.validate()
    for want, got in zip(expected, GraphInterpreter(graph).run(example)):
        np.testing.assert_array_equal(got.numpy(), want)
    return graph


def _table():
    return [ops.tensor(np.arange(8.0)), ops.tensor(np.arange(8.0) * 10),
            ops.tensor(np.arange(24, dtype=np.int32).reshape(8, 3))]


def test_columns_under_one_mask_share_one_nonzero():
    def fn(a, b, codes):
        mask = ops.gt(a, 2.0)
        return [ops.boolean_mask(column, mask) for column in (a, b, codes)]

    graph = _late(fn, _table())
    assert graph.op_counts() == {"gt": 1, "nonzero": 1, "take": 3}


def test_a_gather_read_only_by_gathers_is_never_emitted():
    def fn(a, b, codes):
        order = ops.argsort(a)
        keep = ops.tensor(np.array([0, 1, -1]))
        return [ops.take(ops.take(column, order), keep) for column in (a, b, codes)]

    graph = _late(fn, _table())
    # One composed index for all three columns; each column gathered once,
    # three rows of it, straight from the program input.
    assert graph.op_counts() == {"argsort": 1, "take": 4}
    gathers = [n for n in graph.nodes
               if n.op == "take" and n.inputs[0] in graph.inputs]
    assert len(gathers) == 3 and len({n.inputs[1] for n in gathers}) == 1
    assert all(graph.values[n.outputs[0]].shape[0] == 3 for n in gathers)


def test_a_gather_with_another_reader_is_kept_and_read_by_its_gathers():
    def fn(a, b, codes):
        sorted_a = ops.take(a, ops.argsort(b))
        return ops.cumsum(sorted_a), ops.take(sorted_a, ops.tensor([2, 0])), sorted_a

    graph = _late(fn, _table())
    kept = graph.outputs[2]
    readers = [n.op for n in graph.nodes if kept in n.inputs]
    assert sorted(readers) == ["cumsum", "take"]


def test_gathers_compose_across_operator_scopes():
    from repro.tensor import stamped

    def fn(a, b, codes):
        index, keep = ops.argsort(a), ops.tensor([1, 0])
        with stamped(scope="Filter#1"):
            in_filter = ops.take(b, index)
        return (ops.take(in_filter, keep),)

    graph = _late(fn, _table())
    by_output = {n.outputs[0]: n for n in graph.nodes}
    (across,) = (by_output[vid] for vid in graph.outputs)
    assert across.inputs[0] in graph.inputs  # a scope is descriptive


# -- the operator scope is descriptive, never structural ----------------------


def test_identical_nodes_under_different_operators_still_merge():
    from repro.tensor import stamped

    def fn(a, b, codes):
        with stamped(scope="Filter"):
            first = ops.mul(a, 2.0)
        with stamped(scope="Project"):
            second = ops.mul(a, 2.0)
        return (ops.add(first, second),)

    graph = passes.common_subexpression_elimination(trace(fn, _table()))
    muls = [n.attrs for n in graph.nodes if n.op == "mul"]
    # The survivor keeps the first stamp.
    assert muls == [{"scope": "Filter"}]


def test_a_fused_kernel_takes_the_scope_of_its_first_output():
    from repro.tensor import stamped

    def fn(a, b, codes):
        with stamped(scope="Filter"):
            dead_end = ops.mul(a, 2.0)
            kept = ops.add(dead_end, b)
        with stamped(scope="Project"):
            return ops.sub(kept, 1.0), kept

    graph = passes.fuse_elementwise(trace(fn, _table()))
    (fused,) = graph.nodes
    assert fused.op == "fused_kernel"
    assert fused.attrs["scope"] == "Filter"
    assert all("scope" not in step["attrs"] for step in fused.attrs["steps"])


def test_nodes_late_materialization_creates_inherit_their_sources_stamp():
    from repro.tensor import stamped

    def fn(a, b, codes):
        with stamped(scope="Filter#3"):
            kept = ops.boolean_mask(a, ops.gt(b, 2.0))          # R1
            twice = ops.take(ops.take(a, ops.argsort(b)), ops.tensor([1, 0]))  # R2
        index = ops.tensor(np.arange(16) % 8)
        with stamped(scope="Project"):
            sunk = ops.add(ops.take(a, index), ops.take(b, index))  # R3
        return kept, twice, sunk

    graph = _late(fn, _table())
    by_output = {n.outputs[0]: n for n in graph.nodes}
    kept, twice, sunk = (by_output[vid] for vid in graph.outputs)
    in_filter = {"scope": "Filter#3"}
    nonzero, composed = by_output[kept.inputs[1]], by_output[twice.inputs[1]]
    assert (nonzero.op, nonzero.attrs) == ("nonzero", in_filter)
    assert (composed.op, composed.attrs) == ("take", {**in_filter, "axis": 0})
    below = by_output[sunk.inputs[0]]
    assert (sunk.op, below.op) == ("take", "add")
    assert sunk.attrs["scope"] == below.attrs["scope"] == "Project"


def test_a_node_traced_outside_any_operator_takes_the_ambient_scope():
    from repro.tensor import Profiler, ScriptedProgram, stamped

    def model(a, b, codes):                 # a script_trace'd ML function
        return ops.cumsum(ops.add(ops.cumsum(a), b))

    graph = passes.optimize(trace(model, _table()))
    assert all("scope" not in n.attrs for n in graph.nodes)
    for executor in ("compiled", "interpret"):
        program = ScriptedProgram(graph.clone(), executor=executor)
        with Profiler() as profiler, stamped(scope="Project"):
            program.run(_table())
        # The scope is the replaying thread's.
        assert [(e.op, e.scope) for e in profiler.events] == [
            ("cumsum", "Project"), ("add", "Project"),
            ("cumsum", "Project")], executor


def test_rank2_masks_and_axis1_takes_are_left_alone():
    def fn(a, b, codes):
        picked = ops.take(ops.take(codes, ops.tensor([0, 2]), axis=1),
                          ops.tensor([1]), axis=1)
        return picked, ops.boolean_mask(codes, ops.gt(codes, 5))

    graph = _late(fn, _table())
    assert graph.op_counts() == {"take": 2, "gt": 1, "boolean_mask": 1}
    assert all(n.attrs["axis"] == 1 for n in graph.nodes if n.op == "take")


def test_row_wise_readers_run_below_the_gather():
    def fn(a, b, codes):
        index = ops.tensor(np.arange(16) % 8)           # more rows out than in
        wide = ops.take(codes, index)
        literal = ops.tensor(np.array([3, 4], dtype=np.int32))
        hit = ops.all_(ops.eq(ops.narrow(wide, 1, 0, 2), literal), axis=1)
        total = ops.add(ops.take(a, index), ops.take(b, index))
        return hit, total, ops.find(wide, 0, [7])

    graph = _late(fn, _table())
    rows = {n.op: graph.values[n.outputs[0]].shape[0] for n in graph.nodes
            if n.op != "take"}
    assert rows == {"slice": 8, "eq": 8, "all": 8, "add": 8, "find": 8}
    assert graph.op_counts()["take"] == 3               # one per result


def test_row_wise_readers_stay_above_a_gather_that_shrinks():
    def fn(a, b, codes):
        return ops.mul(ops.take(a, ops.tensor([1, 2])), 2.0)

    graph = _late(fn, _table())
    assert [n.op for n in graph.nodes] == ["take", "mul"]


def test_an_operand_aligned_with_the_gathered_rows_blocks_the_sink():
    per_row = np.arange(16.0)

    def fn(a, b, codes):
        index = ops.tensor(np.arange(16) % 4)
        gathered = ops.take(a, index)
        return (ops.add(gathered, ops.tensor(per_row)),             # (16,) vs rows
                ops.add(gathered, ops.take(b, ops.tensor(np.arange(16) % 8))),
                ops.add(gathered, ops.take(ops.cumsum(ops.narrow(b, 0, 0, 4)), index)))

    graph = _late(fn, _table())
    assert all(graph.values[n.outputs[0]].shape == (16,)
               for n in graph.nodes if n.op == "add")


def test_two_sources_sink_together_only_when_no_parameter_sizes_them():
    def fn(a, b, threshold):
        index = ops.tensor(np.arange(16) % 4)
        # As many rows as ``b`` while tracing; fewer under another binding.
        kept = ops.cumsum(ops.boolean_mask(a, ops.gt(a, threshold)))
        return (ops.add(ops.take(kept, index), ops.take(b, index)),
                ops.add(ops.take(a, index), ops.take(b, index)))

    example = [ops.tensor(np.arange(8.0)), ops.tensor(np.arange(8.0)),
               ops.tensor(-1.0)]
    graph = passes.dead_code_elimination(
        trace(fn, example, input_names=["t.a", "t.b", "param:threshold"]))
    graph = passes.late_materialization(graph)
    adds = [graph.values[n.outputs[0]].shape[0] for n in graph.nodes if n.op == "add"]
    assert sorted(adds) == [8, 16]
    # ... and the program still answers when the binding drops rows.
    replay = GraphInterpreter(graph).run(example[:2] + [ops.tensor(2.5)])
    picked = np.arange(16) % 4
    np.testing.assert_array_equal(
        replay[0].numpy(), np.cumsum(np.arange(3.0, 8.0))[picked] + np.arange(8.0)[picked])
