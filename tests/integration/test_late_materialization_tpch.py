"""Late materialization on real plans: what the optimized TPC-H programs look
like, and one prepared program replayed from an empty selection to a full one.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.baselines.rowengine import run_sql
from repro.datasets import tpch

SCALE_FACTOR = 0.002
TORCHSCRIPT = ExecutionOptions(backend="torchscript")


def _program(session, query_id):
    return session.compile(tpch.query(query_id, SCALE_FACTOR),
                           options=TORCHSCRIPT).executor_graph()


def _rows(graph, vid):
    return graph.values[vid].shape[0]


def test_q7_compares_nation_names_on_the_nation_table(tpch_tiny):
    session, tables = tpch_tiny
    graph = _program(session, 7)
    compared = [_rows(graph, node.outputs[0]) for node in graph.nodes
                if node.op == "all"]
    assert compared and max(compared) <= tables["nation"].num_rows


def test_q13_searches_the_stored_comments(tpch_tiny):
    session, _ = tpch_tiny
    graph = _program(session, 13)
    searched = {graph.values[node.inputs[0]].name for node in graph.nodes
                if node.op == "find"}
    assert searched == {"orders.orders.o_comment"}
    assert all(vid in graph.inputs for node in graph.nodes
               if node.op == "find" for vid in node.inputs[:1])


def test_q3_sort_limit_gathers_ten_rows_per_output_column(tpch_tiny):
    session, _ = tpch_tiny
    graph = _program(session, 3)
    producers = {vid: node for node in graph.nodes for vid in node.outputs}
    heads = [producers[vid] for vid in graph.outputs]
    assert all(node.op == "take" and _rows(graph, node.outputs[0]) == 10
               for node in heads)
    # Read from the unsorted groups through shared ten-row ids (one set for
    # the group keys, one for the aggregates): no column is sorted whole.
    assert all(_rows(graph, node.inputs[0]) > 10 for node in heads)
    assert len({node.inputs[1] for node in heads}) == 2


#: Filter -> join -> string predicate on the dimension side -> filter again:
#: every rewrite of the pass fires, and ``:q`` takes the first selection from
#: nothing to everything.
SELECTIVITY_SQL = """
    select o_orderpriority, count(*) as c, sum(l_extendedprice) as s
    from orders join lineitem on l_orderkey = o_orderkey
    where l_quantity < :q and o_orderstatus = 'F' and o_comment like '%re%'
    group by o_orderpriority order by o_orderpriority"""

#: ``l_quantity`` is uniform on 1..50.
SELECTIVITY_BINDINGS = [0.5, 26.0, 51.0, 0.5, 13.0]


@pytest.mark.parametrize("backend,parallelism,devices", [
    ("torchscript", 1, 1), ("onnx", 1, 1), ("torchscript", 4, 1),
    ("torchscript", 1, 4), ("pytorch", 1, 1)])
def test_one_program_replays_from_empty_to_full_selection(
        tpch_tiny, frames_match, backend, parallelism, devices):
    session, tables = tpch_tiny
    session.plan_cache.clear()
    prepared = session.prepare(SELECTIVITY_SQL, options=ExecutionOptions(
        backend=backend, parallelism=parallelism, devices=devices))
    selected = []
    for quantity in SELECTIVITY_BINDINGS:
        got = prepared.bind(q=quantity).run()
        expected = run_sql(SELECTIVITY_SQL, tables, params={"q": quantity})
        frames_match(got, expected, ordered=True,
                     context=f"{backend}/p{parallelism}/d{devices} q={quantity}")
        selected.append(sum(got.to_dict()["c"]))
    assert selected[0] == selected[3] == 0 < selected[4] < selected[1] < selected[2]
    assert prepared.compiled.executor.compile_count <= 1
    if backend != "pytorch":
        counts = prepared.compiled.executor_graph(
            params={"q": SELECTIVITY_BINDINGS[0]}).op_counts()
        assert "boolean_mask" not in counts and counts["nonzero"] >= 1
