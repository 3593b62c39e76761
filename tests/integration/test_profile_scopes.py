"""Where an op ran, on every backend.

A traced node carries the stamp it was traced under — its relational
operator — so a replay profiles into the same operator breakdown the
eager backend reports (Figure 2 on the targets the paper
compiles to), whether it runs compiled, after the ``onnx`` round trip, on the
caller's thread or on a serving worker.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions
from repro.core.planner import scope_family
from repro.datasets import tpch
from repro.serve import ServingRuntime

SCALE_FACTOR = 0.002
STRATEGIES = {"serial": {}, "lanes4": {"parallelism": 4},
              "devices4": {"devices": 4}}
GRAPH_BACKENDS = ("torchscript", "onnx")


def _compile(session, query: int, backend: str, strategy: str = "serial"):
    options = ExecutionOptions(backend=backend, **STRATEGIES[strategy])
    return session.compile(tpch.query(query, SCALE_FACTOR), options=options)


def _profile(session, query: int, backend: str, strategy: str = "serial"):
    return _compile(session, query, backend, strategy).execute(
        profile=True).profile


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("query", (1, 3, 6))
def test_graph_backends_profile_into_the_eager_operator_families(
        tpch_tiny, query, strategy):
    session, _ = tpch_tiny
    eager = {scope_family(e.scope)
             for e in _profile(session, query, "pytorch", strategy).events}
    for backend in GRAPH_BACKENDS:
        compiled = _compile(session, query, backend, strategy)
        events = compiled.execute(profile=True).profile.events
        assert all(e.scope for e in events), backend
        assert {scope_family(e.scope) for e in events} == eager, backend
        operators = {op.scope: op for op in compiled.operator_plan.root.walk()}
        # ``<label>#<id>`` names one operator of the plan.
        assert {e.scope for e in events} <= set(operators), backend
        # The plan's lanes map, not the program, says which operators run
        # on lanes, and the rendered plan labels exactly those.
        widths = compiled.operator_plan.lanes
        assert set(widths) <= set(operators)
        assert [("workers=4" in line) for line
                in compiled.operator_plan.pretty().splitlines()] == [
            scope in widths for scope in operators]


def test_q21_breaks_down_into_one_row_per_operator(tpch_tiny):
    """A scope names one operator: Q21's four filters are four rows."""
    session, _ = tpch_tiny
    compiled = _compile(session, 21, "torchscript")
    profile = compiled.execute(profile=True).profile
    rows = {row.key for row in profile.by_scope()}
    ran = [op.scope for op in compiled.operator_plan.root.walk()
           if op.scope in rows]
    assert sorted(ran) == sorted(rows)
    assert len([scope for scope in rows if scope.startswith("Filter#")]) == 4


def test_q3_breaks_down_by_operator_and_its_filters_count_rows(tpch_tiny):
    session, tables = tpch_tiny
    customer, orders, lineitem = (tables[name] for name in
                                  ("customer", "orders", "lineitem"))
    cutoff = np.datetime64(tpch.query(3, SCALE_FACTOR).split("date '")[1][:10])
    kept = (int((customer["c_mktsegment"] == "BUILDING").sum())
            + int((orders["o_orderdate"] < cutoff).sum())
            + int((lineitem["l_shipdate"] > cutoff).sum()))
    scanned = customer.num_rows + orders.num_rows + lineitem.num_rows
    for backend in GRAPH_BACKENDS:
        profile = _profile(session, 3, backend)
        assert {scope_family(row.key) for row in profile.by_scope()} == {
            "Filter", "HashJoin", "HashAggregate", "Sort", "Limit"}
        # One ``nonzero`` per filter: 8-byte ids out over 1-byte mask rows
        # in, so the filters' selectivity reads exactly off the events.
        selections = [event for event in profile.events
                      if event.op == "nonzero"
                      and scope_family(event.scope) == "Filter"]
        assert len(selections) == 3
        assert (sum(event.output_bytes for event in selections)
                / (8 * sum(event.input_bytes for event in selections))
                == kept / scanned)


def test_a_served_request_profiles_into_the_callers_scopes(tpch_tiny):
    session, _ = tpch_tiny
    options = ExecutionOptions(backend="torchscript", parallelism=4)
    sql = tpch.query(3, SCALE_FACTOR)
    inline = session.compile(sql, options=options).execute(profile=True)
    with ServingRuntime(session, workers=2, default_options=options) as runtime:
        pooled = runtime.execute(sql, profile=True)
    stamps = [(e.op, e.scope) for e in inline.profile.events]
    assert stamps == [(e.op, e.scope) for e in pooled.profile.events]
    assert all(scope for _, scope in stamps)
