"""Where an op ran, on every backend.

A traced node carries the stamp it was traced under — relational operator,
device shard — so a replay profiles into the same operator breakdown the
eager backend reports (Figure 2 on the targets the paper
compiles to), whether it runs compiled, after the ``onnx`` round trip, on the
caller's thread or on a serving worker.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro import ExecutionOptions
from repro.adaptive.feedback import harvest_feedback, scope_family
from repro.datasets import tpch
from repro.serve import ServingRuntime

SCALE_FACTOR = 0.002
STRATEGIES = {"serial": {}, "lanes4": {"parallelism": 4}, "shards4": {"devices": 4}}
GRAPH_BACKENDS = ("torchscript", "onnx")
_SCOPE = re.compile(r"#(\d+)(?::shuffle)?(?:@d(\d+))?$")


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
        for event in events:
            # ``<label>#<id>`` names one operator; ``@d<k>`` ran on shard k.
            _, shard = _SCOPE.search(event.scope).groups()
            assert event.scope.split(":")[0].split("@")[0] in operators
            assert event.shard == (shard and int(shard)), (backend, event)
        # The plan, not the program, says which operators run on lanes.
        assert set(compiled.operator_plan.lanes) == {
            scope for scope, op in operators.items()
            if "workers=4" in op.describe()}


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


def test_q3_breaks_down_by_operator_and_feeds_back_its_selectivity(tpch_tiny):
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
        # One ``nonzero`` per filter: ids out over mask rows in, exactly.
        assert harvest_feedback(profile)[1] == kept / scanned


def test_a_served_request_profiles_into_the_callers_scopes(tpch_tiny):
    session, _ = tpch_tiny
    options = ExecutionOptions(backend="torchscript", parallelism=4)
    sql = tpch.query(3, SCALE_FACTOR)
    inline = session.compile(sql, options=options).execute(profile=True)
    with ServingRuntime(session, workers=2, default_options=options) as runtime:
        pooled = runtime.execute(sql, profile=True)
    stamps = [(e.op, e.scope, e.shard) for e in inline.profile.events]
    assert stamps == [(e.op, e.scope, e.shard) for e in pooled.profile.events]
    assert all(scope for _, scope, _ in stamps)
