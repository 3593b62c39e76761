"""Differential TPC-H conformance suite (tier 2).

Every TPC-H query runs through the tensor engine across parallelism levels,
backends and devices, and must return row-for-row the result the row-at-a-time
oracle (:mod:`repro.baselines.rowengine`) produces from the same physical
plan.  Rows are compared *sorted* with a float tolerance (the shared
``frames_match`` helper): the oracle's row order and float association are
not the engine's — set equality within fp tolerance is what is promised.
(A morsel-parallel plan runs the serial program: lanes are a cost model.)
"""

from __future__ import annotations

import pytest

from repro.baselines import RowEngine
from repro.datasets import tpch
from repro.frontend import sql_to_physical
from repro import ExecutionOptions

pytestmark = pytest.mark.tier2

SCALE_FACTOR = 0.002

#: backend × device grid; wasm requires the onnx backend and pays a per-node
#: interpreter burn, so it covers a representative query subset.
SYSTEMS = [("pytorch", "cpu"), ("torchscript", "cuda")]
WASM_QUERIES = (1, 3, 6, 13, 18)

PARALLELISMS = (1, 4)


@pytest.fixture(scope="module")
def oracle(tpch_tiny):
    """Row-engine result per query id, computed once and shared."""
    session, tables = tpch_tiny
    cache = {}

    def result_for(query_id):
        if query_id not in cache:
            plan = sql_to_physical(tpch.query(query_id, SCALE_FACTOR),
                                   session.catalog)
            cache[query_id] = RowEngine(tables).execute_to_dataframe(plan)
        return cache[query_id]

    return result_for


@pytest.mark.parametrize("parallelism", PARALLELISMS)
@pytest.mark.parametrize("backend,device", SYSTEMS,
                         ids=[f"{b}-{d}" for b, d in SYSTEMS])
@pytest.mark.parametrize("query_id", tpch.ALL_QUERY_IDS)
def test_tpch_differential(tpch_tiny, oracle, frames_match, query_id, backend,
                           device, parallelism):
    session, _ = tpch_tiny
    sql = tpch.query(query_id, SCALE_FACTOR)
    result = session.sql(sql, options=ExecutionOptions(backend=backend, device=device, parallelism=parallelism))
    frames_match(result, oracle(query_id),
                 f"Q{query_id} [{backend}/{device}/parallelism={parallelism}]")


@pytest.mark.parametrize("parallelism", PARALLELISMS)
@pytest.mark.parametrize("query_id", WASM_QUERIES)
def test_tpch_differential_wasm(tpch_tiny, oracle, frames_match, query_id,
                                parallelism):
    session, _ = tpch_tiny
    sql = tpch.query(query_id, SCALE_FACTOR)
    result = session.sql(sql, options=ExecutionOptions(backend="onnx", device="wasm", parallelism=parallelism))
    frames_match(result, oracle(query_id),
                 f"Q{query_id} [onnx/wasm/parallelism={parallelism}]")


def test_parallel_plans_actually_parallelize(tpch_tiny):
    """Guard against the suite silently testing serial plans twice: at
    parallelism 4 the scan-heavy queries must plan morsel operators, and at
    parallelism 1 none may appear."""
    session, _ = tpch_tiny
    for query_id in (1, 6):
        sql = tpch.query(query_id, SCALE_FACTOR)
        parallel_plan = session.compile(sql, options=ExecutionOptions(parallelism=4)).operator_plan.root.pretty()
        serial_plan = session.compile(sql, options=ExecutionOptions(parallelism=1)).operator_plan.root.pretty()
        assert "MorselScan" in parallel_plan and "workers=4" in parallel_plan
        assert "Morsel" not in serial_plan and "Parallel" not in serial_plan
    # Q3's join inputs stay above the parallelism threshold even after the
    # statistics-based selectivity estimates shrink filtered cardinalities
    # (Q14's ~1.4%-selective one-month date range now correctly plans a
    # serial join over the few surviving rows).
    q3 = session.compile(tpch.query(3, SCALE_FACTOR), options=ExecutionOptions(parallelism=4))
    assert "PartitionedHashJoin[inner]" in q3.operator_plan.root.pretty()
    q14 = session.compile(tpch.query(14, SCALE_FACTOR), options=ExecutionOptions(parallelism=4))
    assert "PartitionedHashJoin" not in q14.operator_plan.root.pretty()
    q1 = session.compile(tpch.query(1, SCALE_FACTOR), options=ExecutionOptions(parallelism=4))
    assert "ParallelHashAggregate" in q1.operator_plan.root.pretty()
