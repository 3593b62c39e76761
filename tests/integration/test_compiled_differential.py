"""Differential TPC-H conformance for the compiled executor (tier 2).

Every TPC-H query runs under both executors — interpreted graph replay and
the codegen path (``executor="compiled"``, which *raises* rather than falls
back, so a query silently losing codegen support fails loudly here) — across
serial and morsel-parallel plans, and must match the row-at-a-time oracle
row-for-row (sorted, float tolerance, as everywhere in the differential
suites).

``bench_compiled_executor.py`` separately holds the two modes to *bitwise*
equality against each other on ``torchscript``; this suite pins both to the
independent oracle, and holds the ``onnx`` backend — which replays through
generated code on cpu and wasm since its simulated per-node dispatch burn was
deleted — to bitwise result and event-stream equality between the executors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import RowEngine
from repro.datasets import tpch
from repro.frontend import sql_to_physical
from repro import ExecutionOptions

pytestmark = pytest.mark.tier2

SCALE_FACTOR = 0.002

EXECUTORS = ("interpret", "compiled")

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
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("query_id", tpch.ALL_QUERY_IDS)
def test_tpch_compiled_differential(tpch_tiny, oracle, frames_match, query_id,
                                    executor, parallelism):
    session, _ = tpch_tiny
    sql = tpch.query(query_id, SCALE_FACTOR)
    options = ExecutionOptions(backend="torchscript", device="cpu",
                               executor=executor, parallelism=parallelism)
    compiled = session.compile(sql, options=options)
    result = compiled.execute()
    expected = "compiled" if executor == "compiled" else "interpreted"
    assert result.executor_mode == expected, (
        f"Q{query_id} did not run on the {expected} executor")
    frames_match(result.to_dataframe(), oracle(query_id),
                 f"Q{query_id} [{executor}/parallelism={parallelism}]")


# -- onnx: generated code vs the reference interpreter -------------------------

ONNX_DEVICES = ("cpu", "wasm")

#: Partitionings for the lanes / shard tags of the event stream; the serial
#: plans cover all 22 queries, these the three the golden fixture pins too.
PARTITIONED = {"lanes4": dict(parallelism=4), "shards4": dict(devices=4)}
PARTITIONED_QUERY_IDS = (1, 3, 6)


def _assert_onnx_executors_agree(session, event_stream, query_id, device,
                                 **partitioning):
    sql = tpch.query(query_id, SCALE_FACTOR)
    context = f"Q{query_id} [onnx/{device}/{partitioning or 'serial'}]"
    results = {}
    for executor in EXECUTORS:
        options = ExecutionOptions(backend="onnx", device=device,
                                   executor=executor, **partitioning)
        results[executor] = session.compile(sql, options=options).execute(
            profile=True)
    interpreted, compiled = results["interpret"], results["compiled"]
    assert interpreted.executor_mode == "interpreted", context
    assert compiled.executor_mode == "compiled", context
    left, right = interpreted.table, compiled.table
    assert left.column_names == right.column_names, context
    for name in left.column_names:
        for part in ("tensor", "valid"):
            a = getattr(left.column(name), part)
            b = getattr(right.column(name), part)
            assert (a is None) == (b is None), f"{context}: {name}.{part}"
            if a is not None:
                assert a.data.dtype == b.data.dtype, f"{context}: {name}.{part}"
                assert np.array_equal(a.data, b.data,
                                      equal_nan=a.data.dtype.kind == "f"), (
                    f"{context}: {name}.{part} differs between executors")
    assert len(interpreted.profile.events) > 0, context
    assert (event_stream(interpreted.profile)
            == event_stream(compiled.profile)), context


@pytest.mark.parametrize("device", ONNX_DEVICES)
@pytest.mark.parametrize("query_id", tpch.ALL_QUERY_IDS)
def test_onnx_compiled_matches_interpreted(tpch_tiny, event_stream, query_id,
                                           device):
    session, _ = tpch_tiny
    _assert_onnx_executors_agree(session, event_stream, query_id, device)


@pytest.mark.parametrize("device", ONNX_DEVICES)
@pytest.mark.parametrize("partitioning", sorted(PARTITIONED))
@pytest.mark.parametrize("query_id", PARTITIONED_QUERY_IDS)
def test_onnx_compiled_matches_interpreted_partitioned(
        tpch_tiny, event_stream, query_id, partitioning, device):
    session, _ = tpch_tiny
    _assert_onnx_executors_agree(session, event_stream, query_id, device,
                                 **PARTITIONED[partitioning])
