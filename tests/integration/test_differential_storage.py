"""Differential TPC-H conformance with compressed storage + pruning (tier 2).

The companion suite to ``test_differential_tpch``: the same all-22-queries
row-engine oracle check, but over a **date-clustered** ``lineitem`` (sorted by
``l_shipdate``, the classic clustering choice for the TPC-H fact table).
Clustering makes the storage layer actually bite: the low-cardinality string
columns dictionary-encode, and the date predicates of Q1/Q6/Q14/Q20 prune
whole zone-map blocks over the sorted ``l_shipdate`` — so every query
result here proves encoded execution *and* pruning return exactly what the
row-at-a-time oracle returns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.baselines import RowEngine
from repro.datasets import tpch
from repro.frontend import sql_to_physical
from repro.storage import DictionaryEncoding

pytestmark = pytest.mark.tier2

SCALE_FACTOR = 0.002

SYSTEMS = [("pytorch", "cpu"), ("torchscript", "cpu")]


@pytest.fixture(scope="module")
def clustered_env():
    tables = dict(tpch.cached_tables(scale_factor=SCALE_FACTOR))
    lineitem = tables["lineitem"]
    order = np.argsort(lineitem["l_shipdate"], kind="stable")
    tables["lineitem"] = lineitem.take(order)
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    return session, tables


@pytest.fixture(scope="module")
def oracle(clustered_env):
    session, tables = clustered_env
    cache = {}

    def result_for(query_id):
        if query_id not in cache:
            plan = sql_to_physical(tpch.query(query_id, SCALE_FACTOR),
                                   session.catalog)
            cache[query_id] = RowEngine(tables).execute_to_dataframe(plan)
        return cache[query_id]

    return result_for


@pytest.mark.parametrize("backend,device", SYSTEMS,
                         ids=[f"{b}-{d}" for b, d in SYSTEMS])
@pytest.mark.parametrize("query_id", tpch.ALL_QUERY_IDS)
def test_tpch_encoded_pruned_differential(clustered_env, oracle, frames_match,
                                          query_id, backend, device):
    session, _ = clustered_env
    sql = tpch.query(query_id, SCALE_FACTOR)
    result = session.sql(sql, options=ExecutionOptions(
        backend=backend, device=device, encoding="auto"))
    frames_match(result, oracle(query_id),
                 f"Q{query_id} [{backend}/{device}/encoded+pruned]")


def test_clustered_conversion_is_actually_encoded(clustered_env):
    """Guard against the suite silently testing plain storage: the clustered
    lineitem must dictionary-encode its flag columns."""
    session, _ = clustered_env
    compiled = session.compile(tpch.query(1, SCALE_FACTOR))
    table = session.prepare_inputs(compiled.executor)["lineitem"]
    assert isinstance(table.column("lineitem.l_returnflag").encoding,
                      DictionaryEncoding)


def test_clustered_scans_actually_prune(clustered_env):
    """Q6's date range must skip blocks on the clustered table (and still be
    covered by the differential assertions above)."""
    session, _ = clustered_env
    compiled = session.compile(tpch.query(6, SCALE_FACTOR))
    result = compiled.execute()
    outcome = result.pruning.get("lineitem")
    assert outcome is not None and outcome["blocks_skipped"] > 0
