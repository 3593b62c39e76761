"""Parameter binding across the key paths of a join.

One trace serves bindings that take ``join_ids`` through its identity and
joint-``unique`` paths, and that empty or fill a join's key side; every
result matches the row-engine oracle.  The binding sequences of every option
point are ``test_differential.py``'s.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.baselines.rowengine import run_sql
from repro.tensor import ops


@pytest.fixture(scope="module")
def env(tpch_tiny):
    return tpch_tiny


#: One statement whose join build side (lineitem) a rebinding takes through
#: every path of ``join_ids``: ``:k`` / ``:q`` size it, ``:m`` stretches the
#: key domain past what a direct-address table may span or negates it.
CROSSING_SQL = """
    select o_orderpriority, count(*) as c, sum(l_extendedprice) as s
    from orders join lineitem on l_orderkey * :m = o_orderkey * :m
    where l_orderkey <= :k and l_quantity < :q
    group by o_orderpriority order by o_orderpriority"""

CROSSING_BINDINGS = [
    ("empty", {"m": 1, "k": 1 << 40, "q": 0.5}),
    ("tiny", {"m": 1, "k": 40, "q": 51.0}),
    ("dense_large", {"m": 1, "k": 1 << 40, "q": 51.0}),
    ("sparse_large", {"m": 1_000_003, "k": 1 << 40, "q": 51.0}),
    ("negated_large", {"m": -1, "k": 1 << 40, "q": 51.0}),
    ("tiny_again", {"m": 1, "k": 40, "q": 51.0}),
]


def join_id_paths(monkeypatch) -> list[tuple[str, list]]:
    """Record, per ``join_ids`` call, the path its kernel took — ``identity``
    (the keys are handed back as ids) or ``unique`` (the joint densification)
    — and the key arrays it was handed.  Patch before anything compiles:
    generated programs bind the kernel once."""
    taken: list[tuple[str, list]] = []
    opdef = ops.OP_REGISTRY["join_ids"]
    kernel = opdef.kernel

    def spied(arrays, attrs):
        out = kernel(arrays, attrs)
        taken.append(("identity" if out[0] is arrays[0] else "unique", arrays))
        return out

    monkeypatch.setattr(opdef, "kernel", spied)
    return taken


def test_one_trace_crosses_direct_and_sorted_densification(env, monkeypatch):
    session, tables = env
    options = ExecutionOptions(backend="torchscript")
    taken = join_id_paths(monkeypatch)
    session.plan_cache.clear()
    prepared = session.prepare(CROSSING_SQL, options=options)

    paths = {}
    for name, binding in CROSSING_BINDINGS:
        taken.clear()
        got = prepared.bind(**binding).run().to_dict()
        paths[name] = [path for path, _ in taken]
        expected = run_sql(CROSSING_SQL, tables, params=binding).to_dict()
        assert bool(got["c"]) == (name != "empty"), name
        assert got["o_orderpriority"] == expected["o_orderpriority"], name
        assert got["c"] == expected["c"], name
        assert got["s"] == pytest.approx(expected["s"], rel=1e-9), name
        # Bit-identical to a trace captured on this very binding.
        fresh = TQPSession()
        for table, frame in tables.items():
            fresh.register(table, frame)
        assert fresh.prepare(CROSSING_SQL, options=options) \
            .bind(**binding).run().to_dict() == got, name
    assert prepared.compiled.executor.compile_count == 1

    # The same compiled program really took the keys as ids, then the joint
    # densification once ``:m`` stretched or negated the domain, then the
    # keys again.
    assert paths["dense_large"] == ["identity"]
    assert paths["sparse_large"] == ["unique"]
    assert paths["negated_large"] == ["unique"]
    assert paths["tiny_again"] == ["identity"]


def test_identity_ids_leave_the_stored_key_columns_untouched(env, monkeypatch):
    """The identity path hands the stored key columns back as the join's ids;
    no kernel writes into an input, so replays leave every converted column
    of both tables byte for byte as it was."""
    session, _ = env
    taken = join_id_paths(monkeypatch)
    session.plan_cache.clear()
    compiled = session.compile(
        """select o_orderpriority, count(*) as c from orders join lineitem
           on l_orderkey = o_orderkey group by o_orderpriority""",
        options=ExecutionOptions(backend="torchscript"))
    first = compiled.run().to_dict()
    stored = {(table, key): column for table in ("orders", "lineitem")
              for key, column in session.catalog.record(table).columns.items()}

    def snapshot():
        return {key: (column.tensor.numpy().tobytes(),
                      None if column.valid is None
                      else column.valid.numpy().tobytes())
                for key, column in stored.items()}

    before = snapshot()
    for _ in range(3):
        assert compiled.run().to_dict() == first
    assert snapshot() == before
    assert {path for path, _ in taken} == {"identity"}
    handed = taken[-1][1]
    for table, column in (("orders", "o_orderkey"), ("lineitem", "l_orderkey")):
        key = stored[table, column].tensor.numpy()
        assert any(array is key for array in handed), column
        np.testing.assert_array_equal(
            key, session.catalog.record(table).frame[column])


#: One statement per key path: ``:k`` sizes the key side (``orders``, unique
#: on ``o_orderkey``), which builds under ``lineitem join orders`` and probes
#: under ``orders join lineitem``.
KEY_SIDE_SQL = {
    "right": "lineitem join orders on l_orderkey = o_orderkey",
    "left": "orders join lineitem on o_orderkey = l_orderkey",
}


@pytest.mark.parametrize("key_side", sorted(KEY_SIDE_SQL))
def test_one_trace_serves_an_empty_a_one_row_and_a_full_key_side(env, key_side):
    """The position table of a key join is sized and filled at run time: a
    trace captured on an empty key side answers for one row and for all."""
    from repro.core.operators import HashJoinOperator

    session, tables = env
    sql = f"""select o_orderpriority, count(*) as c, sum(l_extendedprice) as s
              from {KEY_SIDE_SQL[key_side]} where o_orderkey <= :k
              group by o_orderpriority order by o_orderpriority"""
    session.plan_cache.clear()
    prepared = session.prepare(sql, options=ExecutionOptions(
        backend="torchscript"))
    assert [op.key_side for op in prepared.compiled.operator_plan.root.walk()
            if isinstance(op, HashJoinOperator)] == [key_side]
    line_keys = tables["lineitem"]["l_orderkey"]
    first = int(tables["orders"]["o_orderkey"].min())
    for k in (first - 1, first, 1 << 40):            # empty, one row, every row
        got = prepared.bind(k=k).run().to_dict()
        expected = run_sql(sql, tables, params={"k": k}).to_dict()
        assert sum(got["c"]) == int((line_keys <= k).sum())
        assert got["o_orderpriority"] == expected["o_orderpriority"], k
        assert got["c"] == expected["c"], k
        assert got["s"] == pytest.approx(expected["s"], rel=1e-9), k
    assert prepared.compiled.executor.compile_count == 1
