"""Differential tests for parameter binding.

Every parameterized query is prepared once per (backend, device, parallelism)
configuration and executed under several bindings; each result is compared
against the row-engine oracle running the *same* SQL with the literal values
bound.  The traced backends must produce correct results for every binding
from a single trace — the compile-once/bind-many contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.baselines.rowengine import run_sql
from repro.datasets import tpch
from repro.tensor import ops

SCALE_FACTOR = 0.002

#: (backend, device, parallelism) — all execution configurations.
CONFIGS = [
    ("pytorch", "cpu", 1),
    ("torchscript", "cpu", 1),
    ("torchscript", "cpu", 4),
    ("torchscript", "cuda", 1),
    ("torchscript", "cuda", 4),
    ("torchscript-noopt", "cpu", 1),
    ("onnx", "cpu", 1),
    ("onnx", "wasm", 1),
    ("onnx", "cpu", 4),
]

#: name → (parameterized SQL, list of bindings).  Bindings deliberately vary
#: the selectivity (including down to empty) so replays exercise intermediate
#: sizes different from the ones observed while tracing.
QUERIES = {
    "q6_filter_aggregate": (
        """select sum(l_extendedprice * l_discount) as revenue
           from lineitem
           where l_shipdate >= date '1994-01-01'
             and l_shipdate < date '1994-01-01' + interval '1' year
             and l_discount between :lo and :hi
             and l_quantity < :q""",
        [{"lo": 0.05, "hi": 0.07, "q": 24.0},
         {"lo": 0.03, "hi": 0.09, "q": 49.0},
         {"lo": 0.05, "hi": 0.07, "q": 1.0},
         {"lo": 0.99, "hi": 0.999, "q": 24.0}],   # empty
    ),
    "groupby_param_filter": (
        """select l_returnflag, l_linestatus, sum(l_quantity) as s,
                  avg(l_extendedprice) as a, count(*) as c
           from lineitem where l_shipdate < :cut
           group by l_returnflag, l_linestatus""",
        [{"cut": "1998-09-02"}, {"cut": "1993-01-01"}, {"cut": "1992-02-01"}],
    ),
    # The FIRST binding selects nothing: the trace is captured on an empty
    # intermediate, and every later binding must still group/sort/distinct
    # correctly (no Python branch on the row count may be baked in).
    "empty_first_binding": (
        """select l_returnflag, count(distinct l_linestatus) as d,
                  sum(l_quantity) as s
           from lineitem where l_quantity < :q
           group by l_returnflag order by l_returnflag""",
        [{"q": 0.5}, {"q": 49.0}, {"q": 3.0}],
    ),
    "join_param_both_sides": (
        """select o_orderpriority, count(*) as c
           from orders join lineitem on l_orderkey = o_orderkey
           where l_quantity < :q and o_totalprice > :p
           group by o_orderpriority""",
        [{"q": 10.0, "p": 1000.0}, {"q": 45.0, "p": 100000.0},
         {"q": 2.0, "p": 500.0}],
    ),
    "strings_like_case_after_filter": (
        """select count(*) as c,
                  sum(case when l_returnflag = :f then 1 else 0 end) as flagged
           from lineitem
           where l_quantity < :q and l_comment like '%a%'""",
        [{"q": 5.0, "f": "A"}, {"q": 49.0, "f": "R"}, {"q": 0.5, "f": "N"}],
    ),
    "in_list_params": (
        """select count(*) as c from lineitem
           where l_returnflag in (:a, :b) and l_linenumber in (:x, 2)""",
        [{"a": "A", "b": "R", "x": 1}, {"a": "N", "b": "N", "x": 4}],
    ),
    "order_by_limit": (
        """select l_orderkey, l_extendedprice from lineitem
           where l_extendedprice > :p
           order by l_extendedprice desc, l_orderkey limit 5""",
        [{"p": 1000.0}, {"p": 90000.0}],
    ),
    "distinct_after_filter": (
        """select distinct l_returnflag from lineitem where l_quantity < :q""",
        [{"q": 3.0}, {"q": 50.0}, {"q": 0.5}],
    ),
    "scalar_subquery_with_param": (
        """select count(*) as c from lineitem
           where l_quantity > (select avg(l_quantity) from lineitem
                               where l_quantity < :q)""",
        [{"q": 10.0}, {"q": 50.0}],
    ),
    "date_between_params": (
        """select count(*) as c from orders
           where o_orderdate between :lo and :hi""",
        [{"lo": "1993-01-01", "hi": "1994-01-01"},
         {"lo": "1995-06-01", "hi": "1998-01-01"}],
    ),
}


@pytest.fixture(scope="module")
def env(tpch_tiny):
    return tpch_tiny


@pytest.mark.tier2
@pytest.mark.parametrize("backend,device,parallelism", CONFIGS,
                         ids=[f"{b}-{d}-p{p}" for b, d, p in CONFIGS])
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_prepared_bindings_match_oracle(env, frames_match, name, backend,
                                        device, parallelism):
    session, tables = env
    sql, bindings = QUERIES[name]
    prepared = session.prepare(sql, options=ExecutionOptions(
        backend=backend, device=device, parallelism=parallelism,
        use_cache=False))
    for binding in bindings:
        got = prepared.bind(**binding).run()
        expected = run_sql(sql, tables, params=binding)
        ordered = "order by" in sql
        frames_match(got, expected, ordered=ordered,
                     context=f"{name} {backend}/{device}/p{parallelism} {binding}")
    # compile-once: the graph backends must have traced at most once.
    assert prepared.compiled.executor.compile_count <= 1


@pytest.mark.tier2
@pytest.mark.parametrize("backend,device,parallelism", CONFIGS,
                         ids=[f"{b}-{d}-p{p}" for b, d, p in CONFIGS])
def test_auto_parameterized_q6_matches_literal_execution(env, frames_match,
                                                         backend, device,
                                                         parallelism):
    """Ad-hoc sql() with auto-parameterization must agree with the oracle for
    every distinct literal, while sharing one plan-cache entry."""
    session, tables = env
    options = ExecutionOptions(backend=backend, device=device,
                               parallelism=parallelism, auto_parameterize=True)
    template = tpch.QUERIES[6]
    session.plan_cache.clear()
    misses_before = session.plan_cache.misses
    for quantity in (4, 24, 44):
        sql = template.replace("l_quantity < 24", f"l_quantity < {quantity}")
        got = session.sql(sql, options=options)
        expected = run_sql(sql, tables)
        frames_match(got, expected, context=f"auto-param q={quantity}")
    assert session.plan_cache.misses - misses_before == 1
    assert session.plan_cache.stats()["size"] == 1


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
    options = ExecutionOptions(backend="torchscript", use_cache=False)
    taken = join_id_paths(monkeypatch)
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
    compiled = session.compile(
        """select o_orderpriority, count(*) as c from orders join lineitem
           on l_orderkey = o_orderkey group by o_orderpriority""",
        options=ExecutionOptions(backend="torchscript", use_cache=False))
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
        key = stored[table, (column, "auto")].tensor.numpy()
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
    prepared = session.prepare(sql, options=ExecutionOptions(
        backend="torchscript", use_cache=False))
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
