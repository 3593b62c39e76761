"""Unit tests for the tensor-program relational operators (via SQL execution).

Each test runs a small SQL query through the full TQP stack and checks the
result against values computed by hand, exercising one operator family at a
time (the integration suite covers multi-operator TPC-H queries).
"""

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.baselines import RowEngine
from repro.core.tuning import tuning_overrides
from repro.errors import ExecutionError
from repro.frontend import sql_to_physical


def _session():
    left = DataFrame({
        "k": np.array([1, 2, 3, 4], dtype=np.int64),
        "grp": np.array(["a", "b", "a", "c"], dtype=object),
        "v": np.array([10.0, 20.0, 30.0, 40.0]),
    })
    right = DataFrame({
        "k": np.array([1, 1, 3, 5], dtype=np.int64),
        "w": np.array([100.0, 200.0, 300.0, 500.0]),
    })
    session = TQPSession()
    session.register("left_t", left)
    session.register("right_t", right)
    return session


def test_filter_and_project():
    session = _session()
    out = session.sql("select k, v * 2 as double_v from left_t where v >= 20")
    assert out.to_dict() == {"k": [2, 3, 4], "double_v": [40.0, 60.0, 80.0]}


def test_inner_join_duplicate_build_keys():
    session = _session()
    out = session.sql(
        "select left_t.k, w from left_t, right_t where left_t.k = right_t.k "
        "order by left_t.k, w")
    assert out.to_dict() == {"k": [1, 1, 3], "w": [100.0, 200.0, 300.0]}


def test_left_outer_join_produces_nulls():
    session = _session()
    out = session.sql(
        "select left_t.k, w from left_t left outer join right_t "
        "on left_t.k = right_t.k order by left_t.k, w")
    data = out.to_dict()
    assert data["k"] == [1, 1, 2, 3, 4]
    assert data["w"][2] is None and data["w"][4] is None


def test_join_with_residual_condition():
    session = _session()
    out = session.sql(
        "select left_t.k, w from left_t join right_t on left_t.k = right_t.k "
        "and w > 150 order by left_t.k")
    assert out.to_dict() == {"k": [1, 3], "w": [200.0, 300.0]}


def test_semi_and_anti_join_via_exists():
    session = _session()
    semi = session.sql(
        "select k from left_t where exists "
        "(select * from right_t where right_t.k = left_t.k) order by k")
    assert semi.to_dict() == {"k": [1, 3]}
    anti = session.sql(
        "select k from left_t where not exists "
        "(select * from right_t where right_t.k = left_t.k) order by k")
    assert anti.to_dict() == {"k": [2, 4]}


def test_cross_join_via_nested_loop():
    session = _session()
    out = session.sql("select count(*) as pairs from left_t, right_t")
    assert out.to_dict() == {"pairs": [16]}


def test_group_by_aggregates():
    session = _session()
    out = session.sql(
        "select grp, count(*) as n, sum(v) as total, avg(v) as mean, "
        "min(v) as low, max(v) as high from left_t group by grp order by grp")
    assert out.to_dict() == {
        "grp": ["a", "b", "c"],
        "n": [2, 1, 1],
        "total": [40.0, 20.0, 40.0],
        "mean": [20.0, 20.0, 40.0],
        "low": [10.0, 20.0, 40.0],
        "high": [30.0, 20.0, 40.0],
    }


def test_global_aggregate_and_count_distinct():
    session = _session()
    out = session.sql("select count(*) as n, count(distinct grp) as groups, "
                      "sum(v) as total from left_t")
    assert out.to_dict() == {"n": [4], "groups": [3], "total": [100.0]}


def test_global_aggregate_over_empty_input_is_null():
    session = _session()
    out = session.sql("select sum(v) as total, count(*) as n from left_t where v > 999")
    assert out.to_dict() == {"total": [None], "n": [0]}


def test_sort_multi_key_and_desc():
    session = _session()
    out = session.sql("select grp, v from left_t order by grp desc, v asc")
    assert out.to_dict()["grp"] == ["c", "b", "a", "a"]
    assert out.to_dict()["v"] == [40.0, 20.0, 10.0, 30.0]


def test_sort_by_string_key():
    session = _session()
    out = session.sql("select grp from left_t order by grp")
    assert out.to_dict()["grp"] == ["a", "a", "b", "c"]


def test_limit_and_distinct():
    session = _session()
    assert session.sql("select k from left_t order by k limit 2").to_dict() == \
        {"k": [1, 2]}
    assert session.sql("select k from left_t order by k limit 99").num_rows == 4
    distinct = session.sql("select distinct grp from left_t order by grp")
    assert distinct.to_dict() == {"grp": ["a", "b", "c"]}


def _rows(table):
    """A leaf operator over a ready-made table, for operator-level tests."""
    from repro.core.operators import TensorOperator

    class Rows(TensorOperator):
        def _execute(self, ctx):
            return table

    return Rows([])


def test_distinct_over_dictionary_codes_takes_the_static_radix_path():
    """DISTINCT is "group by every column, keep each group's first row"
    through the aggregate's grouping: all-dictionary inputs densify without a
    ``unique``, absent dictionary combinations are masked out, and the rows
    (order included) are those the sort-based path keeps."""
    from repro.core.columnar import TensorColumn, TensorTable
    from repro.core.operators import DistinctOperator, ExecutionContext
    from repro.storage.encodings import dictionary_encode
    from repro.tensor import Profiler

    left = ["b", "a", "b", "c", "a", "b"]
    right = ["y", "x", "y", "x", "x", "x"]  # 4 of the 3 x 2 combinations
    encoded = TensorTable({"l": dictionary_encode(left),
                           "r": dictionary_encode(right)})
    plain = TensorTable({
        name: TensorColumn.from_numpy(np.array(values, dtype=object))
        for name, values in (("l", left), ("r", right))})
    ctx = ExecutionContext({})
    with Profiler() as profile:
        out = DistinctOperator(_rows(encoded)).execute(ctx).to_dataframe()
    assert "unique" not in {event.op for event in profile.events}
    assert out.to_dict() == {"l": ["a", "b", "b", "c"], "r": ["x", "x", "y", "x"]}
    assert out.to_dict() == DistinctOperator(_rows(plain)).execute(
        ctx).to_dataframe().to_dict()


@pytest.mark.parametrize("kind,conditional,expected", [
    ("semi", True, [1, 2, 3]), ("anti", True, [4]),
    ("semi", False, [1, 2, 3, 4]), ("anti", False, []),
    ("inner", True, [1, 1, 1, 2, 2, 3]), ("left", True, [1, 1, 1, 2, 2, 3, 4]),
])
def test_nested_loop_join_finishes_like_the_hash_join(kind, conditional,
                                                      expected):
    """The nested loop builds only its cross-product pair list (or, with no
    condition to evaluate, a match count per left row) and shares
    ``finish_join`` with the hash join — semi / anti kinds included, which no
    SQL reaches (a correlated EXISTS needs an equality and plans a hash join)."""
    from repro.core.columnar import LogicalType, TensorTable
    from repro.core.operators import ExecutionContext, NestedLoopJoinOperator
    from repro.frontend import ast

    def col(name, ltype=LogicalType.FLOAT):
        ref = ast.ColumnRef(None, name, resolved=name)
        ref.otype = ltype
        return ref

    condition = ast.BinaryOp(">", col("w"), col("v"))
    condition.otype = LogicalType.BOOL
    left = TensorTable.from_dataframe(DataFrame({
        "k": np.array([1, 2, 3, 4], dtype=np.int64),
        "v": np.array([10.0, 20.0, 30.0, 40.0])}))
    right = TensorTable.from_dataframe(DataFrame({
        "w": np.array([15.0, 25.0, 35.0, 5.0])}))
    join = NestedLoopJoinOperator(_rows(left), _rows(right), kind,
                                  condition if conditional else None)
    out = join.execute(ExecutionContext({})).to_dataframe()
    assert out.to_dict()["k"] == expected
    empty = NestedLoopJoinOperator(_rows(left), _rows(right.slice(0, 0)), kind,
                                   condition if conditional else None)
    kept = empty.execute(ExecutionContext({})).to_dataframe().to_dict()["k"]
    assert kept == ([1, 2, 3, 4] if kind in ("anti", "left") else [])


def test_in_subquery_and_scalar_subquery_runtime():
    session = _session()
    out = session.sql(
        "select k from left_t where k in (select k from right_t) order by k")
    assert out.to_dict() == {"k": [1, 3]}
    out = session.sql(
        "select k from left_t where v > (select avg(v) from left_t) order by k")
    assert out.to_dict() == {"k": [3, 4]}
    out = session.sql(
        "select k from left_t where k not in (select k from right_t) order by k")
    assert out.to_dict() == {"k": [2, 4]}


def test_derived_table_and_cte():
    session = _session()
    out = session.sql(
        "with totals as (select grp, sum(v) as s from left_t group by grp) "
        "select grp, s from totals where s > 25 order by grp")
    assert out.to_dict() == {"grp": ["a", "c"], "s": [40.0, 40.0]}
    out = session.sql(
        "select big.grp from (select grp, sum(v) as s from left_t group by grp) "
        "as big where big.s >= 40 order by big.grp")
    assert out.to_dict() == {"grp": ["a", "c"]}


def test_empty_filter_result_propagates_through_join_and_aggregate():
    session = _session()
    out = session.sql(
        "select grp, count(*) as n from left_t, right_t "
        "where left_t.k = right_t.k and v > 1000 group by grp")
    assert out.num_rows == 0


def test_missing_table_raises():
    session = _session()
    with pytest.raises(Exception):
        session.sql("select * from nonexistent")


def test_executor_rejects_mismatched_inputs():
    session = _session()
    compiled = session.compile("select k from left_t where v > 0")
    with pytest.raises(ExecutionError):
        compiled.executor.execute({})


# -- NULL join keys match nothing ---------------------------------------------


def _null_key_session():
    """``a LEFT JOIN b`` NULL-extends ``v`` for ak = 2, 3; ``c`` holds a row
    keyed 0, the payload a NULL ``v`` carries underneath its validity mask."""
    tables = {
        "a": DataFrame({"ak": np.array([1, 2, 3], dtype=np.int64)}),
        "b": DataFrame({"bk": np.array([1], dtype=np.int64),
                        "v": np.array([5], dtype=np.int64)}),
        "c": DataFrame({"cv": np.array([0, 5], dtype=np.int64),
                        "y": np.array([100, 200], dtype=np.int64)}),
    }
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    return session, tables


#: ``c`` with its 0 key turned into NULL: NULL keys on *both* join sides.
_NULLABLE_C = "(select case when cv > 0 then cv end as nv, y from c) n"

NULL_KEY_JOINS = [
    ("select ak, v, y from a left join b on ak = bk join c on v = cv",
     {"ak": [1], "v": [5], "y": [200]}),
    ("select ak, v, y from a left join b on ak = bk "
     "left join c on v = cv order by ak",
     {"ak": [1, 2, 3], "v": [5, None, None], "y": [200, None, None]}),
    (f"select ak, v, y from a left join b on ak = bk join {_NULLABLE_C} "
     "on v = nv", {"ak": [1], "v": [5], "y": [200]}),
    (f"select ak, y from a left join b on ak = bk left join {_NULLABLE_C} "
     "on v = nv order by ak", {"ak": [1, 2, 3], "y": [200, None, None]}),
    ("select ak from (select ak, v from a left join b on ak = bk) l "
     "where exists (select * from c where cv = l.v) order by ak",
     {"ak": [1]}),
    ("select ak from (select ak, v from a left join b on ak = bk) l "
     "where not exists (select * from c where cv = l.v) order by ak",
     {"ak": [2, 3]}),
    (f"select ak from (select ak, v from a left join b on ak = bk) l "
     f"where not exists (select * from {_NULLABLE_C} where nv = l.v) "
     "order by ak", {"ak": [2, 3]}),
]


@pytest.mark.parametrize("parallelism,devices", [(1, 1), (4, 1), (1, 4)])
@pytest.mark.parametrize("sql,expected", NULL_KEY_JOINS)
def test_null_join_keys_match_nothing(sql, expected, parallelism, devices):
    session, tables = _null_key_session()
    # Thresholds at zero so three-row tables reach the partitioned and the
    # shuffle / broadcast joins instead of falling back to the serial one.
    with tuning_overrides(parallel_threshold_rows=0, shard_min_rows=0):
        out = session.sql(sql, options=ExecutionOptions(
            parallelism=parallelism, devices=devices))
    assert out.to_dict() == expected
    oracle = RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, session.catalog))
    assert oracle.to_dict() == expected


@pytest.mark.parametrize("options", [dict(parallelism=4), dict(devices=4)])
def test_null_join_keys_in_partitioned_and_sharded_joins(frames_match, options):
    """Enough rows that the radix-partitioned build/probe (and a real
    four-way shuffle) run instead of their small-input fallbacks."""
    keys = np.arange(6000, dtype=np.int64)
    tables = {
        "a": DataFrame({"ak": keys}),
        "b": DataFrame({"bk": keys[::2], "v": keys[::2] % 7}),
        "c": DataFrame({"cv": np.arange(7, dtype=np.int64),
                        "y": np.arange(7, dtype=np.int64) * 10}),
    }
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    for tail in ("join c on v = cv", "left join c on v = cv"):
        sql = f"select ak, v, y from a left join b on ak = bk {tail}"
        out = session.sql(sql, options=ExecutionOptions(**options))
        oracle = RowEngine(tables).execute_to_dataframe(
            sql_to_physical(sql, session.catalog))
        assert out.num_rows == (3000 if tail.startswith("join") else 6000)
        frames_match(out, oracle, sql)
