"""Unit tests for the row-at-a-time baseline engine."""

import numpy as np
import pytest

from repro.baselines import RowEngine, run_sql
from repro.dataframe import DataFrame
from repro.errors import ExecutionError, UnsupportedOperationError
from repro.frontend import Catalog, sql_to_physical
from repro.frontend.logical import LogicalJoin, walk_plan


@pytest.fixture
def tables():
    return {
        "emp": DataFrame({
            "emp_id": np.array([1, 2, 3, 4], dtype=np.int64),
            "dept": np.array(["eng", "eng", "ops", "hr"], dtype=object),
            "salary": np.array([100.0, 120.0, 90.0, 80.0]),
            "hired": np.array(["2020-01-01", "2021-06-15", "2019-03-01", "2022-11-30"],
                              dtype="datetime64[D]"),
        }),
        "dept": DataFrame({
            "dept": np.array(["eng", "ops"], dtype=object),
            "floor": np.array([3, 1], dtype=np.int64),
        }),
    }


def _run(sql, tables, models=None):
    return run_sql(sql, tables, models=models)


def test_scan_filter_project(tables):
    out = _run("select emp_id, salary * 2 as doubled from emp where salary >= 100",
               tables)
    assert out.to_dict() == {"emp_id": [1, 2], "doubled": [200.0, 240.0]}


def test_joins_inner_left_semi_anti(tables):
    inner = _run("select emp_id, floor from emp, dept where emp.dept = dept.dept "
                 "order by emp_id", tables)
    assert inner.to_dict()["floor"] == [3, 3, 1]
    left = _run("select emp_id, floor from emp left outer join dept "
                "on emp.dept = dept.dept order by emp_id", tables)
    assert left.to_dict()["floor"][3] is None  # int NULL survives as None
    semi = _run("select emp_id from emp where exists "
                "(select * from dept where dept.dept = emp.dept) order by emp_id",
                tables)
    assert semi.to_dict() == {"emp_id": [1, 2, 3]}
    anti = _run("select emp_id from emp where not exists "
                "(select * from dept where dept.dept = emp.dept)", tables)
    assert anti.to_dict() == {"emp_id": [4]}


def test_non_equi_left_join_null_extends_and_unknown_kinds_raise(tables):
    sql = ("select emp_id, floor from emp left join dept "
           "on emp.salary < dept.floor * 35 order by emp_id")
    assert _run(sql, tables).to_dict() == {"emp_id": [1, 2, 3, 4],
                                           "floor": [3, None, 3, 3]}
    catalog = Catalog()
    for name, frame in tables.items():
        catalog.register(name, frame)
    plan = sql_to_physical(sql, catalog)
    join, = [node for node in walk_plan(plan) if isinstance(node, LogicalJoin)]
    assert not join.left_keys and join.predicate is not None
    join.kind = "full"
    with pytest.raises(UnsupportedOperationError, match="'full'"):
        RowEngine(tables).execute(plan)


def test_aggregation_and_having(tables):
    out = _run("select dept, count(*) as n, avg(salary) as mean from emp "
               "group by dept having count(*) > 1", tables)
    assert out.to_dict() == {"dept": ["eng"], "n": [2], "mean": [110.0]}


def test_order_limit_distinct_case_like(tables):
    out = _run("select distinct dept from emp order by dept limit 2", tables)
    assert out.to_dict() == {"dept": ["eng", "hr"]}
    out = _run("select emp_id, case when dept like 'e%' then 1 else 0 end as is_eng "
               "from emp order by emp_id", tables)
    assert out.to_dict()["is_eng"] == [1, 1, 0, 0]


def test_date_and_scalar_subquery(tables):
    out = _run("select emp_id from emp where hired >= date '2021-01-01' order by emp_id",
               tables)
    assert out.to_dict() == {"emp_id": [2, 4]}
    out = _run("select emp_id from emp where salary > (select avg(salary) from emp) "
               "order by emp_id", tables)
    assert out.to_dict() == {"emp_id": [1, 2]}
    out = _run("select emp_id from emp where dept in (select dept from dept) "
               "order by emp_id", tables)
    assert out.to_dict() == {"emp_id": [1, 2, 3]}


def test_extract_substring_functions(tables):
    out = _run("select emp_id, extract(year from hired) as y, "
               "substring(dept from 1 for 2) as prefix from emp order by emp_id",
               tables)
    assert out.to_dict()["y"] == [2020, 2021, 2019, 2022]
    assert out.to_dict()["prefix"] == ["en", "en", "op", "hr"]


def test_predict_uses_registered_row_model(tables):
    out = _run("select emp_id, predict('threshold', salary) as flag from emp "
               "order by emp_id", tables,
               models={"threshold": lambda values: float(values[0] > 95.0)})
    assert out.to_dict()["flag"] == [1.0, 1.0, 0.0, 0.0]


def test_unknown_table_and_model_errors(tables):
    engine = RowEngine(tables)
    catalog = Catalog()
    for name, frame in tables.items():
        catalog.register(name, frame)
    plan = sql_to_physical("select emp_id, predict('nope', salary) as p from emp",
                           catalog)
    with pytest.raises(ExecutionError):
        engine.execute(plan)
    with pytest.raises(ExecutionError):
        RowEngine({}).execute(sql_to_physical("select emp_id from emp", catalog))


def test_row_engine_matches_tqp_on_random_data():
    rng = np.random.default_rng(0)
    frame = DataFrame({
        "g": np.array(list("abcde"), dtype=object)[rng.integers(0, 5, 200)],
        "x": np.round(rng.normal(size=200), 3),
        "k": rng.integers(0, 20, 200).astype(np.int64),
    })
    sql = ("select g, count(*) as n, sum(x) as total, max(k) as top "
           "from data where x > -0.5 group by g order by g")
    baseline = _run(sql, {"data": frame})

    from repro import TQPSession

    session = TQPSession()
    session.register("data", frame)
    tqp = session.sql(sql)
    assert tqp.to_dict()["g"] == baseline.to_dict()["g"]
    assert tqp.to_dict()["n"] == baseline.to_dict()["n"]
    np.testing.assert_allclose(tqp["total"], baseline["total"], atol=1e-9)
    np.testing.assert_array_equal(tqp["top"], baseline["top"])



def test_like_builds_each_pattern_once(tpch_tiny, monkeypatch):
    """Q13's ``o_comment not like`` compiles its regex once, not per row."""
    from repro.baselines import rowengine
    from repro.datasets import tpch

    built = []
    compile_like = rowengine._like_to_regex

    def counted(pattern):
        built.append(pattern)
        return compile_like(pattern)

    monkeypatch.setattr(rowengine, "_like_to_regex", counted)
    _, tables = tpch_tiny
    assert len(_run(tpch.query(13, 0.002), tables)) > 0
    assert built == ["%special%requests%"]
