"""Unit tests for the prepared-statement API: prepare/bind/execute,
parameter typing, bind-time validation, plan-cache interaction, and
auto-parameterization."""

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.core.columnar import LogicalType
from repro.core.parameters import (
    PARAM_STRING_WIDTH,
    auto_parameterize,
)
from repro.errors import AnalysisError, BindingError, SQLSyntaxError


@pytest.fixture
def session():
    s = TQPSession()
    s.register("items", DataFrame({
        "item_id": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
        "price": np.array([5.0, 7.5, 2.5, 10.0, 1.0, 4.0]),
        "quantity": np.array([2, 1, 4, 1, 6, 3], dtype=np.int64),
        "shipped": np.array(["2024-01-05", "2024-01-20", "2024-02-10",
                             "2024-02-28", "2024-03-05", "2024-03-20"],
                            dtype="datetime64[D]"),
        "note": np.array(["fast", "gift", "fragile", "fast", "plain", "gift"],
                         dtype=object),
    }))
    return s


# -- parameter typing -------------------------------------------------------


def test_parameter_types_inferred_from_comparison_context(session):
    prepared = session.prepare(
        "select count(*) as c from items "
        "where price < :p and quantity = :q and note = :n and shipped >= :d")
    types = {spec.name: spec.ltype for spec in prepared.parameters}
    assert types == {"p": LogicalType.FLOAT, "q": LogicalType.INT,
                     "n": LogicalType.STRING, "d": LogicalType.DATE}


def test_parameter_type_inferred_from_arithmetic_and_between(session):
    prepared = session.prepare(
        "select sum(price * :rate) as s from items "
        "where quantity between :lo and :hi")
    types = {spec.name: spec.ltype for spec in prepared.parameters}
    assert types == {"rate": LogicalType.FLOAT, "lo": LogicalType.INT,
                     "hi": LogicalType.INT}


def test_uninferable_parameter_raises_analysis_error(session):
    with pytest.raises(AnalysisError, match="cannot infer the type"):
        session.prepare("select :mystery as v from items")


def test_mixing_positional_and_named_markers_rejected(session):
    with pytest.raises(SQLSyntaxError, match="cannot mix"):
        session.prepare("select count(*) as c from items "
                        "where price < :p and quantity = ?")


# -- binding ----------------------------------------------------------------


def test_bind_execute_and_rebind(session):
    prepared = session.prepare("select sum(price) as s from items where price < :p")
    assert prepared.bind(p=5.0).run().to_dict() == {"s": [7.5]}
    assert prepared.bind(p=100.0).run().to_dict() == {"s": [30.0]}
    # convenience forms
    assert prepared.run(p=5.0).to_dict() == {"s": [7.5]}


def test_positional_binding_in_marker_order(session):
    prepared = session.prepare(
        "select item_id from items where quantity >= ? and price < ? order by item_id")
    assert prepared.bind(3, 5.0).run().to_dict() == {"item_id": [3, 5, 6]}
    with pytest.raises(BindingError, match="2 positional"):
        prepared.bind(3)
    with pytest.raises(BindingError, match="not both"):
        prepared.bind(3, p=1.0)


def test_missing_unknown_and_ill_typed_bindings(session):
    prepared = session.prepare(
        "select count(*) as c from items where price < :p and note = :n")
    with pytest.raises(BindingError, match=r"missing value\(s\).*:n"):
        prepared.bind(p=1.0)
    with pytest.raises(BindingError, match=r"unknown parameter\(s\): :zzz"):
        prepared.bind(p=1.0, n="fast", zzz=1)
    with pytest.raises(BindingError, match=":p expects a float"):
        prepared.bind(p="cheap", n="fast")
    with pytest.raises(BindingError, match=":n expects a string"):
        prepared.bind(p=1.0, n=42)


def test_int_accepted_for_float_parameter_and_bool_rejected_for_int(session):
    prepared = session.prepare("select count(*) as c from items where price < :p")
    assert prepared.bind(p=5).run().to_dict() == {"c": [3]}
    q = session.prepare("select count(*) as c from items where quantity = :q")
    with pytest.raises(BindingError):
        q.bind(q=True)


def test_string_parameter_width_limit(session):
    prepared = session.prepare("select count(*) as c from items where note = :n")
    with pytest.raises(BindingError, match="longer than"):
        prepared.bind(n="x" * (PARAM_STRING_WIDTH + 1))


def test_date_parameter_accepts_string_and_date(session):
    import datetime

    prepared = session.prepare(
        "select count(*) as c from items where shipped < :d")
    assert prepared.bind(d="2024-02-01").run().to_dict() == {"c": [2]}
    assert prepared.bind(d=datetime.date(2024, 2, 1)).run().to_dict() == {"c": [2]}
    with pytest.raises(BindingError):
        prepared.bind(d="not-a-date")


def test_execute_without_binding_parameterized_statement_fails(session):
    compiled = session.compile("select count(*) as c from items where price < :p")
    with pytest.raises(BindingError, match="missing"):
        compiled.execute()


# -- compile-once / bind-many ----------------------------------------------


def test_one_trace_serves_many_bindings(session):
    prepared = session.prepare(
        "select sum(price) as s from items where price < :p",
        options=ExecutionOptions(backend="torchscript"))
    results = prepared.execute_many([{"p": float(p)} for p in range(1, 12)])
    assert len(results) == 11
    assert prepared.compiled.executor.compile_count == 1


def test_preparing_twice_shares_one_cache_entry(session):
    sql = "select sum(price) as s from items where price < :p"
    first = session.prepare(sql, options=ExecutionOptions(backend="torchscript"))
    second = session.prepare(sql, options=ExecutionOptions(backend="torchscript"))
    assert second.compiled is first.compiled
    assert session.plan_cache.stats()["hits"] == 1


def test_parameterized_shape_is_the_cache_key(session):
    sql = "select count(*) as c from items where price < :p"
    a = session.prepare(sql)
    b = session.prepare(sql.replace(":p", ":other"))
    assert a.compiled is not b.compiled  # different shapes, different entries


def test_explain_lists_parameters(session):
    prepared = session.prepare("select count(*) as c from items where price < :p")
    assert ":p float" in prepared.explain()


# -- auto-parameterization --------------------------------------------------


def test_auto_parameterize_lifts_and_dedups_literals():
    lifted = auto_parameterize(
        "select price + 1 as p from items where quantity > 1 and price < 2.5")
    assert lifted.sql.count(":__a0") == 2          # the two 1s share one marker
    assert lifted.values == {"__a0": 1, "__a1": 2.5}
    assert lifted.types["__a0"] == LogicalType.INT
    assert lifted.types["__a1"] == LogicalType.FLOAT


def test_auto_parameterize_skips_structural_literals():
    lifted = auto_parameterize(
        "select substring(note, 1, 3) as s from items "
        "where note like '%a%' and shipped < date '2024-02-01' "
        "  and shipped > date '2024-01-01' - interval '10' day and price < 9 "
        "order by s limit 2")
    assert "like '%a%'" in lifted.sql
    assert "date '2024-02-01'" in lifted.sql
    assert "interval '10' day" in lifted.sql
    assert "substring ( note , 1 , 3 )" in lifted.sql
    assert "limit 2" in lifted.sql
    assert lifted.values == {"__a0": 9}


def test_auto_parameterize_leaves_explicit_parameters_alone():
    assert auto_parameterize("select 1 + 1 as x from t where a < :p") is None
    assert auto_parameterize("select a from t") is None


def test_auto_parameterized_sql_shares_one_plan_and_matches_literals(session):
    options = ExecutionOptions(backend="torchscript", auto_parameterize=True)
    plain = [session.sql(f"select sum(price) as s from items where quantity > {q}")
             .to_dict() for q in (1, 2, 3)]
    session.plan_cache.clear()
    hits0, misses0 = session.plan_cache.hits, session.plan_cache.misses
    lifted = [session.sql(f"select sum(price) as s from items where quantity > {q}",
                          options=options).to_dict() for q in (1, 2, 3)]
    assert lifted == plain
    assert session.plan_cache.stats()["size"] == 1
    assert session.plan_cache.misses - misses0 == 1
    assert session.plan_cache.hits - hits0 == 2


def test_auto_parameterization_distinguishes_literal_types(session):
    options = ExecutionOptions(auto_parameterize=True)
    a = session.sql("select sum(price) as s from items where quantity > 1",
                    options=options)
    b = session.sql("select sum(price) as s from items where quantity > 1.5",
                    options=options)
    # int vs float literal shapes must not collide on one typed plan
    assert a.to_dict() == {"s": [12.5]}
    assert b.to_dict() == {"s": [12.5]}
    assert session.plan_cache.stats()["size"] == 2


def test_sql_with_params_kwarg(session):
    got = session.sql("select count(*) as c from items where note = :n",
                      params={"n": "gift"})
    assert got.to_dict() == {"c": [2]}


# -- conversion-cache versioning (satellite) --------------------------------


def test_long_lived_compiled_query_never_reads_stale_converted_columns(session):
    compiled = session.compile("select sum(price) as s from items")
    assert compiled.run().to_dict() == {"s": [30.0]}
    session.register("items", DataFrame({
        "item_id": np.array([1], dtype=np.int64),
        "price": np.array([2.0]),
        "quantity": np.array([1], dtype=np.int64),
        "shipped": np.array(["2024-01-05"], dtype="datetime64[D]"),
        "note": np.array(["fast"], dtype=object),
    }))
    # The old CompiledQuery object is held across the register(): its inputs
    # must be converted from the *new* table, not served from the old
    # conversion-cache entry.
    assert compiled.run().to_dict() == {"s": [2.0]}


# -- key-ness belongs to one table generation ------------------------------------


@pytest.mark.parametrize("route", ["session", "serving"])
def test_a_held_statement_forgets_a_key_side_its_new_generation_lost(route):
    """Key-ness is derived from one generation's statistics.  Re-registering
    the dimension table with one duplicated key must re-plan the held
    statement onto the general pair construction: a position table over
    duplicate keys would be a wrong answer, not an error."""
    from repro.baselines.rowengine import run_sql
    from repro.core.operators import HashJoinOperator
    from repro.serve import ServingRuntime

    def dims(duplicate: bool) -> DataFrame:
        return DataFrame({
            "dk": np.array([1, 2, 3, 3 if duplicate else 4], dtype=np.int64),
            "label": np.array([10, 20, 30, 40], dtype=np.int64)})

    tables = {"facts": DataFrame({
        "fk": np.array([3, 1, 3, 2, 4], dtype=np.int64),
        "w": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}), "dims": dims(False)}
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    sql = ("select fk, w, label from facts join dims on fk = dk "
           "where w >= :lo order by w, label")
    options = ExecutionOptions(backend="torchscript")

    def check(statement, compiled, key):
        for lo in (0.0, 2.5):
            assert statement.run(lo=lo).to_dict() == run_sql(
                sql, tables, params={"lo": lo}).to_dict()
        (join,) = [op for op in compiled.operator_plan.root.walk()
                   if isinstance(op, HashJoinOperator)]
        assert (join.key_side, join.describe()) == key

    with ServingRuntime(session, workers=2, default_options=options) as runtime:
        statement = (runtime.prepare(sql) if route == "serving"
                     else session.prepare(sql, options=options))
        compiled = (statement.prepared if route == "serving"
                    else statement).compiled
        check(statement, compiled, ("right", "HashJoin[inner](key=right)"))
        tables["dims"] = dims(True)
        session.register("dims", tables["dims"])
        check(statement, compiled, (None, "HashJoin[inner](key=not-unique)"))
        assert len(statement.run(lo=0.0)["label"]) == 6   # both 3s match twice
