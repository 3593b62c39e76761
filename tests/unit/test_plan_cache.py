"""Unit tests for the session-level compiled-plan cache."""

import numpy as np
import pytest

from repro import DataFrame, TQPSession
from repro.core.plan_cache import PlanCache, normalize_sql
from repro import ExecutionOptions

SQL = ("select region, sum(amount) as total from sales "
       "where amount > 10 group by region order by total desc")


@pytest.fixture
def session():
    frame = DataFrame({
        "region": np.array(["eu", "us", "eu", "apac", "us"], dtype=object),
        "amount": np.array([10.0, 25.0, 35.0, 15.0, 5.0]),
    })
    session = TQPSession()
    session.register("sales", frame)
    return session


# -- normalization ---------------------------------------------------------


def test_normalize_collapses_whitespace_and_case():
    assert normalize_sql("SELECT  *\n FROM   Sales ;") == "select * from sales"


def test_normalize_preserves_double_quoted_identifiers():
    # "A" and "a" may be distinct case-sensitive columns; conflating them
    # in the cache key would serve the wrong query's plan.
    assert (normalize_sql('select "A" from t')
            != normalize_sql('select "a" from t'))
    assert normalize_sql('select "Weird  Col" from t') == 'select "Weird  Col" from t'


def test_normalize_preserves_string_literals():
    normalized = normalize_sql("select * from t where note = 'Gift  Wrap'")
    assert "'Gift  Wrap'" in normalized
    assert normalize_sql("select 'it''s  ok'") == "select 'it''s  ok'"
    assert (normalize_sql("select * from t where a='X'")
            != normalize_sql("select * from t where a='x'"))


@pytest.mark.parametrize("quoted", ["'--'", "'/* a */'", '"--x"'])
def test_normalize_keeps_comment_markers_inside_quotes(quoted):
    assert normalize_sql(f"select {quoted}  from T") == f"select {quoted} from t"


# -- LRU mechanics ---------------------------------------------------------


def test_plan_cache_lru_eviction_and_counters():
    cache = PlanCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # refreshes 'a'
    cache.put("c", 3)                   # evicts 'b' (least recently used)
    assert cache.get("b") is None
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["hits"] == 2 and stats["misses"] == 1
    assert stats["evictions"] == 1 and stats["size"] == 2


def test_plan_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# -- session integration ---------------------------------------------------


def test_repeated_compile_hits_cache_and_returns_same_object(session):
    first = session.compile(SQL, options=ExecutionOptions(backend="torchscript"))
    second = session.compile("  " + SQL.upper() + " ; ", options=ExecutionOptions(backend="torchscript"))
    assert second is first
    stats = session.plan_cache.stats()
    assert stats["hits"] == 1 and stats["misses"] == 1


def test_cache_hit_skips_trace_compilation(session):
    compiled = session.compile(SQL, options=ExecutionOptions(backend="torchscript"))
    compiled.run()
    assert compiled.executor.compile_count == 1
    again = session.compile(SQL, options=ExecutionOptions(backend="torchscript"))
    again.run()
    assert again.executor is compiled.executor
    assert again.executor.compile_count == 1   # trace was not redone


def test_backend_and_device_are_part_of_the_key(session):
    a = session.compile(SQL, options=ExecutionOptions(backend="torchscript", device="cpu"))
    b = session.compile(SQL, options=ExecutionOptions(backend="torchscript", device="cuda"))
    c = session.compile(SQL, options=ExecutionOptions(backend="pytorch", device="cpu"))
    d = session.compile(SQL, options=ExecutionOptions(backend="torchscript", device="cpu", executor="interpret"))
    assert len({id(a), id(b), id(c), id(d)}) == 4
    assert session.plan_cache.stats()["hits"] == 0


def test_clear_makes_the_next_compile_cold(session):
    a = session.compile(SQL)
    session.plan_cache.clear()
    b = session.compile(SQL)
    assert a is not b
    assert session.plan_cache.stats()["misses"] == 2


def test_a_comment_does_not_split_a_cache_entry(session):
    first = session.compile(SQL)
    assert session.compile("/* dashboard */ " + SQL + " -- refresh") is first


@pytest.mark.parametrize("comment", ["-- don't\n", "/* it's */"],
                         ids=["line", "block"])
def test_a_quote_in_a_comment_opens_no_literal(comment):
    # The comment's quote opens no literal, so the case of 'ABC' / 'abc'
    # still reaches the cache key: two predicates, two plans.
    session = TQPSession()
    session.register("t", DataFrame({
        "s": np.array(["ABC", "ABC", "abc"], dtype=object)}))
    sql = "select count(*) as c from t " + comment + " where s = '{}'"
    assert session.sql(sql.format("ABC")).to_dict() == {"c": [2]}
    assert session.sql(sql.format("abc")).to_dict() == {"c": [1]}
    assert (normalize_sql("select 1 " + comment + " from T")
            == "select 1 from t")


def test_reregistering_a_table_invalidates_its_plans(session):
    compiled = session.compile("select sum(amount) as s from sales")
    assert compiled.run().to_dict() == {"s": [90.0]}
    session.register("sales", DataFrame({
        "region": np.array(["eu"], dtype=object),
        "amount": np.array([1.0]),
    }))
    assert session.plan_cache.stats()["invalidations"] >= 1
    fresh = session.compile("select sum(amount) as s from sales")
    assert fresh is not compiled
    assert fresh.run().to_dict() == {"s": [1.0]}


def test_registering_unrelated_table_keeps_plans_warm(session):
    compiled = session.compile(SQL)
    session.register("other", DataFrame({"x": np.array([1.0])}))
    # The sales plan survives and keeps serving hits: its scanned tables'
    # versions are unchanged, so the fingerprint revalidation passes.
    assert session.plan_cache.stats()["size"] == 1
    assert session.compile(SQL) is compiled
    assert session.plan_cache.stats()["hits"] == 1


def test_register_model_invalidates_only_plans_referencing_it(session):
    session.register_model("m", lambda args, num_rows: args[0])
    plain = session.compile(SQL)
    predicting = session.compile(
        "select predict('m', amount) as score from sales")
    assert session.plan_cache.stats()["size"] == 2
    assert predicting.model_names == frozenset({"m"})
    # Re-registering "m" drops only the plan whose PREDICT references it.
    session.register_model("m", lambda args, num_rows: args[0])
    assert session.plan_cache.stats()["size"] == 1
    assert session.compile(SQL) is plain
    assert session.compile(
        "select predict('m', amount) as score from sales") is not predicting
    # A model no plan references invalidates nothing.
    before = session.plan_cache.stats()["size"]
    session.register_model("unused", lambda args, num_rows: args[0])
    assert session.plan_cache.stats()["size"] == before


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
def test_held_handle_follows_a_re_registered_model(session, backend,
                                                   scaling_model):
    """Models are versioned like tables: a handle held across
    ``register_model()`` re-plans instead of replaying the program (or the
    eager executor) that captured the old model."""
    options = ExecutionOptions(backend=backend)
    sql = "select sum(predict('m', amount)) as total from sales"
    session.register_model("m", scaling_model(2.0))
    session.register_model("other", scaling_model(3.0))
    held = session.prepare(sql, options=options)
    compiled = session.compile(sql, options=options)
    bystander = session.prepare(
        "select sum(predict('other', amount)) as total from sales",
        options=options)
    assert held.run().to_dict() == {"total": [180.0]}
    assert bystander.run().to_dict() == {"total": [270.0]}
    bystander_executor = bystander.compiled.executor

    session.register_model("m", scaling_model(10.0))
    fresh = session.sql(sql, options=options).to_dict()
    assert fresh == {"total": [900.0]}
    assert held.run().to_dict() == fresh
    assert compiled.run().to_dict() == fresh
    assert held.execute_many([{}])[0].to_dataframe().to_dict() == fresh
    # Plans over other models stay warm: same executor, same cache entry.
    assert bystander.run().to_dict() == {"total": [270.0]}
    assert bystander.compiled.executor is bystander_executor
    assert session.compile(bystander.compiled.sql,
                           options=options) is bystander.compiled


def test_cached_plan_returns_correct_results_across_calls(session):
    expected = {"region": ["eu", "us", "apac"], "total": [35.0, 25.0, 15.0]}
    assert session.sql(SQL).to_dict() == expected
    assert session.sql(SQL).to_dict() == expected
    assert session.plan_cache.stats()["hits"] >= 1
