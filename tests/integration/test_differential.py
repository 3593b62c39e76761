"""One seeded differential harness over the whole option matrix.

Every statement of the pool — the 22 TPC-H queries, ten parameterized
statements with their binding sequences, auto-parameterized Q6 and three
nested-loop joins — runs at option points drawn from the full product of
backend, device, executor, parallelism, column storage (low-NDV strings as
dictionaries, or every column plain), devices / shard, data layout (generated
or date-clustered ``lineitem``) and, for parameterized statements, entry
(``bind``, ``execute_many`` or ``ServingRuntime.submit``).
The draws are generated from ``SEED`` so that every statement meets every
value of every field, on one device and again on several, and every pair of
values from two fields occurs in some draw
(``test_draws_cover_every_value_and_pair``).  Three checks:

- the row-engine oracle answers each (statement, binding, data) once, and the
  serial ``pytorch`` / ``cpu`` reference matches it (sorted rows, float
  tolerance);
- every draw, on either column storage and at any device count, is
  bit-identical to that reference (which reads dictionary columns): the same
  column names, dtypes, data bytes and validity bytes.  A device count is a
  width priced over the serial program, so ``devices > 1`` draws are held to
  the same bits.

Beside the draws, a first execution's ``traced`` result is held bit-identical
to the ``compiled`` result of the execution after it, over the pool's
queries and parameterized statements and the Figure-4 PREDICT query.

A failure prints the seed, statement, option point, data layout, entry and
binding.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from typing import NamedTuple

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.baselines.rowengine import run_sql
from repro.core import operators
from repro.core.operators import HashJoinOperator, NestedLoopJoinOperator
from repro.core.parameters import auto_parameterize
from repro.datasets import tpch
from repro.serve import ServingRuntime
from repro.serve.simulator import (
    PREDICTION_SHAPE,
    register_prediction_model,
)
from repro.storage import DictionaryEncoding

SEED = 19920101
SCALE_FACTOR = 0.002


class Statement(NamedTuple):
    name: str
    #: ``query`` (no parameters), ``prepared`` (bindings through an entry) or
    #: ``auto`` (literal SQL lifted by ``auto_parameterize``).
    kind: str
    sql: str
    bindings: tuple = ({},)
    #: Compare with the oracle in row order, not as a row multiset.
    ordered: bool = False


PREPARED = {
    "q6_filter_aggregate": (
        """select sum(l_extendedprice * l_discount) as revenue
           from lineitem
           where l_shipdate >= date '1994-01-01'
             and l_shipdate < date '1994-01-01' + interval '1' year
             and l_discount between :lo and :hi
             and l_quantity < :q""",
        [{"lo": 0.05, "hi": 0.07, "q": 24.0}, {"lo": 0.03, "hi": 0.09, "q": 49.0},
         {"lo": 0.05, "hi": 0.07, "q": 1.0},
         {"lo": 0.99, "hi": 0.999, "q": 24.0}]),          # empty
    "groupby_param_filter": (
        """select l_returnflag, l_linestatus, sum(l_quantity) as s,
                  avg(l_extendedprice) as a, count(*) as c
           from lineitem where l_shipdate < :cut
           group by l_returnflag, l_linestatus""",
        [{"cut": "1998-09-02"}, {"cut": "1993-01-01"}, {"cut": "1992-02-01"}]),
    # The first binding selects nothing: the trace sees an empty intermediate.
    "empty_first_binding": (
        """select l_returnflag, count(distinct l_linestatus) as d,
                  sum(l_quantity) as s
           from lineitem where l_quantity < :q
           group by l_returnflag order by l_returnflag""",
        [{"q": 0.5}, {"q": 49.0}, {"q": 3.0}]),
    "join_param_both_sides": (
        """select o_orderpriority, count(*) as c
           from orders join lineitem on l_orderkey = o_orderkey
           where l_quantity < :q and o_totalprice > :p
           group by o_orderpriority""",
        [{"q": 10.0, "p": 1000.0}, {"q": 45.0, "p": 100000.0},
         {"q": 2.0, "p": 500.0}]),
    "strings_like_case_after_filter": (
        """select count(*) as c,
                  sum(case when l_returnflag = :f then 1 else 0 end) as flagged
           from lineitem
           where l_quantity < :q and l_comment like '%a%'""",
        [{"q": 5.0, "f": "A"}, {"q": 49.0, "f": "R"}, {"q": 0.5, "f": "N"}]),
    "in_list_params": (
        """select count(*) as c from lineitem
           where l_returnflag in (:a, :b) and l_linenumber in (:x, 2)""",
        [{"a": "A", "b": "R", "x": 1}, {"a": "N", "b": "N", "x": 4}]),
    "order_by_limit": (
        """select l_orderkey, l_extendedprice from lineitem
           where l_extendedprice > :p
           order by l_extendedprice desc, l_orderkey limit 5""",
        [{"p": 1000.0}, {"p": 90000.0}]),
    "distinct_after_filter": (
        "select distinct l_returnflag from lineitem where l_quantity < :q",
        [{"q": 3.0}, {"q": 50.0}, {"q": 0.5}]),
    "scalar_subquery_with_param": (
        """select count(*) as c from lineitem
           where l_quantity > (select avg(l_quantity) from lineitem
                               where l_quantity < :q)""",
        [{"q": 10.0}, {"q": 50.0}]),
    "date_between_params": (
        "select count(*) as c from orders where o_orderdate between :lo and :hi",
        [{"lo": "1993-01-01", "hi": "1994-01-01"},
         {"lo": "1995-06-01", "hi": "1998-01-01"}]),
}

#: Joins without an equality key plan a nested-loop join.
NESTED_LOOP = {
    "nlj_inner_lt": "select n_name, r_name from nation join region "
                    "on n_regionkey < r_regionkey",
    "nlj_comma_ne": "select r_name, count(*) as c from nation, region "
                    "where n_regionkey <> r_regionkey group by r_name",
    "nlj_left_lt": "select n_name, count(*) as c, count(r_regionkey) as m "
                   "from nation left join region on n_regionkey < r_regionkey "
                   "group by n_name",
}

#: Auto-parameterized Q6: one plan-cache entry serves every literal.
AUTO_Q6 = tpch.QUERIES[6]

POOL = (
    [Statement(f"q{qid:02d}", "query", tpch.query(qid, SCALE_FACTOR))
     for qid in tpch.ALL_QUERY_IDS]
    + [Statement(name, "prepared", sql, tuple(bindings), "order by" in sql)
       for name, (sql, bindings) in PREPARED.items()]
    + [Statement("q06_auto_parameterized", "auto", AUTO_Q6,
                 ({"q": 4}, {"q": 24}, {"q": 44}))]
    + [Statement(name, "query", sql) for name, sql in NESTED_LOOP.items()]
)


def literal_sql(stmt: Statement, binding: dict) -> str:
    """The text the oracle runs: an ``auto`` statement's literals substituted."""
    if stmt.kind != "auto":
        return stmt.sql
    return stmt.sql.replace("l_quantity < 24", f"l_quantity < {binding['q']}")


# -- the draws ----------------------------------------------------------------

#: Field -> values, in draw order (a field's validity may depend on earlier ones).
FIELDS = {
    "backend": ("pytorch", "torchscript", "torchscript-noopt", "onnx"),
    "device": ("cpu", "cuda", "wasm"),
    "executor": ("compiled", "interpret"),
    "parallelism": (1, 4),
    "columns": ("dictionary", "plain"),
    "devices": (1, 2, 4),
    "shard": ("hash", "range"),
    "data": ("generated", "clustered"),
    "entry": ("bind", "execute_many", "serving"),
}

REFERENCE = {"backend": "pytorch", "device": "cpu", "parallelism": 1,
             "columns": "dictionary", "devices": 1}

#: Random candidates scored per draw by the greedy cover.
CANDIDATES = 64


def _choices(field: str, point: dict, stmt: Statement) -> tuple:
    """The valid values of ``field`` given the fields drawn before it:
    ``wasm`` needs ``onnx``; ``executor`` a graph backend, ``shard`` more than
    one device and ``entry`` a parameterized statement, or they do not apply."""
    if field == "device" and point["backend"] != "onnx":
        return ("cpu", "cuda")
    if ((field == "executor" and point["backend"] == "pytorch")
            or (field == "shard" and point["devices"] == 1)
            or (field == "entry" and stmt.kind != "prepared")):
        return ()
    return FIELDS[field]


def _random_point(rng: random.Random, stmt: Statement) -> dict:
    point: dict = {}
    for field in FIELDS:
        if choices := _choices(field, point, stmt):
            point[field] = rng.choice(choices)
    return point


def point_pairs(point: dict) -> set:
    return set(itertools.combinations(point.items(), 2))


def statement_values(stmt: Statement) -> set:
    """Every (several devices, field, value) a statement must meet: every
    value of every field on one device and again on more than one, so a
    device count is met with every other option value."""
    values = {(field, value) for field, values in FIELDS.items()
              if field != "entry" or stmt.kind == "prepared" for value in values}
    return ({(False, f, v) for f, v in values
             if f != "shard" and (f != "devices" or v == 1)}
            | {(True, f, v) for f, v in values if (f, v) != ("devices", 1)})


def met_values(point: dict) -> set:
    """The (several devices, field, value) items a draw meets for its
    statement."""
    return {(point["devices"] > 1, f, v) for f, v in point.items()}


def all_pairs() -> set:
    return {pair for f, g in itertools.combinations(FIELDS, 2)
            for pair in itertools.product(((f, v) for v in FIELDS[f]),
                                          ((g, v) for v in FIELDS[g]))}


def covered_pairs(draws: list) -> set:
    return set().union(*(point_pairs(point) for _, point in draws))


def generate_draws(seed: int) -> list[tuple[Statement, dict]]:
    """A greedy cover: each statement draws until it has met every value of
    every field on one device and on several, each draw the best of ``CANDIDATES`` random valid points
    (most new values for the statement, then most new pairs overall); then
    rounds of the pool add the draws that still cover a new pair, until a
    round adds none."""
    rng = random.Random(seed)
    draws: list[tuple[Statement, dict]] = []
    covered: set = set()

    def best(stmt, score):
        return max((_random_point(rng, stmt) for _ in range(CANDIDATES)),
                   key=score)

    for stmt in POOL:
        met: set = set()
        while met != statement_values(stmt):
            point = best(stmt, lambda p: (len(met_values(p) - met),
                                          len(point_pairs(p) - covered)))
            met |= met_values(point)
            covered |= point_pairs(point)
            draws.append((stmt, point))
    grew = True
    while grew:
        grew = False
        for stmt in POOL:
            point = best(stmt, lambda p: len(point_pairs(p) - covered))
            if point_pairs(point) - covered:
                covered |= point_pairs(point)
                draws.append((stmt, point))
                grew = True
    return draws


DRAWS = generate_draws(SEED)


def describe(stmt: Statement, point: dict, binding: dict | None = None) -> str:
    fields = ", ".join(f"{k}={v}" for k, v in point.items())
    shown = (f"binding={binding}" if binding is not None
             else f"bindings={list(stmt.bindings)}")
    return f"seed={SEED} statement={stmt.name} [{fields}] {shown}"


@contextlib.contextmanager
def reported(context: str):
    """Re-raise an engine or oracle error with the draw that provoked it."""
    try:
        yield
    except AssertionError:
        raise
    except Exception as exc:
        raise AssertionError(f"{context}: {type(exc).__name__}: {exc}") from exc


# -- running a draw -----------------------------------------------------------

def options_for(point: dict, **extra) -> ExecutionOptions:
    return ExecutionOptions(
        backend=point["backend"], device=point["device"],
        executor=point.get("executor", "compiled"),
        parallelism=point["parallelism"], devices=point["devices"],
        shard=point.get("shard", "hash"), **extra)


def run_point(session: TQPSession, stmt: Statement, point: dict) -> list:
    """One ``ExecutionResult`` per binding of ``stmt``, through the drawn
    entry, compiled cold."""
    session.plan_cache.clear()
    if stmt.kind == "query":
        return [session.compile(stmt.sql, options=options_for(point)).execute()]
    if stmt.kind == "auto":
        # session.sql's auto-parameterized path, keeping the ExecutionResult.
        misses = session.plan_cache.misses
        # One entry per statement, and a width's beside its width-free one.
        entries = 1 + (point["parallelism"] * point["devices"] > 1)
        results = []
        for binding in stmt.bindings:
            lifted = auto_parameterize(literal_sql(stmt, binding))
            compiled = session.compile(
                lifted.sql, options=options_for(point, auto_parameterize=True),
                param_types=lifted.types)
            results.append(compiled.execute(params=lifted.values))
            assert (session.plan_cache.misses - misses,
                    len(session.plan_cache)) == (entries, entries), \
                describe(stmt, point)
        return results
    options = options_for(point)
    entry = point.get("entry", "bind")
    if entry == "serving":
        with ServingRuntime(session, workers=2, default_options=options) as rt:
            served = rt.prepare(stmt.sql)
            tickets = [served.submit(**b) for b in stmt.bindings]
            results = [ticket.result(timeout=60) for ticket in tickets]
        prepared = served.prepared
    else:
        prepared = session.prepare(stmt.sql, options=options)
        results = (prepared.execute_many(list(stmt.bindings))
                   if entry == "execute_many"
                   else [prepared.bind(**b).execute() for b in stmt.bindings])
    # Compile once, bind many: a graph backend traces at most once.
    assert prepared.compiled.executor.compile_count <= 1, describe(stmt, point)
    return results


def column_bits(table) -> list:
    """What bit-identity compares: per column name and part (data, validity),
    the dtype and shape, then the bytes."""
    return [(name, part, None, None) if t is None else
            (name, part, (str(t.data.dtype), t.data.shape),
             np.ascontiguousarray(t.data).tobytes())
            for name, column in table.columns()
            for part, t in (("data", column.tensor), ("valid", column.valid))]


def first_difference(got: list, want: list) -> str:
    for a, b in itertools.zip_longest(got, want):
        if a != b:
            same_layout = a and b and a[:3] == b[:3]
            what = "bytes differ" if same_layout else "layout differs"
            return f"{what}: {a and a[:3]} vs reference {b and b[:3]}"
    return ""


# -- fixtures -----------------------------------------------------------------

@pytest.fixture(scope="module")
def environments(tpch_tiny):
    """``data`` -> (session, tables): the generated TPC-H instance, and the same
    rows with ``lineitem`` sorted by ``l_shipdate`` (dictionary-encoded flags,
    date predicates that skip zone-map blocks)."""
    session, tables = tpch_tiny
    clustered = dict(tables)
    lineitem = tables["lineitem"]
    clustered["lineitem"] = lineitem.take(
        np.argsort(lineitem["l_shipdate"], kind="stable"))
    clustered_session = TQPSession()
    for name, frame in clustered.items():
        clustered_session.register(name, frame)
    return {"generated": tpch_tiny, "clustered": (clustered_session, clustered)}


@pytest.fixture(scope="module")
def sessions(environments, plain_session):
    """``(data, columns)`` -> the session a draw runs on: the environment's
    own (low-NDV strings dictionary-encoded) or one over the same tables with
    every column plain."""
    out = {}
    for data, (session, tables) in environments.items():
        out[data, "dictionary"] = session
        out[data, "plain"] = plain_session(tables)
    return out


def session_for(sessions, point: dict) -> TQPSession:
    return sessions[point["data"], point["columns"]]


@pytest.fixture(scope="module")
def answers(environments):
    """``(statement, data) -> (oracle frames, reference tables)``, one per
    binding; the oracle answers each (statement, binding, data) once."""
    oracle, reference = {}, {}

    def answer(stmt: Statement, data: str) -> tuple[list, list]:
        key, (session, tables) = (stmt.name, data), environments[data]
        with reported(describe(stmt, {**REFERENCE, "data": data})):
            if key not in oracle:
                oracle[key] = [run_sql(literal_sql(stmt, b), tables, params=(
                    b if stmt.kind == "prepared" else None))
                    for b in stmt.bindings]
            if key not in reference:
                reference[key] = [result.table for result in run_point(
                    session, stmt, {**REFERENCE, "data": data})]
        return oracle[key], reference[key]

    return answer


# -- the three checks ---------------------------------------------------------

#: (statement, binding index): the reference is checked binding by binding.
BOUND = [(stmt, i) for stmt in POOL for i in range(len(stmt.bindings))]


@pytest.mark.parametrize("data", FIELDS["data"])
@pytest.mark.parametrize("stmt,index", BOUND, ids=[
    s.name if len(s.bindings) == 1 else f"{s.name}-b{i}" for s, i in BOUND])
def test_reference_matches_oracle(answers, frames_match, stmt, index, data):
    oracles, references = answers(stmt, data)
    frames_match(references[index].to_dataframe(), oracles[index],
                 ordered=stmt.ordered, context=describe(
                     stmt, {**REFERENCE, "data": data}, stmt.bindings[index]))


def _draw_id(index: int, draw: tuple) -> str:
    stmt, point = draw
    return "-".join([f"{index:03d}", stmt.name, *map(str, point.values())])


def expected_modes(stmt: Statement, point: dict, results: list) -> list:
    """``executor_mode`` per result of a cold :func:`run_point`.

    The first execution of a graph backend under ``executor="compiled"``
    returns its trace's result when it runs one binding unprofiled (the
    simulated devices always profile); every other run replays generated
    code.  A serving worker's first batch may hold one request or several,
    so through the serving runtime at most one result object (shared by
    deduplicated requests) is ``traced``.
    """
    if point["backend"] == "pytorch":
        return ["eager"] * len(results)
    if point["executor"] == "interpret":
        return ["interpreted"] * len(results)
    modes = ["compiled"] * len(results)
    if point["device"] != "cpu":
        return modes
    entry = point.get("entry", "bind") if stmt.kind == "prepared" else "bind"
    if entry == "serving":
        traced = {id(r) for r in results if r.executor_mode == "traced"}
        return ["traced" if id(r) in traced and len(traced) == 1
                else "compiled" for r in results]
    if entry == "bind" or len(results) == 1:
        modes[0] = "traced"
    return modes


@pytest.mark.parametrize("draw", DRAWS,
                         ids=[_draw_id(i, d) for i, d in enumerate(DRAWS)])
def test_draw(sessions, answers, draw):
    stmt, point = draw
    _, references = answers(stmt, point["data"])
    with reported(describe(stmt, point)):
        results = run_point(session_for(sessions, point), stmt, point)
    modes = [result.executor_mode for result in results]
    assert modes == expected_modes(stmt, point, results), describe(stmt, point)
    for binding, result, reference in zip(stmt.bindings, results, references):
        context = describe(stmt, point, binding)
        difference = first_difference(column_bits(result.table),
                                      column_bits(reference))
        assert not difference, f"{context}: {difference}"


# -- what the draws cover -----------------------------------------------------

def test_draws_cover_every_value_and_pair():
    """From the draw list alone: each statement meets every value of every
    field on one device and on several, and the value pairs no draw holds are exactly the invalid ones."""
    for stmt in POOL:
        met = {item for s, point in DRAWS if s is stmt
               for item in met_values(point)}
        assert met == statement_values(stmt), stmt.name
    invalid = (
        {(("backend", b), ("device", "wasm")) for b in FIELDS["backend"]
         if b != "onnx"}
        | {(("backend", "pytorch"), ("executor", e)) for e in FIELDS["executor"]}
        | {(("devices", 1), ("shard", s)) for s in FIELDS["shard"]})
    assert all_pairs() - covered_pairs(DRAWS) == invalid


#: Every operator class the planner can place, by name.
OPERATOR_CLASSES = {
    name for name in operators.__all__
    if isinstance(getattr(operators, name), type)
    and issubclass(getattr(operators, name), operators.TensorOperator)
    and name not in ("TensorOperator", "MapOperator")}


def test_pool_plans_every_operator_and_join_kind(sessions):
    """The draws' plans hold every physical operator and every join kind SQL
    reaches.  Kinds no SQL plans: hash joins ``right`` / ``full`` (the parser
    accepts them, the planner raises), nested-loop ``semi`` / ``anti``
    (EXISTS without an equality is not decorrelated; IN runs a subquery)."""
    seen, kinds = set(), set()
    for stmt, point in DRAWS:
        session = session_for(sessions, point)
        session.plan_cache.clear()
        with reported(describe(stmt, point)):
            plan = session.compile(stmt.sql, options=options_for(
                point)).operator_plan.root
        for op in plan.walk():
            seen.add(type(op).__name__)
            if isinstance(op, (HashJoinOperator, NestedLoopJoinOperator)):
                kinds.add((op.name, op.kind))
    assert seen == OPERATOR_CLASSES
    assert kinds == {("HashJoin", k) for k in ("inner", "left", "semi", "anti")} \
        | {("NestedLoopJoin", k) for k in ("inner", "cross", "left")}


# -- plan shapes and executors the draws rely on ------------------------------

def _plan(session, query_id, **options) -> str:
    return session.compile(tpch.query(query_id, SCALE_FACTOR),
                           options=ExecutionOptions(**options)
                           ).operator_plan.pretty()


def test_partitioned_plans_take_their_shapes(tpch_tiny):
    """Guard against the draws silently comparing serial plans: lanes plan
    their operators, and a device count is the same width as a lane count."""
    session, _ = tpch_tiny
    for query_id in (1, 6):
        assert "MorselScan" in _plan(session, query_id, parallelism=4)
        serial = _plan(session, query_id, parallelism=1)
        assert "Morsel" not in serial and "Parallel" not in serial
    assert "PartitionedHashJoin[inner]" in _plan(session, 3, parallelism=4)
    # Q14's ~1.4%-selective date range plans a serial join.
    assert "PartitionedHashJoin" not in _plan(session, 14, parallelism=4)
    assert "ParallelHashAggregate" in _plan(session, 1, parallelism=4)
    for query_id in tpch.ALL_QUERY_IDS:
        assert (_plan(session, query_id, devices=2)
                == _plan(session, query_id, parallelism=2)), query_id


def test_clustered_lineitem_encodes_and_prunes(environments):
    session, _ = environments["clustered"]
    compiled = session.compile(tpch.query(1, SCALE_FACTOR))
    table = session.prepare_inputs(compiled.executor)["lineitem"]
    assert isinstance(table.column("lineitem.l_returnflag").encoding,
                      DictionaryEncoding)
    result = session.compile(tpch.query(6, SCALE_FACTOR)).execute()
    assert result.pruning["lineitem"]["blocks_skipped"] > 0


def traced_then_compiled(session: TQPSession, sql: str, backend: str,
                         binding: dict) -> tuple:
    """The first two executions of ``sql`` under ``binding``, compiled cold."""
    session.plan_cache.clear()
    compiled = session.compile(sql, options=ExecutionOptions(backend=backend))
    first, second = (compiled.execute(params=binding) for _ in range(2))
    assert (first.executor_mode, second.executor_mode,
            compiled.executor.compile_count) == ("traced", "compiled", 1)
    return first, second


#: The pool's statements whose first execution is one ``execute``.
TRACED_POOL = [stmt for stmt in POOL if stmt.kind != "auto"]


@pytest.mark.parametrize("backend", ("torchscript", "onnx"))
@pytest.mark.parametrize("stmt", TRACED_POOL,
                         ids=[stmt.name for stmt in TRACED_POOL])
def test_traced_result_is_the_compiled_result(sessions, stmt, backend):
    """A first execution returns its trace's result; the second replays
    generated code and returns the same bits, binding by binding."""
    session = sessions["generated", "dictionary"]
    for binding in stmt.bindings:
        traced, compiled = traced_then_compiled(session, stmt.sql, backend,
                                                binding)
        difference = first_difference(column_bits(traced.table),
                                      column_bits(compiled.table))
        context = describe(stmt, {"backend": backend}, binding)
        assert not difference, f"{context}: {difference}"
        assert traced.pruning == compiled.pruning
        assert all(t.trace_value is None for _, column in traced.table.columns()
                   for t in (column.tensor, column.valid) if t is not None)


@pytest.mark.parametrize("backend", ("torchscript", "onnx"))
def test_traced_prediction_is_the_compiled_prediction(backend):
    session = TQPSession()
    register_prediction_model(session)
    for cut in (1, 3, 5):
        traced, compiled = traced_then_compiled(
            session, PREDICTION_SHAPE, backend, {"cut": cut})
        assert not first_difference(column_bits(traced.table),
                                    column_bits(compiled.table)), cut


ONNX_CASES = ([(q, {}) for q in tpch.ALL_QUERY_IDS]
              + [(q, p) for q in (1, 3, 6)
                 for p in ({"parallelism": 4}, {"devices": 4})])


@pytest.mark.parametrize("device", ("cpu", "wasm"))
@pytest.mark.parametrize("query_id,partitioning", ONNX_CASES,
                         ids=[f"q{q}-{p or 'serial'}" for q, p in ONNX_CASES])
def test_onnx_executors_agree(tpch_tiny, event_stream, query_id, partitioning,
                              device):
    """On ``onnx``, generated code and the reference interpreter return the
    same bits and the same event stream (the simulated accounting)."""
    session, _ = tpch_tiny
    context = f"Q{query_id} [onnx/{device}/{partitioning or 'serial'}]"
    runs = [session.compile(tpch.query(query_id, SCALE_FACTOR),
                            options=ExecutionOptions(
                                backend="onnx", device=device, executor=e,
                                **partitioning)).execute(profile=True)
            for e in ("interpret", "compiled")]
    interpreted, compiled = runs
    assert (interpreted.executor_mode, compiled.executor_mode) == (
        "interpreted", "compiled"), context
    difference = first_difference(column_bits(interpreted.table),
                                  column_bits(compiled.table))
    assert not difference, f"{context}: {difference}"
    assert interpreted.profile.events, context
    assert (event_stream(interpreted.profile)
            == event_stream(compiled.profile)), context
