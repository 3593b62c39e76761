"""A lanes width is a price, so a statement has one plan and one program.

The planner plans no lanes: it names every operator ``label#id`` in one
deterministic order and records the rows the lanes rule compares, and a
width prices that plan into ``OperatorPlan.lanes``; nothing about lanes
reaches the traced program.  So a statement's serial, ``parallelism=4`` and
adaptive entries share one planner walk and one executor, an adaptive
statement prices its three candidates over that plan, and it switches
between candidates without parsing, planning or tracing anything.  A held
handle refreshed after a ``register()`` is the plan-cache entry of its new
generation, so that generation traces once too.
"""

from __future__ import annotations

import collections

import pytest

import repro.core.session as session_module
from repro import ExecutionOptions, TQPSession
from repro.adaptive import price
from repro.core import ir_builder, ir_optimizer
from repro.core.executor import Executor
from repro.core.planner import Planner, plan_ir
from repro.datasets import tpch
from repro.frontend import sql_to_physical
from test_differential import column_bits

SCALE_FACTOR = 0.002
SERIAL = ExecutionOptions(backend="torchscript")
ADAPTIVE = ExecutionOptions(backend="torchscript", parallelism=4,
                            adaptive=True)
CANDIDATES = ["auto", "serial", "parallel"]


def bits(result) -> list:
    """What the differential harness compares for bit-identity."""
    return column_bits(result.table)


@pytest.fixture
def session(tpch_tiny):
    """A session of its own: the tests below re-register a table and count
    plan-cache entries."""
    _, tables = tpch_tiny
    fresh = TQPSession()
    for name, frame in tables.items():
        fresh.register(name, frame)
    return fresh


@pytest.fixture
def calls(monkeypatch):
    """How often anything parses, walks the planner or traces."""
    seen = collections.Counter()

    def counted(name, function):
        def spy(*args, **kwargs):
            seen[name] += 1
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(session_module, "sql_to_physical",
                        counted("sql_to_physical", sql_to_physical))
    monkeypatch.setattr(Planner, "plan", counted("walk", Planner.plan))
    monkeypatch.setattr(Executor, "_trace_locked",
                        counted("trace", Executor._trace_locked))
    return seen


def _run(prepared, reference: list, executions: int) -> list:
    """Run an adaptive statement ``executions`` times; every result must be
    bit-identical to ``reference`` and report the cheapest candidate of its
    own prices, which the statement then names.  Returns those candidates."""
    compiled = prepared.compiled
    ran = []
    for _ in range(executions):
        result = prepared.execute()
        assert bits(result) == reference, ran
        prices = price(compiled.candidates, result,
                       compiled.executor.cost_model)
        assert list(prices) == CANDIDATES
        assert result.reported_s == min(prices.values())
        ran.append(min(prices, key=prices.__getitem__))
        assert compiled.strategy == ran[-1]
        assert compiled.operator_plan is compiled.candidates[ran[-1]]
    return ran


def _scopes(plan) -> list:
    return [op.scope for op in plan.root.walk()] + [
        op.scope for sub in plan.subqueries.values() for op in sub.walk()]


@pytest.mark.parametrize("query", (1, 3, 6, 21))
def test_a_width_runs_the_serial_program(session, calls, query):
    """Serial and ``parallelism=4`` are one plan walk, one executor and one
    trace; only the lanes map differs, and no traced node carries it."""
    sql = tpch.query(query, SCALE_FACTOR)
    serial, spread = (session.compile(sql, options=options)
                      for options in (SERIAL, SERIAL.replace(parallelism=4)))
    assert spread.executor is serial.executor
    assert [op.scope for op in spread.operator_plan.root.walk()] == [
        op.scope for op in serial.operator_plan.root.walk()]
    for compiled in (serial, spread):
        compiled.execute(profile=True)
    scripted = serial.executor._program.scripted
    assert not any("lanes" in node.attrs for node in scripted.graph.nodes)
    assert serial.operator_plan.lanes == {}
    assert spread.operator_plan.lanes, query  # the entry is priced on lanes
    assert calls == {"sql_to_physical": 1, "walk": 1, "trace": 1}


@pytest.mark.parametrize("query", (11, 15, 16, 18, 20, 22))
def test_planning_an_ir_twice_leaves_it_untouched(tpch_tiny, query):
    """Planning keeps runtime subqueries' operators on the plan, so a second
    plan of one IR scans, names and answers what the first does."""
    session, _ = tpch_tiny
    physical = sql_to_physical(tpch.query(query, SCALE_FACTOR),
                               session.catalog)
    query_ir = ir_optimizer.optimize_ir(ir_builder.build_ir(physical))
    names = session.table_names()
    stats = {name: session.catalog.statistics(name) for name in names}
    plans = [plan_ir(query_ir, parallelism=4, table_stats=stats)
             for _ in range(2)]
    first, second = ([(scan.table, scan.alias, [f.name for f in scan.fields])
                      for scan in plan.scans] for plan in plans)
    assert first == second, query
    assert ([op.scope for op in plans[0].root.walk()]
            == [op.scope for op in plans[1].root.walk()])
    results = []
    for plan in plans:
        executor = Executor(plan, options=SERIAL)
        results.append(bits(executor.execute(session.prepare_inputs(executor))))
    assert results[0] == results[1], query


@pytest.mark.parametrize("query", tpch.ALL_QUERY_IDS)
def test_candidates_share_one_program_and_each_execution_reports_its_cheapest(
        session, calls, query):
    """Every TPC-H statement: the three candidates price the serial
    statement's operators, each execution is bit-identical to static serial
    and reports the cheapest candidate of its own prices, the first
    included, and serial and adaptive together plan and trace once."""
    sql = tpch.query(query, SCALE_FACTOR)
    serial = session.compile(sql, options=SERIAL)
    reference = bits(serial.execute())
    compiled = session.compile(sql, options=ADAPTIVE)
    assert list(compiled.candidates) == CANDIDATES
    scopes = [_scopes(plan) for plan in compiled.candidates.values()]
    assert scopes[0] == scopes[1] == scopes[2], query
    assert compiled.executor is serial.executor
    _run(session.prepare(sql, options=ADAPTIVE), reference, 4)
    assert calls == {"sql_to_physical": 1, "walk": 1, "trace": 1}, (
        query, calls)


def test_a_switch_plans_and_traces_nothing(session, calls, monkeypatch):
    """Switching repoints the statement at an already-priced candidate: no
    parse, no plan, no trace — until a new generation of a scanned table
    plans once more and traces one program."""
    sql = tpch.query(6, SCALE_FACTOR)
    prepared = session.prepare(sql, options=ADAPTIVE)
    assert calls == {"sql_to_physical": 1, "walk": 1}
    reference = bits(session.compile(sql, options=SERIAL).execute())
    assert calls == {"sql_to_physical": 1, "walk": 1, "trace": 1}
    calls.clear()
    for favoured in ("serial", "parallel", "auto", "serial"):
        # Prices that favour ``favoured``: this execution switches to it.
        monkeypatch.setattr(
            session_module, "price",
            lambda candidates, result, cost_model, favoured=favoured: {
                name: 1.0 + (name != favoured) for name in candidates})
        assert bits(prepared.execute()) == reference
        assert prepared.compiled.strategy == favoured
        assert prepared.compiled.operator_plan \
            is prepared.compiled.candidates[favoured]
    assert calls == {}
    monkeypatch.setattr(session_module, "price", price)
    # A new generation of a scanned table is planned and traced once more,
    # by whichever of its entries runs first.
    session.register("lineitem", session.dataframe("lineitem"))
    reference = bits(session.compile(sql, options=SERIAL).execute())
    _run(prepared, reference, 3)
    assert calls == {"sql_to_physical": 1, "walk": 1, "trace": 1}


@pytest.mark.parametrize("options", (SERIAL, ADAPTIVE),
                         ids=("serial", "adaptive"))
def test_a_refreshed_stale_handle_is_its_generations_cache_entry(
        session, calls, options):
    """A handle held across a ``register()`` refreshes on its next
    execution and enters the plan cache, so compiling the statement again
    returns the handle and its new generation traces once; a handle
    refreshed after the cache already compiled the new generation adopts
    that entry's executor instead of tracing its own."""
    sql = tpch.query(6, SCALE_FACTOR)
    held = session.compile(sql, options=options)
    held.execute()
    session.register("lineitem", session.dataframe("lineitem"))
    calls.clear()
    held.execute()
    assert session.compile(sql, options=options) is held
    assert calls["trace"] == 1

    session.register("lineitem", session.dataframe("lineitem"))
    fresh = session.compile(sql, options=options)
    assert fresh is not held
    calls.clear()
    held.execute()
    fresh.execute()
    assert held.executor is fresh.executor
    assert calls == {"trace": 1}
    assert session.compile(sql, options=options) is fresh
