"""A lanes width lives on the plan, so a statement has one program.

The planner names every operator ``label#id`` in one deterministic order and
keeps the lanes widths in ``OperatorPlan.lanes``; nothing about lanes reaches
the traced program.  So a ``parallelism=4`` plan generates the serial plan's
source, plain and profiled, and an adaptive statement that switches strategy
replays the program it already traced instead of tracing another.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import ExecutionOptions, TQPSession
from repro.core.executor import Executor
from repro.datasets import tpch
from test_differential import column_bits

SCALE_FACTOR = 0.002
SERIAL = ExecutionOptions(backend="torchscript")
ADAPTIVE = ExecutionOptions(backend="torchscript", parallelism=4,
                            adaptive=True)


def bits(result) -> list:
    """What the differential harness compares for bit-identity."""
    return column_bits(result.table)


@pytest.fixture
def session(tpch_tiny):
    """A session of its own: the tests below re-register a table."""
    _, tables = tpch_tiny
    fresh = TQPSession()
    for name, frame in tables.items():
        fresh.register(name, frame)
    return fresh


@pytest.fixture
def traces(monkeypatch):
    """Every trace any executor runs, as the plan it traced."""
    seen = []
    compile_locked = Executor._compile_locked

    def spy(self, inputs, bound):
        seen.append(self.plan)
        return compile_locked(self, inputs, bound)

    monkeypatch.setattr(Executor, "_compile_locked", spy)
    return seen


def _explore(prepared, reference: list, executions: int) -> list:
    """Run an adaptive statement ``executions`` times; every result must be
    bit-identical to ``reference``.  Returns the strategies it ran."""
    ran = []
    for _ in range(executions):
        result = prepared.execute()
        ran.append(prepared.compiled.strategy)
        assert bits(result) == reference, ran
    return ran


@pytest.mark.parametrize("query", (1, 3, 6, 21))
def test_a_lanes_plan_generates_the_serial_source(tpch_tiny, query):
    session, _ = tpch_tiny
    sources, attrs = [], set()
    for options in (SERIAL, SERIAL.replace(parallelism=4)):
        compiled = session.compile(tpch.query(query, SCALE_FACTOR),
                                   options=options)
        compiled.execute(profile=True)
        scripted = compiled.executor._program.scripted
        sources.append([
            hashlib.sha1(source.encode()).hexdigest()
            for source in (scripted.compiled_source,
                           scripted.compiled_profiled_source)])
        attrs.update(key for node in scripted.graph.nodes
                     for key in node.attrs)
    serial, spread = sources
    assert serial == spread, query
    assert "lanes" not in attrs
    assert compiled.operator_plan.lanes, query  # the plan is a lanes plan


def test_strategy_switches_replay_the_traced_program(session, traces):
    runtime = session.adaptive
    executions = 3 * runtime.min_observations + 3
    held = {}
    for query in (1, 3, 6):
        sql = tpch.query(query, SCALE_FACTOR)
        reference = bits(session.compile(sql, options=SERIAL).execute())
        before, replans = len(traces), runtime.replan_count
        held[query] = session.prepare(sql, options=ADAPTIVE)
        ran = _explore(held[query], reference, executions)
        assert {ran.count(name) >= runtime.min_observations
                for name in ("auto", "serial", "parallel")} == {True}, ran
        assert runtime.replan_count > replans
        assert len(traces) - before == 1, (query, ran)
    # A new generation of a scanned table is a new program: one trace.
    session.register("lineitem", session.dataframe("lineitem"))
    reference = bits(session.compile(tpch.query(6, SCALE_FACTOR),
                                     options=SERIAL).execute())
    before = len(traces)
    _explore(held[6], reference, executions)
    assert len(traces) - before == 1


@pytest.mark.parametrize("query", (18, 22))
def test_subquery_statements_explore_every_candidate(session, traces, query):
    runtime = session.adaptive
    sql = tpch.query(query, SCALE_FACTOR)
    reference = bits(session.compile(sql, options=SERIAL).execute())
    before = len(traces)
    _explore(session.prepare(sql, options=ADAPTIVE), reference,
             3 * runtime.min_observations)
    observed = [record["strategy"] for record in runtime.feedback.dump()]
    assert {name: observed.count(name)
            for name in ("auto", "serial", "parallel")} == {
        name: runtime.min_observations
        for name in ("auto", "serial", "parallel")}
    assert len(traces) - before == 1
