"""What a first execution does exactly once: conversion and code generation.

* **One converted column per generation** — a table's record keeps one
  ``column → TensorColumn`` memo, so however many scans read
  ``l_shipdate`` it is converted once and every input holds the same tensors;
  re-registering the table starts from an empty memo.
* **The profiled body is built on first use** — an unprofiled first execution
  compiles one generated function; the first profiled one builds the twin,
  once, whoever races for it, outside the profiled (timed) region, and with
  the event stream the reference interpreter records.
* **The lowering check runs on the traced graph** — a first execution checks
  the graph it traced, before any pass, so the passes must introduce
  nothing the check rejects.
"""

from __future__ import annotations

import builtins
import sys
import threading

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.datasets import tpch
from repro.serve import build_shapes, register_prediction_model
from repro.storage import encodings
from repro.tensor import codegen, passes
from repro.tensor.profiler import current_profiler
from test_differential import POOL
from test_prediction_queries import SENTIMENT_SQL

SF = 0.002
TRACED = ExecutionOptions(backend="torchscript", device="cpu")


@pytest.fixture
def fresh_session(tpch_tiny):
    """A new session over the shared tiny TPC-H frames (nothing converted,
    nothing compiled)."""
    _, tables = tpch_tiny
    session = TQPSession(default_options=TRACED)
    for name, frame in tables.items():
        session.register(name, frame)
    return session


@pytest.fixture
def conversions(monkeypatch):
    """Every ``encode_column`` call made while the test runs."""
    calls = []
    convert = encodings.encode_column

    def counted(array, *args, **kwargs):
        calls.append(array)
        return convert(array, *args, **kwargs)

    monkeypatch.setattr(encodings, "encode_column", counted)
    return calls


@pytest.fixture
def generated(monkeypatch):
    """``(filename, source, profiler active)`` of every generated module
    handed to ``compile`` while the test runs."""
    seen = []
    real_compile = builtins.compile

    def recording(source, filename, *args, **kwargs):
        if isinstance(filename, str) and filename.startswith("<tqp-codegen"):
            seen.append((filename, source, current_profiler() is not None))
        return real_compile(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", recording)
    return seen


def _scanned(compiled_queries):
    """The distinct ``(table, column)`` pairs the plans scan."""
    return {(scan.table, field.name.split(".", 1)[-1])
            for compiled in compiled_queries
            for scan in compiled.operator_plan.scans
            for field in scan.fields}


def _column(table, base):
    return next(column for name, column in table.columns()
                if name.split(".", 1)[-1] == base)


# -- one conversion per column per generation -----------------------------------


def test_each_scanned_column_is_converted_once(fresh_session, conversions,
                                               tpch_tiny):
    session = fresh_session
    compiled = {q: session.compile(tpch.query(q, SF)) for q in (1, 3, 6, 12, 19)}
    for query in compiled.values():
        query.run()
    scanned = _scanned(compiled.values())
    # Q1, Q3, Q6, Q12 and Q19 all read lineitem, with different field tuples.
    assert sum(len(scan.fields) for query in compiled.values()
               for scan in query.operator_plan.scans) > len(scanned)
    assert len(conversions) == len(scanned)

    q1 = session.prepare_inputs(compiled[1].executor)["lineitem"]
    q6 = session.prepare_inputs(compiled[6].executor)["lineitem"]
    assert _column(q1, "l_shipdate") is _column(q6, "l_shipdate")
    assert _column(q1, "l_shipdate").tensor is _column(q6, "l_shipdate").tensor
    record = session.catalog.record("lineitem")
    assert record.columns["l_shipdate"] is _column(q1, "l_shipdate")

    # A new generation starts from nothing, and converts again on demand.
    _, tables = tpch_tiny
    session.register("lineitem", tables["lineitem"])
    record = session.catalog.record("lineitem")
    assert record.columns == {} and record.converted == {}
    before = len(conversions)
    compiled[6].run()
    assert len(conversions) - before == len(_scanned([compiled[6]]))
    assert (_column(session.prepare_inputs(compiled[6].executor)["lineitem"],
                    "l_shipdate") is not _column(q6, "l_shipdate"))


# -- the profiled body is built on first use ----------------------------------------


def _scripted(compiled):
    return compiled.executor._program.scripted


def test_unprofiled_first_execution_compiles_one_function(fresh_session,
                                                          generated):
    compiled = fresh_session.compile(tpch.query(6, SF))
    compiled.run()
    compiled.run()
    assert len(generated) == 1
    _, source, _ = generated[0]
    assert source.startswith("def run(") and source.count("\ndef ") == 0
    scripted = _scripted(compiled)
    assert scripted.compiled_source == source
    assert scripted.compiled_profiled_source is None


def test_racing_first_profiled_executions_build_the_twin_once(
        fresh_session, generated, event_stream):
    compiled = fresh_session.compile(tpch.query(3, SF))
    compiled.run()
    workers = 8
    barrier = threading.Barrier(workers)
    results, errors = [], []

    def profiled_run():
        try:
            barrier.wait(timeout=30)
            results.append(compiled.execute(profile=True))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=profiled_run)
                   for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and len(results) == workers
    twins = [entry for entry in generated if entry[0].endswith(":profiled>")]
    assert len(twins) == 1 and len(generated) == 2
    filename, source, inside_profiler = twins[0]
    # Built before any profiler (and so any timed region) was entered.
    assert not inside_profiler
    assert source.startswith("def run_profiled(")
    assert _scripted(compiled).compiled_profiled_source == source
    streams = [event_stream(result.profile) for result in results]
    assert streams[0] and all(stream == streams[0] for stream in streams)


@pytest.mark.parametrize("query", [6, 3])
@pytest.mark.parametrize("options", [
    ExecutionOptions(backend="torchscript", device="cuda"),
    ExecutionOptions(backend="onnx", device="wasm"),
    ExecutionOptions(backend="torchscript", device="cpu", adaptive=True,
                     parallelism=4),
], ids=["cuda", "onnx-wasm", "adaptive"])
def test_always_profiling_configurations_profile_from_the_first_run(
        fresh_session, generated, event_stream, options, query):
    """Simulated devices and adaptive statements profile every execution, the
    first included: the twin exists before that run is timed, and what it
    records is what the reference interpreter records."""
    session = fresh_session
    compiled = session.compile(tpch.query(query, SF), options=options)
    first = compiled.execute()
    assert first.profile is not None and first.profile.events
    assert [inside for name, _, inside in generated
            if name.endswith(":profiled>")] == [False]
    reference = session.compile(
        tpch.query(query, SF),
        options=options.replace(executor="interpret", adaptive=False)
    ).execute(profile=True)
    assert (first.to_dataframe().to_dict()
            == reference.to_dataframe().to_dict())
    if options.adaptive:
        return  # which strategy's plan runs first is the runtime's choice
    assert event_stream(first.profile) == event_stream(reference.profile)
    assert event_stream(compiled.execute().profile) == event_stream(
        first.profile)
    if options.device == "cuda":
        # The roofline model reads bytes and event order, not the clock.
        assert first.reported_s == reference.reported_s


# -- the passes introduce nothing the lowering check rejects ----------------------


#: ``(name, sql, binding, auto-parameterized)`` of every statement a
#: workload or the differential harness runs: the 22 TPC-H statements and
#: the rest of the harness's pool, the Figure-4 PREDICT and every serving
#: shape.
CHECKED = (
    [(stmt.name, stmt.sql, stmt.bindings[0] if stmt.kind == "prepared" else {},
      stmt.kind == "auto") for stmt in POOL]
    + [("figure4_predict", SENTIMENT_SQL, {}, False)]
    + [(f"shape_{shape.name}", shape.sql,
        shape.binder(np.random.RandomState(0)) if shape.binder else {}, False)
       for shape in build_shapes(SF)])


@pytest.fixture(scope="module")
def checked_session(tpch_tiny):
    _, tables = tpch_tiny
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    register_prediction_model(session)
    return session


@pytest.mark.parametrize("name,sql,binding,auto", CHECKED,
                         ids=[case[0] for case in CHECKED])
def test_the_passes_introduce_nothing_the_check_rejects(
        checked_session, name, sql, binding, auto):
    """The unsupported-construct check passes on the traced graph and on
    the same graph after the passes."""
    compiled = checked_session.compile(sql, options=ExecutionOptions(
        backend="torchscript-noopt", executor="interpret",
        auto_parameterize=auto))
    raw = compiled.executor.compile_program(
        checked_session.prepare_inputs(compiled.executor),
        params=binding).graph
    assert codegen.unsupported_reason(raw) is None
    assert codegen.unsupported_reason(passes.optimize(raw.clone())) is None
