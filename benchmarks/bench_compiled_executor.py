"""Compiled-executor serving benchmark (wall-clock, not simulated).

The compiled executor (:mod:`repro.tensor.codegen`) lowers a traced graph
into one generated Python function, retiring the interpreter's per-node
dispatch from the hot path.  That dispatch is a fixed per-request tax, so the
win shows up where the paper's serving story lives: prepared-statement replay
over tiny per-request data slices, where a Q6 request touches a few hundred
rows and interpreter bookkeeping dominates the numpy kernels.

This benchmark measures **wall-clock host time** (``time.perf_counter``, on
the real cpu device — no simulated cost model anywhere in the loop) of
``PreparedQuery.execute_many`` under ``executor="interpret"`` versus
``executor="compiled"``, on TPC-H Q6 and Q1 with per-request bindings drawn
from the spec's substitution-parameter distributions.  The compiled path must
be at least **3x** faster on Q6, with every per-request result bit-identical
to interpreted replay.

The scale factor is pinned (not ``--tpch-sf``): the assertion characterizes
the dispatch-bound serving regime, and at analytics scale factors kernel time
dominates both executors equally, which is not what this gate is about
(``bench_prepared_throughput.py`` covers that axis).

A tier-2 companion test sweeps all 22 TPC-H queries on a simulated device and
requires both executors to agree exactly — same result tensors, same
simulated kernel-time accounting — so the speedup cannot come from skipped
work.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.bench.harness import tpch_session
from repro.datasets import tpch

#: Serving-regime scale factor: ~600 lineitem rows per request, the regime
#: where per-node dispatch (a few microseconds per node) is the dominant cost.
SERVING_SF = 0.0001

#: Scale factor for the tier-2 all-queries parity sweep (the differential
#: harness's scale factor).
PARITY_SF = 0.002

#: Requests per measured ``execute_many`` batch, and best-of repetitions.
NUM_REQUESTS = 500
REPS = 5

Q6_PREPARED = """
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where
    l_shipdate >= date '1994-01-01'
    and l_shipdate < date '1994-01-01' + interval '1' year
    and l_discount between :lo and :hi
    and l_quantity < :q
"""

Q1_PREPARED = """
select
    l_returnflag, l_linestatus,
    sum(l_quantity) as sum_qty,
    sum(l_extendedprice) as sum_base_price,
    sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
    sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as sum_charge,
    avg(l_quantity) as avg_qty,
    avg(l_extendedprice) as avg_price,
    avg(l_discount) as avg_disc,
    count(*) as count_order
from lineitem
where l_shipdate <= :cutoff
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus
"""


def _q6_bindings() -> list[dict]:
    """Spec-style Q6 substitution parameters: DISCOUNT is drawn from
    [0.02, 0.09] with a +/-0.01 window, QUANTITY from {24, 25}."""
    bindings = []
    for i in range(NUM_REQUESTS):
        discount = 0.02 + (i % 8) * 0.01
        bindings.append({"lo": round(discount - 0.01, 2),
                         "hi": round(discount + 0.01, 2),
                         "q": float(24 + i % 2)})
    return bindings


def _q1_bindings() -> list[dict]:
    """Q1 DELTA sweep expressed as a shipdate cutoff (the frontend does not
    parameterize interval literals, so the cutoff date is the parameter)."""
    return [{"cutoff": f"1998-{9 - i % 3:02d}-{1 + i % 28:02d}"}
            for i in range(NUM_REQUESTS)]


def _fresh_session(tables) -> TQPSession:
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    return session


def _serve(tables, sql: str, bindings: list[dict], executor: str):
    """Best-of-``REPS`` wall-clock seconds for one ``execute_many`` batch,
    plus the per-request results from the last repetition."""
    session = _fresh_session(tables)
    options = ExecutionOptions(backend="torchscript", device="cpu",
                               executor=executor)
    prepared = session.prepare(sql, options=options)
    prepared.execute_many(bindings[:2])  # trace + codegen outside the clock
    best_s = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        results = prepared.execute_many(bindings)
        best_s = min(best_s, time.perf_counter() - start)
    assert len(results) == len(bindings)
    return best_s, results


def _assert_bit_identical(interpreted, compiled, context: str) -> None:
    """Every request's result table must match *bitwise* between executors —
    same columns, same dtypes, same bytes (not merely within tolerance)."""
    for index, (left, right) in enumerate(zip(interpreted, compiled)):
        table_l, table_r = left.table.decoded(), right.table.decoded()
        assert table_l.column_names == table_r.column_names, context
        for name in table_l.column_names:
            data_l = table_l.column(name).tensor.data
            data_r = table_r.column(name).tensor.data
            assert data_l.dtype == data_r.dtype, (
                f"{context}: request {index}, column {name!r} dtype")
            assert np.array_equal(data_l, data_r), (
                f"{context}: request {index}, column {name!r} differs "
                f"between executors")


def _report(label: str, scale_factor: float, interp_s: float,
            compiled_s: float) -> float:
    speedup = interp_s / compiled_s
    print(f"\n{label} @ SF {scale_factor} ({NUM_REQUESTS} requests, "
          f"best of {REPS}): "
          f"interpreted {interp_s / NUM_REQUESTS * 1e6:.1f} us/req, "
          f"compiled {compiled_s / NUM_REQUESTS * 1e6:.1f} us/req, "
          f"wall-clock speedup {speedup:.2f}x")
    return speedup


@pytest.fixture(scope="module")
def serving_tables():
    _, tables = tpch_session(SERVING_SF)
    return tables


def test_q6_compiled_serving_speedup(serving_tables):
    bindings = _q6_bindings()
    interp_s, interp_results = _serve(serving_tables, Q6_PREPARED, bindings,
                                      "interpret")
    compiled_s, compiled_results = _serve(serving_tables, Q6_PREPARED,
                                          bindings, "compiled")

    assert all(r.executor_mode == "interpreted" for r in interp_results)
    assert all(r.executor_mode == "compiled" for r in compiled_results)
    _assert_bit_identical(interp_results, compiled_results, "Q6")

    speedup = _report("Q6", SERVING_SF, interp_s, compiled_s)
    assert speedup >= 3.0, (
        f"compiled execute_many must be >=3x interpreted replay on Q6 "
        f"in the serving regime, got {speedup:.2f}x")


def test_q1_compiled_serving_speedup(serving_tables):
    bindings = _q1_bindings()
    interp_s, interp_results = _serve(serving_tables, Q1_PREPARED, bindings,
                                      "interpret")
    compiled_s, compiled_results = _serve(serving_tables, Q1_PREPARED,
                                          bindings, "compiled")

    assert all(r.executor_mode == "interpreted" for r in interp_results)
    assert all(r.executor_mode == "compiled" for r in compiled_results)
    _assert_bit_identical(interp_results, compiled_results, "Q1")

    # Q1 carries a group-by/sort tail whose kernels cost the same under both
    # executors, so its ratio sits below Q6's; locally ~3.5x, gated at 2x to
    # absorb shared-runner noise (the 3x acceptance gate is Q6's, above).
    speedup = _report("Q1", SERVING_SF, interp_s, compiled_s)
    assert speedup >= 2.0, (
        f"compiled execute_many must be >=2x interpreted replay on Q1 "
        f"in the serving regime, got {speedup:.2f}x")


@pytest.mark.tier2
def test_all_queries_identical_results_and_accounting():
    """All 22 TPC-H queries under both executors on a *simulated* device:
    bit-identical result columns and exactly equal simulated kernel-time
    accounting (``reported_s`` is derived from the profile-event stream, so
    equality here means the compiled path records the same kernel launches,
    byte counts and lanes as interpreted replay)."""
    session, _ = tpch_session(PARITY_SF, seed=7)
    for query_id in tpch.ALL_QUERY_IDS:
        sql = tpch.query(query_id, PARITY_SF)
        results = {}
        for mode in ("interpret", "compiled"):
            options = ExecutionOptions(backend="torchscript", device="cuda",
                                       executor=mode)
            results[mode] = session.compile(sql, options=options).execute()
        interpreted, compiled = results["interpret"], results["compiled"]
        assert interpreted.executor_mode == "interpreted"
        assert compiled.executor_mode == "compiled"
        assert interpreted.reported_s == compiled.reported_s, (
            f"Q{query_id}: simulated kernel-time accounting diverged: "
            f"{interpreted.reported_s} != {compiled.reported_s}")
        _assert_bit_identical([interpreted], [compiled], f"Q{query_id}")
