"""Serving-runtime benchmark: concurrent multiplexed clients vs a naive loop.

The naive serving loop is what ``examples/serving_loop.py`` used to be: one
thread resolving each request against the session and executing it to
completion before touching the next.  :class:`repro.serve.ServingRuntime`
serves the *same* deterministic Zipfian request stream through a worker pool
with inter-query bind batching: queued requests for one compiled statement
replay through a single ``execute_many`` call, and requests whose bindings
are identical share one replay.

This benchmark measures **wall-clock queries/sec** of both on an identical
workload (same seed, same shapes, same bindings) and requires the runtime to
reach at least **3x** the naive loop's throughput — with every per-request
result bit-identical between the two, so the speedup cannot come from
serving anyone the wrong (or a stale) answer.  p50/p99 request latencies are
reported alongside.

The scale factor is pinned: the workload characterizes the serving regime
(small per-request data slices, fixed per-request costs dominant), where
batching and deduplication pay; at analytics scale factors kernel time
dominates and the ratio is not the point of this gate.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.bench.harness import tpch_session
from repro.serve import (
    ServingRuntime,
    build_shapes,
    register_prediction_model,
    zipfian_workload,
)

#: Serving-regime scale factor (the same as ``bench_compiled_executor.py``'s).
SERVING_SF = 0.0001

#: Request stream: Zipf-exponent, stream length, and the raw-TPC-H tail size
#: (kept short so the CI smoke pays a handful of compiles, not 22).
ZIPF_S = 1.4
NUM_REQUESTS = 400
TAIL_QUERIES = 6

#: Runtime configuration under test.
WORKERS = 4
BATCH_WINDOW = 64

#: Best-of repetitions per measurement (absorbs shared-runner noise).
REPS = 3

OPTIONS = ExecutionOptions(backend="torchscript", device="cpu")


def _fresh_session(tables) -> TQPSession:
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    register_prediction_model(session)
    return session


def _serve_naive(tables, workload):
    """One-at-a-time loop: best-of-``REPS`` seconds + last rep's results."""
    session = _fresh_session(tables)
    handles = {request.shape.name: session.prepare(request.shape.sql,
                                                   options=OPTIONS)
               for request in workload}
    best_s, results = float("inf"), []
    for _ in range(REPS):
        results = []
        start = time.perf_counter()
        for request in workload:
            prepared = handles[request.shape.name]
            bound = (prepared.bind(**request.params) if request.params
                     else prepared.bind())
            results.append(bound.execute())
        best_s = min(best_s, time.perf_counter() - start)
    return best_s, results


def _serve_runtime(tables, workload):
    """Multiplexed pool: best-of-``REPS`` seconds, last rep's results and
    per-request latencies, and the runtime's counter snapshot."""
    session = _fresh_session(tables)
    with ServingRuntime(session, workers=WORKERS, batch_window=BATCH_WINDOW,
                        max_queue_depth=NUM_REQUESTS + WORKERS,
                        default_options=OPTIONS) as runtime:
        statements = {request.shape.name: runtime.prepare(request.shape.sql,
                                                          options=OPTIONS)
                      for request in workload}
        # Warm every shape outside the clock: its first request traces, its
        # second lowers the program to generated code.
        warmed: set[str] = set()
        for request in workload:
            if request.shape.name in warmed:
                continue
            warmed.add(request.shape.name)
            for _ in range(2):
                runtime.submit(statements[request.shape.name],
                               params=request.params).result(120)
        best_s, results, latencies = float("inf"), [], []
        for _ in range(REPS):
            start = time.perf_counter()
            tickets = [runtime.submit(statements[request.shape.name],
                                      params=request.params)
                       for request in workload]
            results = [ticket.result(300) for ticket in tickets]
            best_s = min(best_s, time.perf_counter() - start)
            latencies = sorted(ticket.latency_s for ticket in tickets)
        stats = runtime.stats()
    return best_s, results, latencies, stats


def _assert_bit_identical(naive, served) -> None:
    """Every request's result table must match *bitwise* between the naive
    loop and the runtime — same columns, same dtypes, same bytes."""
    assert len(naive) == len(served)
    for index, (left, right) in enumerate(zip(naive, served)):
        table_l, table_r = left.table.decoded(), right.table.decoded()
        assert table_l.column_names == table_r.column_names, f"request {index}"
        for name in table_l.column_names:
            data_l = table_l.column(name).tensor.data
            data_r = table_r.column(name).tensor.data
            assert data_l.dtype == data_r.dtype, (
                f"request {index}, column {name!r} dtype")
            assert np.array_equal(data_l, data_r), (
                f"request {index}, column {name!r} differs between the "
                f"naive loop and the serving runtime")


@pytest.fixture(scope="module")
def serving_tables():
    _, tables = tpch_session(SERVING_SF)
    return tables


def test_serving_runtime_throughput(serving_tables, json_out):
    shapes = build_shapes(SERVING_SF, tail_queries=TAIL_QUERIES)
    workload = zipfian_workload(shapes, NUM_REQUESTS, seed=42, s=ZIPF_S)

    naive_s, naive_results = _serve_naive(serving_tables, workload)
    runtime_s, served_results, latencies, stats = _serve_runtime(
        serving_tables, workload)

    _assert_bit_identical(naive_results, served_results)

    naive_qps = NUM_REQUESTS / naive_s
    runtime_qps = NUM_REQUESTS / runtime_s
    speedup = runtime_qps / naive_qps
    p50 = latencies[len(latencies) // 2]
    p99 = latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))]
    print(f"\nserving @ SF {SERVING_SF} ({NUM_REQUESTS} requests, "
          f"zipf s={ZIPF_S}, {WORKERS} workers, window {BATCH_WINDOW}, "
          f"best of {REPS}):\n"
          f"  naive loop      {naive_qps:8.0f} qps\n"
          f"  serving runtime {runtime_qps:8.0f} qps  "
          f"(p50 {p50 * 1e3:.1f} ms, p99 {p99 * 1e3:.1f} ms)\n"
          f"  speedup {speedup:.2f}x; batches={stats['batches']}, "
          f"batched={stats['batched_requests']}, "
          f"deduped={stats['deduped_requests']}")

    if json_out is not None:
        from repro.bench import write_bench_json

        path = write_bench_json(json_out / "BENCH_serving.json", {
            "benchmark": "serving_runtime",
            "scale_factor": SERVING_SF,
            "requests": NUM_REQUESTS,
            "zipf_s": ZIPF_S,
            "workers": WORKERS,
            "batch_window": BATCH_WINDOW,
            "naive_qps": naive_qps,
            "runtime_qps": runtime_qps,
            "speedup": speedup,
            "latency_p50_s": p50,
            "latency_p99_s": p99,
            "runtime_stats": dict(stats),
        })
        print(f"  wrote {path}")

    assert stats["batches"] > 0, "bind batching never engaged"
    assert speedup >= 3.0, (
        f"serving runtime must reach >=3x the naive loop's throughput on "
        f"the Zipfian workload, got {speedup:.2f}x")
