"""Integration tests for the demo scenarios (§3.1 and §3.2) as library workflows."""

from __future__ import annotations

import json

from repro.bench import time_rowengine, time_tqp
from repro.datasets import tpch
from repro import ExecutionOptions
from repro.viz import (
    kernel_breakdown,
    operator_breakdown,
    save_graph_dot,
    save_graph_json,
)

SCALE_FACTOR = 0.002


def test_scenario1_profiling_workflow(tpch_tiny, tmp_path):
    """Scenario 1: pip-install → ingest → compile → profile → inspect artifacts."""
    session, _ = tpch_tiny
    compiled = session.compile(tpch.query(6, SCALE_FACTOR), options=ExecutionOptions(backend="pytorch"))
    outcome = compiled.execute(profile=True)

    operators = operator_breakdown(outcome.profile, top_k=5)
    kernels = kernel_breakdown(outcome.profile, top_k=5)
    assert operators[0].total_s >= operators[-1].total_s
    assert sum(row.calls for row in kernels) <= len(outcome.profile.events)

    trace_path = tmp_path / "trace.json"
    outcome.profile.save_chrome_trace(str(trace_path))
    trace = json.loads(trace_path.read_text())
    assert len(trace["traceEvents"]) == len(outcome.profile.events)

    graph = compiled.executor_graph()
    save_graph_dot(graph, str(tmp_path / "graph.dot"))
    save_graph_json(graph, str(tmp_path / "graph.json"))
    assert (tmp_path / "graph.dot").read_text().startswith("digraph")


def test_scenario2_backend_switch_workflow(tpch_tiny):
    """Scenario 2: the same query runs on every backend/device with equal results."""
    session, tables = tpch_tiny
    sql = tpch.query(14, SCALE_FACTOR)
    reference = None
    for backend, device in [("pytorch", "cpu"), ("torchscript", "cpu"),
                            ("torchscript", "cuda"), ("onnx", "cpu"), ("onnx", "wasm")]:
        frame = session.compile(sql, options=ExecutionOptions(backend=backend, device=device)).run()
        if reference is None:
            reference = frame
        else:
            assert frame.equals(reference)


def test_figure1_shape_tqp_beats_row_baseline(tpch_tiny):
    """The Figure-1 qualitative shape at tiny scale: TQP-CPU is much faster than
    the row-at-a-time baseline, and all systems agree on the answer."""
    session, tables = tpch_tiny
    for query_id in (6, 14):
        sql = tpch.query(query_id, SCALE_FACTOR)
        baseline = time_rowengine(session, tables, sql, runs=1)
        tqp_cpu = time_tqp(session, sql,
                           ExecutionOptions(backend="torchscript", device="cpu"),
                           runs=3, warmup=1)
        assert tqp_cpu.result.num_rows == baseline.result.num_rows
        assert tqp_cpu.median_s < baseline.median_s, (
            f"Q{query_id}: tensor execution should beat the row interpreter")


def test_gpu_cost_model_reports_speedup_on_scan_heavy_query(tpch_tiny):
    """GPU-simulated time must be lower than CPU time for the scan-heavy Q6
    (the qualitative GPU claim of Figure 1), and WASM must be the slowest TQP
    configuration."""
    session, _ = tpch_tiny
    sql = tpch.query(6, SCALE_FACTOR)
    cpu, gpu, web = (
        time_tqp(session, sql, ExecutionOptions(backend=backend, device=device),
                 runs=3, warmup=1)
        for backend, device in (("torchscript", "cpu"), ("torchscript", "cuda"),
                                ("onnx", "wasm")))
    assert gpu.median_s < cpu.median_s
    assert web.median_s > cpu.median_s
