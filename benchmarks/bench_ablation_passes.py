"""Ablation: effect of the design choices DESIGN.md calls out.

1. Graph-level optimization passes (CSE / constant folding / DCE / peephole)
   — ``torchscript`` vs ``torchscript-noopt``.
2. Eager op-by-op dispatch vs traced-graph replay — ``pytorch`` vs
   ``torchscript``.
3. Frontend scan-column pruning — compare the bytes converted with and without
   the pruning rule (the padded string representation makes unused string
   columns expensive).
4. Late materialization — ``passes.optimize`` with and without the pass, by the
   bytes the gather ops of Q3 write (profile events, not wall clock).
"""

from __future__ import annotations

import pytest

from repro.datasets import tpch
from repro.frontend import sql_to_logical
from repro.frontend.logical import LogicalScan, walk_plan
from repro import ExecutionOptions
from repro.tensor import GraphInterpreter, Profiler, passes

BACKEND_PAIRS = [
    ("torchscript", "graph passes ON"),
    ("torchscript-noopt", "graph passes OFF"),
    ("pytorch", "eager dispatch"),
]


@pytest.mark.parametrize("query_id", [6, 14, 1])
@pytest.mark.parametrize("backend,label", BACKEND_PAIRS)
def test_ablation_backend_passes(benchmark, tpch_env, scale_factor, query_id,
                                 backend, label):
    session, _ = tpch_env
    sql = tpch.query(query_id, scale_factor)
    compiled = session.compile(sql, options=ExecutionOptions(backend=backend, device="cpu"))
    inputs = session.prepare_inputs(compiled.executor)
    compiled.executor.execute(inputs)

    outcome = benchmark.pedantic(lambda: compiled.executor.execute(inputs),
                                 rounds=5, iterations=1, warmup_rounds=1)
    benchmark.extra_info["variant"] = label
    if compiled.executor.backend.strategy == "graph":
        benchmark.extra_info["graph_nodes"] = len(
            compiled.executor.executor_graph(inputs).nodes)
    assert outcome.table.num_rows >= 1


def test_ablation_graph_passes_shrink_program(tpch_env, scale_factor):
    """The optimization passes must actually remove nodes on a realistic query."""
    session, _ = tpch_env
    sql = tpch.query(14, scale_factor)
    optimized = session.compile(sql, options=ExecutionOptions(backend="torchscript"))
    unoptimized = session.compile(sql, options=ExecutionOptions(backend="torchscript-noopt"))
    inputs = session.prepare_inputs(optimized.executor)
    raw = unoptimized.executor.compile_program(
        session.prepare_inputs(unoptimized.executor))
    assert optimized.executor.compile_program(inputs).num_nodes < raw.num_nodes


def test_ablation_late_materialization_writes_fewer_gather_bytes(
        tpch_env, scale_factor):
    """Q3 through the full pipeline vs the pipeline minus late materialization:
    same answer, fewer bytes written by ``take`` / ``boolean_mask`` /
    ``nonzero`` (every filter and join copy that was composed away)."""
    session, _ = tpch_env
    compiled = session.compile(
        tpch.query(3, scale_factor),
        options=ExecutionOptions(backend="torchscript-noopt"))
    inputs = session.prepare_inputs(compiled.executor)
    raw = compiled.executor.compile_program(inputs).graph
    tensors, _ = compiled.executor._flatten_inputs(inputs)
    without = tuple(p for p in passes.DEFAULT_PASSES
                    if p is not passes.late_materialization)

    def run(pipeline):
        graph = passes.optimize(raw.clone(), passes=pipeline)
        with Profiler() as profile:
            outputs = GraphInterpreter(graph).run(tensors)
        gathered = sum(e.output_bytes for e in profile.events
                       if e.op in ("take", "boolean_mask", "nonzero"))
        return [t.numpy().tobytes() for t in outputs], gathered

    full_outputs, full_bytes = run(passes.DEFAULT_PASSES)
    ablated_outputs, ablated_bytes = run(without)
    assert full_outputs == ablated_outputs
    assert full_bytes < ablated_bytes, (full_bytes, ablated_bytes)
    print(f"\nQ3 gather output bytes: {ablated_bytes:,} without late "
          f"materialization, {full_bytes:,} with")


@pytest.mark.parametrize("query_id", [6, 14])
def test_ablation_column_pruning(tpch_env, scale_factor, query_id):
    """Scan-column pruning: the optimized plan converts far fewer columns."""
    session, _ = tpch_env
    sql = tpch.query(query_id, scale_factor)
    pruned = sql_to_logical(sql, session.catalog, optimized=True)
    pruned_columns = sum(len(node.fields) for node in walk_plan(pruned)
                         if isinstance(node, LogicalScan))
    total_columns = sum(
        len(tpch.TABLE_COLUMNS[node.table]) for node in walk_plan(pruned)
        if isinstance(node, LogicalScan)
    )
    assert pruned_columns < total_columns
    # Q6 touches 4 of lineitem's 16 columns; Q14 touches 4 + 2 of part's 9.
    assert pruned_columns <= total_columns // 2
