"""Scenario 1 (paper §3.1): DS-tool integration — profiling a query.

Runs TPC-H Q6 with the op-level profiler enabled and produces the artifacts a
TensorBoard-style UI consumes: the per-operator runtime breakdown (Figure 2)
— of the eager run and of the compiled ``torchscript`` program, whose traced
nodes carry the operator they belong to — the per-kernel breakdown, a
Chrome-trace JSON file, and the executor graph in DOT + JSON form (Figure 4's
graph view).

Run with:  python examples/profiling_tensorboard.py [output_dir]
"""

import pathlib
import sys

from repro import ExecutionOptions
from repro.bench import tpch_session
from repro.datasets import tpch
from repro.viz import (
    format_breakdown,
    format_outline,
    kernel_breakdown,
    operator_breakdown,
    save_graph_dot,
    save_graph_json,
)


def main(output_dir: str = "profiling_output") -> None:
    out = pathlib.Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    session, _ = tpch_session(scale_factor=0.01)
    query = session.compile(tpch.query(6), options=ExecutionOptions(
        backend="pytorch", device="cpu"))

    # Execute with profiling enabled (what the PyTorch profiler does in the paper).
    result = query.execute(profile=True)
    profile = result.profile

    print(format_breakdown(operator_breakdown(profile, top_k=10),
                           "TPC-H Q6 — runtime breakdown by relational operator"))
    print()
    scripted = session.compile(tpch.query(6), options=ExecutionOptions(
        backend="torchscript", device="cpu")).execute(profile=True)
    print(format_breakdown(operator_breakdown(scripted.profile, top_k=10),
                           "TPC-H Q6 compiled (torchscript) — the same breakdown"))
    print()
    print(format_breakdown(kernel_breakdown(profile, top_k=10),
                           "TPC-H Q6 — runtime breakdown by tensor kernel"))

    trace_path = out / "q6_trace.json"
    profile.save_chrome_trace(str(trace_path))
    print(f"\nChrome trace written to {trace_path} "
          "(load it in chrome://tracing or the TensorBoard trace viewer)")

    graph = query.executor_graph()
    save_graph_dot(graph, str(out / "q6_executor_graph.dot"))
    save_graph_json(graph, str(out / "q6_executor_graph.json"))
    print(f"executor graph written to {out / 'q6_executor_graph.dot'}")
    print()
    print(format_outline(graph, max_nodes=20))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "profiling_output")
