"""Scenario 2 (paper §3.2): run TPC-H Q6 and Q14 on multiple backends/devices.

Compiles the two queries of the paper's evaluation on the CPU (TorchScript-like
backend), the simulated GPU, and the browser/WASM path (ONNX-like export), and
compares them against the row-at-a-time baseline — the Figure 1 experiment in
miniature.

Run with:  python examples/tpch_multi_backend.py [scale_factor]
"""

import sys

from repro import ExecutionOptions
from repro.bench import figure_table, time_rowengine, time_tqp, tpch_session
from repro.datasets import tpch


def main(scale_factor: float = 0.01) -> None:
    session, tables = tpch_session(scale_factor)
    rows = {name: frame.num_rows for name, frame in tables.items()}
    print(f"TPC-H at SF={scale_factor}: lineitem={rows['lineitem']} rows, "
          f"orders={rows['orders']} rows\n")

    for query_id in (6, 14):
        sql = tpch.query(query_id, scale_factor)
        baseline = time_rowengine(session, tables, sql, runs=1)
        results = [
            time_tqp(session, sql,
                     ExecutionOptions(backend=backend, device=device),
                     runs=3, warmup=1)
            for backend, device in (("pytorch", "cpu"), ("torchscript", "cpu"),
                                    ("torchscript", "cuda"), ("onnx", "wasm"))]
        # All backends must agree with the baseline on the answer.
        for result in results:
            assert result.result.num_rows == baseline.result.num_rows
        print(figure_table(f"TPC-H Q{query_id} (SF {scale_factor})", results, baseline))
        print()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.01)
