"""Figure 2: per-operator runtime breakdown of a selected query (TPC-H Q6, Q14).

The paper shows the PyTorch-Profiler/TensorBoard view of the top operators;
this benchmark produces the same information from the built-in profiler and
prints the top-k table — on the eager backend and on ``torchscript``, the
target the paper compiles to: a traced node carries the operator it was traced
under, so the compiled replay breaks down by the same operators.  The
benchmarked callable is the profiled execution.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.datasets import tpch
from repro.viz import format_breakdown, kernel_breakdown, operator_breakdown

#: Query → the operator its breakdown must show a row for.
QUERIES = {6: "Filter", 14: "HashJoin"}


@pytest.mark.parametrize("backend", ("pytorch", "torchscript"))
@pytest.mark.parametrize("query", sorted(QUERIES))
def test_figure2_operator_breakdown(benchmark, tpch_env, scale_factor, capsys,
                                    query, backend):
    session, _ = tpch_env
    compiled = session.compile(tpch.query(query, scale_factor),
                               options=ExecutionOptions(backend=backend))
    inputs = session.prepare_inputs(compiled.executor)
    compiled.executor.execute(inputs, profile=True)  # warm-up (trace, codegen)

    outcome = benchmark.pedantic(
        lambda: compiled.executor.execute(inputs, profile=True),
        rounds=3, iterations=1,
    )
    profile = outcome.profile
    by_operator = operator_breakdown(profile, top_k=8)
    by_kernel = kernel_breakdown(profile, top_k=8)

    assert profile.events, "profiler collected no events"
    assert all(event.scope for event in profile.events)
    assert any(row.key.startswith(QUERIES[query]) for row in by_operator)

    benchmark.extra_info["profiled_ops"] = len(profile.events)
    with capsys.disabled():
        print()
        print(format_breakdown(
            by_operator,
            f"Figure 2 — Q{query} on {backend}: runtime by relational operator"))
        print()
        print(format_breakdown(
            by_kernel, f"Figure 2 — Q{query} on {backend}: runtime by tensor kernel"))
