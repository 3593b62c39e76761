"""Storage-layer benchmark: zone-map scan pruning and dictionary grouping.

Two measurements over a **date-clustered** ``lineitem`` (sorted by
``l_shipdate``, the classic fact-table clustering):

* **Q6, parameterized date range** — a prepared statement whose bindings are
  resolved against the zone maps at bind time.  A selective one-year window
  must skip at least half of the morsel-aligned blocks before any kernel
  runs, with results identical to the unpruned run (the blocks dropped can,
  by construction, contain no matching row).

* **Q1, string GROUP BY** — dictionary-encoded storage lets the aggregation
  group directly on int32 codes (a sort-free static-radix id per row) instead
  of densifying ``(n × m)`` code-point matrices with a lexsort; the
  simulated kernel time (profiled per-op durations, the CPU cost-model basis)
  must beat the plain layout at assertion scale.

Run directly (``pytest benchmarks/bench_storage_pruning.py --tpch-sf 0.02``)
or as the fast-CI smoke at SF 0.002 (correctness + block-skip assertions
always run; the Q1 timing ratio is asserted at SF >= 0.01 where the grouping
cost is large enough to measure reliably).
"""

from __future__ import annotations

import statistics

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.datasets import tpch
from repro.storage import encodings

Q6_PARAMETERIZED = """
select sum(l_extendedprice * l_discount) as revenue
from lineitem
where
    l_shipdate >= :d1 and l_shipdate < :d2
    and l_discount between 0.05 and 0.07
    and l_quantity < 24
"""

#: Binding of the selective window (one year out of the ~7-year date span).
SELECTIVE = {"d1": "1994-01-01", "d2": "1995-01-01"}
#: Binding covering the whole span (no block may be skipped wrongly).
FULL_SPAN = {"d1": "1992-01-01", "d2": "1999-01-01"}

RUNS = 5


@pytest.fixture(scope="module")
def clustered_tables(scale_factor):
    tables = dict(tpch.generate_tables(scale_factor=scale_factor))
    lineitem = tables["lineitem"]
    tables["lineitem"] = lineitem.take(
        np.argsort(lineitem["l_shipdate"], kind="stable"))
    return tables


def make_session(tables, plain: bool = False,
                 statistics_on: bool = True) -> TQPSession:
    """A session over ``tables``; with ``plain`` every column is stored plain
    (converted here, with ``MIN_ENCODE_ROWS`` above each table's size, and
    kept in that form for the table's generation)."""
    session = TQPSession()
    session.catalog.collect_statistics = statistics_on
    for name, frame in tables.items():
        session.register(name, frame)
    if plain:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encodings, "MIN_ENCODE_ROWS",
                          max(frame.num_rows for frame in tables.values()) + 1)
            for name in tables:
                session.prepare_inputs(
                    session.compile(f"select * from {name}").executor)
    return session


def kernel_time(compiled, session, runs: int = RUNS) -> float:
    """Median simulated kernel time (profiled per-op durations, CPU model)."""
    inputs = session.prepare_inputs(compiled.executor)
    times = [compiled.executor.execute(inputs, profile=True).reported_s
             for _ in range(runs + 2)]
    return statistics.median(times[2:])


def test_q6_pruned_date_range_skips_blocks(clustered_tables, scale_factor):
    pruned_session = make_session(clustered_tables)
    unpruned_session = make_session(clustered_tables, statistics_on=False)
    pruned = pruned_session.prepare(Q6_PARAMETERIZED)
    unpruned = unpruned_session.prepare(Q6_PARAMETERIZED)

    # Results must be identical to the unpruned run for every binding —
    # bitwise, since pruning only removes rows the filter would drop anyway.
    for binding in (SELECTIVE, FULL_SPAN):
        left = pruned.bind(**binding).run()
        right = unpruned.bind(**binding).run()
        assert left.equals(right, float_tol=0.0), binding

    outcome = pruned.bind(**SELECTIVE).execute(profile=True)
    pruning = outcome.pruning["lineitem"]
    skipped, total = pruning["blocks_skipped"], pruning["blocks_total"]
    assert total > 0 and skipped / total >= 0.5, (
        f"selective Q6 must skip >= 50% of blocks, got {skipped}/{total}")

    full = pruned.bind(**FULL_SPAN).execute(profile=True)
    assert full.pruning["lineitem"]["blocks_skipped"] == 0

    pruned_s = statistics.median(
        pruned.bind(**SELECTIVE).execute(profile=True).reported_s
        for _ in range(RUNS))
    unpruned_s = statistics.median(
        unpruned.bind(**SELECTIVE).execute(profile=True).reported_s
        for _ in range(RUNS))
    print(f"\nQ6 @ SF {scale_factor}: {skipped}/{total} blocks skipped, "
          f"kernel time pruned {pruned_s * 1e3:.2f} ms "
          f"vs unpruned {unpruned_s * 1e3:.2f} ms "
          f"({unpruned_s / pruned_s:.2f}x)")


def test_q1_dictionary_grouping_beats_codepoint_matrix(clustered_tables,
                                                       scale_factor):
    sql = tpch.query(1, scale_factor)
    encoded_session = make_session(clustered_tables)
    plain_session = make_session(clustered_tables, plain=True)
    encoded = encoded_session.compile(sql)
    plain = plain_session.compile(sql)
    assert encoded.run().equals(plain.run()), "Q1 encoded vs plain"

    # Deterministic structural check: grouping on dictionary codes needs no
    # sort at all (a static-radix id per row), while the code-point-matrix
    # layout densifies every string key with a lexsort.
    encoded_graph = encoded_session.compile(
        sql, options=ExecutionOptions(backend="torchscript"))
    plain_graph = plain_session.compile(
        sql, options=ExecutionOptions(backend="torchscript"))

    def lexsorts(compiled) -> int:
        return sum(node.op == "lexsort"
                   for node in compiled.executor_graph().nodes)

    encoded_kernels, plain_kernels = lexsorts(encoded_graph), lexsorts(plain_graph)
    assert encoded_kernels < plain_kernels, (
        "dictionary grouping must drop the string-densification sorts "
        f"(lexsort kernels: {encoded_kernels} vs {plain_kernels})")

    encoded_s = kernel_time(encoded, encoded_session)
    plain_s = kernel_time(plain, plain_session)
    ratio = plain_s / encoded_s
    print(f"\nQ1 @ SF {scale_factor}: dictionary grouping {encoded_s * 1e3:.2f} ms "
          f"vs code-point matrix {plain_s * 1e3:.2f} ms ({ratio:.2f}x, "
          f"{encoded_kernels} vs {plain_kernels} lexsort kernels)")
    if scale_factor >= 0.01:
        assert ratio >= 1.2, (
            f"dictionary grouping must beat code-point-matrix grouping on "
            f"simulated kernel time, got {ratio:.2f}x")
