"""Morsel-parallel scaling: Q1/Q6 reported time vs. worker count.

Runs the scan-heavy TPC-H queries (Q1: filter + wide grouped aggregation,
Q6: filter + global aggregation) at ``parallelism`` ∈ {1, 2, 4, 8} and prints
a speedup table per device model:

* ``cpu`` — profiled runs report kernel time with worker lanes charged as the
  slowest lane plus a per-morsel dispatch cost: the multicore morsel-execution
  model.  This is where morsel parallelism pays, and the curve must show ≥2×
  at 4 workers on both queries.
* ``cuda (simulated)`` — the roofline model charges kernel-launch overhead per
  launch, so at benchmark scale morselization *loses*: each morsel re-pays
  launch floors that one whole-column launch paid once.  The table records
  that honestly; GPU morsel gains only appear once per-kernel bytes dominate
  the 5 µs launch floor (morsels of several hundred thousand rows).

Both are *models* of concurrent lanes built from measured kernel times; the
lanes themselves run one after another on this host, so the table prints the
wall-clock 1w/4w ratio beside the modelled one, labelled as such.  Every cell
is the median of ``RUNS`` executions after ``WARMUP`` warm-ups: the plans take
a fraction of a millisecond, and three runs were too few to keep the asserted
ratio out of the noise.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions
from repro.bench import time_tqp
from repro.datasets import tpch

QUERIES = (1, 6)
WORKERS = (1, 2, 4, 8)

#: Morsels only amortize their per-kernel fixed costs with enough rows per
#: lane; below this scale the suite still runs, but the 2x assertion is only
#: meaningful at >= this scale factor.
MIN_MEANINGFUL_SF = 0.01

RUNS, WARMUP = 15, 3

#: ``(query, device)`` → workers → ``(modelled median s, wall-clock median s)``.
_RESULTS: dict[tuple[int, str], dict[int, tuple[float, float]]] = {}


@pytest.mark.parametrize("query_id", QUERIES)
@pytest.mark.parametrize("device", ["cpu", "cuda"])
@pytest.mark.parametrize("workers", WORKERS)
def test_parallel_scaling(benchmark, tpch_env, scale_factor, query_id, device,
                          workers):
    session, _ = tpch_env
    sql = tpch.query(query_id, scale_factor)

    def run():
        # Profiled at every worker count, 1 included, so each point of the
        # curve reports on the same (kernel-time) basis.
        options = ExecutionOptions(backend="pytorch", device=device,
                                   parallelism=workers)
        return time_tqp(session, sql, options, runs=RUNS, warmup=WARMUP,
                        profile=True)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["reported_ms"] = result.median_ms
    benchmark.extra_info["wall_ms"] = result.median_wall_ms
    benchmark.extra_info["workers"] = workers
    _RESULTS.setdefault((query_id, device), {})[workers] = (
        result.median_s, result.median_wall_s)
    assert result.result.num_rows >= 1


@pytest.mark.parametrize("query_id", QUERIES)
def test_parallel_scaling_report(query_id, scale_factor, capsys):
    """Print the speedup table and assert the ≥2x-at-4-workers criterion."""
    if any((query_id, device) not in _RESULTS for device in ("cpu", "cuda")):
        pytest.skip("run the timing benchmarks first (same pytest invocation)")
    lines = [f"TPC-H Q{query_id} morsel-parallel scaling (SF {scale_factor})"]
    lines.append(f"{'device':<20} " + " ".join(f"{f'{w}w':>10}" for w in WORKERS)
                 + "   MODELLED 1w/4w   wall-clock 1w/4w")
    for device in ("cpu", "cuda"):
        cells = _RESULTS[(query_id, device)]
        modelled4 = cells[1][0] / cells[4][0]
        wall4 = cells[1][1] / cells[4][1]
        row = " ".join(f"{cells[w][0] * 1e3:>9.3f}m" for w in WORKERS)
        lines.append(f"{device:<20} {row}   {modelled4:>13.2f}x"
                     f"   {wall4:>15.2f}x")
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    cpu_times = {w: cell[0] for w, cell in _RESULTS[(query_id, "cpu")].items()}
    if scale_factor >= MIN_MEANINGFUL_SF:
        assert cpu_times[1] / cpu_times[4] >= 2.0, (
            f"Q{query_id}: expected >=2x simulated speedup at 4 workers, got "
            f"{cpu_times[1] / cpu_times[4]:.2f}x"
        )
    # The parallel plans must actually be parallel (not silently serial).
    assert cpu_times[4] != cpu_times[1]
