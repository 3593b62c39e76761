"""Adaptive strategy selection vs. fixed-strategy baselines over TPC-H.

Runs all 22 TPC-H queries three ways and compares aggregate *modelled* time
(the CPU cost model's ``reported_s``, measured with profiling on).  Lanes are
a model: a lanes plan runs the serial program, and only the model spreads
its operators' kernel time over the lanes, so the table prints each arm's
wall-clock total beside its modelled one (the arms agree on the wall clock
within noise):

* **serial** — every query compiled at ``parallelism=1``;
* **parallel** — every query compiled at 4 lanes with the parallel threshold
  forced to zero (morsel operators everywhere they are semantically safe);
* **adaptive** — ``ExecutionOptions(adaptive=True)``: the runtime explores
  its strategy candidates on the first executions of each statement, then
  settles per statement on the observed winner (see :mod:`repro.adaptive`).

The gate is the subsystem's whole point: across the workload, *no fixed
strategy wins* — heavy scan/join queries profit from lanes while small
intermediate results pay more in morsel dispatch than they save — so the
adaptive total must come in strictly below **both** fixed totals.

Measurement protocol: eager ``pytorch`` backend (strategy choice is about
operator variants, not trace replay), warm-up executions outside the clock,
then measured rounds interleaved round-robin across the three arms with each
(query, arm) reporting its best round.  The adaptive arm's exploration runs
happen before its clock starts — by then each statement has settled, which
is exactly the steady state a serving deployment measures.

The scale factor is pinned: the serial/parallel crossover position depends
on absolute table sizes, and the gate is a statement about the mix at a
fixed size, not about any particular scale.

With ``--json-out DIR`` the totals and per-query times are written to
``DIR/BENCH_adaptive.json`` for CI artifact collection.
"""

from __future__ import annotations

import pytest

from repro.bench import write_bench_json
from repro.bench.harness import tpch_session
from repro.core.options import ExecutionOptions
from repro.core.tuning import tuning_overrides
from repro.datasets.tpch import ALL_QUERY_IDS, query

#: Pinned scale factor: ~60k lineitem rows — large enough that lanes pay on
#: the heavy queries, small enough that they do not on the light ones.
ADAPTIVE_SF = 0.01

BACKEND = "pytorch"
LANES = 4

#: Warm-up executions per (query, arm) and measured rounds (best-of).
WARMUP = 1
ROUNDS = 3

SERIAL = ExecutionOptions(backend=BACKEND, device="cpu", parallelism=1)
PARALLEL = ExecutionOptions(backend=BACKEND, device="cpu", parallelism=LANES)
ADAPTIVE = ExecutionOptions(backend=BACKEND, device="cpu", parallelism=LANES,
                            adaptive=True)


@pytest.fixture(scope="module")
def bench_session():
    session, _ = tpch_session(ADAPTIVE_SF)
    return session


def _fixed_arm(session, sql: str, options: ExecutionOptions,
               force_parallel: bool = False):
    """Compiled fixed-strategy executor + inputs, warmed outside the clock."""
    if force_parallel:
        with tuning_overrides(parallel_threshold_rows=0):
            compiled = session.compile(sql, options=options)
    else:
        compiled = session.compile(sql, options=options)
    inputs = session.prepare_inputs(compiled.executor)
    for _ in range(WARMUP):
        compiled.executor.execute(inputs, profile=True)
    return compiled, inputs


def _adaptive_arm(session, sql: str):
    """Adaptive statement run through exploration until its choice settles."""
    compiled = session.compile(sql, options=ADAPTIVE)
    runtime = session.adaptive
    # Exploration budget: every candidate observed to the settling point,
    # plus warm-up on the settled plan.
    for _ in range(3 * runtime.min_observations + WARMUP):
        compiled.execute()
    return compiled


def test_adaptive_beats_fixed_strategies(bench_session, json_out, capsys):
    arms: dict[int, dict] = {}
    for qid in ALL_QUERY_IDS:
        sql = query(qid, ADAPTIVE_SF)
        arms[qid] = {
            "serial": _fixed_arm(bench_session, sql, SERIAL),
            "parallel": _fixed_arm(bench_session, sql, PARALLEL,
                                   force_parallel=True),
            "adaptive": _adaptive_arm(bench_session, sql),
        }

    times = {name: {qid: float("inf") for qid in ALL_QUERY_IDS}
             for name in ("serial", "parallel", "adaptive")}
    walls = {name: dict(per_query) for name, per_query in times.items()}
    for _ in range(ROUNDS):
        for qid in ALL_QUERY_IDS:
            for name in ("serial", "parallel", "adaptive"):
                if name == "adaptive":
                    outcome = arms[qid]["adaptive"].execute()
                else:
                    compiled, inputs = arms[qid][name]
                    outcome = compiled.executor.execute(inputs, profile=True)
                times[name][qid] = min(times[name][qid], outcome.reported_s)
                walls[name][qid] = min(walls[name][qid], outcome.measured_s)

    totals = {name: sum(per_query.values())
              for name, per_query in times.items()}
    wall_totals = {name: sum(per_query.values())
                   for name, per_query in walls.items()}
    strategies = {qid: arms[qid]["adaptive"].strategy
                  for qid in ALL_QUERY_IDS}
    chosen = sorted(set(strategies.values()))

    lines = [f"adaptive strategy selection @ SF {ADAPTIVE_SF} "
             f"({BACKEND}, CPU cost model, 22 TPC-H queries)"]
    for name in ("serial", "parallel", "adaptive"):
        lines.append(f"  always-{name:<9s}" if name != "adaptive"
                     else "  adaptive       ")
        lines[-1] += (f" total: {totals[name] * 1e3:9.3f} ms modelled, "
                      f"{wall_totals[name] * 1e3:9.3f} ms wall-clock")
    for other in ("serial", "parallel"):
        lines.append(
            f"  adaptive vs {other + ':':<9s} "
            f"{totals[other] / totals['adaptive']:.2f}x modelled, "
            f"{wall_totals[other] / wall_totals['adaptive']:.2f}x wall-clock")
    lines.append("  settled strategies: " + ", ".join(
        f"q{qid}={strategies[qid]}" for qid in ALL_QUERY_IDS))
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    if json_out is not None:
        path = write_bench_json(json_out / "BENCH_adaptive.json", {
            "benchmark": "adaptive_strategy_selection",
            "scale_factor": ADAPTIVE_SF,
            "backend": BACKEND,
            "lanes": LANES,
            "reported_s_total": {name: totals[name] for name in totals},
            "measured_s_total": wall_totals,
            "reported_s": {name: {str(qid): per_query[qid]
                                  for qid in ALL_QUERY_IDS}
                           for name, per_query in times.items()},
            "settled_strategy": {str(qid): strategies[qid]
                                 for qid in ALL_QUERY_IDS},
        })
        with capsys.disabled():
            print(f"  wrote {path}")

    # The gates: adaptivity must strictly beat both fixed strategies in
    # aggregate, which is only possible if the per-query winners differ —
    # assert that too, so the bench fails loudly if the workload ever
    # degenerates into one regime.
    assert len(chosen) > 1, (
        f"every query settled on {chosen}: the workload no longer "
        f"discriminates between strategies")
    assert totals["adaptive"] < totals["serial"], (
        f"adaptive {totals['adaptive']:.6f}s not better than always-serial "
        f"{totals['serial']:.6f}s")
    assert totals["adaptive"] < totals["parallel"], (
        f"adaptive {totals['adaptive']:.6f}s not better than always-parallel "
        f"{totals['parallel']:.6f}s")
