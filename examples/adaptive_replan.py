"""Adaptive execution: settle on a strategy, drift the data, watch it flip.

One statement — a filter + GROUP BY whose best execution strategy depends
entirely on how many rows survive the filter — runs under
``ExecutionOptions(adaptive=True)``:

1. against a *broad* distribution (~99 % of rows pass) the runtime explores
   its three strategy candidates (``auto`` / ``serial`` / ``parallel``),
   then settles on a morsel-parallel plan — big intermediates pay for lanes;
2. the table is re-registered with the skew inverted (~1 % of rows pass):
   the runtime notices the selectivity drift *from its own feedback*,
   flushes the stale history, re-explores, and settles on a serial shape —
   morsel dispatch over a handful of rows costs more than it saves;
3. every single execution, before, during and after the flip, returns the
   exact answer for the data it ran against (integer aggregates, so
   "exact" means bit-identical): strategies change operator variants,
   never results.

The reported times are the ``cpu`` cost model's: lanes are a model, every
strategy runs the serial program, and only the model spreads a lanes
operator's kernels over its lanes and charges its morsel dispatches.

Run with:  PYTHONPATH=src python examples/adaptive_replan.py
"""

import numpy as np

from repro import DataFrame, ExecutionOptions, TQPSession

N_ROWS = 20000
SQL = ("SELECT grp, COUNT(*) AS n, SUM(k) AS sk FROM events "
       "WHERE score < 50 GROUP BY grp")


def frame(pass_fraction_high: bool) -> DataFrame:
    """~99 % of rows pass ``score < 50`` when high, ~1 % when low."""
    rng = np.random.default_rng(20260808)
    hot, cold = (1.0, 90.0) if pass_fraction_high else (90.0, 1.0)
    return DataFrame({
        "k": np.arange(N_ROWS, dtype=np.int64),
        "grp": (np.arange(N_ROWS, dtype=np.int64) % 13),
        "score": np.where(np.arange(N_ROWS) % 100 == 0, cold, hot)
                   + rng.uniform(0.0, 0.5, size=N_ROWS),
    })


def exact_rows(data: DataFrame) -> list:
    oracle = TQPSession()
    oracle.register("events", data)
    result = oracle.sql(SQL).to_dict()
    return sorted(zip(result["grp"], result["n"], result["sk"]))


def drive(query, oracle_rows, rounds: int) -> None:
    for i in range(rounds):
        result = query.execute()
        data = result.to_dataframe().to_dict()
        rows = sorted(zip(data["grp"], data["n"], data["sk"]))
        assert rows == oracle_rows, "adaptive execution changed the answer"
        print(f"  run {i}: strategy={query.compiled.strategy:<8s} "
              f"reported {result.reported_s * 1e3:7.3f} ms  (exact)")


def main() -> None:
    broad, narrow = frame(True), frame(False)
    session = TQPSession()
    session.register("events", broad)
    query = session.prepare(SQL, options=ExecutionOptions(adaptive=True))
    runtime = session.adaptive
    rounds = 3 * runtime.min_observations + 3

    print("phase 1 — broad distribution (~99 % of rows pass the filter):")
    drive(query, exact_rows(broad), rounds)
    shape = query.compiled.operator_plan.root.pretty()
    assert "Morsel" in shape
    print(f"  settled: {query.compiled.strategy} "
          f"(morsel-parallel plan — lanes pay on big intermediates)\n")

    print("phase 2 — skew inverted (~1 % pass); the runtime detects the "
          "drift\nfrom its own feedback, flushes history, re-explores:")
    session.register("events", narrow)
    drive(query, exact_rows(narrow), rounds)
    shape = query.compiled.operator_plan.root.pretty()
    assert "Morsel" not in shape
    print(f"  settled: {query.compiled.strategy} (serial shape — morsel "
          f"dispatch over ~200 rows costs more than it saves)\n")

    print(f"re-plans triggered by the runtime: {runtime.replan_count}; "
          f"feedback records held: {len(runtime.feedback)}")


if __name__ == "__main__":
    main()
