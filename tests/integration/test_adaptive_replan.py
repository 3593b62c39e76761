"""Integration: adaptive pricing across data drift, differential vs oracle.

The scenario the adaptive subsystem exists for: a statement is priced
against one data distribution, the table is re-registered with the skew
inverted, and the new generation's first execution already reports a
different cheapest candidate — while every single execution, before, during
and after the flip, returns results bit-identical to a fresh non-adaptive
oracle session over the same data.

Which candidate is cheapest is asserted, so prices come from the
deterministic ``bytes_priced`` cost model, not from the host's clock.

All aggregates here are integer-typed, so "bit-identical" is exact equality:
no strategy (serial, morsel-parallel, threshold-gated) may change a single
bit of the answer.
"""

from __future__ import annotations

import numpy as np

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.adaptive import price

N_ROWS = 20000
SQL = ("SELECT grp, COUNT(*) AS n, SUM(k) AS sk FROM events "
       "WHERE score < 50 GROUP BY grp")


def broad_frame() -> DataFrame:
    # ~99% of rows pass score < 50: big intermediate, lanes pay off.
    rng = np.random.default_rng(20260808)
    return DataFrame({
        "k": np.arange(N_ROWS, dtype=np.int64),
        "grp": (np.arange(N_ROWS, dtype=np.int64) % 13),
        "score": np.where(np.arange(N_ROWS) % 100 == 0, 90.0, 1.0)
                   + rng.uniform(0.0, 0.5, size=N_ROWS),
    })


def narrow_frame() -> DataFrame:
    # Inverted skew: ~1% of rows pass, the parallel overheads dominate.
    rng = np.random.default_rng(20260808)
    return DataFrame({
        "k": np.arange(N_ROWS, dtype=np.int64),
        "grp": (np.arange(N_ROWS, dtype=np.int64) % 13),
        "score": np.where(np.arange(N_ROWS) % 100 == 0, 1.0, 90.0)
                   + rng.uniform(0.0, 0.5, size=N_ROWS),
    })


def oracle_rows(frame: DataFrame) -> list:
    """The answer from a fresh, non-adaptive session over ``frame``."""
    oracle = TQPSession()
    oracle.register("events", frame)
    result = oracle.sql(SQL).to_dict()
    return sorted(zip(result["grp"], result["n"], result["sk"]))


def result_rows(result) -> list:
    data = result.to_dataframe().to_dict()
    return sorted(zip(data["grp"], data["n"], data["sk"]))


CANDIDATES = ["auto", "serial", "parallel"]


def run_priced(query, oracle: list, executions: int) -> list:
    """Execute ``executions`` times, each bit-identical to ``oracle`` and
    each reporting the cheapest candidate of its own prices, which the
    statement then names.  Returns those candidates."""
    compiled = query.compiled
    ran = []
    for _ in range(executions):
        result = query.execute()
        assert result_rows(result) == oracle
        prices = price(compiled.candidates, result,
                       compiled.executor.cost_model)
        assert list(prices) == CANDIDATES
        assert result.reported_s == min(prices.values())
        ran.append(min(prices, key=prices.__getitem__))
        assert compiled.strategy == ran[-1]
        assert compiled.operator_plan is compiled.candidates[ran[-1]]
    return ran


def test_drift_reprices_and_stays_bit_identical(bytes_priced):
    broad, narrow = broad_frame(), narrow_frame()
    broad_oracle, narrow_oracle = oracle_rows(broad), oracle_rows(narrow)

    session = TQPSession()
    session.register("events", broad)
    query = session.prepare(SQL, options=ExecutionOptions(adaptive=True))
    phases = (
        # Lanes win while 99% of rows survive; "auto" and "parallel" plan
        # identically here, and the tie goes to "auto".
        (broad, broad_oracle, "auto", True),
        # Inverted skew: a 4-lane filter over ~200 surviving rows pays more
        # dispatch than it saves.
        (narrow, narrow_oracle, "serial", False),
        # Drift back: the same pricing flips the statement again.
        (broad, broad_oracle, "auto", True))
    for phase, (frame, oracle, cheapest, morsel) in enumerate(phases):
        if phase:
            session.register("events", frame)
        # A new generation's first execution already reports its own
        # cheapest candidate: nothing is carried over from the last one.
        assert run_priced(query, oracle, 5) == [cheapest] * 5
        shape = query.compiled.operator_plan.pretty()
        assert ("Morsel" in shape) == morsel, shape


def test_reregistering_equal_data_keeps_the_choice(bytes_priced):
    session = TQPSession()
    session.register("events", broad_frame())
    query = session.prepare(SQL, options=ExecutionOptions(adaptive=True))
    oracle = oracle_rows(broad_frame())
    chosen = run_priced(query, oracle, 3)
    assert len(set(chosen)) == 1

    session.register("events", broad_frame())  # same distribution
    assert run_priced(query, oracle, 3) == chosen
