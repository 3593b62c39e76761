"""Adaptive execution: each execution reports its own cheapest candidate.

A statement compiled with ``ExecutionOptions(adaptive=True)`` prices its one
width-free plan (``OperatorPlan.priced``) three ways, the **candidates**:

* ``auto`` — the static planner's choice (threshold-gated lanes operators);
* ``serial`` — no lanes;
* ``parallel`` — the full lane budget with the parallel threshold at zero
  (lanes operators wherever they are semantically safe).

Candidates are three lanes maps over one operator tree, so the statement
plans once, traces one program, and every execution is a run of each.  A
candidate's price is the device cost model's ``report_time`` of that run
under its widths (:func:`price`).  Every adaptive execution profiles, is
priced under all three, and reports the cheapest (candidate order breaks
ties) as its ``reported_s``; the session then points
``CompiledQuery.strategy`` / ``operator_plan`` at that candidate.  Nothing
is stored between executions and nothing is decided before one.
"""

from __future__ import annotations

from repro.core.planner import OperatorPlan

#: Lane budget when the statement's options don't ask for parallelism.
DEFAULT_ADAPTIVE_LANES = 4


def plan_candidates(plan: OperatorPlan, parallelism: int, threshold: int
                    ) -> dict[str, OperatorPlan]:
    """Every candidate's pricing of one width-free ``plan``, in the order
    that breaks price ties (``parallelism`` under two: the default budget)."""
    width = parallelism if parallelism > 1 else DEFAULT_ADAPTIVE_LANES
    return {"auto": plan.priced(width, threshold),
            "serial": plan.priced(1, threshold),
            "parallel": plan.priced(width, 0)}


def price(candidates: dict[str, OperatorPlan], result, cost_model
          ) -> dict[str, float]:
    """``{candidate: s}``: the cost model's reported time of one profiled
    ``result`` under each candidate's lanes widths, in candidate order."""
    return {name: cost_model.report_time(result.measured_s, result.profile,
                                         plan.lanes)
            for name, plan in candidates.items()}
