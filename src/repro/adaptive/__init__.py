"""Adaptive execution: each execution reports its own cheapest candidate.

For every statement compiled with ``ExecutionOptions(adaptive=True)`` the
session plans three **strategy candidates** from one IR — the same query
under different :class:`~repro.core.tuning.Tuning` / parallelism settings:

* ``auto`` — the static planner's choice (threshold-gated lanes operators);
* ``serial`` — single-lane, serial operators only;
* ``parallel`` — the full lane budget with the parallel threshold forced to
  zero (lanes operators wherever they are semantically safe).

Candidates differ only in their plans' lanes widths (``OperatorPlan.lanes``),
which never reach the program: all three name the same operators, so the
statement traces one program and every execution is a run of each
candidate.  A candidate's price is the device cost model's ``report_time``
of that run under the candidate's widths (:func:`price`).  Every adaptive
execution profiles, is priced under all three, and reports the cheapest
(candidate order breaks ties) as its ``reported_s``; the session then points
``CompiledQuery.strategy`` / ``operator_plan`` at that candidate.  Nothing
is stored between executions and nothing is decided before one.
"""

from __future__ import annotations

from repro.core.planner import OperatorPlan, plan_ir
from repro.core.tuning import active_tuning

#: Lane budget when the statement's options don't ask for parallelism.
DEFAULT_ADAPTIVE_LANES = 4


def plan_candidates(query_ir, resolved, plan_kwargs) -> dict[str, OperatorPlan]:
    """Every candidate's plan of one IR, in the order that breaks price ties
    (called once per compile, that is once per table generation)."""
    lanes = resolved.parallelism if (resolved.parallelism or 0) > 1 \
        else DEFAULT_ADAPTIVE_LANES
    tuning = active_tuning()
    settings = {"auto": (lanes, tuning), "serial": (1, tuning),
                "parallel": (lanes, tuning.replace(parallel_threshold_rows=0))}
    return {name: plan_ir(query_ir, parallelism=width, tuning=candidate,
                          **plan_kwargs)
            for name, (width, candidate) in settings.items()}


def price(candidates: dict[str, OperatorPlan], result, cost_model
          ) -> dict[str, float]:
    """``{candidate: s}``: the cost model's reported time of one profiled
    ``result`` under each candidate's lanes widths, in candidate order."""
    return {name: cost_model.report_time(result.measured_s, result.profile,
                                         plan.lanes)
            for name, plan in candidates.items()}
