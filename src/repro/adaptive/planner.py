"""The adaptive runtime: strategy candidates, priced on every execution.

One :class:`AdaptiveRuntime` lives on each session.  For every statement
compiled with ``ExecutionOptions(adaptive=True)`` the session plans three
**strategy candidates** from one IR — the same query under different
:class:`~repro.core.tuning.Tuning` / parallelism settings:

* ``auto`` — the static planner's choice (threshold-gated lanes operators);
* ``serial`` — single-lane, serial operators only;
* ``parallel`` — the full lane budget with the parallel threshold forced to
  zero (lanes operators wherever they are semantically safe).

Candidates differ only in their plans' lanes widths (``OperatorPlan.lanes``),
which never reach the program: all three name the same operators, so the
statement traces one program and a candidate's reported time is the cost
model's ``report_time`` of a run under that candidate's widths.  One
profiled execution therefore prices every candidate, and it does: each
execution records ``{candidate: price}`` (:meth:`AdaptiveRuntime.observe`),
and the next execution of the same (statement, binding region) runs the
cheapest candidate of the latest record, candidate order breaking ties
(:meth:`AdaptiveRuntime.choose`).  The first execution of a fresh statement
runs ``auto``.  A switch repoints the statement at an already-planned
candidate; it plans and traces nothing.  A re-registered table starts a new
generation: the statement is planned again, and its first execution's
profile reprices every candidate against the new data.
"""

from __future__ import annotations

from typing import Optional

from repro.adaptive.feedback import ExecutionFeedback, FeedbackStore, binding_region
from repro.core.plan_cache import normalize_sql
from repro.core.planner import OperatorPlan, plan_ir
from repro.core.tuning import active_tuning

#: Lane budget when the statement's options don't ask for parallelism.
DEFAULT_ADAPTIVE_LANES = 4
#: Feedback records kept per (statement, binding region) bucket.
HISTORY = 32
#: Feedback buckets kept, least recently used evicted.
MAX_STATEMENTS = 256


class AdaptiveRuntime:
    """Per-session feedback loop: price every candidate, run the cheapest.

    Holds no decision state of its own: the candidates' plans live on the
    statement (``CompiledQuery.candidates``) and the prices in the
    thread-safe :attr:`feedback` store, so the session may call
    :meth:`choose` under its lock and :meth:`observe` from any worker.
    """

    def __init__(self):
        self.feedback = FeedbackStore(history=HISTORY,
                                      max_buckets=MAX_STATEMENTS)

    @staticmethod
    def statement_key(sql: str) -> str:
        return normalize_sql(sql)

    def plan_candidates(self, query_ir, resolved, plan_kwargs
                        ) -> dict[str, OperatorPlan]:
        """Every candidate's plan of one IR, in the order that breaks price
        ties (called once per compile, that is once per table generation).
        """
        lanes = resolved.parallelism if (resolved.parallelism or 0) > 1 \
            else DEFAULT_ADAPTIVE_LANES
        tuning = active_tuning()
        settings = {"auto": (lanes, tuning), "serial": (1, tuning),
                    "parallel": (lanes, tuning.replace(
                        parallel_threshold_rows=0))}
        return {name: plan_ir(query_ir, parallelism=width, tuning=candidate,
                              **plan_kwargs)
                for name, (width, candidate) in settings.items()}

    def choose(self, sql: str, params: Optional[dict], current: str) -> str:
        """The candidate an execution with binding ``params`` runs: the
        cheapest in its bucket's latest record (prices are in candidate
        order, so the earlier candidate wins a tie), or ``current`` while the
        bucket has no record."""
        records = self.feedback.records(self.statement_key(sql),
                                        binding_region(params))
        if not records:
            return current
        prices = records[-1].prices
        return min(prices, key=prices.__getitem__)

    def observe(self, sql: str, params: Optional[dict], result,
                strategy: str, candidates: dict[str, OperatorPlan],
                cost_model) -> dict[str, float]:
        """Price every candidate on ``result``'s profile, record the prices
        under the candidate that ran, and return them."""
        prices = {name: cost_model.report_time(result.measured_s,
                                               result.profile, plan.lanes)
                  for name, plan in candidates.items()}
        self.feedback.record(ExecutionFeedback(
            statement_key=self.statement_key(sql),
            region=binding_region(params), strategy=strategy, prices=prices))
        return prices
