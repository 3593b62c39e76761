"""The adaptive runtime: strategy candidates, exploration, re-planning.

One :class:`AdaptiveRuntime` lives on each session.  For every statement
compiled with ``ExecutionOptions(adaptive=True)`` it keeps a small set of
**strategy candidates** — the same query under different
:class:`~repro.core.tuning.Tuning` / parallelism settings:

* ``auto`` — the static planner's choice (threshold-gated parallel
  operators), with observed-selectivity corrections once history exists;
* ``serial`` — single-lane, serial operators only;
* ``parallel`` — the full lane budget with the parallel threshold forced to
  zero (parallel operators wherever they are semantically safe).

Strategies never change results — only which operator variants run — so the
runtime is free to *explore*: early executions of a statement rotate through
the candidates while the feedback store accumulates observed simulated
times, then the choice settles on the observed winner per binding region.
Every compile and re-plan plans the chosen candidate only.

A settled choice is revisited on every execution: when the preferred
strategy differs from the compiled one — new observations, a different
binding region, or a drift flush after observed cardinalities moved — the
session re-plans the statement **in place** through the existing
``CompiledQuery._refresh_from`` machinery, under the session lock, so
in-flight serving requests keep their snapshot and later ones get the new
plan — which replays the program already traced wherever its operators are
the current plan's: candidates differ in lanes widths, which live on the plan.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from typing import Optional

from repro.adaptive.estimates import EstimateCorrector, binding_region
from repro.adaptive.feedback import ExecutionFeedback, FeedbackStore, harvest_feedback
from repro.core.plan_cache import normalize_sql
from repro.core.planner import plan_ir
from repro.core.tuning import active_tuning

#: Lane budget when the statement's options don't ask for parallelism.
DEFAULT_ADAPTIVE_LANES = 4
#: Feedback records kept per (statement, binding region) bucket.
HISTORY = 32
#: Statements (and feedback buckets) kept, least recently used evicted.
MAX_STATEMENTS = 256
#: Observations required per (statement, region, strategy) before the choice
#: settles on the fastest observed time.
MIN_OBSERVATIONS = 2
#: Output-bytes (or selectivity) ratio between an execution and the bucket
#: median at which cardinalities count as drifted: the history is flushed and
#: exploration restarts against the current data.
DRIFT_FACTOR = 4.0
#: Operators moving fewer bytes than this never signal drift.
DRIFT_FLOOR_BYTES = 16384


@dataclasses.dataclass(frozen=True)
class Strategy:
    """One way to execute a statement: lanes + tuning deltas."""

    name: str
    parallelism: int
    #: Override of the tuning's parallel threshold (``None`` keeps it).
    parallel_threshold_rows: Optional[int] = None

    def tuning(self):
        base = active_tuning()
        if self.parallel_threshold_rows is None:
            return base
        return base.replace(
            parallel_threshold_rows=self.parallel_threshold_rows)


class AdaptiveRuntime:
    """Per-session feedback loop: observe, correct, choose, re-plan.

    Thread-safety: the runtime has its own lock for its decision state; the
    feedback store guards itself.  The session calls
    :meth:`plan_statement` and :meth:`wants_replan` under the session lock
    (lock order session → runtime) and :meth:`observe` outside it.
    """

    min_observations = MIN_OBSERVATIONS

    def __init__(self):
        self.feedback = FeedbackStore(history=HISTORY,
                                      max_buckets=MAX_STATEMENTS)
        self.corrector = EstimateCorrector(self.feedback)
        self._lock = threading.Lock()
        #: statement key → candidate strategies, in exploration order.
        self._candidates: "OrderedDict[str, list[Strategy]]" = OrderedDict()
        #: statement key → binding region of the latest execution.
        self._last_region: dict[str, tuple] = {}
        #: Total in-place re-plans triggered by strategy changes (telemetry).
        self.replan_count = 0

    # -- candidate construction --------------------------------------------

    @staticmethod
    def statement_key(sql: str) -> str:
        return normalize_sql(sql)

    @staticmethod
    def _candidate_set(resolved) -> list[Strategy]:
        lanes = resolved.parallelism if (resolved.parallelism or 0) > 1 \
            else DEFAULT_ADAPTIVE_LANES
        return [Strategy("auto", lanes),
                Strategy("serial", 1),
                Strategy("parallel", lanes, parallel_threshold_rows=0)]

    # -- compile-time entry points ------------------------------------------

    def plan_statement(self, sql: str, query_ir, resolved, plan_kwargs):
        """Pick this statement's strategy, then plan that candidate only.

        Called by the session's ``_compile_uncached`` (under the session
        lock) for adaptive statements.  Returns ``(operator_plan,
        executor_options, strategy_name)`` — the executor options carry the
        chosen strategy's lane count while the statement's cache identity
        keeps the caller's options.
        """
        key = self.statement_key(sql)
        candidates = self._candidate_set(resolved)
        with self._lock:
            self._candidates[key] = candidates
            self._candidates.move_to_end(key)
            while len(self._candidates) > MAX_STATEMENTS:
                stale_key, _ = self._candidates.popitem(last=False)
                self._last_region.pop(stale_key, None)
            region = self._last_region.get(key, ())
        chosen = self._choose(key, region)
        strategy = next(s for s in candidates if s.name == chosen)
        operator_plan = plan_ir(
            query_ir, parallelism=strategy.parallelism,
            tuning=strategy.tuning(),
            filter_correction=self.corrector.correction_fn(key, region),
            **plan_kwargs)
        exec_options = resolved.replace(parallelism=strategy.parallelism)
        return operator_plan, exec_options, chosen

    def wants_replan(self, compiled, params: Optional[dict]) -> bool:
        """Should this statement be re-planned before executing?

        Called under the session lock on every adaptive execution.  Also
        notes the binding region, so a re-plan triggered here compiles with
        this execution's correction bucket.
        """
        key = self.statement_key(compiled.sql)
        region = binding_region(params)
        with self._lock:
            self._last_region[key] = region
        desired = self._choose(key, region)
        if desired is None or desired == compiled.strategy:
            return False
        self.replan_count += 1
        return True

    # -- the choice ---------------------------------------------------------

    def _choose(self, key: str, region: tuple) -> Optional[str]:
        """The strategy this (statement, region) should run next.

        Under-observed candidates are explored first (fewest observations
        first, candidate order breaking ties).  Once every candidate has
        ``min_observations``, the *fastest* observed time per candidate
        decides: the underlying cost is deterministic for fixed data and the
        measurement noise is nonnegative, so the per-strategy minimum
        compares true costs where a median would compare noise.
        """
        with self._lock:
            candidates = self._candidates.get(key)
        if not candidates:
            return None
        names = [strategy.name for strategy in candidates]
        rows = self.feedback.records(key, region)
        times = {name: [fb.reported_s for fb in rows if fb.strategy == name]
                 for name in names}
        under = [name for name in names
                 if len(times[name]) < self.min_observations]
        if under:
            return min(under, key=lambda n: (len(times[n]), names.index(n)))
        return min(names, key=lambda n: (min(times[n]), names.index(n)))

    # -- run-time entry point -----------------------------------------------

    def observe(self, compiled, params: Optional[dict], result,
                strategy: str, plan_signature: str) -> None:
        """Harvest one execution's profile into the feedback store, under the
        strategy and plan shape of the snapshot it ran against.

        Flushes the statement's history first when the observed per-operator
        output cardinalities drifted past ``DRIFT_FACTOR`` against the
        bucket's median — the signal that the underlying data changed shape
        (e.g. a re-registered table with inverted skew) and the settled
        strategy choice must be re-earned against the new distribution.
        """
        key = self.statement_key(compiled.sql)
        region = binding_region(params)
        with self._lock:
            self._last_region[key] = region
        operators, selectivity = harvest_feedback(result.profile)
        feedback = ExecutionFeedback(
            statement_key=key, region=region, strategy=strategy,
            reported_s=result.reported_s,
            result_rows=result.table.num_rows,
            filter_selectivity=selectivity, operators=operators,
            plan_signature=plan_signature)
        if self._drifted(key, region, strategy, plan_signature,
                         operators, selectivity):
            self.feedback.forget_statement(key)
        self.feedback.record(feedback)

    def _drifted(self, key: str, region: tuple, strategy: str,
                 plan_signature: Optional[str], operators,
                 selectivity: Optional[float]) -> bool:
        # Signal 1: the observed filter selectivity moved far from the
        # bucket's median.  Selectivity is plan-shape-independent (the same
        # mask ops run under every strategy), so it catches a re-registered
        # table whose value distribution inverted even when the per-family
        # bytes are diluted by unchanged scan traffic.
        if selectivity is not None:
            baseline_sel = self.corrector.observed_selectivity(key, region)
            if baseline_sel is not None:
                base, _ = baseline_sel
                hi, lo = max(selectivity, base), min(selectivity, base)
                if hi - lo > 0.02 and hi / max(lo, 1e-6) > DRIFT_FACTOR:
                    return True
        # Signal 2: per-operator-family output bytes moved.  Compare
        # same-strategy, same-plan-shape executions only: strategies (and
        # successive estimate-corrected generations of one strategy) fuse
        # operators differently, so other byte profiles differ by
        # construction, not because the data moved.
        baseline = self.feedback.median_operator_bytes(
            key, region, strategy, plan_signature)
        for obs in operators:
            base = baseline.get(obs.family)
            if base is None:
                continue
            hi = max(float(obs.output_bytes), base)
            lo = min(float(obs.output_bytes), base)
            if hi < DRIFT_FLOOR_BYTES:
                continue
            if lo <= 0.0 or hi / lo > DRIFT_FACTOR:
                return True
        return False
