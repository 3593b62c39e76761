"""Adaptive execution: runtime feedback, corrected estimates, observed choice.

The planner's static choices (serial vs morsel-parallel operators, pruning
gates) rest on zone-map/NDV estimates — but the profiler already observes
*exact* per-operator cardinalities and modelled kernel times on every run.
This package closes that loop:

* :mod:`repro.adaptive.feedback` — a bounded, thread-safe store of
  per-execution observations harvested from the existing profiler events,
  keyed by plan-cache statement key and binding region;
* :mod:`repro.adaptive.estimates` — blends observed filter selectivities
  into the static estimates feeding the parallel threshold, bucketed per
  binding region so rebinds into a different selectivity regime don't
  poison each other;
* :mod:`repro.adaptive.planner` — the :class:`AdaptiveRuntime` a session
  owns: explores each strategy candidate, settles on the fastest observed
  one, plans only that candidate, and re-plans a cached statement in place
  (via the existing ``CompiledQuery._refresh_from`` machinery) when the
  choice changes or observed cardinalities drift.

Opt in per statement with ``ExecutionOptions(adaptive=True)``; inspect the
collected feedback via ``session.adaptive.feedback.dump()``.
"""

from repro.adaptive.estimates import EstimateCorrector, binding_region
from repro.adaptive.feedback import (
    ExecutionFeedback,
    FeedbackStore,
    OperatorObservation,
    harvest_feedback,
    scope_family,
)
from repro.adaptive.planner import AdaptiveRuntime, Strategy

__all__ = [
    "AdaptiveRuntime",
    "EstimateCorrector",
    "ExecutionFeedback",
    "FeedbackStore",
    "OperatorObservation",
    "Strategy",
    "binding_region",
    "harvest_feedback",
    "scope_family",
]
