"""Adaptive execution: price every strategy candidate, run the cheapest.

A statement's strategy candidates (``auto`` / ``serial`` / ``parallel``)
differ only in their plans' lanes widths, so they share one traced program
and one profiled execution prices all of them under the device's cost model.
This package keeps the loop that follows from that:

* :mod:`repro.adaptive.feedback` — a bounded, thread-safe store of one record
  per execution (the candidate that ran and every candidate's price), keyed
  by plan-cache statement key and binding region;
* :mod:`repro.adaptive.planner` — the :class:`AdaptiveRuntime` a session
  owns: plans the candidates once per table generation, prices each
  execution, and points the statement at the cheapest candidate of its
  bucket's latest record.

Opt in per statement with ``ExecutionOptions(adaptive=True)``; inspect the
prices via ``session.adaptive.feedback.dump()``.
"""

from repro.adaptive.feedback import ExecutionFeedback, FeedbackStore, binding_region
from repro.adaptive.planner import AdaptiveRuntime

__all__ = [
    "AdaptiveRuntime",
    "ExecutionFeedback",
    "FeedbackStore",
    "binding_region",
]
