"""Planner tuning knobs, collected in one place.

Before this module existed the planner's magic numbers were scattered: the
parallel threshold lived with the morsel operators, ``SHARD_MIN_ROWS`` in
:mod:`repro.distributed.sharding`, the minimum pruning block count with the
zone-map pruning of :mod:`repro.storage.pruning`.  They are now fields of one
frozen :class:`Tuning` dataclass, and the planner reads every threshold
through the :class:`Tuning` it was constructed with — never a module-level
literal (``tools/lint_op_registry.py`` enforces this statically, also for the
join, grouping and partition operators).

Two ways to deviate from the defaults:

* pass ``tuning=Tuning(...)`` to :class:`repro.core.planner.Planner` /
  :func:`repro.core.planner.plan_ir`;
* the :func:`tuning_overrides` context manager, which swaps the thread's
  *ambient* tuning so every plan compiled inside the ``with`` block (e.g.
  through a session) picks it up — how benchmarks build an
  "always-parallel" baseline without threading a knob through every API.
"""

from __future__ import annotations

import contextlib
import dataclasses
import threading
from typing import Iterator

from repro.core.columnar import DEFAULT_MORSEL_ROWS

#: Upper bound on the static group-id space of the dictionary fast path of
#: ``GROUP BY`` (product of dictionary cardinalities); beyond it the scatter
#: buffers would dwarf the sort the path avoids.  An operator-level constant,
#: not a planner decision, so it is not a :class:`Tuning` field.
MAX_STATIC_GROUP_IDS = 1 << 20


@dataclasses.dataclass(frozen=True)
class Tuning:
    """One planner configuration: every cost/size threshold the planner uses.

    Attributes:
        parallel_threshold_rows: minimum estimated input cardinality for a
            pricing to put an operator on worker lanes
            (``OperatorPlan.priced``) — below this, per-morsel dispatch
            overhead outweighs any lane parallelism.
        shard_min_rows: minimum estimated base-table cardinality to shard a
            scan across simulated devices — below this, per-shard kernel
            overhead and the final gather outweigh multi-device parallelism.
        min_pruning_blocks: minimum number of zone-map blocks for scan
            pruning to be worth the bookkeeping.
    """

    parallel_threshold_rows: int = 2 * DEFAULT_MORSEL_ROWS
    shard_min_rows: int = DEFAULT_MORSEL_ROWS
    min_pruning_blocks: int = 4

    def replace(self, **changes) -> "Tuning":
        return dataclasses.replace(self, **changes)


#: The stock configuration — the exact values the planner shipped with before
#: they were centralized here.
DEFAULT_TUNING = Tuning()

# Ambient overrides are thread-local: a benchmark forcing its baseline's
# thresholds must not leak them into plans a concurrent serving worker is
# compiling at the same moment.
_STATE = threading.local()


def active_tuning() -> Tuning:
    """The tuning in effect on this thread (innermost override, or default)."""
    stack = getattr(_STATE, "stack", None)
    return stack[-1] if stack else DEFAULT_TUNING


@contextlib.contextmanager
def tuning_overrides(**changes) -> Iterator[Tuning]:
    """Ambient tuning for every plan compiled inside the block.

    Field overrides apply on top of the currently active tuning, so nested
    blocks compose::

        with tuning_overrides(parallel_threshold_rows=0):
            session.compile(sql)   # plans parallel operators unconditionally
    """
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = []
        _STATE.stack = stack
    stack.append(active_tuning().replace(**changes))
    try:
        yield stack[-1]
    finally:
        stack.pop()
