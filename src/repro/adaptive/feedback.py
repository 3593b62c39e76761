"""Runtime feedback store: what each adaptive execution would have cost.

Every adaptive execution profiles, and its profile prices every strategy
candidate of its statement: the cost model's ``report_time`` of the one run
under each candidate's lanes widths (the candidates share one program, so one
run is a run of each).  One :class:`ExecutionFeedback` record per execution
keeps those prices and the candidate that ran.

Records are keyed by ``(plan-cache statement key, binding region)`` — the
same normalized-SQL key the session's plan cache uses, plus a coarse bucketing
of the statement's bound parameter values (:func:`binding_region`) — with
bounded history per key and an LRU bound on the number of keys, and appends
are lock-guarded so the serving runtime can record from many worker threads
at once.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import threading
from collections import OrderedDict, deque
from typing import Mapping, Optional

import numpy as np

#: Nanosecond epoch values (bound dates normalized to integers) are bucketed
#: by year instead of magnitude — every plausible timestamp shares one
#: log2 bucket, which would collapse all date regimes into one region.
_NS_EPOCH_FLOOR = 1e15
_NS_PER_YEAR = 365.25 * 24 * 3600 * 1e9


def _bucket_value(value) -> object:
    """One bound value → its coarse region bucket.

    Numbers bucket by sign and magnitude (``round(log2(|v|+1))``: values in
    the same factor-of-~2 band share a bucket), dates by year, strings by
    value.  The goal is stability *within* a workload regime and separation
    *between* regimes, not precision.  Numpy scalars, which the binders
    accept, bucket like their Python counterparts.
    """
    if isinstance(value, np.datetime64):
        if np.isnat(value):
            return str(value)
        return int(value.astype("datetime64[Y]").astype(np.int64)) + 1970
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return value
    if isinstance(value, (datetime.date, datetime.datetime)):
        return value.year
    if isinstance(value, (int, float)):
        magnitude = float(abs(value))
        if not math.isfinite(magnitude):
            return str(value)
        if magnitude > _NS_EPOCH_FLOOR:
            return int(value / _NS_PER_YEAR)
        bucket = round(math.log2(magnitude + 1.0))
        return -bucket if value < 0 else bucket
    text = str(value)
    return text[:32]


def binding_region(params: Optional[Mapping[str, object]]) -> tuple:
    """The region key of one parameter binding (``()`` when unparameterized).

    A statement alternately bound to a selective and an unselective regime
    keeps one history per region instead of mixing the two.
    """
    if not params:
        return ()
    return tuple(sorted((name, _bucket_value(value))
                        for name, value in params.items()))


@dataclasses.dataclass(frozen=True)
class ExecutionFeedback:
    """What one adaptive execution ran and what each candidate would cost."""

    statement_key: str
    region: tuple
    #: The candidate that ran (its price is the result's ``reported_s``).
    strategy: str
    #: ``{candidate: s}``: the cost model's reported time of this execution
    #: under each candidate's lanes widths, in candidate order.
    prices: dict[str, float]


class FeedbackStore:
    """Bounded, thread-safe history of :class:`ExecutionFeedback` records.

    ``history`` bounds the records kept per ``(statement, region)`` bucket
    (oldest evicted first); ``max_buckets`` bounds the bucket count LRU-wise,
    so a serving workload with an unbounded statement mix cannot grow the
    store without limit.
    """

    def __init__(self, history: int = 32, max_buckets: int = 256):
        self.history = max(1, int(history))
        self.max_buckets = max(1, int(max_buckets))
        self._buckets: "OrderedDict[tuple[str, tuple], deque[ExecutionFeedback]]" \
            = OrderedDict()
        self._lock = threading.Lock()
        #: Total records ever recorded (not bounded by eviction).
        self.total_recorded = 0

    def record(self, feedback: ExecutionFeedback) -> None:
        key = (feedback.statement_key, feedback.region)
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = deque(maxlen=self.history)
                self._buckets[key] = bucket
            self._buckets.move_to_end(key)
            bucket.append(feedback)
            self.total_recorded += 1
            while len(self._buckets) > self.max_buckets:
                self._buckets.popitem(last=False)

    def records(self, statement_key: str,
                region: Optional[tuple] = None) -> list[ExecutionFeedback]:
        """Snapshot of one bucket's records (every region's when ``region``
        is ``None``), oldest first."""
        with self._lock:
            if region is not None:
                return list(self._buckets.get((statement_key, region), ()))
            return [fb for (key, _), bucket in self._buckets.items()
                    if key == statement_key for fb in bucket]

    def dump(self) -> list[dict]:
        """The store as plain dicts (for inspection / JSON serialization)."""
        with self._lock:
            rows = [fb for bucket in self._buckets.values() for fb in bucket]
        return [dataclasses.asdict(fb) for fb in rows]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._buckets.values())
