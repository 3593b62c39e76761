"""Runtime feedback store: what each execution actually did.

After every adaptive execution the session harvests the profiler events the
run already produced (no extra instrumentation): per-operator observed
cardinalities (via input/output bytes) and per-(fused-)kernel simulated
times, aggregated per *operator family* — the scope strings the operators
stamp on their events, canonicalized so ``Filter`` and
``MorselFilter(workers=4)`` (the same relational operator under different
strategies) land in the same bucket and stay comparable across plans.

Records are keyed by ``(plan-cache statement key, binding region)`` — the
same normalized-SQL key the session's plan cache uses, plus the coarse
bucketing of the statement's bound parameter values
(:func:`repro.adaptive.estimates.binding_region`) — with bounded history per
key and an LRU bound on the number of keys, and appends are lock-guarded so
the serving runtime can record from many worker threads at once.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
from collections import OrderedDict, deque
from typing import Iterable, Optional

from repro.tensor.profiler import Profiler

#: Operator-name prefixes → canonical family.  Longest prefix wins, so the
#: serial, morsel-parallel and distributed variants of one relational
#: operator aggregate into one feedback bucket.
_FAMILY_PREFIXES = (
    ("PartitionedHashJoin", "HashJoin"),
    ("ShuffleJoin", "HashJoin"),
    ("BroadcastJoin", "HashJoin"),
    ("NestedLoopJoin", "NestedLoopJoin"),
    ("HashJoin", "HashJoin"),
    ("ParallelHashAggregate", "HashAggregate"),
    ("ShardedAggregate", "HashAggregate"),
    ("HashAggregate", "HashAggregate"),
    ("DistributedScan", "Scan"),
    ("MorselScan", "Scan"),
    ("TableScan", "Scan"),
    ("DistributedFilter", "Filter"),
    ("MorselFilter", "Filter"),
    ("Filter", "Filter"),
    ("DistributedProject", "Project"),
    ("MorselProject", "Project"),
    ("Project", "Project"),
    ("DistributedRename", "Rename"),
    ("Rename", "Rename"),
    ("Gather", "Gather"),
    ("Sort", "Sort"),
    ("Limit", "Limit"),
    ("Distinct", "Distinct"),
)

#: The ops whose input→output byte ratio is the observed-selectivity proxy,
#: each with the bytes in that one row weighs against a byte out.  An eager
#: filter materializes surviving rows by masking each column with
#: ``boolean_mask``; an optimized graph program (``late_materialization``)
#: turns the mask into one ``nonzero`` selection vector instead — 8-byte row
#: ids out over a 1-byte-per-row mask in, an exact row ratio.  They are
#: counted inside ``Filter`` scopes (a shard's shuffle masks rows too, but
#: selects nothing).
_SELECTION_OPS = {"boolean_mask": 1, "nonzero": 8}


def scope_family(scope: str) -> str:
    """Canonical operator family of a profiler scope string.

    ``"MorselFilter(workers=4)"`` → ``"Filter"``;
    ``"ShuffleJoin[inner](devices=2)"`` → ``"HashJoin"``;
    scans keep their table so two scans in one plan stay distinct:
    ``"MorselScan(lineitem, workers=4)"`` → ``"Scan(lineitem)"``.
    """
    text = scope.split("@", 1)[0].strip()
    head, _, rest = text.partition("(")
    head = head.split("[", 1)[0].strip()
    family = head
    for prefix, canonical in _FAMILY_PREFIXES:
        if head.startswith(prefix):
            family = canonical
            break
    if family == "Scan":
        table = rest.rstrip(")").split(",", 1)[0].strip()
        if table and "=" not in table:
            return f"Scan({table})"
    return family


@dataclasses.dataclass(frozen=True)
class OperatorObservation:
    """Aggregated profiler events of one operator family in one execution."""

    family: str
    calls: int
    kernel_s: float
    input_bytes: int
    output_bytes: int


@dataclasses.dataclass(frozen=True)
class ExecutionFeedback:
    """Everything one adaptive execution taught us."""

    statement_key: str
    region: tuple
    strategy: str
    #: Cost-model reported time — on the CPU device with profiling on, the
    #: modelled kernel time (serial + one lane's share of the lanes work +
    #: dispatch overhead).
    reported_s: float
    result_rows: int
    #: Observed fraction of filter input bytes that survived the masks, or
    #: ``None`` when the plan had no filter.  The proxy for observed
    #: selectivity that corrects the static estimates.
    filter_selectivity: Optional[float]
    operators: tuple[OperatorObservation, ...]
    #: Shape signature of the executed operator plan (``root.pretty()``).
    #: Drift detection only compares executions of the *same* shape: one
    #: strategy can legitimately change shape as estimate corrections land,
    #: and differently-shaped plans bucket their bytes differently.
    plan_signature: Optional[str] = None


def harvest_feedback(profile: Profiler) -> tuple[
        tuple[OperatorObservation, ...], Optional[float]]:
    """Fold a run's profiler events into per-family observations.

    Returns ``(observations, filter_selectivity)``.  Works entirely from the
    events the run already recorded — op name, bytes, and the operator scope
    each op executed under.
    """
    by_family: "OrderedDict[str, dict]" = OrderedDict()
    mask_in = mask_out = 0
    for event in profile.events:
        family = scope_family(event.scope) if event.scope else "<unscoped>"
        bucket = by_family.setdefault(
            family, {"calls": 0, "kernel_s": 0.0, "in": 0, "out": 0})
        bucket["calls"] += 1
        bucket["kernel_s"] += event.elapsed_s
        bucket["in"] += event.input_bytes
        bucket["out"] += event.output_bytes
        weight = _SELECTION_OPS.get(event.op)
        if weight and family == "Filter":
            mask_in += weight * event.input_bytes
            mask_out += event.output_bytes
    observations = tuple(
        OperatorObservation(family=family, calls=bucket["calls"],
                            kernel_s=bucket["kernel_s"],
                            input_bytes=bucket["in"],
                            output_bytes=bucket["out"])
        for family, bucket in by_family.items())
    selectivity = (min(1.0, mask_out / mask_in) if mask_in > 0 else None)
    return observations, selectivity


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

    # -- writing -----------------------------------------------------------

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

    def forget_statement(self, statement_key: str) -> int:
        """Drop every region's history for one statement (drift response)."""
        with self._lock:
            stale = [key for key in self._buckets if key[0] == statement_key]
            for key in stale:
                del self._buckets[key]
            return len(stale)

    # -- reading -----------------------------------------------------------

    def records(self, statement_key: str, region: Optional[tuple] = None,
                strategy: Optional[str] = None) -> list[ExecutionFeedback]:
        """Snapshot of matching records, oldest first."""
        with self._lock:
            if region is not None:
                rows: Iterable[ExecutionFeedback] = \
                    tuple(self._buckets.get((statement_key, region), ()))
            else:
                rows = [fb for (key, _), bucket in self._buckets.items()
                        if key == statement_key for fb in bucket]
        return [fb for fb in rows
                if strategy is None or fb.strategy == strategy]

    def median_reported_s(self, statement_key: str, region: tuple,
                          strategy: str) -> Optional[float]:
        rows = self.records(statement_key, region, strategy)
        if not rows:
            return None
        return statistics.median(fb.reported_s for fb in rows)

    def median_operator_bytes(self, statement_key: str, region: tuple,
                              strategy: Optional[str] = None,
                              plan_signature: Optional[str] = None
                              ) -> dict[str, float]:
        """Median observed output bytes per operator family (drift baseline).

        Pass ``strategy`` and ``plan_signature`` to compare like with like:
        different strategies (and different generations of one strategy's
        plan) run different kernels per operator — a sharded plan exchanges
        rows and merges partial aggregates — so their per-family byte
        profiles are not comparable.
        """
        per_family: dict[str, list[int]] = {}
        for fb in self.records(statement_key, region, strategy):
            if plan_signature is not None \
                    and fb.plan_signature != plan_signature:
                continue
            for obs in fb.operators:
                per_family.setdefault(obs.family, []).append(obs.output_bytes)
        return {family: float(statistics.median(values))
                for family, values in per_family.items()}

    def dump(self) -> list[dict]:
        """The store as plain dicts (for inspection / JSON serialization)."""
        with self._lock:
            rows = [fb for bucket in self._buckets.values() for fb in bucket]
        return [dataclasses.asdict(fb) for fb in rows]

    def __len__(self) -> int:
        with self._lock:
            return sum(len(bucket) for bucket in self._buckets.values())
