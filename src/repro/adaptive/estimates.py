"""Estimate correction: blend observed selectivities into static estimates.

The planner's filter-selectivity estimates come from zone-map/NDV statistics
(:func:`repro.storage.pruning.estimate_selectivity`) and, for parameterized
conjuncts, a fixed prior — both can be badly wrong for a recurring prepared
statement whose bindings concentrate in one part of the value space.  For
statements with execution history, this module builds the
``filter_correction`` hook the planner accepts: a blend of the static
estimate with the selectivity the feedback store actually observed, weighted
by how much history backs it.

Corrections are bucketed per **binding region**: a coarse bucketing of the
statement's bound parameter values, so a statement alternately bound to a
selective and an unselective regime keeps two independent correction (and
strategy) histories instead of poisoning one shared blend.
"""

from __future__ import annotations

import datetime
import math
import statistics
from typing import Callable, Mapping, Optional

import numpy as np

from repro.adaptive.feedback import FeedbackStore

#: Observation count at which the blend weighs observed and static equally;
#: more history shifts the blend toward the observation.
PRIOR_WEIGHT = 2.0

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
    """The region key of one parameter binding (``()`` when unparameterized)."""
    if not params:
        return ()
    return tuple(sorted((name, _bucket_value(value))
                        for name, value in params.items()))


class EstimateCorrector:
    """Builds per-(statement, region) selectivity corrections from feedback."""

    def __init__(self, store: FeedbackStore):
        self.store = store

    def observed_selectivity(self, statement_key: str,
                             region: tuple) -> Optional[tuple[float, int]]:
        """Median observed filter selectivity and its backing count."""
        ratios = [fb.filter_selectivity
                  for fb in self.store.records(statement_key, region)
                  if fb.filter_selectivity is not None]
        if not ratios:
            return None
        return statistics.median(ratios), len(ratios)

    def correction_fn(self, statement_key: str,
                      region: tuple) -> Optional[Callable[[float], float]]:
        """The planner's ``filter_correction`` hook, or ``None`` w/o history.

        The returned function blends ``static`` with the observed median:
        ``w·observed + (1-w)·static`` where ``w = n/(n + PRIOR_WEIGHT)`` — a
        lone observation nudges the estimate, a settled history dominates it.
        """
        observed = self.observed_selectivity(statement_key, region)
        if observed is None:
            return None
        ratio, n = observed
        weight = n / (n + PRIOR_WEIGHT)

        def correct(static: float) -> float:
            return weight * ratio + (1.0 - weight) * static

        return correct
