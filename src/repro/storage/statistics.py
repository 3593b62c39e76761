"""Table statistics: zone maps, NDV estimates, row counts.

Statistics are computed from the ingestion DataFrame when a table is
registered (see ``repro.frontend.catalog.Catalog.register``) and are
invalidated with the table version: re-registering a table recomputes them, so
a cached plan can never consult zone maps describing old data (the plan cache
already revalidates plans against the table version).

Zone-map blocks are aligned to the morsel grid (:data:`BLOCK_ROWS` equals
``repro.core.columnar.DEFAULT_MORSEL_ROWS``): a pruned block is exactly the
row range a morsel-driven scan would otherwise dispatch to a worker lane.

NULL accounting follows SQL comparison semantics end to end: a float NaN and a
``None`` string count as NULL, zone-map min/max are computed over the non-NULL
values only, and a block whose non-null count is zero can be dropped by *any*
comparison predicate (NULL never compares true).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.core.columnar import DEFAULT_MORSEL_ROWS, encode_dates, morsel_bounds

#: Rows per zone-map block, aligned with the morsel grid so "skip this block"
#: and "skip this morsel dispatch" are the same decision.
BLOCK_ROWS = DEFAULT_MORSEL_ROWS


@dataclasses.dataclass
class ColumnStatistics:
    """Zone map + table-level statistics for one column."""

    name: str
    kind: str                      # int | float | bool | date | string
    null_count: int
    ndv: int                       # distinct non-NULL values
    min_value: object              # None when every value is NULL
    max_value: object
    block_min: np.ndarray          # (B,) per-block minima (object for strings)
    block_max: np.ndarray
    block_nonnull: np.ndarray      # (B,) int64 non-NULL counts

    @property
    def comparable(self) -> bool:
        """Whether range predicates over this column can use the zone map."""
        return self.min_value is not None


@dataclasses.dataclass
class TableStatistics:
    """Statistics for one registered table, at one table version."""

    row_count: int
    block_rows: int
    columns: dict[str, ColumnStatistics]

    @property
    def num_blocks(self) -> int:
        return len(morsel_bounds(self.row_count, self.block_rows))

    def column(self, name: str) -> Optional[ColumnStatistics]:
        base = name.split(".", 1)[1] if "." in name else name
        return self.columns.get(base)


def _strings(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A string column's values (NULL as ``""``) and its NULL mask.

    A column of ``str`` and ``None`` only — what a DataFrame builds from
    strings — takes no per-row Python; any other object is stringified row
    by row.
    """
    if set(map(type, array)) <= {str, type(None)}:
        nulls = np.equal(array, None)
        if nulls.any():
            array = array.copy()
            array[nulls] = ""
        return array, nulls
    return (np.array(["" if v is None else str(v) for v in array],
                     dtype=object),
            np.array([v is None for v in array], dtype=bool))


def _column_statistics(name: str, array: np.ndarray, kind: str,
                       block_rows: int) -> ColumnStatistics:
    values: np.ndarray = array
    nulls = np.zeros(len(array), dtype=bool)
    if kind == "date":
        values = encode_dates(array)
    elif kind == "string":
        values, nulls = _strings(array)
    elif kind == "float":
        nulls = np.isnan(array)
    null_count = int(nulls.sum())
    non_null = values[~nulls]
    # Hashed: ``np.unique`` on an object array sorts Python strings.
    ndv = (len(set(non_null)) if kind == "string"
           else int(len(np.unique(non_null))))

    bounds = morsel_bounds(len(values), block_rows)
    object_blocks = kind == "string"
    block_min = np.empty(len(bounds), dtype=object if object_blocks else values.dtype)
    block_max = np.empty(len(bounds), dtype=object if object_blocks else values.dtype)
    block_nonnull = np.zeros(len(bounds), dtype=np.int64)
    for i, (start, length) in enumerate(bounds):
        chunk = values[start:start + length]
        chunk_nulls = nulls[start:start + length]
        live = chunk[~chunk_nulls]
        block_nonnull[i] = len(live)
        if len(live):
            block_min[i] = live.min()
            block_max[i] = live.max()
        else:
            # Placeholder bounds for an all-NULL block; ``block_nonnull == 0``
            # is what pruning consults, these are never compared.
            block_min[i] = values.dtype.type() if not object_blocks else ""
            block_max[i] = block_min[i]
    return ColumnStatistics(
        name=name, kind=kind, null_count=null_count, ndv=ndv,
        min_value=(non_null.min() if len(non_null) else None),
        max_value=(non_null.max() if len(non_null) else None),
        block_min=block_min, block_max=block_max, block_nonnull=block_nonnull,
    )


def zone_discrimination(stats: ColumnStatistics) -> float:
    """How discriminative a column's zone map is, in ``[0, 1]``.

    The mean block span divided by the column's global span: ~0 for data
    clustered on this column (each block covers a narrow value range — range
    predicates can skip most blocks), ~1 for unclustered data (every block
    spans the whole domain — no binding can ever prune, so compiling a
    zone-map check into a traced program would be pure overhead).  Returns 1.0
    when the measure is undefined (strings, all-NULL columns).
    """
    if stats.kind == "string" or stats.min_value is None:
        return 1.0
    try:
        span = float(stats.max_value) - float(stats.min_value)
    except (TypeError, ValueError):
        return 1.0
    if span <= 0:
        return 0.0
    live = stats.block_nonnull > 0
    if not live.any():
        return 0.0
    block_spans = (stats.block_max[live].astype(np.float64)
                   - stats.block_min[live].astype(np.float64))
    return float(min(1.0, max(0.0, block_spans.mean() / span)))


def compute_table_statistics(frame, block_rows: int = BLOCK_ROWS
                             ) -> TableStatistics:
    """Collect row count, NDV and zone maps for every column of ``frame``."""
    kinds = frame.dtypes()
    columns = {
        name: _column_statistics(name, frame[name], kind, block_rows)
        for name, kind in kinds.items()
    }
    return TableStatistics(row_count=frame.num_rows, block_rows=block_rows,
                           columns=columns)
