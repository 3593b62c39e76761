"""Registration statistics, pinned column by column.

``tpch_statistics_golden.json`` holds every ``ColumnStatistics`` field of
every TPC-H column at SF 0.002, as the row-at-a-time implementation computed
them (block bounds as a digest of their dtype and values).  Regenerate with
``PYTHONPATH=src python tests/unit/test_storage_statistics.py`` — only when
the statistics are meant to change.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import numpy as np

from repro.dataframe import DataFrame
from repro.datasets import tpch
from repro.storage import compute_table_statistics

GOLDEN = (pathlib.Path(__file__).resolve().parents[1] / "fixtures"
          / "tpch_statistics_golden.json")
SCALE_FACTOR = 0.002


def _digest(array: np.ndarray) -> str:
    return hashlib.sha1(f"{array.dtype}:{array.tolist()!r}".encode()
                        ).hexdigest()


def tpch_statistics() -> dict:
    """``{"table.column": fields}`` of the TPC-H tables at SF 0.002."""
    record = {}
    for table, frame in tpch.generate_tables(SCALE_FACTOR).items():
        for name, stats in compute_table_statistics(frame).columns.items():
            record[f"{table}.{name}"] = {
                "name": stats.name, "kind": stats.kind,
                "null_count": stats.null_count, "ndv": stats.ndv,
                "min_value": repr(stats.min_value),
                "max_value": repr(stats.max_value),
                "block_min": _digest(stats.block_min),
                "block_max": _digest(stats.block_max),
                "block_nonnull": stats.block_nonnull.tolist()}
    return record


def test_tpch_statistics_match_the_golden_record():
    expected = json.loads(GOLDEN.read_text())
    actual = tpch_statistics()
    assert actual.keys() == expected.keys()
    changed = {column: [field for field in fields
                        if actual[column][field] != fields[field]]
               for column, fields in expected.items()
               if actual[column] != fields}
    assert not changed


def test_string_nulls_bound_no_block():
    """NULLs count, bound nothing, and leave an all-NULL block the ``""``
    placeholder; a non-``str`` value is compared as its string."""
    frame = DataFrame({"s": np.array(["b", None, "a", None, None, 7],
                                     dtype=object)})
    stats = compute_table_statistics(frame, block_rows=2).column("s")
    assert (stats.null_count, stats.ndv) == (3, 3)
    assert (stats.min_value, stats.max_value) == ("7", "b")
    assert stats.block_min.tolist() == ["b", "a", "7"]
    assert stats.block_max.tolist() == ["b", "a", "7"]
    assert stats.block_nonnull.tolist() == [1, 1, 1]
    strings = compute_table_statistics(
        DataFrame({"s": np.array(["b", None, None, None], dtype=object)}),
        block_rows=2).column("s")
    assert (strings.null_count, strings.ndv) == (3, 1)
    assert strings.block_min.tolist() == ["b", ""]
    assert strings.block_nonnull.tolist() == [1, 0]



def test_empty_table_has_no_blocks_and_no_bounds():
    frame = DataFrame({"i": np.zeros(0, dtype=np.int64),
                       "f": np.zeros(0, dtype=np.float64),
                       "d": np.zeros(0, dtype="datetime64[D]"),
                       "s": np.array([], dtype=object)})
    table = compute_table_statistics(frame, block_rows=2)
    assert (table.row_count, table.num_blocks) == (0, 0)
    for name in frame.columns:
        stats = table.column(name)
        assert (stats.null_count, stats.ndv) == (0, 0)
        assert stats.min_value is None and stats.max_value is None
        assert not stats.comparable
        assert stats.block_min.size == stats.block_max.size == 0
        assert stats.block_nonnull.tolist() == []


def test_all_nan_block_keeps_the_placeholder_and_bounds_nothing():
    frame = DataFrame({"f": np.array([np.nan, np.nan, 3.5, np.nan, -1.0])})
    stats = compute_table_statistics(frame, block_rows=2).column("f")
    assert (stats.null_count, stats.ndv) == (3, 2)
    assert (stats.min_value, stats.max_value) == (-1.0, 3.5)
    assert stats.block_nonnull.tolist() == [0, 1, 1]
    assert stats.block_min.tolist() == [0.0, 3.5, -1.0]
    assert stats.block_max.tolist() == [0.0, 3.5, -1.0]
    assert stats.block_min.dtype == np.float64
    only_nan = compute_table_statistics(
        DataFrame({"f": np.full(3, np.nan)}), block_rows=2).column("f")
    assert only_nan.min_value is None and only_nan.max_value is None
    assert only_nan.block_nonnull.tolist() == [0, 0]


def test_null_only_string_column_bounds_nothing():
    stats = compute_table_statistics(
        DataFrame({"s": np.array([None, None, None], dtype=object)}),
        block_rows=2).column("s")
    assert (stats.null_count, stats.ndv) == (3, 0)
    assert stats.min_value is None and not stats.comparable
    assert stats.block_min.tolist() == stats.block_max.tolist() == ["", ""]
    assert stats.block_nonnull.tolist() == [0, 0]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(tpch_statistics(), indent=1, sort_keys=True)
                      + "\n")
