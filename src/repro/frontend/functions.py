"""Metadata about SQL functions understood by the frontend."""

from __future__ import annotations

from repro.core.columnar import LogicalType

#: Aggregate function names and whether their result is always float.
AGGREGATE_FUNCTIONS = {
    "sum": None,      # result type follows the input type
    "avg": LogicalType.FLOAT,
    "min": None,
    "max": None,
    "count": LogicalType.INT,
}


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTIONS

