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

_NUMBER = (LogicalType.INT, LogicalType.FLOAT)

#: Scalar functions of one argument: the argument types each takes and its
#: result type (``None``: the argument's type).  Each engine keeps one kernel
#: per name, and a NULL argument gives NULL.  ``EXTRACT(f FROM x)`` is parsed
#: as ``f(x)``.
SCALAR_FUNCTIONS = {
    "abs": (_NUMBER, None),
    "round": (_NUMBER, None),    # half away from zero, as sqlite rounds
    "sqrt": (_NUMBER, LogicalType.FLOAT),
    "length": ((LogicalType.STRING,), LogicalType.INT),
    "year": ((LogicalType.DATE,), LogicalType.INT),
    "month": ((LogicalType.DATE,), LogicalType.INT),
    "day": ((LogicalType.DATE,), LogicalType.INT),
}


def is_aggregate_name(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTIONS
