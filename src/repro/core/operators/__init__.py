"""Tensor-program implementations of relational operators (planning layer output)."""

from repro.core.operators.aggregate import (
    HashAggregateOperator,
    aggregates_are_mergeable,
)
from repro.core.operators.base import ExecutionContext, MapOperator, TensorOperator
from repro.core.operators.filter import FilterOperator
from repro.core.operators.join import (
    HashJoinOperator,
    NestedLoopJoinOperator,
    merge_tables,
)
from repro.core.operators.misc import (
    DistinctOperator,
    LimitOperator,
    RenameOperator,
)
from repro.core.operators.partition import (
    NONE,
    Partitioning,
    concat_rows,
    lanes,
)
from repro.core.operators.project import ProjectOperator
from repro.core.operators.scan import ScanOperator
from repro.core.operators.sort import SortOperator

__all__ = [
    "NONE",
    "DistinctOperator",
    "ExecutionContext",
    "FilterOperator",
    "HashAggregateOperator",
    "HashJoinOperator",
    "LimitOperator",
    "MapOperator",
    "NestedLoopJoinOperator",
    "Partitioning",
    "ProjectOperator",
    "RenameOperator",
    "ScanOperator",
    "SortOperator",
    "TensorOperator",
    "aggregates_are_mergeable",
    "concat_rows",
    "lanes",
    "merge_tables",
]
