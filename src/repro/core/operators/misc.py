"""Limit, Distinct, Rename and Gather operators."""

from __future__ import annotations

from repro.core.columnar import TensorTable
from repro.core.expressions import column_value
from repro.core.operators.base import ExecutionContext, MapOperator, TensorOperator
from repro.core.operators.grouping import group_rows, representatives
from repro.core.operators.partition import NONE, Partitioning, gather
from repro.errors import ExecutionError
from repro.frontend.logical import Field
from repro.tensor import ops


class LimitOperator(TensorOperator):
    """Keep the first N rows."""

    name = "Limit"

    def __init__(self, child: TensorOperator, count: int):
        super().__init__([child])
        self.count = count

    def describe(self) -> str:
        return f"Limit({self.count})"

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        table = self.children[0].execute(ctx)
        # min(count, num_rows) computed at run time so the traced program
        # keeps the right number of rows under a new parameter binding.
        keep = ops.minimum(ops.row_count(table.anchor), self.count)
        return table.gather(ops.arange_until(keep))


class DistinctOperator(TensorOperator):
    """Remove duplicate rows: group by every column, keep each group's first
    row (the aggregate's grouping, static-radix path included)."""

    name = "Distinct"

    def __init__(self, child: TensorOperator):
        super().__init__([child])

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        table = self.children[0].execute(ctx)
        keys = [column_value(column) for _, column in table.columns()]
        return table.gather(representatives(*group_rows(keys, table)))


class RenameOperator(MapOperator):
    """Rename the child's output columns positionally (derived-table aliases).

    Pure metadata, no kernels — which is why it may stay inside a sharded
    region: subqueries (``FROM (SELECT ...) f``) then feed shuffle joins
    without a gather in between.
    """

    labels = ("Rename", "Rename", "DistributedRename")

    def __init__(self, child: TensorOperator, output_fields: list[Field],
                 partitioning: Partitioning = NONE):
        super().__init__(child, partitioning)
        self.output_fields = output_fields

    def _apply(self, table: TensorTable, ctx: ExecutionContext) -> TensorTable:
        names = table.column_names
        if len(names) != len(self.output_fields):
            raise ExecutionError(
                "rename arity mismatch: "
                f"{len(names)} input columns vs {len(self.output_fields)} output fields"
            )
        return TensorTable({
            field.name: table.column(name)
            for name, field in zip(names, self.output_fields)
        })


class GatherOperator(TensorOperator):
    """The visible enforcer: collect a sharded child's per-device results back
    to the host, in shard order."""

    name = "Gather"

    def __init__(self, child: TensorOperator):
        super().__init__([child])

    def describe(self) -> str:
        return f"Gather({self.children[0].partitioning.suffix})"

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        return gather(self.children[0].partitions(ctx))
