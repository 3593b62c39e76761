"""Filter: boolean-mask compaction (predicates compiled to tensor programs)."""

from __future__ import annotations

from repro.core.columnar import TensorTable
from repro.core.expressions import as_mask, evaluate
from repro.core.operators.base import ExecutionContext, MapOperator, TensorOperator
from repro.core.operators.partition import NONE, Partitioning
from repro.frontend.ast import Expr


class FilterOperator(MapOperator):
    """Evaluate the predicate into a boolean mask and compact every column
    (of every partition, with no data movement)."""

    labels = ("Filter", "MorselFilter", "DistributedFilter")

    def __init__(self, child: TensorOperator, condition: Expr,
                 partitioning: Partitioning = NONE):
        super().__init__(child, partitioning)
        self.condition = condition

    def _apply(self, table: TensorTable, ctx: ExecutionContext) -> TensorTable:
        value = evaluate(self.condition, table, ctx.eval_ctx)
        mask = as_mask(value, table)
        return table.mask(mask)
