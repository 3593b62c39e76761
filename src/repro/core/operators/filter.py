"""Filter: boolean-mask compaction (predicates compiled to tensor programs)."""

from __future__ import annotations

from repro.core.columnar import TensorTable
from repro.core.expressions import as_mask, evaluate
from repro.core.operators.base import ExecutionContext, MapOperator, TensorOperator
from repro.frontend.ast import Expr


class FilterOperator(MapOperator):
    """Evaluate the predicate into a boolean mask and compact every column."""

    labels = ("Filter", "MorselFilter")

    def __init__(self, child: TensorOperator, condition: Expr):
        super().__init__(child)
        self.condition = condition

    def _apply(self, table: TensorTable, ctx: ExecutionContext) -> TensorTable:
        value = evaluate(self.condition, table, ctx.eval_ctx)
        mask = as_mask(value, table)
        return table.mask(mask)
