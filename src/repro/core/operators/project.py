"""Projection: compute output expressions as new tensor columns."""

from __future__ import annotations

from repro.core.columnar import LogicalType, TensorTable
from repro.core.expressions import evaluate, to_column
from repro.core.operators.base import ExecutionContext, MapOperator, TensorOperator
from repro.core.operators.partition import NONE, Partitioning
from repro.frontend.ast import Expr


class ProjectOperator(MapOperator):
    """Evaluate each projection expression and assemble the output table
    (of every partition, with no data movement)."""

    labels = ("Project", "MorselProject", "DistributedProject")

    def __init__(self, child: TensorOperator, exprs: list[Expr], names: list[str],
                 types: list[LogicalType], partitioning: Partitioning = NONE):
        super().__init__(child, partitioning)
        self.exprs = exprs
        self.names = names
        self.types = types

    def _apply(self, table: TensorTable, ctx: ExecutionContext) -> TensorTable:
        columns = {}
        for expr, name in zip(self.exprs, self.names):
            value = evaluate(expr, table, ctx.eval_ctx)
            columns[name] = to_column(value, table)
        return TensorTable(columns)

    def _details(self) -> tuple:
        return (f"{len(self.exprs)} cols",)
