"""ORDER BY as a tensor program (multi-key indirect sort)."""

from __future__ import annotations

from repro.core.columnar import LogicalType, TensorTable
from repro.core.expressions import evaluate_encoded, to_column
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.errors import UnsupportedOperationError
from repro.frontend.ast import Expr
from repro.tensor import Tensor, ops


class SortOperator(TensorOperator):
    """Stable multi-key sort via ``lexsort`` over the evaluated key columns.

    Numeric/date keys sort directly (negated for DESC); string keys contribute
    one sub-key per character column of the padded representation, preserving
    lexicographic order.
    """

    name = "Sort"

    def __init__(self, child: TensorOperator, keys: list[tuple[Expr, bool]]):
        super().__init__([child])
        self.keys = keys

    def describe(self) -> str:
        return f"Sort(keys={len(self.keys)})"

    def _key_tensors(self, table: TensorTable, ctx: ExecutionContext) -> list[Tensor]:
        """Sub-keys in priority order (primary first)."""
        subkeys: list[Tensor] = []
        for expr, ascending in self.keys:
            value = evaluate_encoded(expr, table, ctx.eval_ctx)
            column = to_column(value, table)
            if column.encoding is not None:
                # Dictionary codes are order-preserving (sorted dictionary):
                # one integer sub-key replaces m per-character sub-keys.
                key = ops.cast(column.tensor, "int64")
                subkeys.append(key if ascending else ops.neg(key))
            elif column.ltype == LogicalType.STRING:
                codes = column.tensor
                for char_index in range(codes.shape[1]):
                    char_key = ops.slice_(codes, (slice(None), char_index))
                    subkeys.append(char_key if ascending else ops.neg(char_key))
            elif column.ltype == LogicalType.BOOL:
                key = ops.cast(column.tensor, "int64")
                subkeys.append(key if ascending else ops.neg(key))
            else:
                subkeys.append(column.tensor if ascending else ops.neg(column.tensor))
        return subkeys

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        table = self.children[0].execute(ctx)
        if not self.keys:
            return table
        subkeys = self._key_tensors(table, ctx)
        if not subkeys:
            raise UnsupportedOperationError("ORDER BY produced no sort keys")
        # numpy lexsort: the last key is primary, so reverse the priority order.
        permutation = ops.lexsort(list(reversed(subkeys)))
        return table.gather(permutation)
