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
    lexicographic order.  A NULL key sorts after every non-NULL one under ASC
    and DESC alike (as a stored NaN does): a key with validity leads with a
    ``not valid`` sub-key, and its NULL rows tie on the rest of it.
    """

    name = "Sort"

    def __init__(self, child: TensorOperator, keys: list[tuple[Expr, bool]]):
        super().__init__([child])
        self.keys = keys

    def describe(self, scheme=None) -> str:
        return f"Sort(keys={len(self.keys)})"

    def _key_tensors(self, table: TensorTable, ctx: ExecutionContext) -> list[Tensor]:
        """Sub-keys in priority order (primary first)."""
        subkeys: list[Tensor] = []
        for expr, ascending in self.keys:
            value = evaluate_encoded(expr, table, ctx.eval_ctx)
            column = to_column(value, table)
            valid = column.valid
            if valid is not None:
                subkeys.append(ops.cast(ops.logical_not(valid), "int64"))

            def add(key: Tensor) -> None:
                if valid is not None:
                    key = ops.where(valid, key, 0)
                subkeys.append(key if ascending else ops.neg(key))

            if column.encoding is not None:
                # Dictionary codes are order-preserving (sorted dictionary):
                # one integer sub-key replaces m per-character sub-keys.
                add(ops.cast(column.tensor, "int64"))
            elif column.ltype == LogicalType.STRING:
                codes = column.tensor
                if not ascending and codes.dtype.name == "uint8":
                    # A negated uint8 code wraps (and the pad 0 does not):
                    # descend over signed codes.
                    codes = ops.cast(codes, "int32")
                for char_index in range(codes.shape[1]):
                    add(ops.slice_(codes, (slice(None), char_index)))
            elif column.ltype == LogicalType.BOOL:
                add(ops.cast(column.tensor, "int64"))
            else:
                add(column.tensor)
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
