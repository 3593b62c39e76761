"""Join operators expressed as tensor programs.

The equi-join follows the TQP strategy of staying inside the tensor op
vocabulary, and is the hash join of that vocabulary: join keys of both sides
are densified into one id space ``0..G-1``
(:mod:`repro.core.operators.grouping`), the build side becomes a
direct-address table over it — ``bincount`` of the right ids, its prefix sum
the start of each id's run in the id-ordered build rows — and probe rows read
their match count and start with one ``take`` each.  The ragged match lists
are flattened with ``repeat`` + ``arange`` arithmetic into flat gather
indices.  Semi/anti/left-outer variants and residual (non-equi) conditions
are layered on top of the same machinery.

Where a sort remains it is the kernels' own per-call choice, never this
module's: ``unique`` and the stable ``argsort`` that orders the build rows
address bounded integer keys directly (presence table, LSD radix) and fall
back to a comparison sort for floats, epoch-ns dates and domains much wider
than the row count — see the constants in :mod:`repro.tensor.ops`.  The
output (row order included) is the same either way.
"""

from __future__ import annotations

from typing import Optional


from repro.core.columnar import (
    LogicalType,
    TensorColumn,
    TensorTable,
    concat_columns,
)
from repro.core.expressions import as_mask, evaluate
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.core.operators.grouping import (
    combine_ids,
    factorize_pair,
    id_count,
)
from repro.errors import ExecutionError
from repro.frontend.ast import Expr
from repro.tensor import Tensor, ops


def merge_tables(left: TensorTable, right: TensorTable) -> TensorTable:
    """Column-wise concatenation of two equally sized tables."""
    columns = dict(left.columns())
    for name, column in right.columns():
        if name in columns:
            raise ExecutionError(f"duplicate column name after join: {name!r}")
        columns[name] = column
    return TensorTable(columns)


def concat_tables(first: TensorTable, second: TensorTable) -> TensorTable:
    """Row-wise concatenation of two tables with identical column sets."""
    return TensorTable({
        name: concat_columns([top, second.column(name)])
        for name, top in first.columns()
    })


def _null_column_like(column: TensorColumn, num_rows: int,
                      anchor: "Tensor | None" = None) -> TensorColumn:
    """An all-NULL column with the same type/width as ``column``.

    ``anchor`` is a per-row tensor of the target table; when given, sizes are
    derived from it at run time instead of baking ``num_rows`` into the trace.
    """
    device = column.device
    if anchor is not None:
        if column.ltype == LogicalType.STRING:
            data = ops.full_like_rows(anchor, 0, dtype="int32",
                                      width=column.string_width)
        elif column.ltype == LogicalType.FLOAT:
            data = ops.full_like_rows(anchor, 0, dtype="float64")
        elif column.ltype == LogicalType.BOOL:
            data = ops.full_like_rows(anchor, False, dtype="bool")
        else:
            data = ops.full_like_rows(anchor, 0, dtype="int64")
        valid = ops.full_like_rows(anchor, False, dtype="bool")
        return TensorColumn(data, column.ltype, valid)
    if column.ltype == LogicalType.STRING:
        data = ops.zeros((num_rows, column.string_width), dtype="int32",
                         device=device)
    elif column.ltype == LogicalType.FLOAT:
        data = ops.zeros((num_rows,), dtype="float64", device=device)
    elif column.ltype == LogicalType.BOOL:
        data = ops.zeros((num_rows,), dtype="bool", device=device)
    else:
        data = ops.zeros((num_rows,), dtype="int64", device=device)
    valid = ops.full((num_rows,), False, dtype="bool", device=device)
    return TensorColumn(data, column.ltype, valid)


class HashJoinOperator(TensorOperator):
    """Equi-join on densified keys (inner / left outer / semi / anti)."""

    name = "HashJoin"

    def __init__(self, left: TensorOperator, right: TensorOperator, kind: str,
                 left_keys: list[Expr], right_keys: list[Expr],
                 residual: Optional[Expr] = None):
        super().__init__([left, right])
        if kind not in ("inner", "left", "semi", "anti"):
            raise ExecutionError(f"unsupported hash join kind {kind!r}")
        self.kind = kind
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual

    def describe(self) -> str:
        return f"HashJoin[{self.kind}]"

    # -- key handling -------------------------------------------------------

    def _key_ids(self, left_table: TensorTable, right_table: TensorTable,
                 ctx: ExecutionContext) -> tuple[Tensor, Tensor]:
        left_ids, right_ids = [], []
        for left_expr, right_expr in zip(self.left_keys, self.right_keys):
            left_value = evaluate(left_expr, left_table, ctx.eval_ctx)
            right_value = evaluate(right_expr, right_table, ctx.eval_ctx)
            lid, rid = factorize_pair(left_value, right_value)
            left_ids.append(lid)
            right_ids.append(rid)
        if len(left_ids) == 1:
            return left_ids[0], right_ids[0]
        both = [ops.concat([l, r], axis=0) for l, r in zip(left_ids, right_ids)]
        combined = combine_ids(both)
        head, tail = ops.split_rows(combined, left_ids[0])
        return head, tail

    # -- matching -----------------------------------------------------------

    def _match_pairs(self, left_ids: Tensor, right_ids: Tensor,
                     need_pairs: bool
                     ) -> tuple[Tensor, Optional[tuple[Tensor, Tensor]]]:
        """Match densified keys: per-left-row match ``counts`` plus, when
        ``need_pairs``, the flattened ``(pair_left, pair_right)`` row indices.

        The ids are dense, so the build side is a direct-address table: one
        ``bincount`` of the right ids, indexed by the left ids.  The
        partitioned parallel variant runs this per key partition; everything
        downstream (:meth:`_finish`) is shared.
        """
        # bincount grows past ``minlength`` to cover the right ids, so the
        # table spans both sides (and is empty-safe under any rebinding).
        build = ops.bincount(right_ids, minlength=id_count(left_ids))
        counts = ops.take(build, left_ids)
        if not need_pairs:
            return counts, None

        # All extents below are tensors so the flattening replays correctly
        # when a rebound parameter changes the match counts.  ``order`` lists
        # the right rows grouped by id (stable, so in row order within an id)
        # and the exclusive prefix sum of the table is each group's start.
        order = ops.argsort(right_ids)
        start = ops.take(ops.sub(ops.cumsum(build), build), left_ids)
        total = ops.sum_(counts)
        offsets = ops.sub(ops.cumsum(counts), counts)
        row_index = ops.arange_like(left_ids)
        pair_left = ops.repeat(row_index, counts)
        within = ops.sub(ops.arange_until(total),
                         ops.repeat(offsets, counts))
        pair_right_sorted = ops.add(ops.repeat(start, counts), within)
        pair_right = ops.take(order, pair_right_sorted)
        return counts, (pair_left, pair_right)

    # -- execution ------------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        left_table = self.children[0].execute(ctx)
        right_table = self.children[1].execute(ctx)
        left_ids, right_ids = self._key_ids(left_table, right_table, ctx)
        need_pairs = not (self.kind in ("semi", "anti") and self.residual is None)
        counts, pairs = self._match_pairs(left_ids, right_ids, need_pairs)
        return self._finish(left_table, right_table, counts, pairs, ctx)

    def _finish(self, left_table: TensorTable, right_table: TensorTable,
                counts: Tensor, pairs: Optional[tuple[Tensor, Tensor]],
                ctx: ExecutionContext) -> TensorTable:
        n_left = ops.row_count(left_table.anchor) if left_table.anchor is not None \
            else left_table.num_rows

        if pairs is None:  # semi/anti without residual: counts are enough
            matched = ops.gt(counts, 0)
            mask = matched if self.kind == "semi" else ops.logical_not(matched)
            return left_table.mask(mask)

        pair_left, pair_right = pairs
        matched_left = left_table.gather(pair_left)
        matched_right = right_table.gather(pair_right)
        combined = merge_tables(matched_left, matched_right)

        residual_mask: Optional[Tensor] = None
        if self.residual is not None:
            residual_value = evaluate(self.residual, combined, ctx.eval_ctx)
            residual_mask = as_mask(residual_value, combined.num_rows,
                                    like=combined.anchor)

        if self.kind == "inner":
            return combined.mask(residual_mask) if residual_mask is not None else combined

        if self.kind in ("semi", "anti"):
            hits = ops.scatter_add(pair_left, ops.cast(residual_mask, "int64"),
                                   size=n_left)
            matched = ops.gt(hits, 0)
            mask = matched if self.kind == "semi" else ops.logical_not(matched)
            return left_table.mask(mask)

        # left outer join
        if residual_mask is not None:
            combined = combined.mask(residual_mask)
            pair_left = ops.boolean_mask(pair_left, residual_mask)
        hits = ops.scatter_add(pair_left,
                               ops.full_like_rows(pair_left, 1, dtype="int64"),
                               size=n_left)
        unmatched = ops.eq(hits, 0)
        left_unmatched = left_table.mask(unmatched)
        null_right = TensorTable({
            name: _null_column_like(column, left_unmatched.num_rows,
                                    anchor=left_unmatched.anchor)
            for name, column in right_table.columns()
        })
        padded = merge_tables(left_unmatched, null_right)
        return concat_tables(combined, padded)


class NestedLoopJoinOperator(TensorOperator):
    """Cross product (optionally filtered) — the fallback for non-equi joins."""

    name = "NestedLoopJoin"

    def __init__(self, left: TensorOperator, right: TensorOperator, kind: str,
                 condition: Optional[Expr] = None):
        super().__init__([left, right])
        if kind not in ("inner", "cross", "semi", "anti"):
            raise ExecutionError(f"unsupported nested-loop join kind {kind!r}")
        self.kind = kind
        self.condition = condition

    def describe(self) -> str:
        return f"NestedLoopJoin[{self.kind}]"

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        left_table = self.children[0].execute(ctx)
        right_table = self.children[1].execute(ctx)
        left_anchor, right_anchor = left_table.anchor, right_table.anchor
        if left_anchor is None or right_anchor is None:
            raise ExecutionError("nested-loop join requires materialized inputs")

        # The cross-product index arithmetic is built from run-time extents so
        # a rebound parameter that changes either input's size replays
        # correctly on the graph backends.
        n_left_t = ops.row_count(left_anchor)
        n_right_t = ops.row_count(right_anchor)
        pair_left = ops.repeat(
            ops.arange_like(left_anchor),
            ops.mul(ops.full_like_rows(left_anchor, 1, dtype="int64"), n_right_t))
        pair_right = ops.mod(ops.arange_until(ops.mul(n_left_t, n_right_t)),
                             ops.maximum(n_right_t, 1))
        combined = merge_tables(left_table.gather(pair_left),
                                right_table.gather(pair_right))

        mask: Optional[Tensor] = None
        if self.condition is not None:
            value = evaluate(self.condition, combined, ctx.eval_ctx)
            mask = as_mask(value, combined.num_rows, like=combined.anchor)

        if self.kind in ("inner", "cross"):
            return combined.mask(mask) if mask is not None else combined

        if mask is None:
            mask = ops.full_like_rows(pair_left, True, dtype="bool")
        hits = ops.scatter_add(pair_left, ops.cast(mask, "int64"), size=n_left_t)
        matched = ops.gt(hits, 0)
        if self.kind == "anti":
            matched = ops.logical_not(matched)
        return left_table.mask(matched)
