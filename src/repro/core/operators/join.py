"""Join operators expressed as tensor programs.

The equi-join follows the TQP strategy of staying inside the tensor op
vocabulary, and is the hash join of that vocabulary: join keys of both sides
are mapped into one id space ``0..G-1`` (``ops.join_ids``: bounded integer
keys are their own ids, the rest is densified jointly), the build side
becomes a direct-address table over it — ``bincount`` of the right ids — and
probe rows read their match count with one ``take``.  The
``(left row, right row)`` pairs are then built one of three ways, chosen by
the planner (``key_side``, derived from the scanned tables' statistics —
:meth:`repro.core.planner.Planner._unique_sets` — never from the data):

* **key build** (the right side is unique on its keys): the pair list *is* a
  lookup — the matched left rows, and for each the one right row its id maps
  to in a position table (``scatter_max`` of the right row numbers);
* **key probe** (the left side is): the mirror image from the right rows,
  then one stable ``argsort`` of the matched left rows to put them first;
* **neither** (N:M): the ragged match lists are flattened with an ``argsort``
  of the build ids, prefix sums and ``repeat`` + ``arange`` arithmetic.

All three emit the same pairs in the same order.  Semi/anti/left-outer
variants and residual (non-equi) conditions are layered on top of the same
machinery.

Where a sort remains it is the kernels' own per-call choice, never this
module's: ``join_ids``, ``unique`` and the stable ``argsort`` of the build
rows use bounded integer keys directly (as ids, presence table, LSD radix)
and sort floats, epoch-ns dates and domains much wider than the row count —
see the constants in :mod:`repro.tensor.ops`.  The output (row order
included) is the same either way.

A join priced on lanes is the serial join (only its label and its price
differ).  A ``shards`` join exchanges first: a **value-hash shuffle**
(both sides repartition on the join keys, so equal keys meet on one device
and every join kind is decided locally) or a **broadcast** of one small
unsharded side to every device; each device then runs the ordinary serial
join on what it holds.
"""

from __future__ import annotations

from typing import Optional


from repro.core.columnar import LogicalType, TensorColumn, TensorTable
from repro.core.expressions import as_mask, evaluate
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.core.operators.grouping import combine_ids, factorize_pair
from repro.core.operators.partition import broadcast as broadcast_table
from repro.core.operators.partition import (
    NONE,
    PartitionedTable,
    Partitioning,
    concat_rows,
    partition_label,
    repartition,
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


def _null_column_like(column: TensorColumn, table: TensorTable
                      ) -> TensorColumn:
    """An all-NULL column with the type / width of ``column`` and one row per
    row of ``table`` (sized off its anchor at run time, never a baked count)."""
    anchor = table.anchor
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


def finish_join(kind: str, residual: Optional[Expr], left_table: TensorTable,
                right_table: TensorTable, counts: Optional[Tensor],
                pairs: Optional[tuple[Tensor, Tensor]],
                ctx: ExecutionContext) -> TensorTable:
    """Turn a join's candidate matches into its output — the one finish of
    every pair list, hash-matched or cross product.

    ``pairs`` are the flattened ``(left row, right row)`` candidates;
    ``counts`` (matches per left row) suffices for a semi / anti join without
    a residual, which never materializes pairs.
    """
    n_left = ops.row_count(left_table.anchor)
    if pairs is None:  # semi/anti without residual: counts are enough
        matched = ops.gt(counts, 0)
        mask = matched if kind == "semi" else ops.logical_not(matched)
        return left_table.mask(mask)

    pair_left, pair_right = pairs
    combined = merge_tables(left_table.gather(pair_left),
                            right_table.gather(pair_right))

    residual_mask: Optional[Tensor] = None
    if residual is not None:
        residual_mask = as_mask(evaluate(residual, combined, ctx.eval_ctx),
                                combined)

    if kind in ("inner", "cross"):
        return combined.mask(residual_mask) if residual_mask is not None else combined

    if kind in ("semi", "anti"):
        hits = ops.scatter_add(pair_left, ops.cast(residual_mask, "int64"),
                               size=n_left)
        matched = ops.gt(hits, 0)
        mask = matched if kind == "semi" else ops.logical_not(matched)
        return left_table.mask(mask)

    # left outer join
    if residual_mask is not None:
        combined = combined.mask(residual_mask)
        pair_left = ops.boolean_mask(pair_left, residual_mask)
    hits = ops.scatter_add(pair_left,
                           ops.full_like_rows(pair_left, 1, dtype="int64"),
                           size=n_left)
    left_unmatched = left_table.mask(ops.eq(hits, 0))
    null_right = TensorTable({
        name: _null_column_like(column, left_unmatched)
        for name, column in right_table.columns()
    })
    return concat_rows([combined, merge_tables(left_unmatched, null_right)])


class HashJoinOperator(TensorOperator):
    """Equi-join on key ids (inner / left outer / semi / anti).

    ``exchange`` is the partitioning the join runs under (see the module
    docstring).  Under ``shards`` both children stay sharded (shuffle) unless
    ``broadcast`` names the one unsharded side that is replicated instead:
    ``"right"`` (sharded probe side) is valid for every join kind — each left
    row lives on exactly one shard and sees the complete right side there —
    while ``"left"`` is inner-only: a broadcast left row would match (or
    survive) once per shard under any other kind.  The output stays sharded.
    """

    name = "HashJoin"

    def __init__(self, left: TensorOperator, right: TensorOperator, kind: str,
                 left_keys: list[Expr], right_keys: list[Expr],
                 residual: Optional[Expr] = None, *,
                 exchange: Partitioning = NONE,
                 broadcast: Optional[str] = None,
                 key_side: Optional[str] = None,
                 key_reason: str = "no-statistics"):
        super().__init__([left, right],
                         exchange if exchange.kind == "shards" else NONE)
        if kind not in ("inner", "left", "semi", "anti"):
            raise ExecutionError(f"unsupported hash join kind {kind!r}")
        if broadcast not in (None, "left", "right"):
            raise ExecutionError(f"unknown broadcast side {broadcast!r}")
        if key_side not in (None, "left", "right"):
            raise ExecutionError(f"unknown key side {key_side!r}")
        if broadcast == "left" and kind != "inner":
            raise ExecutionError(
                "broadcasting the left side is only sound for inner joins")
        self.kind = kind
        self.left_keys = left_keys
        self.right_keys = right_keys
        self.residual = residual
        self.exchange = exchange
        self.broadcast = broadcast
        #: The side the planner derived to be unique on its join keys
        #: (``"right"`` preferred), or ``None`` and why not.
        self.key_side = key_side
        self.key_reason = key_reason

    def describe(self, scheme: Optional[Partitioning] = None) -> str:
        scheme = scheme or self.exchange
        labels = ("HashJoin", "PartitionedHashJoin",
                  "BroadcastJoin" if self.broadcast else "ShuffleJoin")
        after = [f"broadcast={self.broadcast}"] if self.broadcast else []
        after.append(f"key={self.key_side or self.key_reason}")
        return partition_label(
            tuple(f"{name}[{self.kind}]" for name in labels), scheme,
            f"partitions={scheme.n}" if scheme.kind == "lanes" else "",
            after=", ".join(after))

    # -- key handling -------------------------------------------------------

    def _key_ids(self, left_table: TensorTable, right_table: TensorTable,
                 ctx: ExecutionContext) -> tuple[Tensor, Tensor, Tensor]:
        """``(left ids, right ids, id count)`` of the join keys."""
        columns = [
            factorize_pair(evaluate(left_expr, left_table, ctx.eval_ctx),
                           evaluate(right_expr, right_table, ctx.eval_ctx))
            for left_expr, right_expr in zip(self.left_keys, self.right_keys)]
        if len(columns) == 1:
            return columns[0]
        combined, count = combine_ids(
            [(ops.concat([l, r], axis=0), n) for l, r, n in columns])
        head, tail = ops.split_rows(combined, columns[0][0])
        return head, tail, count

    # -- matching -----------------------------------------------------------

    def _match_pairs(self, left_ids: Tensor, right_ids: Tensor,
                     num_ids: Tensor, need_pairs: bool
                     ) -> tuple[Tensor, Optional[tuple[Tensor, Tensor]]]:
        """Match key ids: per-left-row match ``counts`` plus, when
        ``need_pairs``, the flattened ``(pair_left, pair_right)`` row indices
        in (left row, right row) order — whichever construction builds them.

        The ids are bounded, so the build side is a direct-address table of
        ``num_ids`` slots: one ``bincount`` of the right ids, indexed by the
        left ids.  Everything downstream (:func:`finish_join`) is shared.
        """
        build = ops.bincount(right_ids, minlength=num_ids)
        counts = ops.take(build, left_ids)
        if not need_pairs:
            return counts, None
        if self.key_side == "right":
            # Key build: a matched left row pairs with the one row of its id.
            pair_left = ops.nonzero(ops.gt(counts, 0))
            position = ops.scatter_max(right_ids, ops.arange_like(right_ids),
                                       num_ids)
            return counts, (pair_left, ops.take(
                position, ops.take(left_ids, pair_left)))
        if self.key_side == "left":
            # Key probe, the mirror image: each right row has at most one left
            # row (``scatter_max`` leaves an id no left row carries negative);
            # one stable sort of those puts the pairs in left-row order.
            position = ops.scatter_max(left_ids, ops.arange_like(left_ids),
                                       num_ids)
            left_of = ops.take(position, right_ids)
            matched_right = ops.nonzero(ops.ge(left_of, 0))
            matched_left = ops.take(left_of, matched_right)
            order = ops.argsort(matched_left)
            return counts, (ops.take(matched_left, order),
                            ops.take(matched_right, order))

        # Neither side is a key: ragged match lists.  All extents below are
        # tensors so the flattening replays correctly when a rebound parameter
        # changes the match counts.  ``order`` lists the right rows grouped by
        # id (stable, so in row order within an id) and the exclusive prefix
        # sum of the table is each group's start.
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

    def _join_tables(self, left_table: TensorTable, right_table: TensorTable,
                     ctx: ExecutionContext) -> TensorTable:
        """Join two materialized tables: densify, match, finish."""
        need_pairs = not (self.kind in ("semi", "anti") and self.residual is None)
        counts, pairs = self._match_pairs(
            *self._key_ids(left_table, right_table, ctx), need_pairs)
        return finish_join(self.kind, self.residual, left_table, right_table,
                           counts, pairs, ctx)

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        return self._join_tables(self.children[0].execute(ctx),
                                 self.children[1].execute(ctx), ctx)

    def _partitions(self, ctx: ExecutionContext) -> PartitionedTable:
        left_op, right_op = self.children
        scheme = self.exchange
        if self.broadcast == "right":
            left = left_op.partitions(ctx)
            right = broadcast_table(right_op.execute(ctx), scheme)
        elif self.broadcast == "left":
            left = broadcast_table(left_op.execute(ctx), scheme)
            right = right_op.partitions(ctx)
        else:
            left, right = repartition(
                [(left_op.partitions(ctx), self.left_keys),
                 (right_op.partitions(ctx), self.right_keys)],
                ctx, f"{self.scope}:shuffle")
        return PartitionedTable.run(
            scheme,
            lambda shard: self._join_tables(
                left.produce(shard), right.produce(shard), ctx),
            self.scope)


class NestedLoopJoinOperator(TensorOperator):
    """Cross product (optionally filtered) — the fallback for non-equi joins."""

    name = "NestedLoopJoin"

    def __init__(self, left: TensorOperator, right: TensorOperator, kind: str,
                 condition: Optional[Expr] = None):
        super().__init__([left, right])
        if kind not in ("inner", "cross", "left", "semi", "anti"):
            raise ExecutionError(f"unsupported nested-loop join kind {kind!r}")
        self.kind = kind
        self.condition = condition

    def describe(self, scheme=None) -> str:
        return f"NestedLoopJoin[{self.kind}]"

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        left_table = self.children[0].execute(ctx)
        right_table = self.children[1].execute(ctx)
        left_anchor, right_anchor = left_table.anchor, right_table.anchor
        n_right = ops.row_count(right_anchor)
        every_left = ops.mul(ops.full_like_rows(left_anchor, 1, dtype="int64"),
                             n_right)
        if self.condition is None and self.kind in ("semi", "anti"):
            # Every left row pairs with every right row: counts are enough.
            return finish_join(self.kind, None, left_table, right_table,
                               every_left, None, ctx)
        # The cross-product index arithmetic is built from run-time extents so
        # a rebound parameter that changes either input's size replays
        # correctly on the graph backends.
        pair_left = ops.repeat(ops.arange_like(left_anchor), every_left)
        pair_right = ops.mod(
            ops.arange_until(ops.mul(ops.row_count(left_anchor), n_right)),
            ops.maximum(n_right, 1))
        return finish_join(self.kind, self.condition, left_table, right_table,
                           None, (pair_left, pair_right), ctx)
