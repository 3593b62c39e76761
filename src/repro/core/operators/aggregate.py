"""Group-by aggregation as a tensor program.

Group keys are densified into integer group ids
(:func:`repro.core.operators.grouping.group_rows`) and every aggregate is one
scatter reduction over those ids.  Each function is written once, as a row of
the state table below:

* **state** — the columns it keeps per group (:data:`AGGREGATE_STATE`):
  ``count`` keeps a ``count``; ``sum`` and ``avg`` keep a ``sum`` and
  ``min`` / ``max`` their extreme, each beside a ``vcount`` — how many
  non-NULL rows contributed, which is what makes an all-NULL group (or an
  empty global input) report NULL;
* **combine** — the one scatter reduction per state column
  (:data:`COMBINE`) that both builds it from rows and merges it across
  partial states (``scatter_add`` / ``scatter_min`` / ``scatter_max``);
* **finalize** — state to output column: cast, ``sum / max(vcount, 1)``,
  NULL where ``vcount == 0``.

A serial plan runs state → finalize on its one table, and so does a lanes
plan (lanes are a cost model: :mod:`repro.core.operators.partition`).  Over a
sharded input every shard runs the same state step and stores it as a
*partial table* (group keys plus state columns, a few rows per group);
``gather`` brings the partials together (the only rows that cross the
interconnect, the classic reason two-phase aggregation is the backbone of
every distributed engine), they are re-grouped, combined, and finalized by
the same function.  The output is one unpartitioned table.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.core.columnar import LogicalType, TensorColumn, TensorTable
from repro.core.expressions import column_value, evaluate_encoded, to_column
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.core.operators.grouping import (
    factorize_single,
    group_rows,
    representatives,
)
from repro.core.operators.partition import (
    NONE,
    Partitioning,
    gather,
    input_of,
    partition_label,
)
from repro.errors import ExecutionError, UnsupportedOperationError
from repro.frontend.ast import Expr
from repro.frontend.logical import AggregateCall
from repro.tensor import Tensor, ops


#: The state columns each aggregate function keeps per group.  A function is
#: mergeable — may run under a partitioned input — exactly when it is a row
#: here (COUNT DISTINCT would need full value sets per group, so it has no
#: mergeable state and stays on the serial path).
AGGREGATE_STATE: dict[str, tuple[str, ...]] = {
    "count": ("count",),
    "sum": ("sum", "vcount"),
    "avg": ("sum", "vcount"),
    "min": ("min", "vcount"),
    "max": ("max", "vcount"),
}

#: The scatter reduction that builds a state column from rows *and* merges it
#: across partial states.
COMBINE: dict[str, Callable[..., Tensor]] = {
    "count": ops.scatter_add,
    "vcount": ops.scatter_add,
    "sum": ops.scatter_add,
    "min": ops.scatter_min,
    "max": ops.scatter_max,
}

#: ``state column -> tensor`` for one aggregate call, plus whether its output
#: needs a validity mask.
State = tuple[dict[str, Tensor], bool]


def aggregates_are_mergeable(aggregates: list[AggregateCall]) -> bool:
    """True when every aggregate has a lossless partial-then-merge split."""
    return all(call.func in AGGREGATE_STATE and not call.distinct
               for call in aggregates)


def masked_for_reduce(data: Tensor, valid: "Tensor | None", mode: str) -> Tensor:
    """Replace NULL positions with the reduction's identity element so they
    cannot win a ``scatter_min``/``scatter_max`` (SQL aggregates skip NULLs)."""
    if valid is None:
        return data
    kind = data.dtype.name
    if kind.startswith("float"):
        sentinel = float("inf") if mode == "min" else float("-inf")
    elif kind == "bool":
        sentinel = mode == "min"
    else:
        info = np.iinfo(np.int64)
        sentinel = info.max if mode == "min" else info.min
    return ops.where(valid, data, sentinel)


def _contribution(func: str, column: TensorColumn) -> Tensor:
    """What each row feeds the reduction: NULLs contribute its identity."""
    if func in ("min", "max"):
        return masked_for_reduce(column.tensor, column.valid, func)
    data = column.tensor
    if func == "avg" or column.ltype == LogicalType.BOOL:
        # (a bool must add as a number: scatter_add over bools is a logical OR)
        data = ops.cast(data, "float64")
    if column.valid is None:
        return data
    return ops.where(column.valid, data, 0.0 if func == "avg" else 0)


def _sum_dtype(call: AggregateCall) -> str:
    return "int64" if call.output_type == LogicalType.INT else "float64"


def _stored_name(call: AggregateCall, name: str) -> str:
    return f"__partial_{call.output_name}_{name}"


def _state_of_partials(merged: TensorTable, call: AggregateCall,
                       group_ids: Tensor, num_groups: "Tensor | int") -> State:
    """One aggregate's state combined across the gathered partial tables."""
    return ({name: COMBINE[name](group_ids,
                                 merged.column(_stored_name(call, name)).tensor,
                                 size=num_groups)
             for name in AGGREGATE_STATE[call.func]}, True)


def _store(call: AggregateCall, state: State) -> dict[str, TensorColumn]:
    """State as the columns of a partial table, in their storage types."""
    stored = {}
    for name, tensor in state[0].items():
        if name in ("min", "max"):
            column = TensorColumn(tensor, call.output_type)
        elif name == "sum":
            column = TensorColumn(ops.cast(tensor, _sum_dtype(call)),
                                  call.output_type)
        else:
            column = TensorColumn(ops.cast(tensor, "int64"), LogicalType.INT)
        stored[_stored_name(call, name)] = column
    return stored


def _finalize(call: AggregateCall, state: State) -> dict[str, TensorColumn]:
    """State to output column: cast, ``sum / max(vcount, 1)``, and NULL for
    a group nothing contributed to — all inputs NULL, or no input at all."""
    tensors, nullable = state
    if call.func == "count":
        return {call.output_name: TensorColumn(
            ops.cast(tensors["count"], "int64"), LogicalType.INT)}
    populated = tensors["vcount"]
    valid = ops.gt(populated, 0) if nullable else None
    name = AGGREGATE_STATE[call.func][0]
    value = tensors[name]
    if name == "sum":
        value = ops.cast(value, _sum_dtype(call))
    if call.func == "avg":
        value = ops.div(value, ops.cast(ops.maximum(populated, 1), "float64"))
    return {call.output_name: TensorColumn(value, call.output_type, valid)}


class HashAggregateOperator(TensorOperator):
    """Hash/group aggregation (SUM, AVG, MIN, MAX, COUNT, COUNT DISTINCT)."""

    labels = ("HashAggregate", "ParallelHashAggregate", "ShardedAggregate")

    def __init__(self, child: TensorOperator, group_exprs: list[Expr],
                 group_names: list[str], group_types: list[LogicalType],
                 aggregates: list[AggregateCall],
                 input_partitioning: Partitioning = NONE):
        super().__init__([child])
        for call in aggregates:
            if call.func not in AGGREGATE_STATE:
                raise ExecutionError(
                    f"unsupported aggregate function {call.func!r}")
        if (input_partitioning.kind != "none"
                and not aggregates_are_mergeable(aggregates)):
            raise ExecutionError(
                "partitioned aggregation requires mergeable aggregate functions"
            )
        self.group_exprs = group_exprs
        self.group_names = group_names
        self.group_types = group_types
        self.aggregates = aggregates
        #: How the partial phase is partitioned; the merged output is not.
        self.input_partitioning = input_partitioning

    def describe(self, scheme: Optional[Partitioning] = None) -> str:
        return partition_label(self.labels, scheme or self.input_partitioning,
                               f"groups={len(self.group_exprs)}")

    def _state_of_rows(self, table: TensorTable, ctx: ExecutionContext,
                       call: AggregateCall, group_ids: Tensor,
                       num_groups: "Tensor | int") -> State:
        """One aggregate's per-group state over ``table``'s rows."""
        if call.expr is None:  # count(*)
            return {"count": ops.bincount(group_ids, minlength=num_groups)}, False
        # Dictionary codes stay codes: COUNT (and COUNT DISTINCT) need no
        # decoding, and the reductions below only ever see plain columns.
        column = to_column(evaluate_encoded(call.expr, table, ctx.eval_ctx),
                           table)
        if call.func == "count" and call.distinct:
            return {"count": self._count_distinct(column, group_ids,
                                                  num_groups)}, False
        if call.func != "count" and column.ltype == LogicalType.STRING:
            raise UnsupportedOperationError(
                "sum/avg/min/max over string columns are not supported"
            )
        # SQL aggregates skip NULL inputs: count, per group, the non-NULL rows.
        if column.valid is not None:
            populated = ops.scatter_add(group_ids, ops.cast(column.valid, "int64"),
                                        size=num_groups)
        else:
            populated = ops.bincount(group_ids, minlength=num_groups)
        if call.func == "count":
            return {"count": populated}, False
        name = AGGREGATE_STATE[call.func][0]
        reduced = COMBINE[name](group_ids, _contribution(call.func, column),
                                size=num_groups)
        # For non-nullable input the mask is only needed in the global case (a
        # group always has >= 1 row, but an ungrouped input may be empty).
        return ({name: reduced, "vcount": populated},
                column.valid is not None or not self.group_exprs)

    @staticmethod
    def _count_distinct(column: TensorColumn, group_ids: Tensor,
                        num_groups: "Tensor | int") -> Tensor:
        """Distinct values per group: ``unique`` over (group, value) pairs —
        a set, which no scatter reduction can merge."""
        value_ids, radix = factorize_single(column_value(column))
        pair_ids = ops.add(ops.mul(group_ids, radix), value_ids)
        unique_pairs, _, _ = ops.unique(pair_ids)
        return ops.bincount(ops.floordiv(unique_pairs, radix),
                            minlength=num_groups)

    # -- execution ------------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        data = input_of(self.children[0], self.input_partitioning, ctx)

        def over_rows(table: TensorTable, finish) -> TensorTable:
            # Group keys keep dictionary codes: densification runs on ``(n,)``
            # integers, the output key columns stay encoded until consumed,
            # and every partition shares the stored column's dictionary.
            keys = [to_column(evaluate_encoded(expr, table, ctx.eval_ctx), table)
                    for expr in self.group_exprs]
            return self._grouped(
                table, keys, partial(self._state_of_rows, table, ctx), finish)

        if isinstance(data, TensorTable):
            return over_rows(data, _finalize)
        merged = gather(data.map(lambda table: over_rows(table, _store),
                                 self.scope))
        return self._grouped(
            merged, [merged.column(name) for name in self.group_names],
            partial(_state_of_partials, merged), _finalize)

    def _grouped(self, table: TensorTable, key_columns: list[TensorColumn],
                 state_of, finish) -> TensorTable:
        """The one grouped skeleton: group ``table``'s rows by their keys,
        emit each group's key (its first row's) and, per aggregate,
        ``finish(state_of(...))`` — ``_finalize`` where the output is due,
        ``_store`` where the state still has to cross an exchange."""
        group_ids, num_groups, presence = group_rows(
            [column_value(column) for column in key_columns], table)
        columns: dict[str, TensorColumn] = {}
        if key_columns:
            first_rows = representatives(group_ids, num_groups, presence)
            columns = {name: column.gather(first_rows)
                       for name, column in zip(self.group_names, key_columns)}
        for call in self.aggregates:
            state = state_of(call, group_ids, num_groups)
            for name, column in finish(call, state).items():
                columns[name] = (column.mask(presence) if presence is not None
                                 else column)
        return TensorTable(columns)
