"""Group-by aggregation as a tensor program.

Group keys are densified into integer group ids (see
:mod:`repro.core.operators.grouping`); aggregates are then computed with
scatter/segmented reductions (``scatter_add`` / ``scatter_min`` /
``scatter_max`` / ``bincount``), which is the standard way of expressing
SQL aggregation on tensor runtimes.

Over a partitioned input the operator runs the standard two-phase scheme,
one implementation whether the partitions are morsels on worker lanes or
shards on devices: every partition computes a *partial table* — group key
values plus decomposed aggregate state (``sum``/``count``/``min``/``max``;
``avg`` carries a sum and a count), a few rows per group — and a merge phase
gathers the partials (the only rows that cross the interconnect, the classic
reason two-phase aggregation is the backbone of every distributed engine),
re-groups them and combines the states.  The output is one unpartitioned
table.
"""

from __future__ import annotations

import numpy as np

from typing import Iterable

from repro.core.columnar import LogicalType, TensorColumn, TensorTable
from repro.core.expressions import (
    ExprValue,
    evaluate,
    evaluate_encoded,
    to_column,
)
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.core.operators.grouping import (
    combine_ids,
    factorize_single,
    id_count,
    static_radix_group_ids,
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


#: Aggregate functions whose partial states merge losslessly (COUNT DISTINCT
#: would need full value sets per group, so it stays on the serial path).
_MERGEABLE_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})


def aggregates_are_mergeable(aggregates: list[AggregateCall]) -> bool:
    """True when every aggregate has a lossless partial-then-merge split."""
    return all(call.func in _MERGEABLE_AGGREGATES and not call.distinct
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


class HashAggregateOperator(TensorOperator):
    """Hash/group aggregation (SUM, AVG, MIN, MAX, COUNT, COUNT DISTINCT)."""

    labels = ("HashAggregate", "ParallelHashAggregate", "ShardedAggregate")

    def __init__(self, child: TensorOperator, group_exprs: list[Expr],
                 group_names: list[str], group_types: list[LogicalType],
                 aggregates: list[AggregateCall],
                 input_partitioning: Partitioning = NONE):
        super().__init__([child])
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

    def describe(self) -> str:
        return partition_label(self.labels, self.input_partitioning,
                               f"groups={len(self.group_exprs)}")

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _grouping(key_values: list[ExprValue], table: TensorTable
                  ) -> "tuple[Tensor, Tensor | int, Tensor | None]":
        """``(group ids, group count, presence mask)`` of ``table``'s rows.

        All-dictionary keys take the sort-free static-radix path
        (:func:`~repro.core.operators.grouping.static_radix_group_ids`): the
        id space then covers every dictionary combination, so the caller must
        drop the groups the presence mask rules out.  Otherwise keys are
        densified with sort-based factorization (presence ``None``: the ids
        are already dense) and the count stays a run-time tensor (never
        ``.item()``) so scatter sizes are recomputed when a prepared query is
        re-executed with a binding that changes how many rows / groups
        survive the child plan.
        """
        if not key_values:
            if table.anchor is not None:
                group_ids = ops.full_like_rows(table.anchor, 0, dtype="int64")
            else:
                group_ids = ops.zeros((table.num_rows,), dtype="int64",
                                      device=table.device)
            return (group_ids,
                    ops.tensor(1, dtype="int64", device=table.device), None)
        static = static_radix_group_ids(key_values)
        if static is not None:
            group_ids, num_groups = static
            return group_ids, num_groups, ops.gt(
                ops.bincount(group_ids, minlength=num_groups), 0)
        ids = [factorize_single(value) for value in key_values]
        group_ids = combine_ids(ids)
        # id_count is empty-safe (0 groups for 0 rows), so no Python branch on
        # num_rows may be traced here — it would bake the wrong size into the
        # program for every other binding.
        return group_ids, id_count(group_ids), None

    def _aggregate_column(self, call: AggregateCall, table: TensorTable,
                          group_ids: Tensor, num_groups: Tensor,
                          ctx: ExecutionContext) -> TensorColumn:
        if call.func == "count" and call.expr is None:
            counts = ops.bincount(group_ids, minlength=num_groups)
            return TensorColumn(ops.cast(counts, "int64"), LogicalType.INT)

        # COUNT (and COUNT DISTINCT) work directly on dictionary codes; the
        # numeric reductions below only ever see plain columns.
        value = evaluate_encoded(call.expr, table, ctx.eval_ctx)
        column = to_column(value, table.num_rows, like=table.anchor)
        data = column.tensor

        if call.func == "count":
            if call.distinct:
                return TensorColumn(
                    self._count_distinct(column, group_ids, num_groups), LogicalType.INT
                )
            if column.valid is not None:
                counts = ops.scatter_add(group_ids, ops.cast(column.valid, "int64"),
                                         size=num_groups)
            else:
                counts = ops.bincount(group_ids, minlength=num_groups)
            return TensorColumn(ops.cast(counts, "int64"), LogicalType.INT)

        if column.ltype == LogicalType.STRING:
            raise UnsupportedOperationError(
                "sum/avg/min/max over string columns are not supported"
            )

        # SQL aggregates skip NULL inputs and return NULL when nothing
        # contributed: count per group how many non-NULL rows there are.  For
        # non-nullable input the mask is only needed in the global case (a
        # group always has >= 1 row, but an ungrouped input may be empty).
        if column.valid is not None:
            populated = ops.scatter_add(group_ids, ops.cast(column.valid, "int64"),
                                        size=num_groups)
        else:
            populated = ops.bincount(group_ids, minlength=num_groups)
        valid = None
        if column.valid is not None or not self.group_exprs:
            valid = ops.gt(populated, 0)

        if call.func == "sum":
            if column.valid is not None:
                data = ops.where(column.valid, data, 0)
            result = ops.scatter_add(group_ids, data, size=num_groups)
            if call.output_type == LogicalType.INT:
                result = ops.cast(result, "int64")
            else:
                result = ops.cast(result, "float64")
            return TensorColumn(result, call.output_type, valid)

        if call.func == "avg":
            addend = ops.cast(data, "float64")
            if column.valid is not None:
                addend = ops.where(column.valid, addend, 0.0)
            totals = ops.cast(ops.scatter_add(group_ids, addend, size=num_groups),
                              "float64")
            return TensorColumn(ops.div(totals, ops.cast(ops.maximum(populated, 1),
                                                         "float64")),
                                LogicalType.FLOAT, valid)

        if call.func == "min":
            result = ops.scatter_min(
                group_ids, masked_for_reduce(data, column.valid, "min"),
                size=num_groups)
            return TensorColumn(result, call.output_type, valid)

        if call.func == "max":
            result = ops.scatter_max(
                group_ids, masked_for_reduce(data, column.valid, "max"),
                size=num_groups)
            return TensorColumn(result, call.output_type, valid)

        raise ExecutionError(f"unsupported aggregate function {call.func!r}")

    @staticmethod
    def _count_distinct(column: TensorColumn, group_ids: Tensor,
                        num_groups: Tensor) -> Tensor:
        value_ids = factorize_single(
            ExprValue(column.tensor, column.ltype, False, column.valid,
                      column.encoding)
        )
        radix = id_count(value_ids)
        pair_ids = ops.add(ops.mul(group_ids, radix), value_ids)
        unique_pairs, _, _ = ops.unique(pair_ids)
        pair_groups = ops.floordiv(unique_pairs, radix)
        return ops.cast(ops.bincount(pair_groups, minlength=num_groups), "int64")

    # -- execution ----------------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        data = input_of(self.children[0], self.input_partitioning, ctx,
                        closed=True)
        if isinstance(data, TensorTable):
            return self._aggregate_table(data, ctx)
        label = self.describe()
        partials = data.map(lambda table: self._partial_table(table, ctx), label)
        return self._merge_partials(gather(partials, label))

    def _key_columns(self, columns: Iterable[TensorColumn], group_ids: Tensor,
                     num_groups, presence: "Tensor | None"
                     ) -> dict[str, TensorColumn]:
        """The output key columns: each group's key is its first row's."""
        if not self.group_exprs:
            return {}
        representatives = ops.scatter_min(
            group_ids, ops.arange_like(group_ids), num_groups
        )
        if presence is not None:
            # Static-radix ids cover every dictionary combination; keep
            # only the representatives of groups some row actually hit.
            representatives = ops.boolean_mask(representatives, presence)
        return {name: column.gather(representatives)
                for name, column in zip(self.group_names, columns)}

    def _aggregate_table(self, table: TensorTable, ctx: ExecutionContext
                         ) -> TensorTable:
        """Aggregate one materialized table (the single-stream path)."""
        # Group keys keep dictionary codes: densification runs on ``(n,)``
        # integers and the output key columns stay encoded until consumed.
        key_values = [evaluate_encoded(expr, table, ctx.eval_ctx)
                      for expr in self.group_exprs]
        group_ids, num_groups, presence = self._grouping(key_values, table)
        columns = self._key_columns(
            (to_column(value, table.num_rows, like=table.anchor)
             for value in key_values), group_ids, num_groups, presence)
        for call in self.aggregates:
            column = self._aggregate_column(
                call, table, group_ids, num_groups, ctx
            )
            if presence is not None:
                column = column.mask(presence)
            columns[call.output_name] = column
        return TensorTable(columns)

    # -- partial phase ------------------------------------------------------------

    def _partial_table(self, sub: TensorTable, ctx: ExecutionContext) -> TensorTable:
        # Dictionary-encoded keys keep their codes through the partial tables:
        # every partition shares the stored column's dictionary, so the merge
        # phase re-densifies codes without ever touching code-point matrices.
        key_values = [evaluate_encoded(expr, sub, ctx.eval_ctx)
                      for expr in self.group_exprs]
        group_ids, num_groups, presence = self._grouping(key_values, sub)
        columns = self._key_columns(
            (to_column(value, sub.num_rows, like=sub.anchor)
             for value in key_values), group_ids, num_groups, presence)
        for index, call in enumerate(self.aggregates):
            for name, column in self._partial_columns(
                    index, call, sub, group_ids, num_groups, ctx).items():
                columns[name] = (column.mask(presence) if presence is not None
                                 else column)
        return TensorTable(columns)

    def _partial_columns(self, index: int, call: AggregateCall, table: TensorTable,
                         group_ids: Tensor, num_groups: Tensor,
                         ctx: ExecutionContext) -> dict[str, TensorColumn]:
        """One partition's decomposed aggregate state.

        Mirrors the serial NULL semantics: every non-count state carries a
        ``_vcount`` column (non-NULL contributors per group) so the merge can
        report NULL for groups nothing contributed to, and NULL positions are
        zeroed (sum/avg) or replaced by the reduction identity (min/max) so
        they cannot influence the merged value.
        """
        prefix = f"__p{index}"
        if call.func == "count" and call.expr is None:
            counts = ops.bincount(group_ids, minlength=num_groups)
            return {f"{prefix}_count":
                    TensorColumn(ops.cast(counts, "int64"), LogicalType.INT)}

        value = evaluate(call.expr, table, ctx.eval_ctx)
        column = to_column(value, table.num_rows, like=table.anchor)
        data = column.tensor
        if column.valid is not None:
            populated = ops.scatter_add(group_ids, ops.cast(column.valid, "int64"),
                                        size=num_groups)
        else:
            populated = ops.bincount(group_ids, minlength=num_groups)
        vcount = TensorColumn(ops.cast(populated, "int64"), LogicalType.INT)

        if call.func == "count":
            return {f"{prefix}_count": vcount}
        if call.func == "sum":
            if column.valid is not None:
                data = ops.where(column.valid, data, 0)
            result = ops.scatter_add(group_ids, data, size=num_groups)
            target = "int64" if call.output_type == LogicalType.INT else "float64"
            return {f"{prefix}_sum":
                    TensorColumn(ops.cast(result, target), call.output_type),
                    f"{prefix}_vcount": vcount}
        if call.func == "avg":
            addend = ops.cast(data, "float64")
            if column.valid is not None:
                addend = ops.where(column.valid, addend, 0.0)
            totals = ops.cast(ops.scatter_add(group_ids, addend, size=num_groups),
                              "float64")
            return {f"{prefix}_sum": TensorColumn(totals, LogicalType.FLOAT),
                    f"{prefix}_vcount": vcount}
        if call.func == "min":
            result = ops.scatter_min(
                group_ids, masked_for_reduce(data, column.valid, "min"),
                size=num_groups)
            return {f"{prefix}_min": TensorColumn(result, call.output_type),
                    f"{prefix}_vcount": vcount}
        if call.func == "max":
            result = ops.scatter_max(
                group_ids, masked_for_reduce(data, column.valid, "max"),
                size=num_groups)
            return {f"{prefix}_max": TensorColumn(result, call.output_type),
                    f"{prefix}_vcount": vcount}
        raise ExecutionError(f"unsupported mergeable aggregate {call.func!r}")

    # -- merge phase --------------------------------------------------------------

    def _merge_partials(self, merged: TensorTable) -> TensorTable:
        """Re-group the gathered partial rows and combine their states."""
        key_columns = [merged.column(name) for name in self.group_names]
        key_values = [
            ExprValue(column.tensor, column.ltype, False, column.valid,
                      column.encoding)
            for column in key_columns
        ]
        group_ids, num_groups, presence = self._grouping(key_values, merged)
        columns = self._key_columns(key_columns, group_ids, num_groups, presence)
        for index, call in enumerate(self.aggregates):
            column = self._merge_column(
                index, call, merged, group_ids, num_groups
            )
            if presence is not None:
                column = column.mask(presence)
            columns[call.output_name] = column
        return TensorTable(columns)

    def _merge_column(self, index: int, call: AggregateCall, merged: TensorTable,
                      group_ids: Tensor, num_groups: Tensor) -> TensorColumn:
        prefix = f"__p{index}"
        if call.func == "count":
            counts = ops.scatter_add(group_ids,
                                     merged.column(f"{prefix}_count").tensor,
                                     size=num_groups)
            return TensorColumn(ops.cast(counts, "int64"), LogicalType.INT)

        # SQL NULL semantics, matching the serial path: a group (or the global
        # aggregate) nothing contributed to — all inputs NULL, or an empty
        # input altogether — reports NULL.
        populated = ops.scatter_add(group_ids,
                                    merged.column(f"{prefix}_vcount").tensor,
                                    size=num_groups)
        valid = ops.gt(populated, 0)
        if call.func == "sum":
            total = ops.scatter_add(group_ids, merged.column(f"{prefix}_sum").tensor,
                                    size=num_groups)
            target = "int64" if call.output_type == LogicalType.INT else "float64"
            return TensorColumn(ops.cast(total, target), call.output_type, valid)
        if call.func == "avg":
            totals = ops.scatter_add(group_ids, merged.column(f"{prefix}_sum").tensor,
                                     size=num_groups)
            return TensorColumn(
                ops.div(ops.cast(totals, "float64"),
                        ops.cast(ops.maximum(populated, 1), "float64")),
                LogicalType.FLOAT, valid,
            )
        if call.func == "min":
            result = ops.scatter_min(group_ids, merged.column(f"{prefix}_min").tensor,
                                     size=num_groups)
            return TensorColumn(result, call.output_type, valid)
        if call.func == "max":
            result = ops.scatter_max(group_ids, merged.column(f"{prefix}_max").tensor,
                                     size=num_groups)
            return TensorColumn(result, call.output_type, valid)
        raise ExecutionError(f"unsupported mergeable aggregate {call.func!r}")
