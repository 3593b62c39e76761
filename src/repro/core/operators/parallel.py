"""Morsel-driven parallel execution (the classic Hyper-style morsel model).

The serial operators stream whole columns through one execution lane.  The
operators here partition their input into fixed-size **morsels** (see
``repro.core.columnar.morsel_bounds``) and stream each morsel through a
:class:`MorselWorkerPool` of ``parallelism`` worker lanes:

* :class:`MorselScanOperator` / :class:`MorselFilterOperator` /
  :class:`MorselProjectOperator` form per-morsel pipelines — a morsel produced
  by the scan is filtered and projected on the *same* worker lane without any
  intermediate materialization barrier,
* :class:`PartitionedHashJoinOperator` radix-partitions the densified join
  keys of both sides (``key mod P``) and matches each partition on its own
  lane,
* :class:`ParallelHashAggregateOperator` computes per-worker **partial
  aggregates** per morsel and combines them in a final merge step
  (partial-then-merge, the standard two-phase parallel aggregation).

Results are always computed with real kernels.  Like the simulated devices,
*parallel time* is simulated: morsels execute one at a time (deterministic,
trace- and profile-friendly), each inside a worker-lane annotation
(:func:`repro.tensor.profiler.lane_scope`) plus one ``morsel_dispatch`` op per
hand-off.  The device cost models replay those annotations into per-worker
timelines — reported time charges the *slowest lane* plus per-morsel dispatch
overhead, which is what produces honest speedup curves.  A real thread pool
(``use_threads=True``) is available for unprofiled, untraced eager execution,
where numpy kernels release the GIL.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

from repro.core.columnar import (
    DEFAULT_MORSEL_ROWS,
    LogicalType,
    TensorColumn,
    TensorTable,
    concat_columns,
    morsel_bounds,
)
from repro.core.expressions import (
    ExprValue,
    as_mask,
    evaluate,
    evaluate_encoded,
    to_column,
)
from repro.core.operators.aggregate import HashAggregateOperator, masked_for_reduce
from repro.core.operators.base import ExecutionContext, TensorOperator
from repro.core.operators.filter import FilterOperator
from repro.core.operators.join import HashJoinOperator
from repro.core.operators.project import ProjectOperator
from repro.core.operators.scan import ScanOperator
from repro.core.tuning import DEFAULT_TUNING
from repro.errors import ExecutionError
from repro.frontend import ast
from repro.frontend.logical import AggregateCall, Field
from repro.tensor import Tensor, current_profiler, lane_scope, ops
from repro.tensor.tracing import current_trace

#: Minimum input cardinality for the planner to choose a parallel operator —
#: below this, per-morsel dispatch overhead outweighs any lane parallelism.
#: Canonical home: :class:`repro.core.tuning.Tuning`; re-exported here for
#: the operators' runtime small-input fallbacks and existing importers.
PARALLEL_THRESHOLD_ROWS = DEFAULT_TUNING.parallel_threshold_rows

#: Aggregate functions whose partial states merge losslessly (COUNT DISTINCT
#: would need full value sets per group, so it stays on the serial path).
_MERGEABLE_AGGREGATES = frozenset({"count", "sum", "avg", "min", "max"})

#: A morsel task: given the worker lane it was scheduled on, produce the
#: morsel's output table.  Tasks are independent — any order, any worker.
MorselTask = Callable[[int], TensorTable]


# -- plan-time eligibility ----------------------------------------------------


def exprs_are_morsel_safe(exprs) -> bool:
    """True when every expression can be evaluated per-morsel.

    Runtime subqueries are the one construct that breaks morsel locality (they
    would re-execute their subplan once per morsel), so their presence sends
    the operator down the serial path.
    """
    for expr in exprs:
        if expr is None:
            continue
        for sub in ast.walk_expr(expr):
            if isinstance(sub, (ast.InSubquery, ast.ExistsSubquery,
                                ast.ScalarSubquery)):
                return False
    return True


def aggregates_are_mergeable(aggregates: list[AggregateCall]) -> bool:
    """True when every aggregate has a lossless partial-then-merge split."""
    return all(call.func in _MERGEABLE_AGGREGATES and not call.distinct
               for call in aggregates)


# -- morsel plumbing ----------------------------------------------------------


#: Morsels handed to each worker lane before the input is exhausted.  One per
#: lane when the input is large: round-robin assignment over uniform slices is
#: perfectly balanced anyway (the simulation has no work stealing to feed),
#: and larger morsels amortize the fixed per-kernel cost that would otherwise
#: drown cheap predicates in per-morsel overhead.  Inputs near the morsel
#: floor still split into many ``morsel_rows``-sized pieces.
_MORSELS_PER_LANE = 1


def effective_morsel_rows(num_rows: int, morsel_rows: int, parallelism: int) -> int:
    """Adaptive morsel size: at least ``morsel_rows``, at most what spreads the
    input over ``_MORSELS_PER_LANE`` morsels per worker lane."""
    target = -(-num_rows // max(1, parallelism * _MORSELS_PER_LANE))
    return max(morsel_rows, target)


def _bounds(num_rows: int, morsel_rows: int) -> list[tuple[int, int]]:
    """Morsel bounds, with one empty morsel for an empty input so downstream
    consumers still see the schema."""
    return morsel_bounds(num_rows, morsel_rows) or [(0, 0)]


def dispatch_table(table: TensorTable, lane: int, morsel: int) -> TensorTable:
    """Stamp a morsel hand-off: thread the first column through the
    ``morsel_dispatch`` identity op so both the profile and the traced graph
    record one dispatch per morsel per worker."""
    names = table.column_names
    if not names:
        return table
    first = table.column(names[0])
    tagged = TensorColumn(
        ops.morsel_dispatch(first.tensor, lane, morsel, rows=first.num_rows),
        first.ltype, first.valid,
    )
    return table.with_column(names[0], tagged)


def concat_morsels(tables: list[TensorTable]) -> TensorTable:
    """Row-concatenate morsel outputs with one ``concat`` kernel per column.

    (Folding with the pairwise ``concat_tables`` would copy O(morsels) times.)
    """
    if not tables:
        raise ExecutionError("concat_morsels() needs at least one morsel")
    if len(tables) == 1:
        return tables[0]
    return TensorTable({
        name: concat_columns([t.column(name) for t in tables])
        for name in tables[0].column_names
    })


class MorselWorkerPool:
    """Schedules morsel tasks round-robin across ``parallelism`` worker lanes.

    Default mode runs tasks sequentially, each inside its lane's
    :func:`lane_scope`, so profiling and tracing see a deterministic
    single-threaded execution annotated with the parallel structure.  With
    ``use_threads=True`` tasks run on a real :class:`ThreadPoolExecutor`
    whenever neither a profiler nor a trace is active (both rely on
    thread-local state, and simulated time needs the lane annotations anyway).
    """

    def __init__(self, parallelism: int, use_threads: bool = False):
        if parallelism < 1:
            raise ExecutionError("parallelism must be >= 1")
        self.parallelism = parallelism
        self.use_threads = use_threads

    def run(self, tasks: list[MorselTask], label: str = "") -> list[TensorTable]:
        """Run every task; results come back in task order."""
        if (self.use_threads and len(tasks) > 1
                and current_profiler() is None and current_trace() is None):
            with ThreadPoolExecutor(max_workers=self.parallelism) as pool:
                futures = [pool.submit(fn, i % self.parallelism)
                           for i, fn in enumerate(tasks)]
                return [f.result() for f in futures]
        profiler = current_profiler()
        results = []
        for i, fn in enumerate(tasks):
            lane = i % self.parallelism
            with lane_scope(lane):
                if profiler is not None and label:
                    with profiler.scope(f"{label}@w{lane}"):
                        results.append(fn(lane))
                else:
                    results.append(fn(lane))
        return results


class MorselSource:
    """Mixin for operators able to emit their output as independent morsel
    tasks, letting the consumer keep each morsel on one worker lane instead of
    forcing a materialization barrier between pipeline stages."""

    def morsel_tasks(self, ctx: ExecutionContext) -> list[MorselTask]:
        raise NotImplementedError


def _partition_tasks(table: TensorTable, morsel_rows: int,
                     parallelism: int) -> list[MorselTask]:
    """Slice a materialized table into dispatch-stamped morsel tasks."""
    rows = effective_morsel_rows(table.num_rows, morsel_rows, parallelism)
    tasks: list[MorselTask] = []
    for i, (start, length) in enumerate(_bounds(table.num_rows, rows)):
        def fn(lane: int, start=start, length=length, i=i) -> TensorTable:
            return dispatch_table(table.slice(start, length), lane, i)
        tasks.append(fn)
    return tasks


def _source_tasks(child: TensorOperator, ctx: ExecutionContext,
                  morsel_rows: int, parallelism: int) -> list[MorselTask]:
    """Morsel tasks for a pipeline child: stream from a morsel source, or
    materialize-and-partition a serial child."""
    if isinstance(child, MorselSource):
        return child.morsel_tasks(ctx)
    return _partition_tasks(child.execute(ctx), morsel_rows, parallelism)


# -- partition-aware scan / filter / project ----------------------------------


class MorselScanOperator(ScanOperator, MorselSource):
    """Partition-aware scan: emits the bound table as morsel tasks.

    When consumed by a serial parent it degrades to a plain column-select with
    zero overhead; when consumed by a morsel pipeline each slice is a zero-copy
    ``narrow`` view stamped with one dispatch per morsel.
    """

    name = "MorselScan"

    #: A traced dynamic row mask would make this scan's output size depend on
    #: the binding while its morsel bounds are baked at trace time — so
    #: parameterized conjuncts only prune here when no trace is recording
    #: (static literal conjuncts always prune).
    traced_dynamic_pruning = False

    def __init__(self, table: str, alias: str, fields: list[Field],
                 parallelism: int, morsel_rows: int = DEFAULT_MORSEL_ROWS):
        super().__init__(table, alias, fields)
        self.parallelism = parallelism
        self.morsel_rows = morsel_rows

    def describe(self) -> str:
        return f"MorselScan({self.table}, workers={self.parallelism})"

    def morsel_tasks(self, ctx: ExecutionContext) -> list[MorselTask]:
        table = ScanOperator._execute(self, ctx)
        return _partition_tasks(table, self.morsel_rows, self.parallelism)


class MorselMapOperator(MorselSource):
    """Shared machinery for per-morsel map operators (filter, project).

    Subclasses implement :meth:`_apply_morsel`; this mixin handles streaming
    from a morsel-source child, materialize-and-partition for serial children
    (with a serial fast path below the parallelism threshold), worker-pool
    scheduling and the final concat.  It must precede the serial operator base
    in the MRO so its ``_execute`` wins.
    """

    def _init_parallel(self, parallelism: int, morsel_rows: int,
                       use_threads: bool) -> None:
        self.parallelism = parallelism
        self.morsel_rows = morsel_rows
        self.pool = MorselWorkerPool(parallelism, use_threads)

    def _apply_morsel(self, sub: TensorTable, ctx: ExecutionContext) -> TensorTable:
        raise NotImplementedError

    def _mapped(self, tasks: list[MorselTask], ctx: ExecutionContext
                ) -> list[MorselTask]:
        return [(lambda lane, fn=fn: self._apply_morsel(fn(lane), ctx))
                for fn in tasks]

    def morsel_tasks(self, ctx: ExecutionContext) -> list[MorselTask]:
        return self._mapped(
            _source_tasks(self.children[0], ctx, self.morsel_rows,
                          self.parallelism), ctx)

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        child = self.children[0]
        if not isinstance(child, MorselSource):
            table = child.execute(ctx)
            if table.num_rows < PARALLEL_THRESHOLD_ROWS:
                return self._apply_morsel(table, ctx)
            tasks = self._mapped(
                _partition_tasks(table, self.morsel_rows, self.parallelism), ctx)
        else:
            tasks = self.morsel_tasks(ctx)
        return concat_morsels(self.pool.run(tasks, label=self.describe()))


class MorselFilterOperator(MorselMapOperator, FilterOperator):
    """Filter that evaluates its predicate one morsel at a time."""

    name = "MorselFilter"

    def __init__(self, child: TensorOperator, condition: ast.Expr,
                 parallelism: int, morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 use_threads: bool = False):
        FilterOperator.__init__(self, child, condition)
        self._init_parallel(parallelism, morsel_rows, use_threads)

    def describe(self) -> str:
        return f"MorselFilter(workers={self.parallelism})"

    def _apply_morsel(self, sub: TensorTable, ctx: ExecutionContext) -> TensorTable:
        value = evaluate(self.condition, sub, ctx.eval_ctx)
        return sub.mask(as_mask(value, sub.num_rows, like=sub.anchor))


class MorselProjectOperator(MorselMapOperator, ProjectOperator):
    """Projection that computes its output expressions one morsel at a time."""

    name = "MorselProject"

    def __init__(self, child: TensorOperator, exprs: list[ast.Expr],
                 names: list[str], types: list[LogicalType],
                 parallelism: int, morsel_rows: int = DEFAULT_MORSEL_ROWS,
                 use_threads: bool = False):
        ProjectOperator.__init__(self, child, exprs, names, types)
        self._init_parallel(parallelism, morsel_rows, use_threads)

    def describe(self) -> str:
        return f"MorselProject({len(self.exprs)} cols, workers={self.parallelism})"

    def _apply_morsel(self, sub: TensorTable, ctx: ExecutionContext) -> TensorTable:
        columns = {}
        for expr, name in zip(self.exprs, self.names):
            value = evaluate(expr, sub, ctx.eval_ctx)
            columns[name] = to_column(value, sub.num_rows, like=sub.anchor)
        return TensorTable(columns)


# -- partitioned hash join ----------------------------------------------------


class PartitionedHashJoinOperator(HashJoinOperator):
    """Equi-join with a radix-partitioned build/probe phase.

    Key densification stays global (both sides must share one dictionary), but
    the build/probe — the direct-address table of the build ids and the
    ordering of the build rows — runs per key partition (``id mod P``, matched
    on ``id // P`` so every partition's table is dense, ~G/P slots) on its own
    worker lane.  Partition row indices map local matches back to global
    row ids, after which the shared :meth:`_finish` tail handles
    inner/left/semi/anti and residuals.
    """

    name = "PartitionedHashJoin"

    def __init__(self, left: TensorOperator, right: TensorOperator, kind: str,
                 left_keys: list[ast.Expr], right_keys: list[ast.Expr],
                 residual: Optional[ast.Expr] = None, *, parallelism: int = 1,
                 num_partitions: Optional[int] = None, use_threads: bool = False):
        super().__init__(left, right, kind, left_keys, right_keys, residual)
        self.parallelism = parallelism
        self.num_partitions = num_partitions or parallelism
        self.pool = MorselWorkerPool(parallelism, use_threads)

    def describe(self) -> str:
        return (f"PartitionedHashJoin[{self.kind}]"
                f"(partitions={self.num_partitions}, workers={self.parallelism})")

    def _match_pairs(self, left_ids: Tensor, right_ids: Tensor,
                     need_pairs: bool
                     ) -> tuple[Tensor, Optional[tuple[Tensor, Tensor]]]:
        n_left = left_ids.shape[0]
        n_right = right_ids.shape[0]
        partitions = self.num_partitions
        if (partitions < 2 or n_left == 0 or n_right == 0
                or max(n_left, n_right) < PARALLEL_THRESHOLD_ROWS):
            return super()._match_pairs(left_ids, right_ids, need_pairs)

        # Single-pass radix partition (the serial phase): one stable argsort
        # per side groups the row indices of every partition contiguously, and
        # searchsorted yields all partition boundaries at once — instead of
        # rescanning the full key arrays once per partition.
        def partition_layout(ids: Tensor) -> tuple[Tensor, list[int]]:
            part = ops.mod(ids, partitions)
            order = ops.argsort(part)
            bounds = ops.searchsorted(
                ops.take(part, order),
                ops.arange(partitions + 1, device=ids.device), side="left")
            return order, [int(b) for b in bounds.numpy()]

        left_order, left_bounds = partition_layout(left_ids)
        right_order, right_bounds = partition_layout(right_ids)

        def match_partition(lane: int, p: int):
            lsel = ops.narrow(left_order, 0, left_bounds[p],
                              left_bounds[p + 1] - left_bounds[p])
            rsel = ops.narrow(right_order, 0, right_bounds[p],
                              right_bounds[p + 1] - right_bounds[p])
            # Ids sharing ``id mod P`` stay distinct and ordered under
            # ``id // P`` and are dense again, so each table is ~G/P slots.
            lids = ops.floordiv(
                ops.morsel_dispatch(ops.take(left_ids, lsel), lane, p,
                                    rows=lsel.shape[0]), partitions)
            rids = ops.floordiv(ops.take(right_ids, rsel), partitions)
            local_counts, local_pairs = HashJoinOperator._match_pairs(
                self, lids, rids, need_pairs)
            if local_pairs is None:
                return lsel, local_counts, None, None
            return (lsel, local_counts,
                    ops.take(lsel, local_pairs[0]), ops.take(rsel, local_pairs[1]))

        tasks = [(lambda lane, p=p: match_partition(lane, p))
                 for p in range(partitions)]
        parts = self.pool.run(tasks, label=self.describe())

        counts = ops.scatter_add(ops.concat([part[0] for part in parts], axis=0),
                                 ops.concat([part[1] for part in parts], axis=0),
                                 size=n_left)
        if not need_pairs:
            return counts, None
        pair_left = ops.concat([part[2] for part in parts], axis=0)
        pair_right = ops.concat([part[3] for part in parts], axis=0)
        return counts, (pair_left, pair_right)


# -- partial-then-merge aggregation -------------------------------------------


class ParallelHashAggregateOperator(HashAggregateOperator):
    """Two-phase parallel aggregation: per-morsel partials, then one merge.

    Each morsel computes a *partial table* on its worker lane — group key
    values plus decomposed aggregate state (``sum``/``count``/``min``/``max``;
    ``avg`` carries a sum and a count).  The merge phase concatenates the
    partials (a few rows per morsel), re-groups them, and combines the states.
    Falls back to the serial single-stream path for inputs below the
    parallelism threshold.
    """

    name = "ParallelHashAggregate"

    def __init__(self, child: TensorOperator, group_exprs: list[ast.Expr],
                 group_names: list[str], group_types: list[LogicalType],
                 aggregates: list[AggregateCall], *, parallelism: int = 1,
                 morsel_rows: int = DEFAULT_MORSEL_ROWS, use_threads: bool = False):
        super().__init__(child, group_exprs, group_names, group_types, aggregates)
        if not aggregates_are_mergeable(aggregates):
            raise ExecutionError(
                "parallel aggregation requires mergeable aggregate functions"
            )
        self.parallelism = parallelism
        self.morsel_rows = morsel_rows
        self.pool = MorselWorkerPool(parallelism, use_threads)

    def describe(self) -> str:
        return (f"ParallelHashAggregate(groups={len(self.group_exprs)}, "
                f"workers={self.parallelism})")

    # -- partial phase ------------------------------------------------------

    def _partial_table(self, sub: TensorTable, ctx: ExecutionContext) -> TensorTable:
        num_rows = sub.num_rows
        # Dictionary-encoded keys keep their codes through the partial tables:
        # every morsel shares the stored column's dictionary, so the merge
        # phase re-densifies codes without ever touching code-point matrices.
        key_values = [evaluate_encoded(expr, sub, ctx.eval_ctx)
                      for expr in self.group_exprs]
        group_ids, num_groups, compact = self._group_ids(
            key_values, num_rows, sub.device, anchor=sub.anchor)
        presence = self._group_presence(group_ids, num_groups, compact)

        columns: dict[str, TensorColumn] = {}
        if self.group_exprs:
            representatives = ops.scatter_min(
                group_ids, ops.arange_like(group_ids), num_groups
            )
            if presence is not None:
                representatives = ops.boolean_mask(representatives, presence)
            for value, name in zip(key_values, self.group_names):
                columns[name] = to_column(value, num_rows,
                                          like=sub.anchor).gather(representatives)
        for index, call in enumerate(self.aggregates):
            for name, column in self._partial_columns(
                    index, call, sub, group_ids, num_groups, ctx).items():
                columns[name] = (column.mask(presence) if presence is not None
                                 else column)
        return TensorTable(columns)

    def _partial_columns(self, index: int, call: AggregateCall, table: TensorTable,
                         group_ids: Tensor, num_groups: Tensor,
                         ctx: ExecutionContext) -> dict[str, TensorColumn]:
        """One morsel's decomposed aggregate state.

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

    # -- merge phase --------------------------------------------------------

    def _merge_partials(self, merged: TensorTable, ctx: ExecutionContext
                        ) -> TensorTable:
        num_rows = merged.num_rows
        key_values = [
            ExprValue(column.tensor, column.ltype, False, column.valid,
                      column.encoding)
            for column in (merged.column(name) for name in self.group_names)
        ]
        group_ids, num_groups, compact = self._group_ids(
            key_values, num_rows, merged.device, anchor=merged.anchor)
        presence = self._group_presence(group_ids, num_groups, compact)

        columns: dict[str, TensorColumn] = {}
        if self.group_exprs:
            representatives = ops.scatter_min(
                group_ids, ops.arange_like(group_ids), num_groups
            )
            if presence is not None:
                representatives = ops.boolean_mask(representatives, presence)
            for name in self.group_names:
                columns[name] = merged.column(name).gather(representatives)

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

    # -- execution ----------------------------------------------------------

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        child = self.children[0]
        if isinstance(child, MorselSource):
            tasks = child.morsel_tasks(ctx)
        else:
            table = child.execute(ctx)
            if table.num_rows < PARALLEL_THRESHOLD_ROWS:
                return self._aggregate_table(table, ctx)
            tasks = _partition_tasks(table, self.morsel_rows, self.parallelism)
        partial_tasks: list[MorselTask] = [
            (lambda lane, fn=fn: self._partial_table(fn(lane), ctx))
            for fn in tasks
        ]
        partials = self.pool.run(partial_tasks, label=self.describe())
        return self._merge_partials(concat_morsels(partials), ctx)
