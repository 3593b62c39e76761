"""Planning layer: TQP IR → operator plan of tensor programs (paper §2.2, layer 3).

There is one operator per relational operator and one recursive walk, and
one plan per statement.  Worker lanes are a *price*, not a plan: the walk
records the estimated rows of every operator the lanes rule admits, and
:meth:`OperatorPlan.priced` puts those over a threshold on ``n`` lanes, so a
statement's serial, ``parallelism=N``, ``devices=D`` and adaptive entries
share one plan and one program (a device count is priced as a width:
``parallelism × devices`` lanes).
Every size/cost threshold comes from the planner's
:class:`~repro.core.tuning.Tuning` (``tools/lint_op_registry.py`` rejects
hard-coded threshold literals here).

The planner is also where storage statistics enter the plan:

* a filter sitting directly on a base-table scan has its conjunctive
  range/equality/IN predicates compiled into **zone-map pruning** conjuncts
  attached to the scan (see :mod:`repro.storage.pruning`), so whole
  morsel-aligned blocks are dropped before any kernel runs;
* filter **selectivity estimates** from the same statistics refine the
  cardinality estimates feeding the row-threshold decisions, so a highly
  selective filter is not priced on lanes for a handful of surviving rows;
* **key-ness** — the column sets on which a node's output has no two rows
  sharing a non-NULL value (:meth:`Planner._unique_sets`) — is derived from
  the scanned tables' NDV and row counts, and tells each hash join which of
  its sides, if any, is unique on the join keys (``key_side``).
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from repro.core import ir
from repro.core.columnar import LogicalType
from repro.core.ir_builder import build_ir
from repro.core.ir_optimizer import optimize_ir
from repro.core.operators import (
    DistinctOperator,
    FilterOperator,
    HashAggregateOperator,
    HashJoinOperator,
    LimitOperator,
    NestedLoopJoinOperator,
    ProjectOperator,
    RenameOperator,
    ScanOperator,
    SortOperator,
    TensorOperator,
    aggregates_are_mergeable,
)
from repro.core.parameters import ParameterSpec
from repro.core.tuning import Tuning, active_tuning
from repro.errors import PlanningError
from repro.frontend import ast
from repro.frontend.logical import Field, LogicalNode


@dataclasses.dataclass
class OperatorPlan:
    """The output of the planning layer.

    Attributes:
        root: root of the operator tree.
        scans: every scan in the plan, including those inside runtime-evaluated
            subqueries (the executor uses this to prepare input tensors).
        output_fields: the plan's output schema.
        params: bind parameters referenced anywhere in the plan (including
            runtime subqueries), in lexical order — the contract the executor
            validates every binding against.
        model_names: ML models referenced by ``PREDICT`` calls; the session's
            plan cache uses this to invalidate only the plans that actually
            depend on a re-registered model.
        lanes: ``{scope: n}`` of every operator :meth:`priced` put on ``n``
            worker lanes, runtime subqueries included: the one place a width
            lives, where the cost models and labels look each scope up.
        subqueries: the operator subtree planned for each runtime subquery,
            keyed by the logical subplan its expression names — the plan
            holds them, so planning leaves the IR as it found it and one IR
            can be planned again.
        lane_rows: ``{scope: estimated rows}`` of every operator the lanes
            rule admits: a scan, filter, projection, merging aggregate or hash
            join of subquery-free expressions.
    """

    root: TensorOperator
    scans: list[ScanOperator]
    output_fields: list[Field]
    params: list[ParameterSpec] = dataclasses.field(default_factory=list)
    model_names: frozenset[str] = frozenset()
    lanes: dict[str, int] = dataclasses.field(default_factory=dict)
    subqueries: dict[LogicalNode, TensorOperator] = dataclasses.field(
        default_factory=dict)
    lane_rows: dict[str, int] = dataclasses.field(default_factory=dict)

    def priced(self, width: int, threshold: int) -> "OperatorPlan":
        """A copy priced on ``width`` worker lanes (none under two): every
        admitted operator of at least ``threshold`` rows is in its ``lanes``."""
        return dataclasses.replace(self, lanes={
            scope: width for scope, rows in self.lane_rows.items()
            if width > 1 and rows >= threshold})

    def pretty(self) -> str:
        """The operator tree, its labels rendered under ``lanes``."""
        return self.root.pretty(widths=self.lanes)


def scope_family(scope: str) -> str:
    """Canonical operator family of a profiler scope: its label's name,
    without the ``#id`` suffix (the scope of one operator in one plan); scans
    keep their table, so two scans in one plan stay distinct.
    ``"HashJoin[inner](key=right)#3"`` → ``"HashJoin"``;
    ``"TableScan(lineitem, pruned=2 conjuncts)#1"`` → ``"Scan(lineitem)"``.
    """
    head, _, rest = scope.split("#", 1)[0].partition("(")
    family = head.split("[", 1)[0].strip()
    if family == "TableScan":
        return f"Scan({rest.rstrip(')').split(',', 1)[0].strip()})"
    return family


def ir_node_expressions(node: ir.IRNode) -> list[ast.Expr]:
    """All expressions stored in an IR node's attributes."""
    attrs = node.attrs
    if node.op == ir.FILTER:
        return [attrs["condition"]]
    if node.op == ir.PROJECT:
        return list(attrs["exprs"])
    if node.op == ir.HASH_JOIN:
        exprs = list(attrs["left_keys"]) + list(attrs["right_keys"])
        if attrs.get("residual") is not None:
            exprs.append(attrs["residual"])
        return exprs
    if node.op == ir.NESTED_LOOP_JOIN:
        return [attrs["condition"]] if attrs.get("condition") is not None else []
    if node.op == ir.HASH_AGGREGATE:
        exprs = list(attrs["group_exprs"])
        exprs.extend(a.expr for a in attrs["aggregates"] if a.expr is not None)
        return exprs
    if node.op == ir.SORT:
        return [key for key, _ in attrs["keys"]]
    return []


_SUBQUERY_EXPRS = (ast.InSubquery, ast.ExistsSubquery, ast.ScalarSubquery)
#: The operators the lanes rule may put on worker lanes.
_LANES_OPS = frozenset({ir.SCAN, ir.FILTER, ir.PROJECT, ir.HASH_AGGREGATE,
                        ir.HASH_JOIN})


def exprs_are_partition_safe(exprs) -> bool:
    """True when every expression can be evaluated one partition at a time.

    Runtime subqueries are the one construct that breaks partition locality
    (they would re-execute their subplan once per partition), so their
    presence sends the operator down the serial path.
    """
    return not any(isinstance(sub, _SUBQUERY_EXPRS)
                   for expr in exprs for sub in ast.walk_expr(expr))


def _key_column(key: ast.Expr, other: Optional[ast.Expr] = None
                ) -> Optional[str]:
    """The child column ``key`` reads as it stands, else ``None``: an
    expression — or a column the join casts to meet a FLOAT ``other`` side,
    where distinct integers may meet as one float."""
    if not isinstance(key, ast.ColumnRef) or (
            other is not None and other.otype == LogicalType.FLOAT
            and key.otype != LogicalType.FLOAT):
        return None
    return key.resolved or key.display


class Planner:
    """Maps each IR operator to its tensor-program implementation.

    Args:
        table_rows: registered row counts per table name, the cardinality
            estimates behind the row-threshold decisions.
        tuning: the size/cost thresholds this plan is built under; defaults
            to the thread's :func:`~repro.core.tuning.active_tuning`.
    """

    def __init__(self, table_rows: Optional[Mapping[str, int]] = None,
                 table_stats: Optional[Mapping[str, object]] = None,
                 tuning: Optional[Tuning] = None) -> None:
        self._scans: list[ScanOperator] = []
        self._subqueries: dict[LogicalNode, TensorOperator] = {}
        self.tuning = tuning if tuning is not None else active_tuning()
        self.table_rows = {name.lower(): rows
                           for name, rows in (table_rows or {}).items()}
        #: Per-table storage statistics (``repro.storage.TableStatistics``):
        #: row counts, NDV and zone maps, keyed by lower-cased table name.
        self.table_stats = {name.lower(): stats
                            for name, stats in (table_stats or {}).items()
                            if stats is not None}
        # Column-name → statistics lookup for selectivity estimation.  Only
        # unambiguous names participate: a column name two registered tables
        # share could resolve to the wrong table's value distribution, so it
        # conservatively contributes no estimate (selectivity 1.0).
        seen: dict[str, int] = {}
        for table in self.table_stats.values():
            for column in table.columns:
                seen[column] = seen.get(column, 0) + 1
        self._column_stats = {
            column: stats
            for table in self.table_stats.values()
            for column, stats in table.columns.items()
            if seen[column] == 1
        }
        #: Every operator planned, in the order scope ids are given out.
        self._operators: list[TensorOperator] = []
        #: The rows the lanes rule compares, per operator it admits.
        self._lane_rows: dict[TensorOperator, int] = {}
        self._row_estimates: dict[int, int] = {}
        self._unique: dict[int, frozenset] = {}
        self._params: dict[str, ParameterSpec] = {}
        self._model_names: set[str] = set()

    def plan(self, root: ir.IRNode) -> OperatorPlan:
        """The width-free plan of ``root`` (see :meth:`OperatorPlan.priced`)."""
        operator_root = self._plan(root)
        params = sorted(self._params.values(), key=lambda spec: spec.position)
        # Scopes last: a scan's label shows the pruning its filter attaches.
        for index, op in enumerate(self._operators, start=1):
            op.scope = f"{op.describe()}#{index}"
        return OperatorPlan(operator_root, self._scans, list(root.fields),
                            params=params,
                            model_names=frozenset(self._model_names),
                            subqueries=self._subqueries,
                            lane_rows={op.scope: rows for op, rows
                                       in self._lane_rows.items()})

    # -- expressions: parameters, models, runtime subqueries -----------------

    def _plan_expressions(self, node: ir.IRNode) -> None:
        """Collect the bind parameters and models a node's expressions
        reference, and plan an operator subtree for each subquery's subplan
        inside them (kept on the plan, not written into the expression).

        Uncorrelated IN / EXISTS / scalar subqueries are evaluated at runtime;
        by planning them here their scans participate in input preparation and
        their execution is captured by the same trace as the main query.
        """
        for expr in ir_node_expressions(node):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.ParameterExpr):
                    if sub.otype is None:
                        raise PlanningError(
                            f"parameter :{sub.name} reached planning without "
                            "an inferred type"
                        )
                    existing = self._params.get(sub.name)
                    if existing is None or sub.position < existing.position:
                        self._params[sub.name] = ParameterSpec(
                            name=sub.name, ltype=sub.otype,
                            position=sub.position, positional=sub.positional)
                elif isinstance(sub, ast.PredictExpr):
                    self._model_names.add(sub.model_name)
                elif (isinstance(sub, _SUBQUERY_EXPRS)
                      and sub.subplan not in self._subqueries):
                    sub_ir = optimize_ir(build_ir(sub.subplan))
                    self._subqueries[sub.subplan] = self._plan(sub_ir)

    # -- cardinality estimation --------------------------------------------

    def _estimate_rows(self, node: ir.IRNode) -> int:
        """Cardinality estimate gating the lanes pricing.

        Scans report registered row counts (from the storage statistics when
        available); filters scale their child's estimate by the selectivity
        the zone-map statistics predict for their prunable conjuncts; every
        other operator forwards the max over its children."""
        cached = self._row_estimates.get(id(node))
        if cached is not None:
            return cached
        if node.op == ir.SCAN:
            table_key = node.attrs["table"].lower()
            stats = self.table_stats.get(table_key)
            estimate = (stats.row_count if stats is not None
                        else self.table_rows.get(table_key, 0))
        else:
            estimate = max((self._estimate_rows(child) for child in node.children),
                           default=0)
            if node.op == ir.FILTER:
                selectivity = 1.0
                if self._column_stats:
                    from repro.storage.pruning import estimate_selectivity

                    selectivity = estimate_selectivity(node.attrs["condition"],
                                                       self._column_stats)
                estimate = int(estimate * selectivity)
        self._row_estimates[id(node)] = estimate
        return estimate

    # -- key-ness -------------------------------------------------------------

    def _unique_sets(self, node: ir.IRNode) -> frozenset:
        """Column sets on which ``node``'s output has no two rows sharing a
        non-NULL value.

        Derived from the scanned tables' own statistics, so it holds for
        every parameter binding (filters only remove rows) and for exactly
        the table generation this plan is compiled for.  Anything not listed
        (expressions, nested loops, no statistics) derives nothing.  A stored
        column counts only with no NULLs in it: a stored NULL carries no
        validity, so the kernels see NaN / ``''`` values that may repeat."""
        cached = self._unique.get(id(node))
        if cached is not None:
            return cached
        attrs = node.attrs
        below = [self._unique_sets(child) for child in node.children]
        sets: frozenset = frozenset()
        if node.op == ir.SCAN:
            stats = self.table_stats.get(attrs["table"].lower())
            if stats is not None:
                sets = frozenset(
                    frozenset([field.name]) for field in attrs["fields"]
                    for column in [stats.column(field.name)]
                    if column is not None and column.ndv == stats.row_count)
        elif node.op in (ir.FILTER, ir.SORT, ir.LIMIT, ir.DISTINCT):
            sets = below[0]
        elif node.op in (ir.PROJECT, ir.RENAME):
            sources = (map(_key_column, attrs["exprs"])
                       if node.op == ir.PROJECT
                       else node.children[0].field_names())
            renamed = dict(zip(sources, node.field_names()))
            sets = frozenset(frozenset(renamed[name] for name in unique)
                             for unique in below[0] if unique <= renamed.keys())
        elif node.op == ir.HASH_AGGREGATE:
            sets = frozenset([frozenset(attrs["group_names"])])
        elif node.op == ir.HASH_JOIN:
            # A side matched by at most one row of the other is not duplicated.
            left_is_key, right_is_key, _ = self._join_keys(node)
            if attrs["kind"] in ("semi", "anti") or right_is_key:
                sets = below[0]
            if attrs["kind"] in ("inner", "left") and left_is_key:
                sets = sets | below[1]
        self._unique[id(node)] = sets
        return sets

    def _join_keys(self, node: ir.IRNode) -> tuple[bool, bool, str]:
        """``(left is a key, right is a key, why neither)`` of an equi-join:
        a key list is unique when every key is a bare column and together
        they cover a unique set of their side."""
        sides = [(node.attrs["left_keys"], node.attrs["right_keys"]),
                 (node.attrs["right_keys"], node.attrs["left_keys"])]
        names = [{_key_column(key, other) for key, other in zip(keys, others)}
                 for keys, others in sides]
        left_is_key, right_is_key = (
            None not in columns
            and any(unique <= columns for unique in self._unique_sets(child))
            for columns, child in zip(names, node.children))
        if any(self.table_stats.get(scan.attrs["table"].lower()) is None
               for scan in node.walk() if scan.op == ir.SCAN):
            reason = "no-statistics"
        elif None in names[0] | names[1]:
            reason = "expression-key"
        else:
            reason = "not-unique"
        return left_is_key, right_is_key, reason

    # -- the lanes rule ---------------------------------------------------------

    def _partition_safe(self, node: ir.IRNode) -> bool:
        """Whether ``node`` may be priced one partition at a time: its
        expressions hold no runtime subquery and, if an aggregate, its states
        merge."""
        return (exprs_are_partition_safe(ir_node_expressions(node))
                and (node.op != ir.HASH_AGGREGATE
                     or aggregates_are_mergeable(node.attrs["aggregates"])))

    def _planned(self, op: TensorOperator) -> TensorOperator:
        """Register ``op`` for a scope id."""
        self._operators.append(op)
        return op

    # -- node translation --------------------------------------------------

    def _plan(self, node: ir.IRNode) -> TensorOperator:
        """Translate one IR node.  Runtime subqueries, then the children, are
        planned (and numbered) before the node."""
        self._plan_expressions(node)
        children = [self._plan(child) for child in node.children]
        op = self._planned(self._translate(node, children))
        if node.op in _LANES_OPS and self._partition_safe(node):
            # The lanes rule compares a scan's own rows, else its largest
            # input's (see ``OperatorPlan.lane_rows``).
            self._lane_rows[op] = max(map(self._estimate_rows, node.children),
                                      default=self._estimate_rows(node))
        return op

    def _translate(self, node: ir.IRNode, children: list[TensorOperator]
                   ) -> TensorOperator:
        """The operator of one IR node over its planned children."""
        attrs = node.attrs

        if node.op == ir.SCAN:
            scan = ScanOperator(attrs["table"], attrs["alias"], attrs["fields"])
            self._scans.append(scan)
            return scan
        if node.op == ir.HASH_JOIN:
            left_is_key, right_is_key, key_reason = self._join_keys(node)
            return HashJoinOperator(
                *children, attrs["kind"], attrs["left_keys"],
                attrs["right_keys"], attrs.get("residual"),
                key_reason=key_reason,
                key_side=("right" if right_is_key
                          else "left" if left_is_key else None))
        if node.op == ir.NESTED_LOOP_JOIN:
            return NestedLoopJoinOperator(*children, attrs["kind"],
                                          attrs.get("condition"))

        (child_op,) = children
        if node.op == ir.FILTER:
            self._attach_scan_pruning(node.children[0], child_op,
                                      attrs["condition"])
            return FilterOperator(child_op, attrs["condition"])
        if node.op == ir.PROJECT:
            return ProjectOperator(child_op, attrs["exprs"], attrs["names"],
                                   attrs["types"])
        if node.op == ir.HASH_AGGREGATE:
            return HashAggregateOperator(
                child_op, attrs["group_exprs"], attrs["group_names"],
                attrs["group_types"], attrs["aggregates"])
        if node.op == ir.RENAME:
            return RenameOperator(child_op, attrs["output_fields"])
        if node.op == ir.SORT:
            return SortOperator(child_op, attrs["keys"])
        if node.op == ir.LIMIT:
            return LimitOperator(child_op, attrs["count"])
        if node.op == ir.DISTINCT:
            return DistinctOperator(child_op)
        raise PlanningError(f"no tensor implementation for IR op {node.op!r}")

    # -- zone-map pruning ----------------------------------------------------

    def _attach_scan_pruning(self, child_ir: ir.IRNode,
                             child_op: TensorOperator,
                             condition: ast.Expr) -> None:
        """Compile a filter's prunable conjuncts onto its base-table scan.

        Only a filter sitting *directly* on a scan prunes (the common shape
        after predicate pushdown); the zone maps describe stored blocks, so
        any intermediate operator would invalidate the row↔block alignment.
        Pruning is conservative — the filter itself still runs — so missing
        statistics or unmatched conjuncts simply never prune.
        """
        if child_ir.op != ir.SCAN or not isinstance(child_op, ScanOperator):
            return
        from repro.storage.pruning import (
            annotate_discrimination,
            extract_pruning_conjuncts,
        )

        stats = self.table_stats.get(child_ir.attrs["table"].lower())
        if stats is None or stats.num_blocks < self.tuning.min_pruning_blocks:
            return
        field_names = [field.name for field in child_op.fields]
        conjuncts = extract_pruning_conjuncts(condition, field_names)
        child_op.pruning = annotate_discrimination(conjuncts, stats)


def plan_ir(root: ir.IRNode, parallelism: int = 1,
            table_rows: Optional[Mapping[str, int]] = None,
            table_stats: Optional[Mapping[str, object]] = None,
            devices: int = 1, shard_mode: str = "hash",
            tuning: Optional[Tuning] = None) -> OperatorPlan:
    """Convenience wrapper: plan an IR tree into an :class:`OperatorPlan`
    priced on ``parallelism × devices`` lanes under the tuning's threshold
    (``shard_mode`` changes nothing; it goes with ``ExecutionOptions.shard``)."""
    planner = Planner(table_rows=table_rows, table_stats=table_stats,
                      tuning=tuning)
    return planner.plan(root).priced(
        parallelism * max(1, int(devices)),
        planner.tuning.parallel_threshold_rows)
