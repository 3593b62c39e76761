"""Planning layer: TQP IR → operator plan of tensor programs (paper §2.2, layer 3).

There is one operator per relational operator and one recursive walk.  What
the planner decides per node is the **partitioning** the operator runs under
(:mod:`repro.core.operators.partition`): ``none`` or ``shards(n)`` for
``devices > 1`` (tables placed across simulated devices).  A sharded region
opens at a base-table scan whose estimated cardinality clears
``Tuning.shard_min_rows``, stays open through operators whose expressions are
free of runtime subqueries (and, for aggregates, whose states merge), and is
closed by an enforcer where a child's partitioning is not what its parent
consumes — see :meth:`Planner._plan`.

Worker lanes are a *price*, not a plan: the walk records the estimated rows
of every operator the lanes rule admits, and :meth:`OperatorPlan.priced`
puts those over a threshold on ``n`` lanes, so a statement's serial,
``parallelism=N`` and adaptive entries share one plan and one program.
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
  selective filter no longer forces partial-merge operators onto a handful of
  surviving rows;
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
    NONE,
    DistinctOperator,
    FilterOperator,
    GatherOperator,
    HashAggregateOperator,
    HashJoinOperator,
    LimitOperator,
    NestedLoopJoinOperator,
    Partitioning,
    ProjectOperator,
    RenameOperator,
    ScanOperator,
    SortOperator,
    TensorOperator,
    aggregates_are_mergeable,
    shards,
)
from repro.core.parameters import ParameterSpec
from repro.core.tuning import Tuning, active_tuning
from repro.errors import PlanningError
from repro.frontend import ast
from repro.frontend.logical import Field
from repro.frontend.physical import PhysicalNode

#: Estimated stored width per logical type for exchange byte costing: bools
#: are byte masks, strings a fixed allowance for their code-point matrices,
#: everything else (ints, floats, dates) 8-byte tensors.
_NUMERIC_WIDTH_BYTES = 8
_FIELD_WIDTH_BYTES = {
    LogicalType.BOOL: 1,
    LogicalType.STRING: 8 * _NUMERIC_WIDTH_BYTES,
}


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
            keyed by the physical subplan its expression names — the plan
            holds them, so planning leaves the IR as it found it and one IR
            can be planned again.
        lane_rows: ``{scope: estimated rows}`` of every operator the lanes
            rule admits: a scan, filter, projection, merging aggregate or hash
            join of subquery-free expressions, in a plan that is not sharded.
    """

    root: TensorOperator
    scans: list[ScanOperator]
    output_fields: list[Field]
    params: list[ParameterSpec] = dataclasses.field(default_factory=list)
    model_names: frozenset[str] = frozenset()
    lanes: dict[str, int] = dataclasses.field(default_factory=dict)
    subqueries: dict[PhysicalNode, TensorOperator] = dataclasses.field(
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
    without the ``#id`` / ``@d<k>`` suffixes (the scope of one operator in
    one plan); scans keep their table, so two scans in one plan stay
    distinct.  ``"HashJoin[inner](key=right)#3:shuffle@d1"`` →
    ``"HashJoin"``; ``"TableScan(lineitem, pruned=2 conjuncts)#1"`` →
    ``"Scan(lineitem)"``.
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


def _expr_contains_params(expr: ast.Expr) -> bool:
    for sub in ast.walk_expr(expr):
        if isinstance(sub, ast.ParameterExpr):
            return True
        subplan = getattr(sub, "subplan", None)
        if subplan is not None and _physical_contains_params(subplan):
            return True
    return False


def _physical_contains_params(plan) -> bool:
    """Scan a physical plan (a runtime-subquery subplan) for parameters."""
    from repro.frontend.optimizer import node_expressions_physical
    from repro.frontend.physical import walk_physical

    return any(_expr_contains_params(expr)
               for node in walk_physical(plan)
               for expr in node_expressions_physical(node))


def ir_contains_params(root: ir.IRNode) -> bool:
    """True when any expression of the IR tree (or an embedded runtime
    subquery) references a bind parameter."""
    return any(_expr_contains_params(expr)
               for node in root.walk()
               for expr in ir_node_expressions(node))


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


def ir_contains_subqueries(root: ir.IRNode) -> bool:
    """True when any expression embeds a runtime-evaluated subquery."""
    return not all(exprs_are_partition_safe(ir_node_expressions(node))
                   for node in root.walk())


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
                 devices: int = 1, shard_mode: str = "hash",
                 tuning: Optional[Tuning] = None) -> None:
        self._scans: list[ScanOperator] = []
        self._subqueries: dict[PhysicalNode, TensorOperator] = {}
        self.tuning = tuning if tuning is not None else active_tuning()
        #: Simulated devices for sharded execution; 1 keeps plans single-device.
        self.devices = max(1, int(devices))
        self.shard_mode = shard_mode
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
        #: The partitioning this query's partitioned regions run under.
        self._target: Partitioning = NONE

    def plan(self, root: ir.IRNode) -> OperatorPlan:
        """The width-free plan of ``root`` (see :meth:`OperatorPlan.priced`)."""
        # Sharding is all-or-nothing per query: parameterized plans would
        # bake binding-dependent shuffle layouts into the trace, and runtime
        # subqueries execute outside the shard pipeline, so both fall back to
        # single-device planning wholesale.
        if (self.devices > 1 and not ir_contains_params(root)
                and not ir_contains_subqueries(root)):
            self._target = shards(self.devices, self.shard_mode)
        operator_root = self._closed(self._plan(root))
        params = sorted(self._params.values(), key=lambda spec: spec.position)
        # Scopes last: a scan's label shows the pruning its filter attaches.
        for index, op in enumerate(self._operators, start=1):
            op.scope = f"{op.describe(NONE)}#{index}"
        return OperatorPlan(operator_root, self._scans, list(root.fields),
                            params=params,
                            model_names=frozenset(self._model_names),
                            subqueries=self._subqueries,
                            lane_rows={op.scope: rows for op, rows
                                       in self._lane_rows.items()})

    # -- expressions: parameters, models, runtime subqueries -----------------

    def _plan_expressions(self, node: ir.IRNode) -> None:
        """Collect the bind parameters and models a node's expressions
        reference, and plan an operator subtree for each physical subplan
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
                    self._subqueries[sub.subplan] = \
                        self._closed(self._plan(sub_ir))

    # -- cardinality estimation --------------------------------------------

    def _estimate_rows(self, node: ir.IRNode) -> int:
        """Cardinality estimate gating the parallel-operator decision.

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

    # -- partitioning rules --------------------------------------------------

    def _partition_safe(self, node: ir.IRNode) -> bool:
        """Whether ``node`` may run one partition at a time: its expressions
        hold no runtime subquery and, if an aggregate, its states merge."""
        return (exprs_are_partition_safe(ir_node_expressions(node))
                and (node.op != ir.HASH_AGGREGATE
                     or aggregates_are_mergeable(node.attrs["aggregates"])))

    def _join_exchange(self, node: ir.IRNode, left_op: TensorOperator,
                       right_op: TensorOperator
                       ) -> tuple[Partitioning, Optional[str]]:
        """``(exchange, broadcast side)`` of an equi-join; see
        :class:`~repro.core.operators.HashJoinOperator`."""
        target = self._target
        if target.kind != "shards" or not self._partition_safe(node):
            return NONE, None
        left_sharded = left_op.partitioning.kind == "shards"
        right_sharded = right_op.partitioning.kind == "shards"
        if left_sharded and right_sharded:
            return target, self._cheaper_broadcast(node)
        if left_sharded:
            # Sharded probe side + replicated build side works for every
            # join kind: each left row lives on exactly one shard.
            return target, "right"
        if right_sharded and node.attrs["kind"] == "inner":
            return target, "left"
        return NONE, None

    def _closed(self, op: TensorOperator) -> TensorOperator:
        """``op`` as a producer of one host table: the gather enforcer over a
        sharded operator."""
        if op.partitioning.kind != "shards":
            return op
        return self._planned(GatherOperator(op))

    def _planned(self, op: TensorOperator) -> TensorOperator:
        """Register ``op`` for a scope id."""
        self._operators.append(op)
        return op

    # -- node translation --------------------------------------------------

    def _plan(self, node: ir.IRNode) -> TensorOperator:
        """Translate one IR node; the result's ``partitioning`` is the
        physical property its parent plans against.  Runtime subqueries,
        then the children, are planned (and numbered) before the node.

        Partitioned regions grow from large base-table scans and are closed
        as late as possible: filters and projections keep them open, joins
        keep them open (through a shuffle/broadcast under shards), mergeable
        aggregations close them (with a partial-gather-merge under shards),
        and everything else (sort, limit, distinct, nested loops, small
        inputs, subquery expressions) consumes one closed table.
        """
        self._plan_expressions(node)
        children = [self._plan(child) for child in node.children]
        op = self._planned(self._translate(node, children))
        if (self._target.kind != "shards" and node.op in _LANES_OPS
                and self._partition_safe(node)):
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
            opens = (self._target.kind == "shards" and self._estimate_rows(node)
                     >= self.tuning.shard_min_rows)
            scan = ScanOperator(attrs["table"], attrs["alias"], attrs["fields"],
                                self._target if opens else NONE)
            self._scans.append(scan)
            return scan
        if node.op == ir.HASH_JOIN:
            exchange, broadcast = self._join_exchange(node, *children)
            left_op, right_op = (
                child if exchange.kind == "shards" and broadcast != side
                else self._closed(child)
                for child, side in zip(children, ("left", "right")))
            left_is_key, right_is_key, key_reason = self._join_keys(node)
            return HashJoinOperator(
                left_op, right_op, attrs["kind"], attrs["left_keys"],
                attrs["right_keys"], attrs.get("residual"), exchange=exchange,
                broadcast=broadcast, key_reason=key_reason,
                key_side=("right" if right_is_key
                          else "left" if left_is_key else None))
        if node.op == ir.NESTED_LOOP_JOIN:
            return NestedLoopJoinOperator(*map(self._closed, children),
                                          attrs["kind"], attrs.get("condition"))

        (child_op,) = children
        # Sharded regions open at scans (and broadcast joins) only: a filter /
        # project / rename / aggregate is sharded exactly when its input is.
        scheme = NONE
        if (node.op in (ir.FILTER, ir.PROJECT, ir.RENAME, ir.HASH_AGGREGATE)
                and child_op.partitioning.kind == "shards"
                and self._partition_safe(node)):
            scheme = self._target
        else:
            child_op = self._closed(child_op)

        if node.op == ir.FILTER:
            self._attach_scan_pruning(node.children[0], child_op,
                                      attrs["condition"])
            return FilterOperator(child_op, attrs["condition"], scheme)
        if node.op == ir.PROJECT:
            return ProjectOperator(child_op, attrs["exprs"], attrs["names"],
                                   attrs["types"], scheme)
        if node.op == ir.HASH_AGGREGATE:
            return HashAggregateOperator(
                child_op, attrs["group_exprs"], attrs["group_names"],
                attrs["group_types"], attrs["aggregates"], scheme)
        if node.op == ir.RENAME:
            return RenameOperator(child_op, attrs["output_fields"], scheme)
        if node.op == ir.SORT:
            return SortOperator(child_op, attrs["keys"])
        if node.op == ir.LIMIT:
            return LimitOperator(child_op, attrs["count"])
        if node.op == ir.DISTINCT:
            return DistinctOperator(child_op)
        raise PlanningError(f"no tensor implementation for IR op {node.op!r}")

    def _estimate_bytes(self, node: ir.IRNode) -> int:
        """Estimated payload size of a node's output, from rows × field widths.

        The per-type widths are the storage sizes of the tensor layout
        (8-byte numerics/dates, 1-byte bools) with a fixed allowance for
        string code-point matrices; exchange decisions only need the two
        sides' *relative* weight, so a rough width model is enough.
        """
        width = sum(_FIELD_WIDTH_BYTES.get(field.ltype, _NUMERIC_WIDTH_BYTES)
                    for field in node.fields)
        return self._estimate_rows(node) * max(width, 1)

    def _cheaper_broadcast(self, node: ir.IRNode) -> Optional[str]:
        """The side to broadcast in a join whose sides are *both* sharded, or
        ``None`` when shuffling both is the cheapest exchange.

        Candidate exchanges, costed in estimated bytes moved across the
        interconnect (``N`` devices, build/probe payloads ``L``/``R``):

        * **shuffle both** — each side repartitions on the join key; a row
          stays put with probability ``1/N``, so ``(N-1)/N × (L + R)`` moves;
        * **broadcast right** — gather the sharded right side to the host
          (``(N-1)/N × R`` in) and replicate it to every device (``N × R``
          out) while the left side stays put; valid for every join kind
          because each probe-side row lives on exactly one shard;
        * **broadcast left** — symmetric, inner joins only (an outer/semi
          probe side must not be replicated).

        Broadcast wins only when one side is much smaller than the other
        (``R < (N-1)/N² × L`` at equal widths); ties keep the shuffle, whose
        per-device build tables are ``N×`` smaller.
        """
        n = self.devices
        left_bytes = self._estimate_bytes(node.children[0])
        right_bytes = self._estimate_bytes(node.children[1])
        shuffle_cost = (n - 1) * (left_bytes + right_bytes) // n
        broadcast_right_cost = (n - 1) * right_bytes // n + n * right_bytes
        broadcast_left_cost = (n - 1) * left_bytes // n + n * left_bytes
        if (broadcast_right_cost < shuffle_cost
                and broadcast_right_cost <= broadcast_left_cost):
            return "right"
        if broadcast_left_cost < shuffle_cost and node.attrs["kind"] == "inner":
            return "left"
        return None

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
        if (child_ir.op != ir.SCAN or not isinstance(child_op, ScanOperator)
                or child_op.partitioning.kind == "shards"):
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
    priced on ``parallelism`` lanes under the tuning's threshold."""
    planner = Planner(table_rows=table_rows, table_stats=table_stats,
                      devices=devices, shard_mode=shard_mode, tuning=tuning)
    return planner.plan(root).priced(
        parallelism, planner.tuning.parallel_threshold_rows)
