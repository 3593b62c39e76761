"""Rule-based logical optimizer.

This is the Catalyst-like layer of the Spark stand-in frontend.  The rules are
the ones the TPC-H workload actually needs:

* ``reorder_cross_joins`` — turn ``FROM a, b, c WHERE ...`` (a cross-join tree
  plus a conjunctive filter) into a left-deep tree of equi-joins, pushing
  single-table predicates below the joins,
* ``extract_equi_keys`` — split explicit ``JOIN ... ON`` conditions into hash
  keys plus a residual predicate,
* ``rewrite_correlated_subqueries`` — decorrelate equality-correlated EXISTS /
  NOT EXISTS and scalar-aggregate subqueries into semi/anti joins and
  group-by joins (the standard unnesting strategy),
* ``push_filters`` — push conjuncts through inner joins,
* ``prune_columns`` — narrow base-table scans to the columns a query touches
  (critical with the paper's padded ``(n × m)`` string representation, since
  unused wide string columns would otherwise be converted and carried around).

Uncorrelated subqueries (scalar, IN, EXISTS) are left in expression form and
evaluated at runtime by both execution engines.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional

from repro.core.columnar import LogicalType
from repro.errors import UnsupportedOperationError
from repro.frontend import ast
from repro.frontend.logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSubqueryAlias,
    node_expressions,
    walk_plan,
)

_subquery_counter = itertools.count()


# ---------------------------------------------------------------------------
# small expression helpers
# ---------------------------------------------------------------------------


def split_conjuncts(expr: Optional[ast.Expr]) -> list[ast.Expr]:
    """Flatten a tree of ANDs into a list of conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def conjoin(conjuncts: Iterable[ast.Expr]) -> Optional[ast.Expr]:
    """Combine conjuncts back into a single AND expression (None if empty)."""
    result: Optional[ast.Expr] = None
    for conjunct in conjuncts:
        if result is None:
            result = conjunct
        else:
            combined = ast.BinaryOp("and", result, conjunct)
            combined.otype = LogicalType.BOOL
            result = combined
    return result


def columns_in(expr: ast.Expr) -> set[str]:
    """Resolved column names referenced by ``expr`` (OuterRefs excluded)."""
    names: set[str] = set()
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.OuterRef):
            continue
        if isinstance(node, ast.ColumnRef) and node.resolved is not None:
            names.add(node.resolved)
    # Remove columns that are only reachable through an OuterRef wrapper.
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.OuterRef):
            names.discard(node.ref.resolved)
    return names


def has_outer_refs(expr: ast.Expr) -> bool:
    return any(isinstance(node, ast.OuterRef) for node in ast.walk_expr(expr))


def has_subquery(expr: ast.Expr) -> bool:
    return any(
        isinstance(node, (ast.InSubquery, ast.ExistsSubquery, ast.ScalarSubquery))
        for node in ast.walk_expr(expr)
    )


def plan_has_outer_refs(plan: LogicalNode) -> bool:
    for node in walk_plan(plan):
        for expr in node_expressions(node):
            if has_outer_refs(expr):
                return True
    return False


def embedded_subplans(expr: ast.Expr) -> list[LogicalNode]:
    """Logical subplans embedded inside an expression (IN/EXISTS/scalar)."""
    plans = []
    for node in ast.walk_expr(expr):
        if isinstance(node, (ast.InSubquery, ast.ExistsSubquery, ast.ScalarSubquery)):
            if node.subplan is not None:
                plans.append(node.subplan)
    return plans


# ---------------------------------------------------------------------------
# rule: reorder comma joins (cross join + filter -> equi join tree)
# ---------------------------------------------------------------------------


def _cross_leaves(node: LogicalNode) -> list[LogicalNode]:
    if isinstance(node, LogicalJoin) and node.kind == "cross" and node.condition is None:
        return _cross_leaves(node.left) + _cross_leaves(node.right)
    return [node]


def _leaf_index_for(columns: set[str], leaf_columns: list[set[str]]) -> set[int]:
    touched = set()
    for i, names in enumerate(leaf_columns):
        if columns & names:
            touched.add(i)
    return touched


def _is_equi_join_pred(expr: ast.Expr, leaf_columns: list[set[str]]
                       ) -> Optional[tuple[int, ast.Expr, int, ast.Expr]]:
    """If ``expr`` is ``a = b`` with each side on a single distinct leaf, return
    (left_leaf, left_expr, right_leaf, right_expr)."""
    if not isinstance(expr, ast.BinaryOp) or expr.op != "=":
        return None
    if has_subquery(expr) or has_outer_refs(expr):
        return None
    left_cols, right_cols = columns_in(expr.left), columns_in(expr.right)
    if not left_cols or not right_cols:
        return None
    left_leaves = _leaf_index_for(left_cols, leaf_columns)
    right_leaves = _leaf_index_for(right_cols, leaf_columns)
    if len(left_leaves) != 1 or len(right_leaves) != 1:
        return None
    left_leaf, right_leaf = next(iter(left_leaves)), next(iter(right_leaves))
    if left_leaf == right_leaf:
        return None
    return left_leaf, expr.left, right_leaf, expr.right


def reorder_cross_joins(plan: LogicalNode) -> LogicalNode:
    """Rewrite Filter-over-cross-joins into a left-deep equi-join tree."""
    plan = _transform_children(plan, reorder_cross_joins)
    if not isinstance(plan, LogicalFilter):
        return plan
    leaves = _cross_leaves(plan.child)
    if len(leaves) < 2:
        return plan
    leaf_columns = [set(leaf.field_names()) for leaf in leaves]
    conjuncts = split_conjuncts(plan.condition)

    per_leaf: list[list[ast.Expr]] = [[] for _ in leaves]
    join_preds: list[tuple[int, ast.Expr, int, ast.Expr, ast.Expr]] = []
    remaining: list[ast.Expr] = []
    for conjunct in conjuncts:
        equi = _is_equi_join_pred(conjunct, leaf_columns)
        if equi is not None:
            left_leaf, left_expr, right_leaf, right_expr = equi
            join_preds.append((left_leaf, left_expr, right_leaf, right_expr, conjunct))
            continue
        if has_subquery(conjunct) or has_outer_refs(conjunct):
            remaining.append(conjunct)
            continue
        touched = _leaf_index_for(columns_in(conjunct), leaf_columns)
        if len(touched) == 1:
            per_leaf[next(iter(touched))].append(conjunct)
        else:
            remaining.append(conjunct)

    filtered_leaves: list[LogicalNode] = []
    for leaf, preds in zip(leaves, per_leaf):
        filtered_leaves.append(LogicalFilter(leaf, conjoin(preds)) if preds else leaf)

    joined = {0}
    current = filtered_leaves[0]
    used_preds: set[int] = set()
    while len(joined) < len(leaves):
        progressed = False
        for candidate in range(len(leaves)):
            if candidate in joined:
                continue
            applicable = [
                (i, pred) for i, pred in enumerate(join_preds)
                if i not in used_preds and (
                    (pred[0] in joined and pred[2] == candidate)
                    or (pred[2] in joined and pred[0] == candidate)
                )
            ]
            if not applicable:
                continue
            left_keys, right_keys = [], []
            for i, pred in applicable:
                used_preds.add(i)
                if pred[2] == candidate:
                    left_keys.append(pred[1])
                    right_keys.append(pred[3])
                else:
                    left_keys.append(pred[3])
                    right_keys.append(pred[1])
            current = LogicalJoin(
                current, filtered_leaves[candidate], kind="inner",
                left_keys=left_keys, right_keys=right_keys,
            )
            joined.add(candidate)
            progressed = True
            break
        if not progressed:
            # No connecting predicate: fall back to a cross join with the next
            # unjoined relation (rare; keeps the plan correct).
            candidate = next(i for i in range(len(leaves)) if i not in joined)
            current = LogicalJoin(current, filtered_leaves[candidate], kind="cross")
            joined.add(candidate)

    leftover = [pred[4] for i, pred in enumerate(join_preds) if i not in used_preds]
    remaining.extend(leftover)
    if remaining:
        return LogicalFilter(current, conjoin(remaining))
    return current


# ---------------------------------------------------------------------------
# rule: split explicit JOIN ... ON conditions into keys + residual
# ---------------------------------------------------------------------------


def extract_equi_keys(plan: LogicalNode) -> LogicalNode:
    plan = _transform_children(plan, extract_equi_keys)
    if not isinstance(plan, LogicalJoin) or plan.condition is None:
        return plan
    left_columns = set(plan.left.field_names())
    right_columns = set(plan.right.field_names())
    residual: list[ast.Expr] = []
    for conjunct in split_conjuncts(plan.condition):
        matched = False
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            lcols, rcols = columns_in(conjunct.left), columns_in(conjunct.right)
            if lcols and rcols:
                if lcols <= left_columns and rcols <= right_columns:
                    plan.left_keys.append(conjunct.left)
                    plan.right_keys.append(conjunct.right)
                    matched = True
                elif lcols <= right_columns and rcols <= left_columns:
                    plan.left_keys.append(conjunct.right)
                    plan.right_keys.append(conjunct.left)
                    matched = True
        if not matched:
            residual.append(conjunct)
    plan.condition = None
    plan.residual = conjoin(residual) if residual else None
    if plan.kind == "cross" and plan.left_keys:
        plan.kind = "inner"
    return plan


# ---------------------------------------------------------------------------
# rule: decorrelate subqueries
# ---------------------------------------------------------------------------


def _strip_correlated_predicates(plan: LogicalNode) -> tuple[
        LogicalNode, list[tuple[ast.Expr, ast.Expr]], list[ast.Expr]]:
    """Remove correlated conjuncts from every Filter inside ``plan``.

    Returns (new_plan, equalities, residuals) where ``equalities`` is a list of
    (outer_expr, inner_expr) pairs coming from ``outer = inner`` conjuncts and
    ``residuals`` are the remaining correlated conjuncts with OuterRef
    wrappers unwrapped (they reference outer columns directly).
    """
    equalities: list[tuple[ast.Expr, ast.Expr]] = []
    residuals: list[ast.Expr] = []

    def unwrap_outer(expr: ast.Expr) -> ast.Expr:
        def fn(node: ast.Expr) -> ast.Expr:
            return node.ref if isinstance(node, ast.OuterRef) else node
        return ast.transform_expr(expr, fn)

    def visit(node: LogicalNode) -> LogicalNode:
        new_children = [visit(child) for child in node.children()]
        if new_children:
            node.replace_children(new_children)
        if not isinstance(node, LogicalFilter):
            return node
        kept: list[ast.Expr] = []
        for conjunct in split_conjuncts(node.condition):
            if not has_outer_refs(conjunct):
                kept.append(conjunct)
                continue
            if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
                left_outer = isinstance(conjunct.left, ast.OuterRef)
                right_outer = isinstance(conjunct.right, ast.OuterRef)
                if left_outer and not right_outer and not has_outer_refs(conjunct.right):
                    equalities.append((conjunct.left.ref, conjunct.right))
                    continue
                if right_outer and not left_outer and not has_outer_refs(conjunct.left):
                    equalities.append((conjunct.right.ref, conjunct.left))
                    continue
            residuals.append(unwrap_outer(conjunct))
        condition = conjoin(kept)
        if condition is None:
            return node.child
        node.condition = condition
        return node

    return visit(plan), equalities, residuals


def _decorrelate_exists(child: LogicalNode, subquery: ast.ExistsSubquery,
                        negated: bool) -> LogicalNode:
    subplan = subquery.subplan
    # Existence does not depend on the subquery's projection; drop it so the
    # correlated key columns stay visible.
    while isinstance(subplan, (LogicalProject, LogicalDistinct, LogicalLimit)):
        if isinstance(subplan, LogicalLimit):
            break
        subplan = subplan.child
    subplan, equalities, residuals = _strip_correlated_predicates(subplan)
    if not equalities:
        raise UnsupportedOperationError(
            "correlated EXISTS without an equality predicate cannot be decorrelated"
        )
    left_keys = [outer for outer, _ in equalities]
    right_keys = [inner for _, inner in equalities]
    return LogicalJoin(
        child, subplan,
        kind="anti" if negated else "semi",
        left_keys=left_keys, right_keys=right_keys,
        residual=conjoin(residuals),
    )


def _decorrelate_scalar(child: LogicalNode, comparison: ast.BinaryOp,
                        subquery: ast.ScalarSubquery, subquery_on_left: bool
                        ) -> tuple[LogicalNode, ast.Expr]:
    """Rewrite ``expr CMP (correlated scalar agg subquery)`` into a join.

    Returns the new child plan and the replacement comparison expression.
    """
    subplan = subquery.subplan
    if not isinstance(subplan, LogicalProject):
        raise UnsupportedOperationError("correlated scalar subquery must be a projection")
    project = subplan
    if not isinstance(project.child, LogicalAggregate) or project.child.group_exprs:
        raise UnsupportedOperationError(
            "correlated scalar subqueries must compute a single ungrouped aggregate"
        )
    aggregate = project.child
    stripped, equalities, residuals = _strip_correlated_predicates(aggregate.child)
    if residuals or not equalities:
        raise UnsupportedOperationError(
            "only equality-correlated scalar subqueries are supported"
        )
    aggregate.child = stripped

    # Group the aggregate by the (inner) correlation keys and expose them.
    inner_key_names: list[str] = []
    for i, (_, inner) in enumerate(equalities):
        if isinstance(inner, ast.ColumnRef):
            name = inner.resolved or inner.display
        else:
            name = f"__corr_key_{i}"
        aggregate.group_exprs.append(inner)
        aggregate.group_names.append(name)
        aggregate.group_types.append(inner.otype or LogicalType.INT)
        passthrough = ast.ColumnRef(None, name.split(".")[-1], resolved=name)
        passthrough.otype = inner.otype
        project.exprs.append(passthrough)
        project.names.append(name.split(".")[-1])
        project.types.append(inner.otype or LogicalType.INT)
        inner_key_names.append(name.split(".")[-1])

    alias = f"__subquery_{next(_subquery_counter)}"
    aliased = LogicalSubqueryAlias(project, alias)
    value_field = aliased.schema()[0]

    left_keys = [outer for outer, _ in equalities]
    right_keys = []
    for key_name, (_, inner) in zip(inner_key_names, equalities):
        ref = ast.ColumnRef(None, key_name, resolved=f"{alias}.{key_name}")
        ref.otype = inner.otype
        right_keys.append(ref)

    joined = LogicalJoin(child, aliased, kind="inner",
                         left_keys=left_keys, right_keys=right_keys)

    value_ref = ast.ColumnRef(None, value_field.name.split(".")[-1],
                              resolved=value_field.name)
    value_ref.otype = value_field.ltype
    if subquery_on_left:
        replacement = ast.BinaryOp(comparison.op, value_ref, comparison.right)
    else:
        replacement = ast.BinaryOp(comparison.op, comparison.left, value_ref)
    replacement.otype = LogicalType.BOOL
    return joined, replacement


def rewrite_correlated_subqueries(plan: LogicalNode) -> LogicalNode:
    plan = _transform_children(plan, rewrite_correlated_subqueries)
    if not isinstance(plan, LogicalFilter):
        return plan

    child = plan.child
    kept: list[ast.Expr] = []
    for conjunct in split_conjuncts(plan.condition):
        # [NOT] EXISTS (...)
        exists, negated = _match_exists(conjunct)
        if exists is not None and plan_has_outer_refs(exists.subplan):
            child = _decorrelate_exists(child, exists, negated)
            continue
        # expr CMP (scalar subquery)
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ("=", "<", "<=", ">", ">=", "<>"):
            left_scalar = isinstance(conjunct.left, ast.ScalarSubquery)
            right_scalar = isinstance(conjunct.right, ast.ScalarSubquery)
            scalar = conjunct.left if left_scalar else conjunct.right if right_scalar else None
            if scalar is not None and plan_has_outer_refs(scalar.subplan):
                child, replacement = _decorrelate_scalar(
                    child, conjunct, scalar, subquery_on_left=left_scalar
                )
                kept.append(replacement)
                continue
        if has_outer_refs(conjunct) and has_subquery(conjunct):
            raise UnsupportedOperationError(
                "unsupported correlated subquery pattern in WHERE clause"
            )
        kept.append(conjunct)

    condition = conjoin(kept)
    if condition is None:
        return child
    plan.child = child
    plan.condition = condition
    return plan


def _match_exists(expr: ast.Expr) -> tuple[Optional[ast.ExistsSubquery], bool]:
    if isinstance(expr, ast.ExistsSubquery):
        return expr, expr.negated
    if isinstance(expr, ast.UnaryOp) and expr.op == "not" and isinstance(
        expr.operand, ast.ExistsSubquery
    ):
        return expr.operand, not expr.operand.negated
    return None, False


# ---------------------------------------------------------------------------
# rule: push filters through inner joins
# ---------------------------------------------------------------------------


def push_filters(plan: LogicalNode) -> LogicalNode:
    plan = _transform_children(plan, push_filters)
    if not isinstance(plan, LogicalFilter):
        return plan
    child = plan.child
    if isinstance(child, LogicalFilter):
        merged = conjoin(split_conjuncts(child.condition) + split_conjuncts(plan.condition))
        return push_filters(LogicalFilter(child.child, merged))
    if not isinstance(child, LogicalJoin) or child.kind not in ("inner", "cross"):
        return plan
    left_columns = set(child.left.field_names())
    right_columns = set(child.right.field_names())
    left_push, right_push, kept = [], [], []
    for conjunct in split_conjuncts(plan.condition):
        if has_subquery(conjunct) or has_outer_refs(conjunct):
            kept.append(conjunct)
            continue
        cols = columns_in(conjunct)
        if cols and cols <= left_columns:
            left_push.append(conjunct)
        elif cols and cols <= right_columns:
            right_push.append(conjunct)
        else:
            kept.append(conjunct)
    if not left_push and not right_push:
        return plan
    if left_push:
        child.left = push_filters(LogicalFilter(child.left, conjoin(left_push)))
    if right_push:
        child.right = push_filters(LogicalFilter(child.right, conjoin(right_push)))
    if kept:
        return LogicalFilter(child, conjoin(kept))
    return child


# ---------------------------------------------------------------------------
# rule: prune unused scan columns
# ---------------------------------------------------------------------------


def _collect_used_columns(plan: LogicalNode, used: set[str]) -> None:
    for node in walk_plan(plan):
        for expr in node_expressions(node):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, ast.ColumnRef) and sub.resolved:
                    used.add(sub.resolved)
                if isinstance(sub, ast.OuterRef) and sub.ref.resolved:
                    used.add(sub.ref.resolved)
            for subplan in embedded_subplans(expr):
                _collect_used_columns(subplan, used)
        if isinstance(node, LogicalSubqueryAlias):
            # alias.column names map 1:1 onto the child's column order.
            child_fields = node.child.schema()
            for alias_field, child_field in zip(node.schema(), child_fields):
                if alias_field.name in used:
                    used.add(child_field.name)
        if isinstance(node, (LogicalDistinct,)):
            used.update(node.field_names())


def _narrow_scans(plan: LogicalNode, used: set[str]) -> None:
    for node in walk_plan(plan):
        for expr in node_expressions(node):
            for subplan in embedded_subplans(expr):
                _narrow_scans(subplan, used)
        if isinstance(node, LogicalScan):
            narrowed = [f for f in node.fields if f.name in used]
            if narrowed:
                node.fields = narrowed


def prune_columns(plan: LogicalNode) -> LogicalNode:
    used: set[str] = set()
    _collect_used_columns(plan, used)
    _narrow_scans(plan, used)
    return plan


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _transform_children(plan: LogicalNode, fn) -> LogicalNode:
    children = plan.children()
    if children:
        plan.replace_children([fn(child) for child in children])
    return plan


def _optimize_embedded_subplans(plan: LogicalNode) -> None:
    """Optimize subplans embedded in expressions (uncorrelated runtime subqueries
    and correlated ones prior to decorrelation)."""
    for node in walk_plan(plan):
        for expr in node_expressions(node):
            for sub in ast.walk_expr(expr):
                if isinstance(sub, (ast.InSubquery, ast.ExistsSubquery, ast.ScalarSubquery)):
                    if sub.subplan is not None:
                        sub.subplan = _optimize_no_prune(sub.subplan)


def _optimize_no_prune(plan: LogicalNode) -> LogicalNode:
    _optimize_embedded_subplans(plan)
    plan = reorder_cross_joins(plan)
    plan = extract_equi_keys(plan)
    plan = rewrite_correlated_subqueries(plan)
    plan = push_filters(plan)
    return plan


def optimize(plan: LogicalNode) -> LogicalNode:
    """Apply all optimizer rules and return the rewritten plan."""
    plan = _optimize_no_prune(plan)
    plan = prune_columns(plan)
    return plan
