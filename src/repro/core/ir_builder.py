"""Parsing layer: the frontend's optimized plan → TQP IR (paper §2.2, layer 1)."""

from __future__ import annotations

from repro.core import ir
from repro.errors import PlanningError
from repro.frontend import logical as lp


def build_ir(plan: lp.LogicalNode) -> ir.IRNode:
    """Convert an optimized logical plan tree into the TQP IR.

    A join with equality keys becomes a ``hash_join`` (its residual beside
    the keys), one without a ``nested_loop_join`` on
    :attr:`~repro.frontend.logical.LogicalJoin.predicate`.
    """
    children = [build_ir(child) for child in plan.children()]
    fields = list(plan.schema())
    if isinstance(plan, lp.LogicalScan):
        attrs = {"table": plan.table, "alias": plan.alias,
                 "fields": list(plan.fields)}
        return ir.IRNode(ir.SCAN, children, attrs, fields)
    if isinstance(plan, lp.LogicalFilter):
        return ir.IRNode(ir.FILTER, children, {"condition": plan.condition},
                         fields)
    if isinstance(plan, lp.LogicalProject):
        attrs = {"exprs": list(plan.exprs), "names": list(plan.names),
                 "types": list(plan.types)}
        return ir.IRNode(ir.PROJECT, children, attrs, fields)
    if isinstance(plan, lp.LogicalJoin):
        if plan.left_keys:
            attrs = {"kind": plan.kind, "left_keys": list(plan.left_keys),
                     "right_keys": list(plan.right_keys),
                     "residual": plan.residual}
            return ir.IRNode(ir.HASH_JOIN, children, attrs, fields)
        attrs = {"kind": plan.kind, "condition": plan.predicate}
        return ir.IRNode(ir.NESTED_LOOP_JOIN, children, attrs, fields)
    if isinstance(plan, lp.LogicalAggregate):
        attrs = {"group_exprs": list(plan.group_exprs),
                 "group_names": list(plan.group_names),
                 "group_types": list(plan.group_types),
                 "aggregates": list(plan.aggregates)}
        return ir.IRNode(ir.HASH_AGGREGATE, children, attrs, fields)
    if isinstance(plan, lp.LogicalSort):
        return ir.IRNode(ir.SORT, children, {"keys": list(plan.keys)}, fields)
    if isinstance(plan, lp.LogicalLimit):
        return ir.IRNode(ir.LIMIT, children, {"count": plan.count}, fields)
    if isinstance(plan, lp.LogicalDistinct):
        return ir.IRNode(ir.DISTINCT, children, {}, fields)
    if isinstance(plan, lp.LogicalSubqueryAlias):
        return ir.IRNode(ir.RENAME, children,
                         {"output_fields": list(fields)}, fields)
    raise PlanningError(f"cannot build IR for {type(plan).__name__}")
