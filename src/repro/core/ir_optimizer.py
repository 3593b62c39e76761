"""Optimization layer: rule-based IR-to-IR transformations (paper §2.2, layer 2).

The rules operate purely on the IR so they are independent of both the
frontend and the tensor backend:

* ``fuse_filters`` — merge chains of filters into a single predicate so one
  boolean mask is materialized instead of several intermediate tables,
* ``remove_identity_projects`` — drop projections that merely pass through the
  child's columns in order,
* ``remove_identity_renames`` — drop renames whose output names equal the
  child's names.

The ablation benchmark measures their combined effect.
"""

from __future__ import annotations

from typing import Callable

from repro.core import ir
from repro.core.columnar import LogicalType
from repro.frontend import ast


def _transform(node: ir.IRNode, fn: Callable[[ir.IRNode], ir.IRNode]) -> ir.IRNode:
    node.children = [_transform(child, fn) for child in node.children]
    return fn(node)


def fuse_filters(root: ir.IRNode) -> ir.IRNode:
    """Filter(Filter(x, a), b) → Filter(x, a AND b)."""

    def rule(node: ir.IRNode) -> ir.IRNode:
        if node.op != ir.FILTER:
            return node
        child = node.children[0]
        if child.op != ir.FILTER:
            return node
        combined = ast.BinaryOp("and", child.attrs["condition"], node.attrs["condition"])
        combined.otype = LogicalType.BOOL
        return ir.IRNode(ir.FILTER, child.children, {"condition": combined}, node.fields)

    return _transform(root, rule)


def remove_identity_projects(root: ir.IRNode) -> ir.IRNode:
    """Drop projections that output exactly the child's columns, in order."""

    def rule(node: ir.IRNode) -> ir.IRNode:
        if node.op != ir.PROJECT:
            return node
        child = node.children[0]
        child_names = child.field_names()
        names = node.attrs["names"]
        exprs = node.attrs["exprs"]
        if len(names) != len(child_names):
            return node
        for expr, name, child_name in zip(exprs, names, child_names):
            if not isinstance(expr, ast.ColumnRef):
                return node
            if (expr.resolved or expr.display) != child_name or name != child_name:
                return node
        return child

    return _transform(root, rule)


def remove_identity_renames(root: ir.IRNode) -> ir.IRNode:
    """Drop renames whose output field names match the child's names."""

    def rule(node: ir.IRNode) -> ir.IRNode:
        if node.op != ir.RENAME:
            return node
        child = node.children[0]
        output_names = [f.name for f in node.attrs["output_fields"]]
        if output_names == child.field_names():
            return child
        return node

    return _transform(root, rule)


DEFAULT_RULES = (fuse_filters, remove_identity_projects, remove_identity_renames)


def optimize_ir(root: ir.IRNode, rules=DEFAULT_RULES) -> ir.IRNode:
    """Apply the IR rewrite rules in order and return the rewritten root."""
    for rule in rules:
        root = rule(root)
    return root
