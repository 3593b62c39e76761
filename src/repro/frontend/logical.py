"""Logical plan nodes produced by the analyzer and rewritten by the optimizer.

Every node exposes an output schema as an ordered list of :class:`Field`
objects with *fully qualified* column names (``alias.column`` for base tables,
the projection alias for derived columns), so downstream layers never need to
re-resolve names.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.core.columnar import LogicalType
from repro.frontend.ast import Expr


@dataclasses.dataclass(frozen=True)
class Field:
    """One output column of a plan node."""

    name: str
    ltype: LogicalType


@dataclasses.dataclass(eq=False)
class AggregateCall:
    """One aggregate computed by a :class:`LogicalAggregate` node."""

    func: str                 # sum, avg, min, max, count
    expr: Optional[Expr]      # None for count(*)
    output_name: str
    distinct: bool = False
    output_type: LogicalType = LogicalType.FLOAT


class LogicalNode:
    """Base class: every logical operator has children and an output schema."""

    def children(self) -> list["LogicalNode"]:
        raise NotImplementedError

    def replace_children(self, new_children: list["LogicalNode"]) -> None:
        raise NotImplementedError

    def schema(self) -> list[Field]:
        raise NotImplementedError

    def field_names(self) -> list[str]:
        return [f.name for f in self.schema()]

    # -- pretty printing ---------------------------------------------------

    def describe(self) -> str:
        return type(self).__name__.replace("Logical", "")

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclasses.dataclass(eq=False)
class LogicalScan(LogicalNode):
    """Scan of a registered base table under an alias."""

    table: str
    alias: str
    fields: list[Field]

    def children(self) -> list[LogicalNode]:
        return []

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        if new_children:
            raise ValueError("scan has no children")

    def schema(self) -> list[Field]:
        return self.fields

    def describe(self) -> str:
        return f"Scan({self.table} as {self.alias})"


@dataclasses.dataclass(eq=False)
class LogicalFilter(LogicalNode):
    child: LogicalNode
    condition: Expr

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        return self.child.schema()

    def describe(self) -> str:
        return "Filter"


@dataclasses.dataclass(eq=False)
class LogicalProject(LogicalNode):
    child: LogicalNode
    exprs: list[Expr]
    names: list[str]
    types: list[LogicalType]

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        return [Field(n, t) for n, t in zip(self.names, self.types)]

    def describe(self) -> str:
        return f"Project({', '.join(self.names)})"


@dataclasses.dataclass(eq=False)
class LogicalJoin(LogicalNode):
    """Join of two children.

    ``kind`` is one of ``inner``, ``left``, ``semi``, ``anti``, ``cross``.
    ``condition`` is an arbitrary boolean expression over both sides; the
    optimizer extracts equality keys into ``left_keys`` / ``right_keys`` and
    leaves the remainder in ``residual``.  A join with keys runs as a hash
    join, one without as a nested-loop join; either tests :attr:`predicate`
    on the pairs it forms.
    """

    left: LogicalNode
    right: LogicalNode
    kind: str
    condition: Optional[Expr] = None
    left_keys: list[Expr] = dataclasses.field(default_factory=list)
    right_keys: list[Expr] = dataclasses.field(default_factory=list)
    residual: Optional[Expr] = None

    def children(self) -> list[LogicalNode]:
        return [self.left, self.right]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        self.left, self.right = new_children

    def schema(self) -> list[Field]:
        if self.kind in ("semi", "anti"):
            return self.left.schema()
        right_fields = self.right.schema()
        if self.kind == "left":
            # Columns of the right side become nullable; logical types unchanged.
            right_fields = list(right_fields)
        return list(self.left.schema()) + right_fields

    @property
    def predicate(self) -> Optional[Expr]:
        """What the join tests on a (left, right) pair beyond its keys: the
        residual, or the whole condition of a join nothing was split from."""
        if self.left_keys or self.residual is not None:
            return self.residual
        return self.condition

    def describe(self) -> str:
        return f"Join[{self.kind}]"


@dataclasses.dataclass(eq=False)
class LogicalAggregate(LogicalNode):
    child: LogicalNode
    group_exprs: list[Expr]
    group_names: list[str]
    group_types: list[LogicalType]
    aggregates: list[AggregateCall]

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        fields = [Field(n, t) for n, t in zip(self.group_names, self.group_types)]
        fields.extend(Field(a.output_name, a.output_type) for a in self.aggregates)
        return fields

    def describe(self) -> str:
        aggs = ", ".join(f"{a.func}->{a.output_name}" for a in self.aggregates)
        return f"Aggregate(groups={self.group_names}, aggs=[{aggs}])"


@dataclasses.dataclass(eq=False)
class LogicalSort(LogicalNode):
    child: LogicalNode
    keys: list[tuple[Expr, bool]]  # (expression, ascending)

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        return self.child.schema()

    def describe(self) -> str:
        return "Sort"


@dataclasses.dataclass(eq=False)
class LogicalLimit(LogicalNode):
    child: LogicalNode
    count: int

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        return self.child.schema()

    def describe(self) -> str:
        return f"Limit({self.count})"


@dataclasses.dataclass(eq=False)
class LogicalDistinct(LogicalNode):
    child: LogicalNode

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        return self.child.schema()

    def describe(self) -> str:
        return "Distinct"


@dataclasses.dataclass(eq=False)
class LogicalSubqueryAlias(LogicalNode):
    """Renames the output of a derived table / CTE to ``alias.column``."""

    child: LogicalNode
    alias: str

    def children(self) -> list[LogicalNode]:
        return [self.child]

    def replace_children(self, new_children: list[LogicalNode]) -> None:
        (self.child,) = new_children

    def schema(self) -> list[Field]:
        out = []
        for field in self.child.schema():
            base = field.name.split(".")[-1]
            out.append(Field(f"{self.alias}.{base}", field.ltype))
        return out

    def describe(self) -> str:
        return f"SubqueryAlias({self.alias})"


def node_expressions(node: LogicalNode) -> list[Expr]:
    """All expressions attached directly to ``node``."""
    if isinstance(node, LogicalFilter):
        return [node.condition]
    if isinstance(node, LogicalProject):
        return list(node.exprs)
    if isinstance(node, LogicalJoin):
        exprs = list(node.left_keys) + list(node.right_keys)
        if node.condition is not None:
            exprs.append(node.condition)
        if node.residual is not None:
            exprs.append(node.residual)
        return exprs
    if isinstance(node, LogicalAggregate):
        exprs = list(node.group_exprs)
        exprs.extend(a.expr for a in node.aggregates if a.expr is not None)
        return exprs
    if isinstance(node, LogicalSort):
        return [key for key, _ in node.keys]
    return []


def walk_plan(node: LogicalNode):
    """Yield every node of the plan tree (pre-order)."""
    yield node
    for child in node.children():
        yield from walk_plan(child)
