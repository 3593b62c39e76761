"""Abstract syntax tree for SQL queries and expressions.

Expression nodes are shared by every layer of the stack: the parser produces
them, the analyzer annotates them with logical types and resolved column
names, the optimizer rewrites them, and both the TQP tensor compiler and the
row-engine baseline evaluate them.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Optional, Sequence

from repro.core.columnar import LogicalType


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class Expr:
    """Base class for all expression nodes."""

    #: Logical result type, filled in by the analyzer.
    otype: Optional[LogicalType] = dataclasses.field(default=None, init=False, repr=False)

    def children(self) -> list["Expr"]:
        return []

    def replace_children(self, new_children: Sequence["Expr"]) -> None:
        if new_children:
            raise NotImplementedError(
                f"{type(self).__name__} does not accept children"
            )


@dataclasses.dataclass(eq=False)
class Literal(Expr):
    """A constant: number, string, boolean, date (epoch ns), or NULL."""

    value: Any
    kind: LogicalType | None = None  # explicit kind for date literals etc.


@dataclasses.dataclass(eq=False)
class ParameterExpr(Expr):
    """A bind-parameter marker: ``:name`` or ``?`` (positional).

    Parameters are the unit of the prepared-statement API: the analyzer infers
    their logical type from comparison/arithmetic context (or from ``kind``, a
    hint attached by auto-parameterization), the tensor compiler turns each
    one into a *runtime graph input*, and the executor feeds bound values in
    at execution time — so one traced program serves every binding.
    """

    name: str
    #: Lexical position (0-based order of appearance in the statement text);
    #: drives positional binding for ``?`` markers.
    position: int = 0
    #: Optional declared/hinted type (set by auto-parameterization, which
    #: knows the natural type of the literal it lifted).
    kind: LogicalType | None = None
    #: True for ``?`` markers (bound by position), False for ``:name``.
    positional: bool = False


@dataclasses.dataclass(eq=False)
class IntervalLiteral(Expr):
    """``INTERVAL '<value>' <unit>`` — unit in {day, month, year}."""

    value: int
    unit: str


@dataclasses.dataclass(eq=False)
class ColumnRef(Expr):
    """A (possibly qualified) column reference.

    After analysis, ``resolved`` holds the fully qualified output column name
    of the child plan node supplying the value.
    """

    table: Optional[str]
    name: str
    resolved: Optional[str] = None

    @property
    def display(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclasses.dataclass(eq=False)
class OuterRef(Expr):
    """A reference to a column of an *outer* query inside a correlated subquery."""

    ref: ColumnRef


@dataclasses.dataclass(eq=False)
class Star(Expr):
    """``*`` or ``alias.*`` in a SELECT list or ``count(*)``."""

    table: Optional[str] = None


@dataclasses.dataclass(eq=False)
class FuncCall(Expr):
    """A function or aggregate call."""

    name: str
    args: list[Expr]
    distinct: bool = False

    def children(self) -> list[Expr]:
        return list(self.args)

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        self.args = list(new_children)


@dataclasses.dataclass(eq=False)
class BinaryOp(Expr):
    """Binary arithmetic / comparison / logical operation."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> list[Expr]:
        return [self.left, self.right]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        self.left, self.right = new_children


@dataclasses.dataclass(eq=False)
class UnaryOp(Expr):
    """Unary operation: ``-x`` or ``NOT x``."""

    op: str
    operand: Expr

    def children(self) -> list[Expr]:
        return [self.operand]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        (self.operand,) = new_children


@dataclasses.dataclass(eq=False)
class CaseWhen(Expr):
    """``CASE WHEN cond THEN value ... ELSE value END``; the parser gives a
    CASE without ELSE an ``ELSE NULL``."""

    whens: list[tuple[Expr, Expr]]
    else_value: Expr

    def children(self) -> list[Expr]:
        out: list[Expr] = []
        for cond, value in self.whens:
            out.extend([cond, value])
        out.append(self.else_value)
        return out

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        *pairs, self.else_value = new_children
        self.whens = list(zip(pairs[::2], pairs[1::2]))


@dataclasses.dataclass(eq=False)
class Cast(Expr):
    """``CAST(expr AS type)``."""

    operand: Expr
    target: str

    def children(self) -> list[Expr]:
        return [self.operand]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        (self.operand,) = new_children


@dataclasses.dataclass(eq=False)
class LikeExpr(Expr):
    """``expr LIKE 'pattern'`` (patterns use the %% wildcard; one with ``_``
    is refused at analysis)."""

    operand: Expr
    pattern: str

    def children(self) -> list[Expr]:
        return [self.operand]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        (self.operand,) = new_children


@dataclasses.dataclass(eq=False)
class InList(Expr):
    """``expr IN (v1, v2, ...)``; the parser lowers any other list than one of
    constants (``parser._is_constant``) to an ``OR`` of equalities."""

    operand: Expr
    items: list[Expr]

    def children(self) -> list[Expr]:
        return [self.operand, *self.items]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        new_children = list(new_children)
        self.operand = new_children[0]
        self.items = new_children[1:]


@dataclasses.dataclass(eq=False)
class InSubquery(Expr):
    """``expr IN (SELECT ...)``; ``subplan`` is filled by the analyzer."""

    operand: Expr
    query: Any  # SelectStatement before analysis
    subplan: Any = None  # LogicalNode after analysis

    def children(self) -> list[Expr]:
        return [self.operand]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        (self.operand,) = new_children


@dataclasses.dataclass(eq=False)
class ExistsSubquery(Expr):
    """``EXISTS (SELECT ...)``."""

    query: Any
    subplan: Any = None


@dataclasses.dataclass(eq=False)
class ScalarSubquery(Expr):
    """A subquery used as a scalar value."""

    query: Any
    subplan: Any = None


@dataclasses.dataclass(eq=False)
class SubstringExpr(Expr):
    """``SUBSTRING(expr FROM start [FOR length])`` (1-based start)."""

    operand: Expr
    start: Expr
    length: Optional[Expr] = None

    def children(self) -> list[Expr]:
        out = [self.operand, self.start]
        if self.length is not None:
            out.append(self.length)
        return out

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        new_children = list(new_children)
        self.operand, self.start = new_children[0], new_children[1]
        self.length = new_children[2] if len(new_children) > 2 else None


@dataclasses.dataclass(eq=False)
class IsNull(Expr):
    """``expr IS NULL``."""

    operand: Expr

    def children(self) -> list[Expr]:
        return [self.operand]

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        (self.operand,) = new_children


@dataclasses.dataclass(eq=False)
class PredictExpr(Expr):
    """``PREDICT('model_name', col1, col2, ...)`` — the paper's §3.3 extension."""

    model_name: str
    args: list[Expr]

    def children(self) -> list[Expr]:
        return list(self.args)

    def replace_children(self, new_children: Sequence[Expr]) -> None:
        self.args = list(new_children)


# ---------------------------------------------------------------------------
# expression traversal helpers
# ---------------------------------------------------------------------------


def transform_expr(expr: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up transformation: apply ``fn`` to every node, children first."""
    children = expr.children()
    if children:
        expr.replace_children([transform_expr(child, fn) for child in children])
    return fn(expr)


def walk_expr(expr: Expr):
    """Yield every node of the expression tree (pre-order)."""
    yield expr
    for child in expr.children():
        yield from walk_expr(child)


def contains_aggregate(expr: Expr) -> bool:
    """True if the expression contains an aggregate function call."""
    from repro.frontend.functions import is_aggregate_name

    for node in walk_expr(expr):
        if isinstance(node, FuncCall) and is_aggregate_name(node.name):
            return True
    return False


# ---------------------------------------------------------------------------
# query-level AST
# ---------------------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclasses.dataclass(eq=False)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclasses.dataclass(eq=False)
class FromItem:
    """Base class for FROM clause items."""


@dataclasses.dataclass(eq=False)
class TableRef(FromItem):
    name: str
    alias: Optional[str] = None

    @property
    def output_alias(self) -> str:
        return self.alias or self.name


@dataclasses.dataclass(eq=False)
class SubquerySource(FromItem):
    query: "SelectStatement"
    alias: str


@dataclasses.dataclass(eq=False)
class JoinClause(FromItem):
    left: FromItem
    right: FromItem
    kind: str  # inner, left, right, full, cross
    condition: Optional[Expr] = None


@dataclasses.dataclass(eq=False)
class SelectStatement:
    """A parsed (possibly nested) SELECT statement."""

    select_items: list[SelectItem]
    from_items: list[FromItem]
    where: Optional[Expr] = None
    group_by: list[Expr] = dataclasses.field(default_factory=list)
    having: Optional[Expr] = None
    order_by: list[OrderItem] = dataclasses.field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False
    ctes: list[tuple[str, "SelectStatement"]] = dataclasses.field(default_factory=list)
