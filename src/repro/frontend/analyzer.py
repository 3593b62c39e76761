"""Semantic analysis: AST → resolved logical plan.

The analyzer binds column references against the catalog, infers expression
types, expands ``*``, splits aggregates out of SELECT/HAVING/ORDER BY into an
Aggregate node, plans derived tables and CTEs, and recursively analyzes
subqueries (marking references to outer columns with :class:`OuterRef` so the
optimizer can decorrelate them).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.columnar import LogicalType
from repro.errors import AnalysisError, UnsupportedOperationError
from repro.frontend import ast
from repro.frontend.catalog import Catalog
from repro.frontend.functions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    check_like_pattern,
    is_aggregate_name,
)
from repro.frontend.logical import (
    AggregateCall,
    Field,
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalSubqueryAlias,
)


#: The type of a NULL literal that no comparison or arithmetic partner, CASE
#: branch or IN item types (``select null``): an INT NULL.
NULL_LITERAL_TYPE = LogicalType.INT


# ---------------------------------------------------------------------------
# name scopes
# ---------------------------------------------------------------------------


class Scope:
    """Resolves column names against a plan schema, chaining to outer scopes."""

    def __init__(self, fields: list[Field], outer: Optional["Scope"] = None):
        self.fields = fields
        self.outer = outer
        self._by_qualified: dict[str, Field] = {f.name: f for f in fields}
        self._by_base: dict[str, list[Field]] = {}
        for field in fields:
            base = field.name.split(".")[-1]
            self._by_base.setdefault(base, []).append(field)

    def resolve_local(self, table: Optional[str], name: str) -> Optional[Field]:
        if table is not None:
            return self._by_qualified.get(f"{table}.{name}")
        if name in self._by_qualified:
            return self._by_qualified[name]
        candidates = self._by_base.get(name, [])
        if len(candidates) > 1:
            raise AnalysisError(f"ambiguous column reference: {name!r}")
        return candidates[0] if candidates else None

    def resolve(self, table: Optional[str], name: str) -> tuple[Field, bool]:
        """Resolve a reference; returns (field, is_outer)."""
        field = self.resolve_local(table, name)
        if field is not None:
            return field, False
        if self.outer is not None:
            outer_field, _ = self.outer.resolve(table, name)
            return outer_field, True
        display = f"{table}.{name}" if table else name
        raise AnalysisError(f"cannot resolve column {display!r}")


# ---------------------------------------------------------------------------
# expression keys (structural equality used for grouping / dedup)
# ---------------------------------------------------------------------------


def expr_key(expr: ast.Expr) -> str:
    """A canonical structural key for a resolved expression."""
    if isinstance(expr, ast.ColumnRef):
        return f"col({expr.resolved or expr.display})"
    if isinstance(expr, ast.OuterRef):
        return f"outer({expr.ref.resolved})"
    if isinstance(expr, ast.ParameterExpr):
        return f"param({expr.name})"
    if isinstance(expr, ast.Literal):
        return f"lit({expr.kind},{expr.value!r})"
    if isinstance(expr, ast.IntervalLiteral):
        return f"interval({expr.value},{expr.unit})"
    if isinstance(expr, ast.BinaryOp):
        return f"({expr_key(expr.left)} {expr.op} {expr_key(expr.right)})"
    if isinstance(expr, ast.UnaryOp):
        return f"({expr.op} {expr_key(expr.operand)})"
    if isinstance(expr, ast.FuncCall):
        args = ",".join(expr_key(a) for a in expr.args)
        return f"{expr.name}({'distinct ' if expr.distinct else ''}{args})"
    if isinstance(expr, ast.CaseWhen):
        parts = [f"when {expr_key(c)} then {expr_key(v)}" for c, v in expr.whens]
        return f"case({' '.join(parts)} else {expr_key(expr.else_value)})"
    if isinstance(expr, ast.Cast):
        return f"cast({expr_key(expr.operand)} as {expr.target})"
    if isinstance(expr, ast.LikeExpr):
        return f"like({expr_key(expr.operand)},{expr.pattern!r})"
    if isinstance(expr, ast.InList):
        items = ",".join(expr_key(i) for i in expr.items)
        return f"inlist({expr_key(expr.operand)},[{items}])"
    if isinstance(expr, ast.SubstringExpr):
        length = expr_key(expr.length) if expr.length is not None else ""
        return f"substr({expr_key(expr.operand)},{expr_key(expr.start)},{length})"
    if isinstance(expr, ast.IsNull):
        return f"isnull({expr_key(expr.operand)})"
    if isinstance(expr, ast.PredictExpr):
        args = ",".join(expr_key(a) for a in expr.args)
        return f"predict({expr.model_name},{args})"
    if isinstance(expr, ast.Star):
        return f"star({expr.table})"
    # Subqueries: identity-based (never merged).
    return f"{type(expr).__name__}@{id(expr)}"


# ---------------------------------------------------------------------------
# the analyzer
# ---------------------------------------------------------------------------


class Analyzer:
    """Turns parsed SELECT statements into resolved logical plans.

    Args:
        catalog: table schemas for name resolution.
        param_types: optional type hints for bind parameters, by name.  Used
            by auto-parameterization, which knows the natural type of each
            literal it lifted; explicit ``:name`` / ``?`` markers are instead
            typed from their comparison/arithmetic context.
    """

    def __init__(self, catalog: Catalog,
                 param_types: Optional[dict[str, LogicalType]] = None):
        self.catalog = catalog
        self.param_hints = dict(param_types or {})
        #: Inferred type per parameter name (statement-wide).
        self._param_types: dict[str, LogicalType] = {}
        #: Every resolved occurrence, so a type learned late back-propagates.
        self._param_nodes: dict[str, list[ast.ParameterExpr]] = {}
        #: NULL literals, typed by their context or else by the default.
        self._null_literals: list[ast.Literal] = []

    # -- public API -----------------------------------------------------------

    def analyze(self, statement: ast.SelectStatement) -> LogicalNode:
        cte_map: dict[str, LogicalNode] = {}
        for name, query in statement.ctes:
            cte_map[name] = self._plan_select(query, outer_scope=None, cte_map=dict(cte_map))
        plan = self._plan_select(statement, outer_scope=None, cte_map=cte_map)
        for literal in self._null_literals:
            self._require_type(literal)
        untyped = sorted(name for name, nodes in self._param_nodes.items()
                         if any(node.otype is None for node in nodes))
        if untyped:
            raise AnalysisError(
                "cannot infer the type of parameter(s) "
                + ", ".join(f":{name}" for name in untyped)
                + "; use each parameter in a comparison or arithmetic "
                "expression with a typed column"
            )
        return plan

    # -- parameter typing -----------------------------------------------------

    def _note_param_type(self, name: str, ltype: LogicalType) -> None:
        current = self._param_types.get(name)
        if current is not None and current != ltype:
            if {current, ltype} == {LogicalType.INT, LogicalType.FLOAT}:
                ltype = LogicalType.FLOAT
            else:
                raise AnalysisError(
                    f"parameter :{name} is used with conflicting types "
                    f"{current.value} and {ltype.value}"
                )
        self._param_types[name] = ltype
        for node in self._param_nodes.get(name, []):
            node.otype = ltype

    def _unify_params(self, *exprs: ast.Expr) -> None:
        """Give untyped parameters and NULL literals the type of a typed
        sibling operand."""
        anchor = next((e.otype for e in exprs
                       if e.otype is not None
                       and not isinstance(e, ast.ParameterExpr)), None)
        if anchor is None:
            anchor = next((e.otype for e in exprs if e.otype is not None), None)
        if anchor is None:
            return
        for expr in exprs:
            if expr.otype is not None:
                continue
            if isinstance(expr, ast.ParameterExpr):
                self._note_param_type(expr.name, anchor)
            elif isinstance(expr, ast.Literal):
                expr.otype = anchor

    # -- SELECT planning -----------------------------------------------------------

    def _plan_select(self, stmt: ast.SelectStatement, outer_scope: Optional[Scope],
                     cte_map: dict[str, LogicalNode]) -> LogicalNode:
        if not stmt.from_items:
            raise UnsupportedOperationError("SELECT without FROM is not supported")
        plan = self._plan_from(stmt.from_items, cte_map, outer_scope)
        scope = Scope(plan.schema(), outer_scope)

        if stmt.where is not None:
            condition = self._resolve(stmt.where, scope, cte_map, allow_aggregates=False)
            plan = LogicalFilter(plan, condition)

        select_exprs: list[ast.Expr] = []
        select_names: list[str] = []
        for i, item in enumerate(stmt.select_items):
            if isinstance(item.expr, ast.Star):
                for field in self._expand_star(item.expr, scope):
                    ref = ast.ColumnRef(None, field.name.split(".")[-1], resolved=field.name)
                    ref.otype = field.ltype
                    select_exprs.append(ref)
                    select_names.append(field.name.split(".")[-1])
                continue
            resolved = self._resolve(item.expr, scope, cte_map, allow_aggregates=True)
            select_exprs.append(resolved)
            name = item.alias or self._default_name(item.expr, i)
            if not item.alias and name in select_names:
                name = f"col{i}"
            select_names.append(name)

        having_expr = None
        if stmt.having is not None:
            having_expr = self._resolve(stmt.having, scope, cte_map, allow_aggregates=True)

        group_exprs = [self._resolve(g, scope, cte_map, allow_aggregates=False)
                       for g in stmt.group_by]

        needs_aggregate = bool(group_exprs) or having_expr is not None or any(
            ast.contains_aggregate(e) for e in select_exprs
        )

        if needs_aggregate:
            plan, select_exprs, having_expr = self._plan_aggregate(
                plan, group_exprs, select_exprs, having_expr
            )
            if having_expr is not None:
                plan = LogicalFilter(plan, having_expr)

        project_types = [self._require_type(e) for e in select_exprs]
        project = LogicalProject(plan, select_exprs, select_names, project_types)
        plan = project

        if stmt.distinct:
            plan = LogicalDistinct(plan)

        if stmt.order_by:
            fallback = project if not stmt.distinct else None
            plan = self._plan_order_by(plan, stmt.order_by, cte_map, fallback)

        if stmt.limit is not None:
            plan = LogicalLimit(plan, stmt.limit)
        return plan

    # -- FROM planning ------------------------------------------------------------------

    def _plan_from(self, items: list[ast.FromItem], cte_map: dict[str, LogicalNode],
                   outer_scope: Optional[Scope]) -> LogicalNode:
        plans = [self._plan_from_item(item, cte_map, outer_scope) for item in items]
        plan = plans[0]
        for right in plans[1:]:
            plan = LogicalJoin(plan, right, kind="cross")
        return plan

    def _plan_from_item(self, item: ast.FromItem, cte_map: dict[str, LogicalNode],
                        outer_scope: Optional[Scope]) -> LogicalNode:
        if isinstance(item, ast.TableRef):
            alias = item.output_alias
            if item.name in cte_map:
                return LogicalSubqueryAlias(cte_map[item.name], alias)
            schema = self.catalog.schema(item.name)
            fields = [Field(f"{alias}.{column}", ltype)
                      for column, ltype in schema.columns.items()]
            return LogicalScan(item.name, alias, fields)
        if isinstance(item, ast.SubquerySource):
            child = self._plan_select(item.query, outer_scope, dict(cte_map))
            return LogicalSubqueryAlias(child, item.alias)
        if isinstance(item, ast.JoinClause):
            left = self._plan_from_item(item.left, cte_map, outer_scope)
            right = self._plan_from_item(item.right, cte_map, outer_scope)
            join = LogicalJoin(left, right, kind=item.kind)
            if item.condition is not None:
                scope = Scope(join.schema(), outer_scope)
                join.condition = self._resolve(item.condition, scope, cte_map,
                                               allow_aggregates=False)
            return join
        raise UnsupportedOperationError(f"unsupported FROM item: {type(item).__name__}")

    def _expand_star(self, star: ast.Star, scope: Scope) -> list[Field]:
        if star.table is None:
            return list(scope.fields)
        fields = [f for f in scope.fields if f.name.startswith(f"{star.table}.")]
        if not fields:
            raise AnalysisError(f"unknown table alias in {star.table}.*")
        return fields

    @staticmethod
    def _default_name(expr: ast.Expr, index: int) -> str:
        if isinstance(expr, ast.ColumnRef):
            return expr.name
        if isinstance(expr, ast.FuncCall):
            return expr.name
        return f"col{index}"

    # -- aggregation -----------------------------------------------------------------------

    def _plan_aggregate(self, plan: LogicalNode, group_exprs: list[ast.Expr],
                        select_exprs: list[ast.Expr], having_expr: Optional[ast.Expr]
                        ) -> tuple[LogicalNode, list[ast.Expr], Optional[ast.Expr]]:
        group_names: list[str] = []
        group_types: list[LogicalType] = []
        group_map: dict[str, tuple[str, LogicalType]] = {}
        for i, expr in enumerate(group_exprs):
            if isinstance(expr, ast.ColumnRef):
                name = expr.resolved or expr.display
            else:
                name = f"__group_{i}"
            ltype = self._require_type(expr)
            group_names.append(name)
            group_types.append(ltype)
            group_map[expr_key(expr)] = (name, ltype)

        aggregates: list[AggregateCall] = []
        agg_map: dict[str, tuple[str, LogicalType]] = {}

        def collect_and_rewrite(expr: ast.Expr) -> ast.Expr:
            key = expr_key(expr)
            if key in group_map:
                name, ltype = group_map[key]
                ref = ast.ColumnRef(None, name, resolved=name)
                ref.otype = ltype
                return ref
            if isinstance(expr, ast.FuncCall) and is_aggregate_name(expr.name):
                if key not in agg_map:
                    output_name = f"__agg_{len(aggregates)}"
                    call = self._make_aggregate_call(expr, output_name)
                    aggregates.append(call)
                    agg_map[key] = (output_name, call.output_type)
                name, ltype = agg_map[key]
                ref = ast.ColumnRef(None, name, resolved=name)
                ref.otype = ltype
                return ref
            children = expr.children()
            if children:
                expr.replace_children([collect_and_rewrite(c) for c in children])
            return expr

        new_select = [collect_and_rewrite(e) for e in select_exprs]
        new_having = collect_and_rewrite(having_expr) if having_expr is not None else None

        aggregate = LogicalAggregate(
            child=plan,
            group_exprs=group_exprs,
            group_names=group_names,
            group_types=group_types,
            aggregates=aggregates,
        )
        return aggregate, new_select, new_having

    def _make_aggregate_call(self, call: ast.FuncCall, output_name: str) -> AggregateCall:
        func = call.name.lower()
        if func not in AGGREGATE_FUNCTIONS:
            raise AnalysisError(f"unknown aggregate function {call.name!r}")
        arg: Optional[ast.Expr]
        if func == "count" and (not call.args or isinstance(call.args[0], ast.Star)):
            arg = None
            output_type = LogicalType.INT
        else:
            if len(call.args) != 1:
                raise AnalysisError(f"{func}() takes exactly one argument")
            arg = call.args[0]
            arg_type = self._require_type(arg)
            fixed = AGGREGATE_FUNCTIONS[func]
            if fixed is not None:
                output_type = fixed
            elif func == "sum":
                output_type = (LogicalType.INT if arg_type == LogicalType.INT
                               else LogicalType.FLOAT)
            else:  # min / max follow the input type
                output_type = arg_type
        return AggregateCall(func=func, expr=arg, output_name=output_name,
                             distinct=call.distinct, output_type=output_type)

    # -- ORDER BY --------------------------------------------------------------------------

    def _plan_order_by(self, plan: LogicalNode, order_items: list[ast.OrderItem],
                       cte_map: dict[str, LogicalNode],
                       fallback_project: Optional[LogicalProject] = None
                       ) -> LogicalNode:
        """Plan ORDER BY.

        Keys are resolved against the SELECT output (aliases) first.  Keys that
        reference pre-projection columns (e.g. ``ORDER BY t.col`` where the
        SELECT exposes only an alias) are routed through hidden projection
        columns that a final projection drops again after the sort.
        """
        scope = Scope(plan.schema())
        keys: list[tuple[ast.Expr, bool]] = []
        visible_names = plan.field_names()
        hidden = 0
        for item in order_items:
            try:
                resolved = self._resolve(item.expr, scope, cte_map,
                                         allow_aggregates=False)
            except AnalysisError:
                if fallback_project is None:
                    raise
                inner_scope = Scope(fallback_project.child.schema())
                inner = self._resolve(item.expr, inner_scope, cte_map,
                                      allow_aggregates=False)
                hidden_name = f"__sort_key_{hidden}"
                hidden += 1
                fallback_project.exprs.append(inner)
                fallback_project.names.append(hidden_name)
                fallback_project.types.append(self._require_type(inner))
                resolved = ast.ColumnRef(None, hidden_name, resolved=hidden_name)
                resolved.otype = inner.otype
            keys.append((resolved, item.ascending))
        sorted_plan: LogicalNode = LogicalSort(plan, keys)
        if hidden:
            exprs, names, types = [], [], []
            for field in [f for f in sorted_plan.schema() if f.name in visible_names]:
                ref = ast.ColumnRef(None, field.name, resolved=field.name)
                ref.otype = field.ltype
                exprs.append(ref)
                names.append(field.name)
                types.append(field.ltype)
            sorted_plan = LogicalProject(sorted_plan, exprs, names, types)
        return sorted_plan

    # -- expression resolution ----------------------------------------------------------------

    def _resolve(self, expr: ast.Expr, scope: Scope, cte_map: dict[str, LogicalNode],
                 allow_aggregates: bool) -> ast.Expr:
        if isinstance(expr, ast.ColumnRef):
            field, is_outer = scope.resolve(expr.table, expr.name)
            expr.resolved = field.name
            expr.otype = field.ltype
            if is_outer:
                outer = ast.OuterRef(expr)
                outer.otype = field.ltype
                return outer
            return expr

        if isinstance(expr, ast.Literal):
            if expr.otype is None:
                expr.otype = expr.kind
                if expr.kind is None:  # NULL: typed by _unify_params, or not
                    self._null_literals.append(expr)
            return expr

        if isinstance(expr, ast.ParameterExpr):
            self._param_nodes.setdefault(expr.name, []).append(expr)
            known = self._param_types.get(expr.name)
            declared = expr.kind or self.param_hints.get(expr.name)
            if known is not None:
                expr.otype = known
            elif declared is not None:
                self._note_param_type(expr.name, declared)
            return expr

        if isinstance(expr, ast.IntervalLiteral):
            return expr

        if isinstance(expr, ast.FuncCall):
            if is_aggregate_name(expr.name) and not allow_aggregates:
                raise AnalysisError(
                    f"aggregate {expr.name!r} is not allowed in this clause"
                )
            expr.args = [self._resolve(a, scope, cte_map, allow_aggregates)
                         for a in expr.args if not isinstance(a, ast.Star)] or list(expr.args)
            expr.otype = self._infer_function_type(expr)
            return expr

        if isinstance(expr, ast.BinaryOp):
            expr.left = self._resolve(expr.left, scope, cte_map, allow_aggregates)
            expr.right = self._resolve(expr.right, scope, cte_map, allow_aggregates)
            if expr.op not in ("and", "or"):
                self._unify_params(expr.left, expr.right)
            folded = self._fold_date_arithmetic(expr)
            if folded is not None:
                return folded
            expr.otype = self._infer_binary_type(expr)
            return expr

        if isinstance(expr, ast.UnaryOp):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            expr.otype = (LogicalType.BOOL if expr.op == "not"
                          else self._require_type(expr.operand))
            return expr

        if isinstance(expr, ast.CaseWhen):
            expr.whens = [
                (self._resolve(c, scope, cte_map, allow_aggregates),
                 self._resolve(v, scope, cte_map, allow_aggregates))
                for c, v in expr.whens
            ]
            expr.else_value = self._resolve(expr.else_value, scope, cte_map,
                                            allow_aggregates)
            branch_values = [value for _, value in expr.whens]
            branch_values.append(expr.else_value)
            self._unify_params(*branch_values)
            # Standard SQL numeric promotion across branches: a CASE mixing
            # INT and FLOAT results is FLOAT (typing it after the first THEN
            # alone silently truncated float ELSE branches to int).
            branch_types = set(map(self._require_type, branch_values))
            if branch_types == {LogicalType.INT, LogicalType.FLOAT}:
                expr.otype = LogicalType.FLOAT
            else:
                expr.otype = self._require_type(expr.whens[0][1])
            return expr

        if isinstance(expr, ast.Cast):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            target = expr.target.lower()
            mapping = {
                "int": LogicalType.INT, "integer": LogicalType.INT,
                "bigint": LogicalType.INT, "float": LogicalType.FLOAT,
                "double": LogicalType.FLOAT, "decimal": LogicalType.FLOAT,
                "varchar": LogicalType.STRING, "char": LogicalType.STRING,
                "date": LogicalType.DATE,
            }
            if target not in mapping:
                raise AnalysisError(f"unsupported CAST target {expr.target!r}")
            expr.otype = mapping[target]
            return expr

        if isinstance(expr, ast.LikeExpr):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            if self._require_type(expr.operand) != LogicalType.STRING:
                raise AnalysisError("LIKE requires a string operand")
            check_like_pattern(expr.pattern)
            expr.otype = LogicalType.BOOL
            return expr

        if isinstance(expr, ast.InList):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            expr.items = [self._resolve(i, scope, cte_map, allow_aggregates)
                          for i in expr.items]
            self._unify_params(expr.operand, *expr.items)
            expr.otype = LogicalType.BOOL
            return expr

        if isinstance(expr, ast.InSubquery):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            expr.subplan = self._plan_select(expr.query, scope, dict(cte_map))
            expr.otype = LogicalType.BOOL
            return expr

        if isinstance(expr, ast.ExistsSubquery):
            expr.subplan = self._plan_select(expr.query, scope, dict(cte_map))
            expr.otype = LogicalType.BOOL
            return expr

        if isinstance(expr, ast.ScalarSubquery):
            expr.subplan = self._plan_select(expr.query, scope, dict(cte_map))
            sub_fields = expr.subplan.schema()
            if len(sub_fields) != 1:
                raise AnalysisError("scalar subquery must return exactly one column")
            expr.otype = sub_fields[0].ltype
            return expr

        if isinstance(expr, ast.SubstringExpr):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            expr.start = self._resolve(expr.start, scope, cte_map, allow_aggregates)
            if expr.length is not None:
                expr.length = self._resolve(expr.length, scope, cte_map, allow_aggregates)
            expr.otype = LogicalType.STRING
            return expr

        if isinstance(expr, ast.IsNull):
            expr.operand = self._resolve(expr.operand, scope, cte_map, allow_aggregates)
            expr.otype = LogicalType.BOOL
            return expr

        if isinstance(expr, ast.PredictExpr):
            expr.args = [self._resolve(a, scope, cte_map, allow_aggregates)
                         for a in expr.args]
            expr.otype = LogicalType.FLOAT
            return expr

        if isinstance(expr, ast.Star):
            raise AnalysisError("'*' is only allowed in SELECT or COUNT(*)")

        raise UnsupportedOperationError(f"cannot analyze {type(expr).__name__}")

    # -- type inference ---------------------------------------------------------------------

    @staticmethod
    def _require_type(expr: ast.Expr) -> LogicalType:
        if expr.otype is None and isinstance(expr, ast.Literal):
            expr.otype = NULL_LITERAL_TYPE  # a NULL nothing else typed
        if expr.otype is None:
            if isinstance(expr, ast.ParameterExpr):
                raise AnalysisError(
                    f"cannot infer the type of parameter :{expr.name}; use it "
                    "in a comparison or arithmetic expression with a typed "
                    "column"
                )
            raise AnalysisError(f"expression {type(expr).__name__} has no inferred type")
        return expr.otype

    def _infer_function_type(self, call: ast.FuncCall) -> LogicalType:
        name = call.name.lower()
        if is_aggregate_name(name):
            return self._make_aggregate_call(call, "_").output_type
        if name not in SCALAR_FUNCTIONS:
            raise AnalysisError(f"unknown function {call.name!r}")
        if len(call.args) != 1:
            raise AnalysisError(f"{name}() takes exactly one argument")
        accepted, result = SCALAR_FUNCTIONS[name]
        argument = call.args[0].otype   # None: a parameter or NULL literal
        if argument is not None and argument not in accepted:
            raise AnalysisError(f"{name}() does not take {argument.value} "
                                "arguments")
        return result or self._require_type(call.args[0])

    def _infer_binary_type(self, expr: ast.BinaryOp) -> LogicalType:
        op = expr.op
        if op in ("and", "or", "=", "<>", "<", "<=", ">", ">="):
            return LogicalType.BOOL
        if op == "||":
            return LogicalType.STRING
        left = self._require_type(expr.left)
        right = self._require_type(expr.right)
        if op in ("+", "-"):
            if left == LogicalType.DATE and isinstance(expr.right, ast.IntervalLiteral):
                return LogicalType.DATE
            if left == LogicalType.DATE and right == LogicalType.DATE and op == "-":
                return LogicalType.INT
        if op == "/":
            return LogicalType.FLOAT
        if LogicalType.FLOAT in (left, right):
            return LogicalType.FLOAT
        if left == LogicalType.INT and right == LogicalType.INT:
            return LogicalType.INT
        raise AnalysisError(f"cannot apply {op!r} to {left.value} and {right.value}")

    @staticmethod
    def _fold_date_arithmetic(expr: ast.BinaryOp) -> Optional[ast.Literal]:
        """Fold ``date_literal ± interval`` into a date literal at analysis time."""
        if expr.op not in ("+", "-"):
            return None
        left, right = expr.left, expr.right
        if not isinstance(left, ast.Literal) or left.otype != LogicalType.DATE:
            return None
        if not isinstance(right, ast.IntervalLiteral):
            return None
        base = np.datetime64(int(left.value), "ns")
        amount = right.value if expr.op == "+" else -right.value
        if right.unit == "day":
            shifted = base + np.timedelta64(amount, "D")
        elif right.unit == "month":
            shifted = (base.astype("datetime64[M]") + np.timedelta64(amount, "M")
                       ).astype("datetime64[ns]")
        else:  # year
            shifted = (base.astype("datetime64[M]") + np.timedelta64(12 * amount, "M")
                       ).astype("datetime64[ns]")
        folded = ast.Literal(int(shifted.astype("datetime64[ns]").astype(np.int64)),
                             LogicalType.DATE)
        folded.otype = LogicalType.DATE
        return folded
