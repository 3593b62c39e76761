"""Row-at-a-time baseline engine (the "Spark CPU" comparator).

The paper compares TQP against Apache Spark running on the CPU.  Spark itself
is not available offline, so this module provides the comparator the
benchmarks need: an interpreted, row-oriented engine that executes the *same*
optimized plans the frontend hands to TQP.  Rows are Python dicts, expressions
are evaluated recursively per row, joins are classic hash joins over Python
dictionaries — i.e. a faithful stand-in for an interpreted row-at-a-time
executor, which is exactly the performance regime the paper's Figure 1
contrasts with tensor execution.

Because both engines consume the same plans, the row engine doubles as the
correctness oracle for the TPC-H test-suite.
"""

from __future__ import annotations

import math
import re
from typing import Any, Callable, Iterable, Optional

import numpy as np

from repro.core.columnar import LogicalType
from repro.dataframe import DataFrame
from repro.errors import ExecutionError, UnsupportedOperationError
from repro.frontend import ast
from repro.frontend import logical as lp

Row = dict[str, Any]

_NS_PER_DAY = 86_400_000_000_000


def _is_null(value: Any) -> bool:
    """NULL, or a stored float NaN (which the tensor engine sorts as NULL)."""
    return value is None or (isinstance(value, float) and math.isnan(value))


def _round(value: Any) -> Any:
    """Half away from zero, as sqlite rounds; an integer is left as it is."""
    if isinstance(value, (int, np.integer)):
        return value
    return float(np.copysign(np.floor(abs(value) + 0.5), value))


def _date_field(index: slice) -> Callable[[int], int]:
    """The year / month / day of an epoch-ns date, read off its ISO text."""
    return lambda ns: int(str(np.datetime64(int(ns), "ns").astype(
        "datetime64[D]"))[index])


#: One kernel per name of :data:`repro.frontend.functions.SCALAR_FUNCTIONS`.
SCALAR_KERNELS: dict[str, Callable[[Any], Any]] = {
    "abs": abs,
    "round": _round,
    "sqrt": math.sqrt,
    "length": len,
    "year": _date_field(slice(0, 4)),
    "month": _date_field(slice(5, 7)),
    "day": _date_field(slice(8, 10)),
}


def _like_to_regex(pattern: str) -> re.Pattern:
    return re.compile("^" + ".*".join(re.escape(p) for p in pattern.split("%")) + "$")


class RowExpressionEvaluator:
    """Recursive per-row expression interpreter."""

    def __init__(self, engine: "RowEngine"):
        self.engine = engine
        self._like_cache: dict[str, re.Pattern] = {}

    def evaluate(self, expr: ast.Expr, row: Row) -> Any:
        if isinstance(expr, ast.ColumnRef):
            return row[expr.resolved or expr.display]
        if isinstance(expr, ast.Literal):
            return expr.value
        if isinstance(expr, ast.ParameterExpr):
            if expr.name not in self.engine.params:
                raise ExecutionError(
                    f"no value bound for parameter :{expr.name}")
            return self.engine.params[expr.name]
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr, row)
        if isinstance(expr, ast.UnaryOp):
            value = self.evaluate(expr.operand, row)
            if expr.op == "not":
                return (not value) if value is not None else None
            return -value if value is not None else None
        if isinstance(expr, ast.CaseWhen):
            for condition, result in expr.whens:
                if self.evaluate(condition, row):
                    return self.evaluate(result, row)
            return self.evaluate(expr.else_value, row)
        if isinstance(expr, ast.Cast):
            value = self.evaluate(expr.operand, row)
            if value is None:
                return None
            if expr.otype == LogicalType.INT:
                return int(value)
            if expr.otype == LogicalType.FLOAT:
                return float(value)
            return value
        if isinstance(expr, ast.LikeExpr):
            value = self.evaluate(expr.operand, row)
            if value is None:
                return None
            pattern = self._like_cache.setdefault(expr.pattern,
                                                  _like_to_regex(expr.pattern))
            return bool(pattern.match(value))
        if isinstance(expr, ast.InList):
            value = self.evaluate(expr.operand, row)
            if value is None:
                return None
            return value in [self.evaluate(item, row) for item in expr.items]
        if isinstance(expr, ast.InSubquery):
            # A match is TRUE; without one, a NULL operand or a NULL among
            # the subquery's values makes the result NULL.  Over no rows it
            # is FALSE.
            values = self.engine.subquery_column(expr.subplan)
            value = self.evaluate(expr.operand, row)
            result = value is not None and value in values
            if not result and values and (value is None or None in values):
                return None
            return result
        if isinstance(expr, ast.ExistsSubquery):
            return len(self.engine.subquery_rows(expr.subplan)) > 0
        if isinstance(expr, ast.ScalarSubquery):
            return self.engine.subquery_scalar(expr.subplan)
        if isinstance(expr, ast.SubstringExpr):
            value = self.evaluate(expr.operand, row)
            start = int(self.evaluate(expr.start, row)) - 1
            if expr.length is None:
                return value[start:]
            return value[start:start + int(self.evaluate(expr.length, row))]
        if isinstance(expr, ast.IsNull):
            return self.evaluate(expr.operand, row) is None
        if isinstance(expr, ast.PredictExpr):
            model = self.engine.models.get(expr.model_name)
            if model is None:
                raise ExecutionError(f"unknown model {expr.model_name!r}")
            args = [self.evaluate(arg, row) for arg in expr.args]
            return model(args)
        if isinstance(expr, ast.FuncCall):
            return self._function(expr, row)
        raise UnsupportedOperationError(
            f"row engine cannot evaluate {type(expr).__name__}"
        )

    def _binary(self, expr: ast.BinaryOp, row: Row) -> Any:
        op = expr.op
        if op in ("and", "or"):
            # Three-valued: a known FALSE (and) / TRUE (or) decides alone,
            # else a NULL side makes the result NULL.
            deciding = op == "or"
            left = self.evaluate(expr.left, row)
            if left is not None and bool(left) == deciding:
                return deciding
            right = self.evaluate(expr.right, row)
            if right is not None and bool(right) == deciding:
                return deciding
            return None if left is None or right is None else not deciding
        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)
        if left is None or right is None:
            return None
        if op == "=":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "%":
            # SQL's remainder truncates: it takes the dividend's sign.
            remainder = abs(left) % abs(right)
            return -remainder if left < 0 else remainder
        raise UnsupportedOperationError(f"row engine: unsupported operator {op!r}")

    def _function(self, expr: ast.FuncCall, row: Row) -> Any:
        value = self.evaluate(expr.args[0], row)
        if value is None:
            return None  # a NULL argument gives NULL
        return SCALAR_KERNELS[expr.name.lower()](value)


class RowEngine:
    """Executes the frontend's optimized plans one row at a time."""

    def __init__(self, dataframes: dict[str, DataFrame],
                 models: Optional[dict[str, Callable]] = None,
                 params: Optional[dict[str, Any]] = None):
        self.dataframes = {name.lower(): frame for name, frame in dataframes.items()}
        self.models = models or {}
        #: Bound parameter values (normalized Python scalars, see
        #: ``repro.core.parameters.bind_parameters``) for parameterized plans.
        self.params = params or {}
        self.evaluator = RowExpressionEvaluator(self)
        self._subquery_cache: dict[int, list[Row]] = {}

    # -- public API -----------------------------------------------------------

    def execute(self, plan: lp.LogicalNode) -> list[Row]:
        return list(self._execute(plan))

    def execute_to_dataframe(self, plan: lp.LogicalNode) -> DataFrame:
        rows = self.execute(plan)
        names = [f.name for f in plan.schema()]
        data: dict[str, list] = {name: [] for name in names}
        for row in rows:
            for name in names:
                data[name].append(row[name])
        columns = {}
        for field in plan.schema():
            values = data[field.name]
            columns[field.name] = self._column_array(values, field.ltype)
        return DataFrame(columns)

    @staticmethod
    def _column_array(values: list, ltype: LogicalType) -> np.ndarray:
        if ltype == LogicalType.DATE:
            return np.array([np.datetime64(int(v), "ns") if v is not None else
                             np.datetime64("NaT") for v in values],
                            dtype="datetime64[ns]").astype("datetime64[D]")
        if ltype == LogicalType.STRING:
            return np.array(values, dtype=object)
        if ltype == LogicalType.FLOAT:
            return np.array([np.nan if v is None else float(v) for v in values],
                            dtype=np.float64)
        cast, dtype = ((bool, bool) if ltype == LogicalType.BOOL
                       else (int, np.int64))
        if any(v is None for v in values):
            # NULL-able integers and booleans keep their NULLs (matching the
            # tensor engine's validity-masked columns) instead of collapsing
            # to 0 / False.
            return np.array([None if v is None else cast(v) for v in values],
                            dtype=object)
        return np.array([cast(v) for v in values], dtype=dtype)

    # -- subquery support --------------------------------------------------------

    def subquery_rows(self, subplan: lp.LogicalNode) -> list[Row]:
        key = id(subplan)
        if key not in self._subquery_cache:
            self._subquery_cache[key] = self.execute(subplan)
        return self._subquery_cache[key]

    def subquery_column(self, subplan: lp.LogicalNode) -> set:
        rows = self.subquery_rows(subplan)
        name = subplan.schema()[0].name
        return {row[name] for row in rows}

    def subquery_scalar(self, subplan: lp.LogicalNode) -> Any:
        rows = self.subquery_rows(subplan)
        if not rows:
            return None
        name = subplan.schema()[0].name
        return rows[0][name]

    # -- operators -------------------------------------------------------------------

    def _execute(self, plan: lp.LogicalNode) -> Iterable[Row]:
        if isinstance(plan, lp.LogicalScan):
            return self._scan(plan)
        if isinstance(plan, lp.LogicalFilter):
            return self._filter(plan)
        if isinstance(plan, lp.LogicalProject):
            return self._project(plan)
        if isinstance(plan, lp.LogicalJoin):
            return self._join(plan)
        if isinstance(plan, lp.LogicalAggregate):
            return self._aggregate(plan)
        if isinstance(plan, lp.LogicalSort):
            return self._sort(plan)
        if isinstance(plan, lp.LogicalLimit):
            return self.execute(plan.child)[: plan.count]
        if isinstance(plan, lp.LogicalDistinct):
            return self._distinct(plan)
        if isinstance(plan, lp.LogicalSubqueryAlias):
            return self._rename(plan)
        raise UnsupportedOperationError(
            f"row engine cannot execute {type(plan).__name__}"
        )

    def _scan(self, plan: lp.LogicalScan) -> list[Row]:
        frame = self.dataframes.get(plan.table.lower())
        if frame is None:
            raise ExecutionError(f"row engine: unknown table {plan.table!r}")
        columns = []
        for field in plan.fields:
            base = field.name.split(".", 1)[1] if "." in field.name else field.name
            values = frame[base]
            if values.dtype.kind == "M":
                values = values.astype("datetime64[ns]").astype(np.int64)
            columns.append((field.name, values))
        count = frame.num_rows
        return [
            {name: values[i].item() if hasattr(values[i], "item") else values[i]
             for name, values in columns}
            for i in range(count)
        ]

    def _filter(self, plan: lp.LogicalFilter) -> list[Row]:
        return [row for row in self._execute(plan.child)
                if self.evaluator.evaluate(plan.condition, row)]

    def _project(self, plan: lp.LogicalProject) -> list[Row]:
        out = []
        for row in self._execute(plan.child):
            out.append({
                name: self.evaluator.evaluate(expr, row)
                for expr, name in zip(plan.exprs, plan.names)
            })
        return out

    def _join(self, plan: lp.LogicalJoin) -> list[Row]:
        """A hash join on the keys when the join has them, else every right
        row; either way the pairs that pass ``plan.predicate`` match."""
        left_rows = self.execute(plan.left)
        right_rows = self.execute(plan.right)
        build: dict[tuple, list[Row]] = {}
        if plan.left_keys:
            for row in right_rows:
                key = tuple(self.evaluator.evaluate(k, row)
                            for k in plan.right_keys)
                if None not in key:  # a NULL key equals nothing, not even NULL
                    build.setdefault(key, []).append(row)
        right_nulls = {f.name: None for f in plan.right.schema()}
        predicate = plan.predicate
        out: list[Row] = []
        for row in left_rows:
            candidates = right_rows
            if plan.left_keys:
                candidates = build.get(tuple(self.evaluator.evaluate(k, row)
                                             for k in plan.left_keys), [])
            matches = [{**row, **m} for m in candidates]
            if predicate is not None:
                matches = [m for m in matches
                           if self.evaluator.evaluate(predicate, m)]
            if plan.kind in ("inner", "cross"):
                out.extend(matches)
            elif plan.kind == "left":
                out.extend(matches or [{**row, **right_nulls}])
            elif plan.kind == "semi":
                if matches:
                    out.append(row)
            elif plan.kind == "anti":
                if not matches:
                    out.append(row)
            else:
                raise UnsupportedOperationError(f"join kind {plan.kind!r}")
        return out

    def _aggregate(self, plan: lp.LogicalAggregate) -> list[Row]:
        rows = self.execute(plan.child)
        groups: dict[tuple, list[Row]] = {}
        keys_of_group: dict[tuple, list] = {}
        for row in rows:
            key = tuple(self.evaluator.evaluate(expr, row) for expr in plan.group_exprs)
            groups.setdefault(key, []).append(row)
            keys_of_group.setdefault(key, list(key))
        if not plan.group_exprs and not groups:
            groups[()] = []
            keys_of_group[()] = []
        out: list[Row] = []
        for key, group_rows in groups.items():
            row_out: Row = {}
            for name, value in zip(plan.group_names, keys_of_group[key]):
                row_out[name] = value
            for call in plan.aggregates:
                row_out[call.output_name] = self._aggregate_value(call, group_rows)
            out.append(row_out)
        return out

    def _aggregate_value(self, call: lp.AggregateCall, rows: list[Row]) -> Any:
        if call.func == "count" and call.expr is None:
            return len(rows)
        values = [self.evaluator.evaluate(call.expr, row) for row in rows]
        values = [v for v in values if v is not None]
        if call.distinct:
            values = list(set(values))
        if call.func == "count":
            return len(values)
        if not values:
            return None
        if call.func == "sum":
            return sum(values)
        if call.func == "avg":
            return sum(values) / len(values)
        if call.func == "min":
            return min(values)
        if call.func == "max":
            return max(values)
        raise UnsupportedOperationError(f"aggregate {call.func!r}")

    def _sort(self, plan: lp.LogicalSort) -> list[Row]:
        rows = self.execute(plan.child)
        # Stable sort from the least significant key to the most significant;
        # a NULL key, and a stored NaN with it, sorts after every other under
        # ASC and DESC alike.
        for expr, ascending in reversed(plan.keys):
            keyed = [(self.evaluator.evaluate(expr, row), row) for row in rows]
            present = [pair for pair in keyed if not _is_null(pair[0])]
            present.sort(key=lambda pair: pair[0], reverse=not ascending)
            rows = [row for _, row in present]
            rows += [row for value, row in keyed if _is_null(value)]
        return rows

    def _distinct(self, plan: lp.LogicalDistinct) -> list[Row]:
        names = plan.field_names()
        seen = set()
        out = []
        for row in self._execute(plan.child):
            key = tuple(row[name] for name in names)
            if key not in seen:
                seen.add(key)
                out.append(row)
        return out

    def _rename(self, plan: lp.LogicalSubqueryAlias) -> list[Row]:
        child_names = plan.child.field_names()
        output_names = plan.field_names()
        out = []
        for row in self._execute(plan.child):
            out.append({new: row[old] for old, new in zip(child_names, output_names)})
        return out


def run_sql(sql: str, dataframes: dict[str, DataFrame],
            models: Optional[dict[str, Callable]] = None,
            params: Optional[dict[str, Any]] = None) -> DataFrame:
    """Convenience: run ``sql`` through the shared frontend on the row engine.

    ``params`` binds ``:name`` / ``?`` markers in the text; values are
    normalized through the same validation as the tensor engine so both
    engines agree on e.g. date representations.
    """
    from repro.core.parameters import ParameterSpec, bind_parameters
    from repro.frontend import Catalog, sql_to_physical

    catalog = Catalog()
    for name, frame in dataframes.items():
        catalog.register(name, frame)
    plan = sql_to_physical(sql, catalog)
    normalized: dict[str, Any] = {}
    if params:
        specs: list[ParameterSpec] = []
        seen: set[str] = set()

        def collect(subplan: lp.LogicalNode) -> None:
            for node in lp.walk_plan(subplan):
                for expr in lp.node_expressions(node):
                    for sub in ast.walk_expr(expr):
                        if isinstance(sub, ast.ParameterExpr) and sub.name not in seen:
                            seen.add(sub.name)
                            specs.append(ParameterSpec(sub.name, sub.otype,
                                                       sub.position, sub.positional))
                        if getattr(sub, "subplan", None) is not None:
                            collect(sub.subplan)

        collect(plan)
        normalized = bind_parameters(specs, params)
    return RowEngine(dataframes, models,
                     params=normalized).execute_to_dataframe(plan)


