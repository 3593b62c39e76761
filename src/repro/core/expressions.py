"""Compilation of relational expressions into tensor programs.

`evaluate` walks a resolved expression tree and produces tensors using only
the op vocabulary of :mod:`repro.tensor.ops` (plus the string/date helpers in
:mod:`repro.core.strings` / :mod:`repro.core.datetime_ops`).  When a trace is
active, everything it does is captured into the query's tensor graph — this is
exactly how the paper lowers filters, case expressions, predicates and
``PREDICT`` calls into a single end-to-end tensor program.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Optional

import numpy as np

from repro.core import datetime_ops, strings
from repro.core.columnar import LogicalType, TensorColumn, TensorTable, encode_strings
from repro.errors import ExecutionError, UnsupportedOperationError
from repro.frontend import ast
from repro.tensor import Tensor, ops
from repro.tensor.device import Device, parse_device


@dataclasses.dataclass
class ExprValue:
    """The result of evaluating an expression over a table.

    ``tensor`` is ``(n,)`` (or ``(n, m)`` for strings) for per-row values, or a
    0-d / ``(m,)`` tensor for scalars (``is_scalar=True``).  ``valid`` is an
    optional per-row validity mask (``None`` = all valid).

    ``encoding`` marks a dictionary-encoded string value (see
    :mod:`repro.storage.encodings`): ``tensor`` then holds ``(n,)`` int32
    codes and the encoding carries the shared dictionary.  Consumers that know
    how to operate on codes (equality, IN, LIKE, grouping, sorting) read it;
    :func:`decode_value` materializes the plain form for everyone else.
    """

    tensor: Tensor
    ltype: LogicalType
    is_scalar: bool = False
    valid: Optional[Tensor] = None
    encoding: Optional[object] = None


def column_value(column: TensorColumn) -> ExprValue:
    """A stored column as a per-row value (dictionary codes stay codes)."""
    return ExprValue(column.tensor, column.ltype, False, column.valid,
                     column.encoding)


def decode_value(value: ExprValue) -> ExprValue:
    """The plain (decoded) form of an expression value; no-op when unencoded."""
    if value.encoding is None:
        return value
    return ExprValue(value.encoding.decode(value.tensor), value.ltype,
                     value.is_scalar, value.valid)


class EvaluationContext:
    """Runtime services expressions may need.

    Attributes:
        device: device every produced tensor should live on.
        subquery_runner: callable executing an (uncorrelated) subquery's
            logical subplan and returning its result :class:`TensorTable`.
        models: mapping of model name → compiled predict function
            ``f(list[ExprValue], num_rows) -> ExprValue`` used by ``PREDICT``.
        params: bound values for the statement's bind parameters, by name —
            scalar :class:`ExprValue` objects.  On the graph backends these
            tensors are the traced program's *runtime inputs*, which is what
            lets one compiled program serve every binding.
    """

    def __init__(self, device: Device | str = "cpu",
                 subquery_runner: Optional[Callable[[Any], TensorTable]] = None,
                 models: Optional[dict[str, Callable]] = None,
                 params: Optional[dict[str, "ExprValue"]] = None):
        self.device = parse_device(device)
        self.subquery_runner = subquery_runner
        self.models = models or {}
        self.params = params or {}
        self._subquery_cache: dict[int, TensorTable] = {}

    def run_subquery(self, subplan: Any) -> TensorTable:
        if self.subquery_runner is None:
            raise ExecutionError("this query requires a subquery runner")
        key = id(subplan)
        if key not in self._subquery_cache:
            self._subquery_cache[key] = self.subquery_runner(subplan)
        return self._subquery_cache[key]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


_LTYPE_TO_DTYPE = {
    LogicalType.INT: "int64",
    LogicalType.FLOAT: "float64",
    LogicalType.BOOL: "bool",
    LogicalType.DATE: "int64",
}


def to_column(value: ExprValue, table: TensorTable) -> TensorColumn:
    """Materialize an expression value as a column of ``table``'s rows.

    Scalar broadcasts size themselves off the table's anchor at run time
    (``full_like_rows``), never off a row count baked into the traced graph —
    an intermediate table's size may depend on a bind parameter.
    """
    if value.encoding is not None and not value.is_scalar:
        return TensorColumn(value.tensor, value.ltype, value.valid,
                            value.encoding)
    tensor = value.tensor
    if value.is_scalar:
        if value.ltype == LogicalType.STRING:
            width = tensor.shape[-1] if tensor.ndim else 1
            base = ops.full_like_rows(table.anchor, 1, dtype="int32",
                                      width=width)
            tensor = ops.mul(base, ops.cast(tensor, "int32"))
            tensor = ops.cast(tensor, "int32")
        else:
            dtype = _LTYPE_TO_DTYPE[value.ltype]
            base = ops.full_like_rows(table.anchor, 0, dtype=dtype)
            tensor = ops.add(base, ops.cast(tensor, dtype))
    return TensorColumn(tensor, value.ltype,
                        _rows_valid(value.valid, table.anchor))


def _rows_valid(valid: Optional[Tensor], ref: Tensor) -> Optional[Tensor]:
    """``valid`` with one entry per row of ``ref``.  A 0-d mask comes from a
    scalar that may be NULL (a scalar subquery over no rows) and reaches
    per-row values through arithmetic and comparisons."""
    if valid is None or valid.ndim:
        return valid
    return ops.logical_and(ops.full_like_rows(ref, True, dtype="bool"), valid)


def as_mask(value: ExprValue, table: TensorTable) -> Tensor:
    """Convert a boolean expression value into a filter mask over ``table``'s
    rows (NULL → False); a scalar condition broadcasts off the anchor, as in
    :func:`to_column`."""
    if value.ltype != LogicalType.BOOL:
        raise ExecutionError("filter condition must be boolean")
    tensor = value.tensor
    if value.is_scalar:
        base = ops.full_like_rows(table.anchor, True, dtype="bool")
        tensor = ops.logical_and(base, tensor)
    if value.valid is not None:
        tensor = ops.logical_and(tensor, value.valid)
    return tensor


def _combine_valid(*values: ExprValue) -> Optional[Tensor]:
    masks = [v.valid for v in values if v.valid is not None]
    if not masks:
        return None
    combined = masks[0]
    for mask in masks[1:]:
        combined = ops.logical_and(combined, mask)
    return combined


def _kleene_valid(op: str, left: ExprValue, right: ExprValue
                  ) -> Optional[Tensor]:
    """Validity of a three-valued ``and`` / ``or`` (Kleene's rules).

    The result is known where both sides are, or where one side is a known
    value that decides it alone: FALSE for ``and``, TRUE for ``or``.  There
    the value ``logical_and`` / ``logical_or`` computes is already right.
    With no validity on either side no op is added.
    """
    if left.valid is None and right.valid is None:
        return None

    def decides(side: ExprValue) -> Tensor:
        return side.tensor if op == "or" else ops.logical_not(side.tensor)

    if left.valid is None or right.valid is None:
        known, other = (left, right) if left.valid is None else (right, left)
        return ops.logical_or(other.valid, decides(known))
    return ops.logical_or(
        ops.logical_and(left.valid, ops.logical_or(right.valid,
                                                   decides(left))),
        ops.logical_and(right.valid, decides(right)))


def _numeric_binary(op_name: str, left: ExprValue, right: ExprValue,
                    otype: LogicalType) -> ExprValue:
    fn = getattr(ops, op_name)
    result = fn(left.tensor, right.tensor)
    if otype == LogicalType.FLOAT:
        result = ops.cast(result, "float64")
    return ExprValue(result, otype, left.is_scalar and right.is_scalar,
                     _combine_valid(left, right))


_ARITHMETIC = {"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "fmod"}
_COMPARISON = {"=": "eq", "<>": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------


def evaluate(expr: ast.Expr, table: TensorTable, ctx: EvaluationContext) -> ExprValue:
    """Evaluate a resolved expression over ``table``, decoded.

    This is the generic entry point: the result is always in the plain
    representation, so every operator works unchanged whatever the storage
    encoding of the underlying columns.  Consumers that can exploit
    dictionary codes directly (grouping, sorting, DISTINCT) use
    :func:`evaluate_encoded` instead.
    """
    return decode_value(evaluate_encoded(expr, table, ctx))


def evaluate_encoded(expr: ast.Expr, table: TensorTable,
                     ctx: EvaluationContext) -> ExprValue:
    """Like :func:`evaluate`, but dictionary-encoded string values keep their
    codes (``value.encoding`` set) instead of materializing the code-point
    matrix."""
    if isinstance(expr, ast.ColumnRef):
        return column_value(table.column(expr.resolved or expr.display))

    if isinstance(expr, ast.Literal):
        return _evaluate_literal(expr, ctx)

    if isinstance(expr, ast.ParameterExpr):
        value = ctx.params.get(expr.name)
        if value is None:
            raise ExecutionError(
                f"no value bound for parameter :{expr.name}; "
                "bind it before executing"
            )
        return value

    if isinstance(expr, ast.IntervalLiteral):
        raise UnsupportedOperationError(
            "INTERVAL literals may only be combined with DATE literals"
        )

    if isinstance(expr, ast.BinaryOp):
        return _evaluate_binary(expr, table, ctx)

    if isinstance(expr, ast.UnaryOp):
        operand = evaluate(expr.operand, table, ctx)
        if expr.op == "not":
            return ExprValue(ops.logical_not(operand.tensor), LogicalType.BOOL,
                             operand.is_scalar, operand.valid)
        return ExprValue(ops.neg(operand.tensor), operand.ltype,
                         operand.is_scalar, operand.valid)

    if isinstance(expr, ast.CaseWhen):
        return _evaluate_case(expr, table, ctx)

    if isinstance(expr, ast.Cast):
        return _evaluate_cast(expr, table, ctx)

    if isinstance(expr, ast.LikeExpr):
        operand = evaluate_encoded(expr.operand, table, ctx)
        if operand.ltype != LogicalType.STRING:
            raise ExecutionError("LIKE requires a string operand")
        if operand.encoding is not None:
            # Match the pattern against the k dictionary entries, then fan the
            # per-entry verdicts out to the rows with one gather — the pattern
            # kernels run over k distinct values instead of n rows.
            matched = strings.like(operand.encoding.dictionary, expr.pattern)
            matched = ops.take(matched, ops.cast(operand.tensor, "int64"))
            return ExprValue(matched, LogicalType.BOOL, False, operand.valid)
        matched = strings.like(operand.tensor, expr.pattern)
        return ExprValue(matched, LogicalType.BOOL, operand.is_scalar, operand.valid)

    if isinstance(expr, ast.InList):
        return _evaluate_in_list(expr, table, ctx)

    if isinstance(expr, ast.InSubquery):
        return _evaluate_in_subquery(expr, table, ctx)

    if isinstance(expr, ast.ExistsSubquery):
        result_table = ctx.run_subquery(expr.subplan)
        # Computed as a tensor (not a Python bool) so the row count is
        # re-evaluated when a traced program replays under a new binding.
        value = ops.gt(ops.row_count(result_table.anchor), 0)
        return ExprValue(value, LogicalType.BOOL, True)

    if isinstance(expr, ast.ScalarSubquery):
        result_table = ctx.run_subquery(expr.subplan)
        if result_table.num_columns != 1 or result_table.num_rows != 1:
            raise ExecutionError("scalar subquery must produce exactly one value")
        column = result_table.column(result_table.column_names[0])
        scalar = ops.slice_(column.tensor, 0)
        valid = (ops.slice_(column.valid, 0) if column.valid is not None
                 else None)
        return ExprValue(scalar, column.ltype, True, valid)

    if isinstance(expr, ast.SubstringExpr):
        operand = evaluate(expr.operand, table, ctx)
        start = _require_int_literal(expr.start, "SUBSTRING start")
        length = (_require_int_literal(expr.length, "SUBSTRING length")
                  if expr.length is not None else None)
        return ExprValue(strings.substring(operand.tensor, start, length),
                         LogicalType.STRING, operand.is_scalar, operand.valid)

    if isinstance(expr, ast.IsNull):
        operand = evaluate_encoded(expr.operand, table, ctx)
        if operand.valid is None:
            if operand.is_scalar:
                value = ops.tensor(False, dtype="bool", device=ctx.device)
                return ExprValue(value, LogicalType.BOOL, True)
            value = ops.full_like_rows(operand.tensor, False, dtype="bool")
        else:
            valid = (operand.valid if operand.is_scalar
                     else _rows_valid(operand.valid, operand.tensor))
            value = ops.logical_not(valid)
        return ExprValue(value, LogicalType.BOOL, operand.is_scalar)

    if isinstance(expr, ast.PredictExpr):
        return _evaluate_predict(expr, table, ctx)

    if isinstance(expr, ast.FuncCall):
        return _evaluate_scalar_function(expr, table, ctx)

    raise UnsupportedOperationError(
        f"cannot compile expression {type(expr).__name__} to a tensor program"
    )


# ---------------------------------------------------------------------------
# individual expression kinds
# ---------------------------------------------------------------------------


def _evaluate_literal(expr: ast.Literal, ctx: EvaluationContext) -> ExprValue:
    kind = expr.otype or expr.kind
    if expr.value is None:
        # NULL: a placeholder of its type (0, or an empty string's width-1
        # code vector) under an all-false validity.
        placeholder = (ops.tensor([0], dtype="int32", device=ctx.device)
                       if kind == LogicalType.STRING else
                       ops.tensor(0, dtype=_LTYPE_TO_DTYPE[kind],
                                  device=ctx.device))
        return ExprValue(placeholder, kind, True,
                         ops.tensor(False, dtype="bool", device=ctx.device))
    if kind == LogicalType.STRING:
        codes = encode_strings([expr.value])[0]
        return ExprValue(ops.tensor(codes, device=ctx.device), LogicalType.STRING, True)
    if kind == LogicalType.DATE:
        return ExprValue(ops.tensor(int(expr.value), dtype="int64", device=ctx.device),
                         LogicalType.DATE, True)
    if kind == LogicalType.BOOL:
        return ExprValue(ops.tensor(bool(expr.value), dtype="bool", device=ctx.device),
                         LogicalType.BOOL, True)
    if kind == LogicalType.INT or (kind is None and isinstance(expr.value, int)):
        return ExprValue(ops.tensor(int(expr.value), dtype="int64", device=ctx.device),
                         LogicalType.INT, True)
    return ExprValue(ops.tensor(float(expr.value), dtype="float64", device=ctx.device),
                     LogicalType.FLOAT, True)


def _evaluate_binary(expr: ast.BinaryOp, table: TensorTable,
                     ctx: EvaluationContext) -> ExprValue:
    op = expr.op
    if op in ("and", "or"):
        left = evaluate(expr.left, table, ctx)
        right = evaluate(expr.right, table, ctx)
        fn = ops.logical_and if op == "and" else ops.logical_or
        return ExprValue(fn(left.tensor, right.tensor), LogicalType.BOOL,
                         left.is_scalar and right.is_scalar,
                         _kleene_valid(op, left, right))
    left = evaluate_encoded(expr.left, table, ctx)
    right = evaluate_encoded(expr.right, table, ctx)
    if op in _COMPARISON:
        if left.ltype == LogicalType.STRING or right.ltype == LogicalType.STRING:
            return _string_comparison(op, expr, left, right)
        left, right = decode_value(left), decode_value(right)
        result = getattr(ops, _COMPARISON[op])(left.tensor, right.tensor)
        return ExprValue(result, LogicalType.BOOL,
                         left.is_scalar and right.is_scalar,
                         _combine_valid(left, right))
    if op in _ARITHMETIC:
        otype = expr.otype or LogicalType.FLOAT
        return _numeric_binary(_ARITHMETIC[op], decode_value(left),
                               decode_value(right), otype)
    if op == "||":
        raise UnsupportedOperationError("string concatenation is not supported")
    raise UnsupportedOperationError(f"unsupported binary operator {op!r}")


def _string_comparison(op: str, expr: ast.BinaryOp, left: ExprValue,
                       right: ExprValue) -> ExprValue:
    if op not in ("=", "<>"):
        raise UnsupportedOperationError(
            "only equality comparisons are supported for strings"
        )
    # literal/parameter vs column
    if left.is_scalar != right.is_scalar:
        column, literal_expr = ((right, expr.left) if left.is_scalar
                                else (left, expr.right))
        literal = left if left.is_scalar else right
        if column.encoding is not None:
            # Compare against the k dictionary entries, then gather the
            # per-entry verdict per row — O(k·m) comparison work instead of
            # O(n·m), and the bound value of a parameter flows through the
            # same dictionary probe at run time.
            dictionary = column.encoding.dictionary
            if isinstance(literal_expr, ast.Literal):
                matches = strings.equals_literal(dictionary, str(literal_expr.value))
            else:
                matches = strings.equals_columns(
                    dictionary, ops.reshape(literal.tensor,
                                            (1, literal.tensor.shape[-1])))
            result = ops.take(matches, ops.cast(column.tensor, "int64"))
        elif isinstance(literal_expr, ast.Literal):
            result = strings.equals_literal(column.tensor, str(literal_expr.value))
        else:
            result = strings.equals_columns(
                column.tensor, ops.reshape(literal.tensor, (1, literal.tensor.shape[-1]))
            )
        scalar = False
    else:
        if (left.encoding is not None and right.encoding is not None
                and left.encoding.dictionary is right.encoding.dictionary):
            # Same dictionary: equal codes <=> equal strings.
            result = ops.eq(left.tensor, right.tensor)
        else:
            left, right = decode_value(left), decode_value(right)
            result = strings.equals_columns(left.tensor, right.tensor)
        scalar = left.is_scalar and right.is_scalar
    if op == "<>":
        result = ops.logical_not(result)
    return ExprValue(result, LogicalType.BOOL, scalar, _combine_valid(left, right))


def _evaluate_case(expr: ast.CaseWhen, table: TensorTable,
                   ctx: EvaluationContext) -> ExprValue:
    otype = expr.otype or LogicalType.FLOAT
    is_string = otype == LogicalType.STRING

    def select(cond: Tensor, chosen: Tensor, other: Tensor) -> Tensor:
        if not is_string:
            return ops.where(cond, chosen, other)
        # Code-point matrices: both sides padded to one width, the condition
        # a column selecting whole rows.
        chosen, other = (t if t.ndim == 2 else ops.reshape(t, (1, -1))
                         for t in (chosen, other))
        width = max(chosen.shape[1], other.shape[1])
        if cond.ndim:
            cond = ops.reshape(cond, (-1, 1))
        return ops.where(cond, ops.pad2d(chosen, width),
                         ops.pad2d(other, width))

    result_value = evaluate(expr.else_value, table, ctx)
    result = result_value.tensor
    valid: Optional[Tensor] = result_value.valid
    # Apply WHEN branches from last to first so earlier branches win.
    any_scalar = True
    for condition, value in reversed(expr.whens):
        cond_value = evaluate(condition, table, ctx)
        branch_value = evaluate(value, table, ctx)
        cond = cond_value.tensor
        if cond_value.valid is not None:
            # A NULL condition selects the branch below, never this one.
            cond = ops.logical_and(cond, cond_value.valid)
        result = select(cond, branch_value.tensor, result)
        if valid is not None or branch_value.valid is not None:
            branch_valid = (branch_value.valid if branch_value.valid is not None
                            else ops.tensor(True, dtype="bool", device=ctx.device))
            below_valid = (valid if valid is not None
                           else ops.tensor(True, dtype="bool", device=ctx.device))
            valid = ops.where(cond, branch_valid, below_valid)
        any_scalar = any_scalar and cond_value.is_scalar and branch_value.is_scalar
    if otype == LogicalType.FLOAT:
        result = ops.cast(result, "float64")
    if is_string and any_scalar:
        result = ops.reshape(result, (-1,))
    if not any_scalar:
        # ``result`` is per-row whenever the CASE is non-scalar, so it is a
        # safe run-time size reference for broadcasting the validity mask.
        valid = _rows_valid(valid, result if result.ndim else table.anchor)
    return ExprValue(result, otype, any_scalar, valid)


def _evaluate_cast(expr: ast.Cast, table: TensorTable,
                   ctx: EvaluationContext) -> ExprValue:
    operand = evaluate(expr.operand, table, ctx)
    target = expr.otype or LogicalType.FLOAT
    if target == LogicalType.STRING or operand.ltype == LogicalType.STRING:
        raise UnsupportedOperationError("CAST to/from strings is not supported")
    dtype = _LTYPE_TO_DTYPE[target]
    return ExprValue(ops.cast(operand.tensor, dtype), target,
                     operand.is_scalar, operand.valid)


def _evaluate_in_list(expr: ast.InList, table: TensorTable,
                      ctx: EvaluationContext) -> ExprValue:
    operand = evaluate_encoded(expr.operand, table, ctx)
    if operand.ltype == LogicalType.STRING:
        # Dictionary-encoded operands probe the k dictionary entries per item
        # and gather one combined verdict; plain operands compare row-wise.
        haystack = (operand.encoding.dictionary if operand.encoding is not None
                    else operand.tensor)
        result = None
        for item in expr.items:
            if isinstance(item, ast.Literal):
                this = strings.equals_literal(haystack, str(item.value))
            else:
                value = evaluate(item, table, ctx).tensor
                this = strings.equals_columns(
                    haystack, ops.reshape(value, (1, value.shape[-1])))
            result = this if result is None else ops.logical_or(result, this)
        if operand.encoding is not None:
            result = ops.take(result, ops.cast(operand.tensor, "int64"))
    else:
        values = [evaluate(item, table, ctx).tensor for item in expr.items]
        stacked = ops.stack(values) if len(values) > 1 else ops.reshape(values[0], (1,))
        result = ops.isin(operand.tensor, stacked)
    return ExprValue(result, LogicalType.BOOL, operand.is_scalar, operand.valid)


def _evaluate_in_subquery(expr: ast.InSubquery, table: TensorTable,
                          ctx: EvaluationContext) -> ExprValue:
    operand = evaluate(expr.operand, table, ctx)
    result_table = ctx.run_subquery(expr.subplan)
    if result_table.num_columns != 1:
        raise ExecutionError("IN subquery must produce exactly one column")
    column = result_table.column(result_table.column_names[0])
    if operand.ltype == LogicalType.STRING:
        if column.ltype != LogicalType.STRING:
            raise ExecutionError("IN subquery type mismatch")
        width = max(operand.tensor.shape[1], column.tensor.shape[1])
        left = ops.pad2d(operand.tensor, width)
        right = ops.pad2d(column.tensor, width)
        # Compare every row against every subquery value: (n, k, m) equality.
        # The data-dependent extents use -1 so replays under a new parameter
        # binding recompute them from the actual tensors.
        left3 = ops.reshape(left, (-1, 1, width))
        right3 = ops.reshape(right, (1, -1, width))
        matches = ops.all_(ops.eq(left3, right3), axis=2)
        if column.valid is not None:
            matches = ops.logical_and(matches,
                                      ops.reshape(column.valid, (1, -1)))
        result = ops.any_(matches, axis=1)
    else:
        values = (column.tensor if column.valid is None
                  else ops.boolean_mask(column.tensor, column.valid))
        result = ops.isin(operand.tensor, values)
    # SQL: a match is TRUE; without one, a NULL operand or a NULL among the
    # subquery's values makes the result NULL.  Over no rows it is FALSE.
    valid = operand.valid
    if valid is not None:
        valid = ops.logical_or(valid,
                               ops.eq(ops.row_count(column.tensor), 0))
    if column.valid is not None:
        no_null = ops.logical_not(ops.any_(ops.logical_not(column.valid)))
        known = ops.logical_or(result, no_null)
        valid = known if valid is None else ops.logical_and(valid, known)
    return ExprValue(result, LogicalType.BOOL, operand.is_scalar, valid)


def _evaluate_predict(expr: ast.PredictExpr, table: TensorTable,
                      ctx: EvaluationContext) -> ExprValue:
    model = ctx.models.get(expr.model_name)
    if model is None:
        raise ExecutionError(
            f"PREDICT references unknown model {expr.model_name!r}; "
            "register it on the session first"
        )
    args = [evaluate(arg, table, ctx) for arg in expr.args]
    return model(args, table.num_rows)


#: One kernel per name of :data:`repro.frontend.functions.SCALAR_FUNCTIONS`.
#: A kernel runs on every row, inside its function's domain or not: ``sqrt``
#: takes the root of the argument clipped at 0, so no row warns.
SCALAR_KERNELS: dict[str, Callable[[Tensor], Tensor]] = {
    "abs": ops.abs_,
    "round": ops.round_,
    "sqrt": lambda tensor: ops.sqrt(ops.clip(tensor, 0)),
    "length": strings.row_lengths,
    **{field: functools.partial(datetime_ops.extract_field, field=field)
       for field in ("year", "month", "day")},
}

#: The rows inside a function's domain, for a function not defined on every
#: argument: outside it the result is NULL.
SCALAR_DOMAINS: dict[str, Callable[[Tensor], Tensor]] = {
    "sqrt": lambda tensor: ops.ge(tensor, 0),
}


def _evaluate_scalar_function(expr: ast.FuncCall, table: TensorTable,
                              ctx: EvaluationContext) -> ExprValue:
    name = expr.name.lower()
    kernel = SCALAR_KERNELS[name]
    arg = evaluate_encoded(expr.args[0], table, ctx)
    if arg.encoding is not None:
        # Over the k dictionary entries, gathered per row.
        result = ops.take(kernel(arg.encoding.dictionary),
                          ops.cast(arg.tensor, "int64"))
    else:
        result = kernel(arg.tensor)
    # A NULL argument gives NULL: the result keeps the argument's validity,
    # narrowed to the function's domain (only numeric, never encoded,
    # arguments have one).
    valid = arg.valid
    domain = SCALAR_DOMAINS.get(name)
    if domain is not None:
        inside = domain(arg.tensor)
        valid = inside if valid is None else ops.logical_and(valid, inside)
    return ExprValue(result, expr.otype, arg.is_scalar, valid)


def _require_int_literal(expr: ast.Expr, what: str) -> int:
    if not isinstance(expr, ast.Literal) or not isinstance(expr.value, (int, np.integer)):
        raise UnsupportedOperationError(f"{what} must be an integer literal")
    return int(expr.value)
