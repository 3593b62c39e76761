"""Zone-map scan pruning and statistics-based selectivity estimation.

The planner extracts **prunable conjuncts** from a filter that sits directly
on a base-table scan: conjunctive range / equality / IN predicates comparing a
scanned column against literals or bind parameters.  At execution time the
scan checks each conjunct against the table's zone maps
(:mod:`repro.storage.statistics`) and drops every block that cannot contain a
matching row — before a single kernel touches the block's data.

Pruning is *conservative*: the original filter still runs over the surviving
rows, so results are bit-identical to the unpruned plan; a conjunct the
matcher does not understand simply never prunes.

Parameterized conjuncts resolve at **bind time**: on the eager backend the
bound python values are folded into the zone-map check per execution, while a
traced program (whose block layout must stay binding-independent) lowers the
same check into tensor ops over the zone-map tensors
(:func:`block_mask_tensor`) so the traced graph re-evaluates block survival
from the runtime parameter inputs on every binding.

The same conjunct machinery powers :func:`estimate_selectivity`, the
statistics feedback into the planner's ``parallel_threshold_rows`` decision.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping, Optional, Sequence

import numpy as np

from repro.core.columnar import LogicalType
from repro.frontend import ast
from repro.frontend.optimizer import split_conjuncts
from repro.storage.statistics import ColumnStatistics, TableStatistics
from repro.tensor import Tensor, ops
from repro.tensor.device import Device, parse_device

_COMPARISONS = {"<": "lt", "<=": "le", ">": "gt", ">=": "ge", "=": "eq"}
_FLIPPED = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le", "eq": "eq"}

#: Selectivity assumed for a conjunct whose value is a bind parameter (the
#: planner must choose a plan before any binding exists).
PARAM_SELECTIVITY = 0.3

#: Maximum :func:`repro.storage.statistics.zone_discrimination` ratio at which
#: a parameterized conjunct is still compiled into a traced program.
MAX_TRACED_DISCRIMINATION = 0.5


def annotate_discrimination(conjuncts: Sequence[PruningConjunct],
                            stats: TableStatistics) -> list[PruningConjunct]:
    """Mark each conjunct with whether its column's zone map discriminates."""
    from repro.storage.statistics import zone_discrimination

    out = []
    for conjunct in conjuncts:
        column_stats = stats.column(conjunct.column)
        ratio = (zone_discrimination(column_stats)
                 if column_stats is not None else 1.0)
        out.append(dataclasses.replace(
            conjunct, discriminative=ratio <= MAX_TRACED_DISCRIMINATION))
    return out

#: Floor for combined selectivity estimates (guards the row estimate against
#: multiplying many correlated conjuncts down to zero).
MIN_SELECTIVITY = 1e-4


@dataclasses.dataclass(frozen=True)
class Operand:
    """One comparison operand: a literal python value or a parameter name."""

    value: Any = None
    param: Optional[str] = None

    @property
    def is_param(self) -> bool:
        return self.param is not None

    def resolve(self, params: Optional[Mapping[str, Any]]) -> Any:
        if not self.is_param:
            return self.value
        if params is None or self.param not in params:
            return None
        return params[self.param]


@dataclasses.dataclass(frozen=True)
class PruningConjunct:
    """One zone-map-checkable conjunct: ``column <op> operand(s)``."""

    column: str                    # field name in the scan's output schema
    kind: str                      # int | float | date | string
    op: str                        # lt | le | gt | ge | eq | in
    operands: tuple                # one Operand (comparisons) or several (IN)
    #: Whether the column's zone map can actually discriminate blocks (set by
    #: the planner from :func:`repro.storage.statistics.zone_discrimination`).
    #: A traced program only lowers *discriminative* parameterized conjuncts
    #: into tensor ops — on unclustered columns the check could never skip a
    #: block, so compiling it in would be pure per-execution overhead.
    discriminative: bool = True

    @property
    def has_params(self) -> bool:
        return any(op.is_param for op in self.operands)

    def describe(self) -> str:
        ops_text = ", ".join(
            f":{o.param}" if o.is_param else repr(o.value) for o in self.operands)
        return f"{self.column} {self.op} {ops_text}"


# -- conjunct extraction ------------------------------------------------------

_PRUNABLE_KINDS = {
    LogicalType.INT: "int",
    LogicalType.FLOAT: "float",
    LogicalType.DATE: "date",
    LogicalType.STRING: "string",
}


def _column_name(expr: ast.Expr, fields: Optional[frozenset]) -> Optional[str]:
    if not isinstance(expr, ast.ColumnRef):
        return None
    name = expr.resolved or expr.display
    if fields is not None and name not in fields:
        return None
    return name


def _operand(expr: ast.Expr, kind: str) -> Optional[Operand]:
    if isinstance(expr, ast.ParameterExpr):
        return Operand(param=expr.name)
    if isinstance(expr, ast.Literal) and expr.value is not None:
        value = expr.value
        if kind == "string":
            value = str(value)
        elif kind == "date":
            value = int(value)
        elif not isinstance(value, (int, float, np.integer, np.floating)):
            return None
        return Operand(value=value)
    return None


def _match_comparison(expr: ast.BinaryOp, fields) -> Optional[PruningConjunct]:
    op = _COMPARISONS.get(expr.op)
    if op is None:
        return None
    column = _column_name(expr.left, fields)
    other = expr.right
    if column is None:
        column = _column_name(expr.right, fields)
        other = expr.left
        op = _FLIPPED[op]
        if column is None:
            return None
    ref = expr.left if other is expr.right else expr.right
    kind = _PRUNABLE_KINDS.get(ref.otype)
    if kind is None:
        return None
    if kind == "string" and op != "eq":
        return None
    operand = _operand(other, kind)
    if operand is None:
        return None
    return PruningConjunct(column, kind, op, (operand,))


def extract_pruning_conjuncts(condition: ast.Expr,
                              field_names: Optional[Sequence[str]] = None
                              ) -> list[PruningConjunct]:
    """Zone-map-checkable conjuncts of ``condition``.

    ``field_names`` restricts matches to columns of one scan's output schema
    (pass ``None`` to accept any column reference — used by selectivity
    estimation, which resolves columns against every scanned table).
    """
    fields = frozenset(field_names) if field_names is not None else None
    conjuncts: list[PruningConjunct] = []
    for part in split_conjuncts(condition):
        if isinstance(part, ast.BinaryOp):
            matched = _match_comparison(part, fields)
            if matched is not None:
                conjuncts.append(matched)
        elif isinstance(part, ast.InList):
            column = _column_name(part.operand, fields)
            kind = _PRUNABLE_KINDS.get(part.operand.otype)
            if column is None or kind is None:
                continue
            operands = [_operand(item, kind) for item in part.items]
            if operands and all(op is not None for op in operands):
                conjuncts.append(PruningConjunct(column, kind, "in",
                                                 tuple(operands)))
    return conjuncts


# -- block survival (python path: literals + bind-time resolved params) -------


def _op_mask(op: str, mins: np.ndarray, maxs: np.ndarray, value: Any
             ) -> np.ndarray:
    if op == "lt":
        return mins < value
    if op == "le":
        return mins <= value
    if op == "gt":
        return maxs > value
    if op == "ge":
        return maxs >= value
    # equality: the value must fall inside the block's [min, max] range
    return (mins <= value) & (maxs >= value)


def conjunct_block_mask(conjunct: PruningConjunct, stats: ColumnStatistics,
                        params: Optional[Mapping[str, Any]] = None
                        ) -> Optional[np.ndarray]:
    """(B,) survival mask for one conjunct, or ``None`` if unresolvable."""
    values = [op.resolve(params) for op in conjunct.operands]
    if any(v is None for v in values):
        return None
    mins = np.asarray(stats.block_min)
    maxs = np.asarray(stats.block_max)
    alive = stats.block_nonnull > 0   # NULL never satisfies a comparison
    if conjunct.op == "in":
        hit = np.zeros(len(mins), dtype=bool)
        for value in values:
            hit |= _op_mask("eq", mins, maxs, value)
        return alive & hit
    return alive & _op_mask(conjunct.op, mins, maxs, values[0])


def surviving_blocks(conjuncts: Sequence[PruningConjunct],
                     stats: TableStatistics,
                     params: Optional[Mapping[str, Any]] = None
                     ) -> np.ndarray:
    """(B,) bool mask of blocks that may contain matching rows.

    Conjuncts over columns without statistics, and parameterized conjuncts
    whose value is absent from ``params``, are skipped (never prune).
    """
    mask = np.ones(stats.num_blocks, dtype=bool)
    for conjunct in conjuncts:
        column_stats = stats.column(conjunct.column)
        if column_stats is None or len(column_stats.block_nonnull) != len(mask):
            continue
        contribution = conjunct_block_mask(conjunct, column_stats, params)
        if contribution is not None:
            mask &= contribution
    return mask


# -- block survival (tensor path: traced programs, params as runtime inputs) --


def block_mask_tensor(conjuncts: Sequence[PruningConjunct],
                      stats: TableStatistics,
                      param_tensors: Mapping[str, Tensor],
                      device: Device | str = "cpu") -> Optional[Tensor]:
    """Survival mask as a traced ``(B,)`` bool tensor.

    Only numeric/date conjuncts lower to tensor ops (string zone bounds are
    python objects); conjuncts that cannot lower are skipped — the mask stays
    conservative.  Zone-map bounds enter the graph as constants tied to the
    table version (any data change invalidates the plan), while parameter
    values are the program's runtime inputs, so a traced program re-decides
    block survival on every binding.
    """
    dev = parse_device(device)
    mask: Optional[Tensor] = None

    for conjunct in conjuncts:
        column_stats = stats.column(conjunct.column)
        if (column_stats is None or conjunct.kind == "string"
                or len(column_stats.block_nonnull) != stats.num_blocks):
            continue
        # int/date bounds stay int64 — epoch-nanosecond dates exceed the
        # exact-integer range of float64, and a boundary comparison that
        # rounds could prune a block that still holds a matching row.  A
        # float literal against an integer column forces the float path.
        integral = (conjunct.kind in ("int", "date")
                    and all(op.is_param or isinstance(op.value, (int, np.integer))
                            for op in conjunct.operands))
        dtype = "int64" if integral else "float64"

        def scalar(operand: Operand) -> Optional[Tensor]:
            if operand.is_param:
                tensor = param_tensors.get(operand.param)
                return None if tensor is None else ops.cast(tensor, dtype)
            return ops.tensor(operand.value, dtype=dtype, device=dev)

        np_dtype = np.int64 if integral else np.float64
        mins = ops.tensor(np.asarray(column_stats.block_min, dtype=np_dtype),
                          device=dev)
        maxs = ops.tensor(np.asarray(column_stats.block_max, dtype=np_dtype),
                          device=dev)
        alive = ops.tensor(column_stats.block_nonnull > 0, device=dev)
        values = [scalar(op) for op in conjunct.operands]
        if any(v is None for v in values):
            continue

        def compare(op: str, value: Tensor) -> Tensor:
            if op == "lt":
                return ops.lt(mins, value)
            if op == "le":
                return ops.le(mins, value)
            if op == "gt":
                return ops.gt(maxs, value)
            if op == "ge":
                return ops.ge(maxs, value)
            return ops.logical_and(ops.le(mins, value), ops.ge(maxs, value))

        if conjunct.op == "in":
            hit = compare("eq", values[0])
            for value in values[1:]:
                hit = ops.logical_or(hit, compare("eq", value))
        else:
            hit = compare(conjunct.op, values[0])
        contribution = ops.logical_and(alive, hit)
        mask = contribution if mask is None else ops.logical_and(mask, contribution)
    return mask


# -- selectivity estimation ---------------------------------------------------


def _range_fraction(stats: ColumnStatistics, op: str, value: Any) -> float:
    lo, hi = stats.min_value, stats.max_value
    try:
        lo_f, hi_f, v = float(lo), float(hi), float(value)
    except (TypeError, ValueError):
        return 1.0
    if hi_f <= lo_f:  # single-valued column: the predicate matches all or nothing
        if op == "le":
            return 1.0 if v >= lo_f else 0.0
        if op == "lt":
            return 1.0 if v > lo_f else 0.0
        if op == "ge":
            return 1.0 if v <= lo_f else 0.0
        return 1.0 if v < lo_f else 0.0
    frac = (v - lo_f) / (hi_f - lo_f)
    frac = min(1.0, max(0.0, frac))
    return frac if op in ("lt", "le") else 1.0 - frac


def conjunct_selectivity(conjunct: PruningConjunct,
                         stats: Optional[ColumnStatistics]) -> float:
    """Estimated match fraction for one conjunct (1.0 when unknown)."""
    if stats is None:
        return 1.0
    if conjunct.has_params:
        return PARAM_SELECTIVITY
    if conjunct.op == "eq":
        return 1.0 / max(1, stats.ndv)
    if conjunct.op == "in":
        return min(1.0, len(conjunct.operands) / max(1, stats.ndv))
    return _range_fraction(stats, conjunct.op,
                           conjunct.operands[0].value)


def estimate_selectivity(condition: ast.Expr,
                         column_stats: Mapping[str, ColumnStatistics]) -> float:
    """Combined selectivity estimate of a filter predicate.

    ``column_stats`` maps *base* (unqualified) column names to their
    statistics; conjuncts over unknown columns contribute 1.0.  Conjunct
    fractions multiply under the usual independence assumption, floored at
    :data:`MIN_SELECTIVITY`.
    """
    selectivity = 1.0
    for conjunct in extract_pruning_conjuncts(condition, field_names=None):
        base = conjunct.column.split(".", 1)[1] if "." in conjunct.column \
            else conjunct.column
        selectivity *= conjunct_selectivity(conjunct, column_stats.get(base))
    return max(MIN_SELECTIVITY, min(1.0, selectivity))
