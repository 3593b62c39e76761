"""Shared key-factorization machinery used by joins, aggregation and DISTINCT.

Grouping and joining over arbitrary key types stay inside the tensor op
vocabulary: every key column is densified into ids ``0..G-1`` that preserve
the key order, and everything downstream (direct-address join tables,
scatter reductions, DISTINCT) works on those ids.  Numeric, date and
dictionary-code keys are densified with ``unique``; padded string keys with
the sort + neighbour-comparison trick of
:func:`repro.core.strings.dense_rank`; multi-column keys are mixed pairwise
and re-densified to avoid overflow.

How ``unique`` densifies is decided per call inside the kernel
(:mod:`repro.tensor.ops`), from the keys it is handed: integer keys whose
``max - min`` is within a small multiple of the row count — TPC-H keys,
dictionary codes, ids that are already dense — index a presence table
directly in O(n + range); floats, epoch-ns dates and sparse domains are
sorted.  The two paths return identical arrays, so there is no switch here,
in the planner or in ``ExecutionOptions``, and a prepared statement may cross
from one to the other when it is rebound.
"""

from __future__ import annotations

from repro.core import strings
from repro.core.columnar import LogicalType, TensorTable
from repro.core.expressions import ExprValue
from repro.core.tuning import MAX_STATIC_GROUP_IDS
from repro.errors import ExecutionError
from repro.tensor import Tensor, ops


def factorize_single(value: ExprValue) -> tuple[Tensor, Tensor]:
    """Dense int64 ids (0..G-1) for one key column, and ``G``.

    Dictionary-encoded string keys densify their int32 codes directly — one
    ``unique`` over ``(n,)`` integers instead of the lexsort-based
    ``dense_rank`` over the ``(n × m)`` code-point matrix.  Because the
    dictionary is sorted, the resulting ids are still in lexicographic order.
    """
    if value.ltype == LogicalType.STRING and value.encoding is None:
        ids = strings.dense_rank(value.tensor)
        return ids, id_count(ids)
    values, inverse, _ = ops.unique(value.tensor)
    return inverse, ops.row_count(values)


def id_count(ids: Tensor) -> Tensor:
    """``max(ids) + 1`` as a 0-d int64 tensor, and 0 for an empty input.

    Only for ids that arrive without their ``unique`` (string ``dense_rank``):
    everywhere else the count is the row count of the distinct values and
    travels with the ids.  Padding with a ``-1`` sentinel before the max
    keeps the traced op valid when a parameter rebinding empties the input
    (``np.max`` has no identity on empty arrays).
    """
    sentinel = ops.tensor([-1], dtype="int64", device=ids.device)
    padded = ops.concat([ops.cast(ids, "int64"), sentinel], axis=0)
    return ops.cast(ops.add(ops.max_(padded), 1), "int64")


def factorize_pair(left: ExprValue, right: ExprValue
                   ) -> tuple[Tensor, Tensor, Tensor]:
    """Jointly densify one key column of a join's left and right side:
    ``(left ids, right ids, id count)``.

    Both sides must receive ids drawn from the same dictionary so equal values
    map to equal ids; this is achieved by concatenating the two key columns
    before densification.  A NULL key equals nothing, itself included: NULL
    rows take one fresh id per side, which no row of the other side carries.
    """
    if (left.ltype == LogicalType.STRING) != (right.ltype == LogicalType.STRING):
        raise ExecutionError("join key types do not match")
    if left.ltype == LogicalType.STRING:
        width = max(left.tensor.shape[1], right.tensor.shape[1])
        both = ops.concat([ops.pad2d(left.tensor, width),
                           ops.pad2d(right.tensor, width)], axis=0)
        ids = strings.dense_rank(both)
        count = id_count(ids)
    else:
        if LogicalType.FLOAT in (left.ltype, right.ltype):
            target = "float64"
        else:
            target = "int64"
        both = ops.concat([ops.cast(left.tensor, target),
                           ops.cast(right.tensor, target)], axis=0)
        values, ids, _ = ops.unique(both)
        count = ops.row_count(values)
    # The split point is read from the left side's row count at run time so a
    # parameter rebinding that changes either input's size replays correctly.
    left_ids, right_ids = ops.split_rows(ids, left.tensor)
    if left.valid is not None or right.valid is not None:
        if left.valid is not None:
            left_ids = ops.where(left.valid, left_ids, count)
        if right.valid is not None:
            right_ids = ops.where(right.valid, right_ids, ops.add(count, 1))
        count = ops.add(count, 2)
    return left_ids, right_ids, count


def static_radix_group_ids(key_values: list[ExprValue]
                           ) -> "tuple[Tensor, int] | None":
    """Sort-free group ids when *every* key is dictionary-encoded.

    Dictionary codes are already dense ids over the column's dictionary, so a
    composite group id is just a radix mix with the (static) dictionary
    cardinalities — no ``unique`` / ``dense_rank`` sort at all.  The id space
    covers every dictionary combination, including ones absent from the rows
    (or filtered out by the current parameter binding), so callers must
    compact empty groups afterwards; returns ``None`` when any key is not
    dictionary-encoded or the id space would be too large.
    """
    if not key_values or any(value.encoding is None for value in key_values):
        return None
    num_groups = 1
    for value in key_values:
        num_groups *= max(1, value.encoding.cardinality)
    if num_groups > MAX_STATIC_GROUP_IDS:
        return None
    combined: Tensor | None = None
    for value in key_values:
        codes = ops.cast(value.tensor, "int64")
        if combined is None:
            combined = codes
        else:
            combined = ops.add(
                ops.mul(combined, value.encoding.cardinality), codes)
    return combined, num_groups


def combine_ids(id_columns: list[tuple[Tensor, Tensor]]
                ) -> tuple[Tensor, Tensor]:
    """Mix several dense ``(ids, id count)`` columns into one dense composite
    id column and its count."""
    if not id_columns:
        raise ExecutionError("combine_ids() requires at least one id column")
    combined, count = id_columns[0]
    for ids, radix in id_columns[1:]:
        mixed = ops.add(ops.mul(combined, radix), ids)
        values, combined, _ = ops.unique(mixed)
        count = ops.row_count(values)
    return combined, count


def group_rows(key_values: list[ExprValue], table: TensorTable
               ) -> "tuple[Tensor, Tensor | int, Tensor | None]":
    """``(group ids, group count, presence mask)`` of ``table``'s rows — the
    one grouping routine of aggregation (serial, partial and merge) and
    DISTINCT.

    All-dictionary keys take the sort-free static-radix path
    (:func:`static_radix_group_ids`): the id space then covers every
    dictionary combination, so the caller must drop the groups the presence
    mask rules out.  Otherwise keys are densified with sort-based
    factorization (presence ``None``: the ids are already dense) and the count
    stays a run-time tensor (never ``.item()``) so scatter sizes are recomputed
    when a prepared query is re-executed with a binding that changes how many
    rows / groups survive the child plan.  No keys is one global group.
    """
    if not key_values:
        return (ops.full_like_rows(table.anchor, 0, dtype="int64"),
                ops.tensor(1, dtype="int64", device=table.device), None)
    static = static_radix_group_ids(key_values)
    if static is not None:
        group_ids, num_groups = static
        return group_ids, num_groups, ops.gt(
            ops.bincount(group_ids, minlength=num_groups), 0)
    # The count is empty-safe (0 groups for 0 rows), so no Python branch on
    # num_rows may be traced here — it would bake the wrong size into the
    # program for every other binding.
    return (*combine_ids([factorize_single(value) for value in key_values]),
            None)


def representatives(group_ids: Tensor, num_groups: "Tensor | int",
                    presence: "Tensor | None") -> Tensor:
    """The row index of each group's first row, in group-id order."""
    first_rows = ops.scatter_min(group_ids, ops.arange_like(group_ids),
                                 num_groups)
    if presence is not None:
        # Static-radix ids cover every dictionary combination; keep only the
        # representatives of groups some row actually hit.
        first_rows = ops.boolean_mask(first_rows, presence)
    return first_rows
