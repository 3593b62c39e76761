"""Shared key-factorization machinery used by joins, aggregation and DISTINCT.

Grouping and joining over arbitrary key types stay inside the tensor op
vocabulary: every key column becomes int64 ids that everything downstream
(direct-address join tables, scatter reductions, DISTINCT) works on.  Grouping
and DISTINCT read the group order off the ids, so they densify each key into
order-preserving ids ``0..G-1`` — numeric, date and dictionary-code keys with
``unique``, padded strings with :func:`repro.core.strings.dense_rank`,
multi-column keys mixed pairwise and re-densified to avoid overflow.  A join
only indexes tables with its ids, so a numeric key pair goes through
``join_ids``, where bounded integer keys are their own ids.

Each kernel picks its path per call (:mod:`repro.tensor.ops`) from the keys it
is handed: integer keys whose ``max - min`` is within a small multiple of the
row count — TPC-H keys, dictionary codes, ids that are already dense — take
the direct-address path; floats, epoch-ns dates and sparse domains are sorted.
There is no switch here, in the planner or in ``ExecutionOptions``, and a
prepared statement may cross from one path to the other when it is rebound.
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
    """One key column of a join's two sides as ids from one id space, so equal
    values map to equal ids: ``(left ids, right ids, id count)``.

    Numeric keys go through :func:`repro.tensor.ops.join_ids`; padded strings
    are ranked together.  A NULL key
    equals nothing, itself included: NULL rows take one fresh id per side,
    which no row of the other side carries.
    """
    if (left.ltype == LogicalType.STRING) != (right.ltype == LogicalType.STRING):
        raise ExecutionError("join key types do not match")
    if left.ltype == LogicalType.STRING:
        width = max(left.tensor.shape[1], right.tensor.shape[1])
        both = ops.concat([ops.pad2d(left.tensor, width),
                           ops.pad2d(right.tensor, width)], axis=0)
        ids = strings.dense_rank(both)
        count = id_count(ids)
        # The split point is read from the left side's row count at run time
        # so a rebinding that changes either input's size replays correctly.
        left_ids, right_ids = ops.split_rows(ids, left.tensor)
    else:
        target = ("float64" if LogicalType.FLOAT in (left.ltype, right.ltype)
                  else "int64")
        left_ids, right_ids, count = ops.join_ids(
            ops.cast(left.tensor, target), ops.cast(right.tensor, target))
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
    """Mix several ``(ids, id count)`` columns into one dense composite id
    column and its count.

    Each mix is re-densified, so only the first product reaches
    ``count * count``.  A join's counts come from ``join_ids`` (at most
    ``max(DIRECT_ADDRESS_MIN_SPAN, DIRECT_ADDRESS_SLACK * n)``), which keeps
    that product within int64 for up to ~7e8 key rows."""
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
