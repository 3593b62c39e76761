"""Tensor-program implementations of string predicates over padded code tensors.

Strings are ``(n × m)`` int32 code-point tensors right-padded with zeros
(paper §2.1), so every predicate below is expressed purely with tensor ops —
equality/comparison, substring search (``ops.find``) for ``LIKE '%x%'``, prefix
and suffix matching, and substring extraction.
"""

from __future__ import annotations

import functools

from repro.core.columnar import encode_string_literal
from repro.errors import UnsupportedOperationError
from repro.frontend.functions import check_like_pattern
from repro.tensor import Tensor, ops


def row_lengths(codes: Tensor) -> Tensor:
    """Logical length of every row (number of non-padding code points)."""
    return ops.count_nonzero(ops.ne(codes, 0), axis=-1)


def _head_equals(codes: Tensor, value: str, columns: int) -> Tensor:
    """The first ``columns`` columns equal ``value`` zero-padded to them."""
    if len(value) > codes.shape[1]:
        return ops.full_like_rows(codes, False, dtype="bool")
    literal = ops.tensor(encode_string_literal(value, columns), device=codes.device)
    return ops.all_(ops.eq(ops.narrow(codes, 1, 0, columns), literal), axis=1)


def equals_literal(codes: Tensor, value: str) -> Tensor:
    """``column = 'literal'``: only the literal's code points and the pad zero
    after them decide, so the other columns are never compared."""
    return _head_equals(codes, value, min(len(value) + 1, codes.shape[1]))


def equals_columns(left: Tensor, right: Tensor) -> Tensor:
    """Row-wise equality of two padded string tensors (widths may differ)."""
    width = max(left.shape[1], right.shape[1])
    left = ops.pad2d(left, width)
    right = ops.pad2d(right, width)
    return ops.all_(ops.eq(left, right), axis=1)


def starts_with(codes: Tensor, prefix: str) -> Tensor:
    if not prefix:
        return ops.full_like_rows(codes, True, dtype="bool")
    return _head_equals(codes, prefix, len(prefix))


def _find(codes: Tensor, start, needle: str) -> Tensor:
    """Earliest position of ``needle`` at or after ``start`` per row, else -1."""
    return ops.find(codes, start, [ord(ch) for ch in needle])


def contains(codes: Tensor, needle: str) -> Tensor:
    """``LIKE '%needle%'``."""
    if not needle:
        return ops.full_like_rows(codes, True, dtype="bool")
    return ops.ge(_find(codes, 0, needle), 0)


def _ends_with_from(codes: Tensor, suffix: str, cursor) -> Tensor:
    """``suffix`` sits exactly at the end of the row, starting at or after
    ``cursor`` (needles hold no pad zeros, so a match cannot end later)."""
    expected = ops.sub(row_lengths(codes), len(suffix))
    anchored = ops.eq(_find(codes, expected, suffix), expected)
    # ``expected`` is -1 on a row one short of the suffix: not a "not found".
    return ops.logical_and(anchored, ops.ge(expected, cursor))


def ends_with(codes: Tensor, suffix: str) -> Tensor:
    """``LIKE '%suffix'`` — the match must end exactly at the row length."""
    if not suffix:
        return ops.full_like_rows(codes, True, dtype="bool")
    return _ends_with_from(codes, suffix, 0)


def like(codes: Tensor, pattern: str) -> Tensor:
    """General SQL ``LIKE`` with ``%`` wildcards (``_`` raises).

    The pattern is split on ``%`` into segments; a non-empty leading segment
    anchors at position 0, a non-empty trailing segment anchors at the end of
    the string, and the remaining segments must occur in order, each starting
    at or after the end of the previous match.  A matched prefix or segment
    already proves the row is long enough, so row lengths are computed only
    for a trailing anchor.
    """
    check_like_pattern(pattern)
    if "%" not in pattern:
        return equals_literal(codes, pattern)
    segments = pattern.split("%")
    leading, trailing = segments[0], segments[-1]

    verdicts = [starts_with(codes, leading)] if leading else []
    cursor = len(leading)
    for segment in filter(None, segments[1:-1]):
        position = _find(codes, cursor, segment)
        verdicts.append(ops.ge(position, 0))
        # Rows without a match are already False; their cursor is never read.
        cursor = ops.add(position, len(segment))
    if trailing:
        verdicts.append(_ends_with_from(codes, trailing, cursor))
    if not verdicts:
        return ops.full_like_rows(codes, True, dtype="bool")
    return functools.reduce(ops.logical_and, verdicts)


def substring(codes: Tensor, start: int, length: int | None) -> Tensor:
    """``SUBSTRING(column FROM start [FOR length])`` with 1-based ``start``."""
    if start < 1:
        raise UnsupportedOperationError("SUBSTRING start must be >= 1")
    width = codes.shape[1]
    begin = min(start - 1, width)
    if length is None:
        length = width - begin
    length = max(0, min(length, width - begin))
    if length == 0:
        return ops.full_like_rows(codes, 0, dtype="int32", width=1)
    return ops.narrow(codes, 1, begin, length)


def dense_rank(codes: Tensor) -> Tensor:
    """Dense group ids (0..G-1, in lexicographic order) for a string tensor.

    Implemented with sort + neighbour-comparison + prefix sum so it stays in
    the tensor op vocabulary (no Python loops over rows).
    """
    _, width = codes.shape
    # numpy lexsort treats the *last* key as primary: pass columns reversed.
    keys = [ops.slice_(codes, (slice(None), col)) for col in range(width - 1, -1, -1)]
    order = ops.lexsort(keys)
    sorted_codes = ops.take(codes, order, axis=0)
    # Everything below is expressed without Python branches on the row count,
    # so a traced program replays correctly whatever size a parameter
    # rebinding produces (including zero rows in either direction).  Relative
    # slices compare each sorted row to its predecessor; the boundary flags
    # are scattered to positions 1..n-1 of an n-length vector (position 0
    # stays 0: the first row starts group 0).
    head = ops.slice_(sorted_codes, slice(None, -1))
    tail = ops.slice_(sorted_codes, slice(1, None))
    boundaries = ops.any_(ops.ne(head, tail), axis=1)
    flags = ops.scatter_add(ops.add(ops.arange_like(boundaries), 1),
                            ops.cast(boundaries, "int64"),
                            size=ops.row_count(codes))
    group_of_sorted = ops.cumsum(flags)
    ranks = ops.scatter_add(order, group_of_sorted, size=ops.row_count(codes))
    return ops.cast(ranks, "int64")
