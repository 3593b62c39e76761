"""Compressed column encodings: dictionary and run-length.

An encoding is a small object attached to a :class:`~repro.core.columnar.
TensorColumn` that reinterprets the column's ``tensor``:

* :class:`DictionaryEncoding` — the column tensor holds ``(n,)`` int32 *codes*
  into a ``(k × m)`` dictionary of padded code-point rows.  The dictionary is
  built with ``np.unique`` and is therefore **sorted**, which makes code order
  agree with lexicographic string order — equality, IN, GROUP BY, DISTINCT and
  ORDER BY can all run directly on the codes.
* :class:`RunLengthEncoding` — the column tensor holds the ``(r,)`` run
  *values* of a sorted or low-cardinality numeric/date column; the encoding
  carries the matching ``(r,)`` run lengths and the logical row count.  A
  constant column is the one-run special case.

Both decodes are single tensor ops (``take`` resp. ``repeat``), so lazy
decoding composes with tracing and the simulated device cost models: an
operator that cannot work on the encoded form pays one visible kernel to
materialize the plain column.

``encode_table`` is the conversion entry point shared by the session and the
executor; the ``mode`` string it takes (``auto`` / ``dictionary`` / ``rle`` /
``off``) is part of the plan-cache and conversion-cache keys, so changing the
encoding configuration can never serve tensors traced against another layout.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.columnar import LogicalType, TensorColumn, encode_dates, encode_strings
from repro.errors import ExecutionError
from repro.tensor import Tensor, ops
from repro.tensor.device import Device, parse_device

#: Encoding configuration values accepted by :func:`encode_table` (and by
#: ``ExecutionOptions.encoding``).
ENCODING_MODES = ("auto", "dictionary", "rle", "off")

#: Dictionary-encode a string column only while distinct values stay below
#: this fraction of the rows — near-unique columns (comments, names) would pay
#: a dictionary as large as the data plus a decode on every access.
DICTIONARY_MAX_NDV_RATIO = 0.5

#: Run-length-encode only when the run count is at most this fraction of the
#: rows (below it the two run tensors are at least 2x smaller than the data).
RLE_MAX_RUN_RATIO = 0.5

#: Columns smaller than this are never worth encoding.
MIN_ENCODE_ROWS = 16


class DictionaryEncoding:
    """Dictionary encoding for string columns: int32 codes + sorted dictionary."""

    kind = "dictionary"

    __slots__ = ("dictionary",)

    def __init__(self, dictionary: Tensor):
        if dictionary.ndim != 2:
            raise ExecutionError("string dictionaries must be (k x m) tensors")
        self.dictionary = dictionary

    @property
    def cardinality(self) -> int:
        return self.dictionary.shape[0]

    @property
    def width(self) -> int:
        return self.dictionary.shape[1]

    def validate(self, tensor: Tensor, ltype: LogicalType) -> None:
        if ltype != LogicalType.STRING:
            raise ExecutionError("dictionary encoding applies to string columns")
        if tensor.ndim != 1:
            raise ExecutionError("dictionary codes must be 1-d tensors")

    def num_rows(self, tensor: Tensor) -> int:
        return tensor.shape[0]

    def decode(self, tensor: Tensor) -> Tensor:
        """Materialize the ``(n × m)`` code-point matrix (one ``take`` kernel)."""
        return ops.take(self.dictionary, ops.cast(tensor, "int64"), axis=0)

    def to(self, device: Device | str) -> "DictionaryEncoding":
        return DictionaryEncoding(self.dictionary.to(device))

    def parts(self) -> list[tuple[str, Tensor]]:
        """Auxiliary tensors for input flattening (graph backends)."""
        return [("dict", self.dictionary)]

    def with_parts(self, parts: dict[str, Tensor]) -> "DictionaryEncoding":
        return DictionaryEncoding(parts["dict"])

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"DictionaryEncoding(cardinality={self.cardinality}, width={self.width})"


class RunLengthEncoding:
    """Run-length encoding: the column tensor holds run values, this holds
    run lengths plus the logical row count (``rows == sum(lengths)``)."""

    kind = "rle"

    __slots__ = ("lengths", "rows")

    def __init__(self, lengths: Tensor, rows: int):
        if lengths.ndim != 1:
            raise ExecutionError("run lengths must be 1-d tensors")
        self.lengths = lengths
        self.rows = int(rows)

    @property
    def num_runs(self) -> int:
        return self.lengths.shape[0]

    @property
    def is_constant(self) -> bool:
        return self.num_runs <= 1

    def validate(self, tensor: Tensor, ltype: LogicalType) -> None:
        if ltype == LogicalType.STRING:
            raise ExecutionError("run-length encoding applies to 1-d columns")
        if tensor.ndim != 1 or tensor.shape[0] != self.lengths.shape[0]:
            raise ExecutionError("run values and run lengths must align")

    def num_rows(self, tensor: Tensor) -> int:
        return self.rows

    def decode(self, tensor: Tensor) -> Tensor:
        """Materialize the ``(n,)`` column (one ``repeat`` kernel)."""
        return ops.repeat(tensor, self.lengths)

    def slice_rows(self, tensor: Tensor, start: int, length: int) -> Tensor:
        """Decode only rows ``[start, start + length)``.

        The run overlap is resolved python-side from the run lengths — sound
        wherever static slicing itself is sound (the runs are input data,
        pinned to the table version) — so only the overlapping runs pay the
        ``repeat`` kernel.  This is what keeps zone-map pruning from decoding
        the very blocks it skips.
        """
        if length <= 0:
            return ops.narrow(tensor, 0, 0, 0)
        lengths = self.lengths.numpy()
        ends = np.cumsum(lengths)
        starts = ends - lengths
        stop = min(start + length, self.rows)
        first = int(np.searchsorted(ends, start, side="right"))
        last = int(np.searchsorted(starts, stop, side="left"))
        if first >= last:
            return ops.narrow(tensor, 0, 0, 0)
        sub = np.array(lengths[first:last], dtype=np.int64)
        sub[0] -= start - int(starts[first])
        sub[-1] -= int(ends[last - 1]) - stop
        return ops.repeat(ops.narrow(tensor, 0, first, last - first),
                          ops.tensor(sub, device=tensor.device))

    def to(self, device: Device | str) -> "RunLengthEncoding":
        return RunLengthEncoding(self.lengths.to(device), self.rows)

    def parts(self) -> list[tuple[str, Tensor]]:
        return [("runs", self.lengths)]

    def with_parts(self, parts: dict[str, Tensor]) -> "RunLengthEncoding":
        return RunLengthEncoding(parts["runs"], self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"RunLengthEncoding(runs={self.num_runs}, rows={self.rows})"


# -- numpy-side encoders ------------------------------------------------------


def dictionary_encode(values: Iterable, device: Device | str = "cpu"
                      ) -> TensorColumn:
    """Dictionary-encode python/numpy strings into a codes + dictionary column.

    The dictionary rows are the sorted distinct values, so the produced codes
    are order-preserving (``code_a < code_b  <=>  str_a < str_b``).
    """
    dev = parse_device(device)
    cleaned = np.array(["" if v is None else str(v) for v in values], dtype=object)
    uniques, inverse = np.unique(cleaned, return_inverse=True)
    dictionary = encode_strings(list(uniques))
    codes = ops.tensor(inverse.astype(np.int32), device=dev)
    return TensorColumn(codes, LogicalType.STRING,
                        encoding=DictionaryEncoding(ops.tensor(dictionary, device=dev)))


def run_length_encode(array: np.ndarray, ltype: LogicalType,
                      device: Device | str = "cpu") -> TensorColumn:
    """Run-length-encode a 1-d numeric/date/bool numpy array."""
    dev = parse_device(device)
    if len(array) == 0:
        values, lengths = array, np.zeros(0, dtype=np.int64)
    else:
        boundaries = np.flatnonzero(array[1:] != array[:-1]) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(array)]))
        values = array[starts]
        lengths = (ends - starts).astype(np.int64)
    encoding = RunLengthEncoding(ops.tensor(lengths, device=dev), rows=len(array))
    return TensorColumn(ops.tensor(values, device=dev), ltype, encoding=encoding)


def _run_count(array: np.ndarray) -> int:
    if len(array) == 0:
        return 0
    return int(np.count_nonzero(array[1:] != array[:-1])) + 1


def encode_column(array: np.ndarray, mode: str = "auto",
                  ndv: Optional[int] = None,
                  device: Device | str = "cpu") -> TensorColumn:
    """Convert one numpy column, choosing an encoding under ``mode``.

    ``ndv`` is an optional precomputed distinct-value count (from the catalog
    statistics); without it the dictionary decision pays one ``np.unique``.
    """
    if mode not in ENCODING_MODES:
        raise ExecutionError(f"unknown encoding mode {mode!r} "
                             f"(expected one of {ENCODING_MODES})")
    kind = array.dtype.kind
    rows = len(array)
    if mode == "off" or rows < MIN_ENCODE_ROWS:
        return TensorColumn.from_numpy(array, device=device)

    if kind in "OU":
        if mode in ("auto", "dictionary"):
            if ndv is None:
                ndv = len(np.unique(np.array(
                    ["" if v is None else str(v) for v in array], dtype=object)))
            if ndv <= max(1, int(rows * DICTIONARY_MAX_NDV_RATIO)):
                return dictionary_encode(array, device=device)
        return TensorColumn.from_numpy(array, device=device)

    if mode in ("auto", "rle") and kind in "Mifb":
        if kind == "M":
            raw, ltype = encode_dates(array), LogicalType.DATE
        elif kind == "b":
            raw, ltype = array, LogicalType.BOOL
        elif kind == "f":
            raw, ltype = array.astype(np.float64), LogicalType.FLOAT
        else:
            raw, ltype = array.astype(np.int64), LogicalType.INT
        if _run_count(raw) <= int(rows * RLE_MAX_RUN_RATIO):
            return run_length_encode(raw, ltype, device=device)
    return TensorColumn.from_numpy(array, device=device)


def encode_table(frame, fields: Iterable, mode: str = "auto",
                 column_ndv: Optional[dict[str, int]] = None,
                 device: Device | str = "cpu") -> dict[str, TensorColumn]:
    """Convert the named DataFrame columns for one scan.

    ``fields`` are the scan's (possibly qualified) field objects; the mapping
    returned is keyed by the qualified field name, matching what the scan
    operators expect.  Called by ``repro.core.executor.convert_scan_input``,
    the one converter.
    """
    columns: dict[str, TensorColumn] = {}
    for field in fields:
        name = field.name
        base = name.split(".", 1)[1] if "." in name else name
        ndv = (column_ndv or {}).get(base)
        columns[name] = encode_column(frame[base], mode=mode, ndv=ndv,
                                      device=device)
    return columns
