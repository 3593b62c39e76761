"""The compressed column encoding: dictionary codes for strings.

A :class:`DictionaryEncoding` is a small object attached to a
:class:`~repro.core.columnar.TensorColumn` that reinterprets the column's
``tensor``: it holds ``(n,)`` int32 *codes* into a ``(k × m)`` dictionary of
padded code-point rows.  The codes are int32 whatever the text; the
dictionary's code unit is the one :func:`~repro.core.columnar.encode_strings`
chooses for the distinct values (uint8 when every code point is below 256,
int32 otherwise).  The dictionary holds the distinct values **sorted**
(they are found by hashing; only those ``k`` are sorted, never the ``n`` rows),
which makes code order agree with lexicographic string
order — equality, IN, LIKE, GROUP BY, DISTINCT and ORDER BY all run directly
on the codes.  That is what a stored form has to do to be kept: operators read
it.  Numeric, date and bool columns are always plain ``(n,)`` tensors.

The decode is a single tensor op (``take``), so lazy decoding composes with
tracing and the simulated device cost models: an operator that cannot work on
the codes pays one visible kernel to materialize the plain column.

``encode_table`` is the conversion entry point (called by
``repro.core.executor.convert_scan_input``) and converts a column once per
table generation, however many scans read it.  Conversion follows one rule:
a low-NDV string column becomes a dictionary, every other column stays plain.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.core.columnar import LogicalType, TensorColumn, encode_strings
from repro.errors import ExecutionError
from repro.tensor import Tensor, ops
from repro.tensor.device import Device, parse_device

#: Dictionary-encode a string column only while distinct values stay below
#: this fraction of the rows — near-unique columns (comments, names) would pay
#: a dictionary as large as the data plus a decode on every access.
DICTIONARY_MAX_NDV_RATIO = 0.5

#: Columns smaller than this are never worth encoding.
MIN_ENCODE_ROWS = 16


class DictionaryEncoding:
    """Dictionary encoding for string columns: int32 codes + sorted dictionary."""

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


# -- numpy-side encoders ------------------------------------------------------


def dictionary_encode(values: Iterable, device: Device | str = "cpu"
                      ) -> TensorColumn:
    """Dictionary-encode python/numpy strings into a codes + dictionary column.

    The dictionary rows are the sorted distinct values, so the produced codes
    are order-preserving (``code_a < code_b  <=>  str_a < str_b``).
    """
    dev = parse_device(device)
    cleaned = ["" if v is None else str(v) for v in values]
    uniques = sorted(set(cleaned))
    code_of = {value: code for code, value in enumerate(uniques)}
    dictionary = encode_strings(uniques)
    codes = ops.tensor(np.fromiter(map(code_of.__getitem__, cleaned),
                                   dtype=np.int32, count=len(cleaned)),
                       device=dev)
    return TensorColumn(codes, LogicalType.STRING,
                        encoding=DictionaryEncoding(ops.tensor(dictionary, device=dev)))


def encode_column(array: np.ndarray, ndv: Optional[int] = None,
                  device: Device | str = "cpu") -> TensorColumn:
    """Convert one numpy column: a low-cardinality string column is
    dictionary-encoded, everything else is a plain tensor.

    ``ndv`` is an optional precomputed distinct-value count (from the catalog
    statistics); without it the dictionary decision hashes the column once.
    """
    rows = len(array)
    if array.dtype.kind in "OU" and rows >= MIN_ENCODE_ROWS:
        if ndv is None:
            ndv = len({"" if v is None else str(v) for v in array})
        if ndv <= max(1, int(rows * DICTIONARY_MAX_NDV_RATIO)):
            return dictionary_encode(array, device=device)
    return TensorColumn.from_numpy(array, device=device)


def encode_table(record, fields: Iterable) -> dict[str, TensorColumn]:
    """The columns one scan reads of a table generation, converted once.

    ``record`` is the catalog's :class:`~repro.frontend.catalog.TableRecord`:
    its frame is the source, its statistics lend the NDV counts, and its
    ``columns`` memo is read before converting and filled after, so scans that
    share a column share its tensors.  ``fields`` are the scan's (possibly
    qualified) field objects; the mapping returned is keyed by the qualified
    field name, matching what the scan operators expect.  Called by
    ``repro.core.executor.convert_scan_input``, the one converter.
    """
    stats = record.statistics
    columns: dict[str, TensorColumn] = {}
    for field in fields:
        name = field.name
        base = name.split(".", 1)[1] if "." in name else name
        column = record.columns.get(base)
        if column is None:
            known = stats.column(base) if stats is not None else None
            column = record.columns[base] = encode_column(
                record.frame[base], ndv=known.ndv if known is not None else None)
        columns[name] = column
    return columns
