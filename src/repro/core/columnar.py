"""Columnar tensor data representation (paper §2.1).

Tabular data is stored column-by-column as tensors:

* numeric (and boolean) columns are ``(n,)`` tensors,
* date columns are ``(n,)`` int64 tensors holding the UNIX epoch in
  nanoseconds,
* string columns are ``(n × m)`` tensors of Unicode code points,
  right-padded with zeros, where ``m`` is the maximum length of any value in
  the column.  The code unit is chosen per conversion: uint8 when every code
  point is below 256 (ASCII and Latin-1), int32 otherwise.  Dictionary codes
  (:mod:`repro.storage.encodings`) and bound STRING parameters
  (:mod:`repro.core.parameters`) stay int32.

Conversion from the ingestion DataFrame is one copy per numeric column per
table generation (``from_numpy`` never aliases the caller's arrays) and an
explicit encoding step for dates and strings, which is what the paper
describes except for the copy.

Columns can carry an optional validity mask so that outer joins (e.g. TPC-H
Q13) can represent NULLs; a missing mask means "all rows valid".
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.dataframe import DataFrame
from repro.errors import ExecutionError, PlanningError
from repro.tensor import Tensor, ops
from repro.tensor.device import Device, parse_device


class LogicalType(enum.Enum):
    """Logical column types understood by the relational layer."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    DATE = "date"
    STRING = "string"

    @property
    def is_numeric(self) -> bool:
        return self in (LogicalType.INT, LogicalType.FLOAT)


# -- string encoding ---------------------------------------------------------


def encode_strings(values: Sequence[str], width: int | None = None) -> np.ndarray:
    """Encode python strings into an ``(n × m)`` code-point tensor.

    Values longer than ``width`` (when given) are truncated; shorter values are
    right-padded with 0, per the paper's representation.  The code unit is
    uint8 when every code point is below 256 and int32 otherwise, so ASCII
    and Latin-1 text costs one byte per character in every kernel that reads
    it; kernels compare codes of either unit, and mixing the two promotes.
    There is no uint16 step: the tensor runtime has no uint16 dtype, and no
    workload holds text beyond Latin-1.
    """
    values = ["" if v is None else str(v) for v in values]
    max_len = max((len(v) for v in values), default=0)
    if width is None:
        width = max(max_len, 1)
    unicode_arr = np.array(values, dtype=f"<U{width}")
    points = unicode_arr.view(np.uint32).reshape(len(values), width)
    narrow = points.size == 0 or points.max() < 256
    return points.astype(np.uint8 if narrow else np.int32)


def decode_strings(codes: np.ndarray) -> np.ndarray:
    """Decode an ``(n × m)`` code-point tensor (either unit) back into an
    object array."""
    if codes.ndim != 2:
        raise ExecutionError("string columns must be 2-dimensional")
    n, width = codes.shape
    if n == 0:
        return np.array([], dtype=object)
    as_unicode = np.ascontiguousarray(codes, dtype=np.uint32).view(f"<U{width}")
    # numpy drops a ``<U`` item's trailing NULs (the padding) when it boxes it.
    return as_unicode.reshape(n).astype(object)


def encode_string_literal(value: str, width: int) -> np.ndarray:
    """Encode a single literal into a ``(width,)`` code vector (for comparisons),
    in the unit :func:`encode_strings` chooses for it."""
    return encode_strings([value], width=width)[0]


# -- dates -------------------------------------------------------------------

_NS_PER_DAY = 86_400_000_000_000


def encode_dates(values: np.ndarray) -> np.ndarray:
    """Convert ``datetime64`` values into int64 epoch nanoseconds."""
    return values.astype("datetime64[ns]").astype(np.int64)


def decode_dates(values: np.ndarray) -> np.ndarray:
    return values.astype("datetime64[ns]").astype("datetime64[D]")


def date_literal_to_ns(text: str) -> int:
    """Parse ``YYYY-MM-DD`` into epoch nanoseconds (used by SQL DATE literals)."""
    return int(np.datetime64(text, "ns").astype(np.int64))


# -- morsels -------------------------------------------------------------------

#: Rows per morsel (zone-map block, partitioning-threshold and lanes-model
#: unit): one morsel of a typical TPC-H lineitem projection (~6 columns × 8
#: bytes) stays around L2-cache size, the classic morsel-driven sizing rule.
DEFAULT_MORSEL_ROWS = 2048


def morsel_bounds(num_rows: int, morsel_rows: int = DEFAULT_MORSEL_ROWS
                  ) -> list[tuple[int, int]]:
    """Fixed-size ``(start, length)`` partitioning of ``num_rows`` rows.

    Every morsel has exactly ``morsel_rows`` rows except the last, which takes
    the remainder.  An empty input yields no morsels.
    """
    if morsel_rows < 1:
        raise ExecutionError("morsel_rows must be >= 1")
    return [(start, min(morsel_rows, num_rows - start))
            for start in range(0, num_rows, morsel_rows)]


# -- columns -------------------------------------------------------------------


class TensorColumn:
    """One column of a :class:`TensorTable`.

    A string column may carry a storage ``encoding`` (see
    :mod:`repro.storage.encodings`): it then keeps ``(n,)`` int32 codes in
    ``tensor`` plus a shared dictionary on the encoding.  Either way ``tensor``
    has one entry per row.  Callers that cannot work on the codes use
    :meth:`decoded`, which lowers the decode to a single tensor op.
    """

    __slots__ = ("tensor", "ltype", "valid", "encoding")

    def __init__(self, tensor: Tensor, ltype: LogicalType,
                 valid: Tensor | None = None, encoding=None):
        if encoding is not None:
            encoding.validate(tensor, ltype)
        elif ltype == LogicalType.STRING and tensor.ndim != 2:
            raise ExecutionError("string columns must be (n x m) tensors")
        elif ltype != LogicalType.STRING and tensor.ndim != 1:
            raise ExecutionError(f"{ltype.value} columns must be 1-d tensors")
        self.tensor = tensor
        self.ltype = ltype
        self.valid = valid
        self.encoding = encoding

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_numpy(cls, array: np.ndarray, device: Device | str = "cpu"
                   ) -> "TensorColumn":
        """Build a column from a numpy array, inferring the logical type."""
        dev = parse_device(device)
        kind = array.dtype.kind
        if kind == "M":
            return cls(ops.tensor(encode_dates(array), device=dev), LogicalType.DATE)
        if kind == "b":
            return cls(ops.tensor(array, device=dev), LogicalType.BOOL)
        if kind in "iu":
            return cls(ops.tensor(array.astype(np.int64), device=dev), LogicalType.INT)
        if kind == "f":
            return cls(ops.tensor(array.astype(np.float64), device=dev),
                       LogicalType.FLOAT)
        if kind in "OU":
            return cls(ops.tensor(encode_strings(list(array)), device=dev),
                       LogicalType.STRING)
        raise PlanningError(f"cannot convert numpy dtype {array.dtype} to a column")

    # -- properties ------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.tensor.shape[0]

    @property
    def string_width(self) -> int:
        if self.ltype != LogicalType.STRING:
            raise ExecutionError("string_width is only defined for string columns")
        if self.encoding is not None:
            return self.encoding.width
        return self.tensor.shape[1]

    @property
    def code_unit(self) -> str:
        """The dtype name of a string column's code points (``uint8`` or
        ``int32``, see :func:`encode_strings`), encoded or not."""
        codes = self.encoding.dictionary if self.encoding is not None else self.tensor
        return codes.dtype.name

    @property
    def device(self) -> Device:
        return self.tensor.device

    # -- encoding ---------------------------------------------------------------

    def decoded(self) -> "TensorColumn":
        """The plain (unencoded) form of this column; a no-op when unencoded.

        The decode is one tensor op (a ``take`` from the dictionary), so it
        is traced, profiled and cost-modelled like any other kernel.
        """
        if self.encoding is None:
            return self
        return TensorColumn(self.encoding.decode(self.tensor), self.ltype,
                            self.valid)

    # -- transformations --------------------------------------------------------

    def gather(self, indices: Tensor) -> "TensorColumn":
        """Select rows by index tensor."""
        taken = ops.take(self.tensor, indices, axis=0)
        valid = ops.take(self.valid, indices, axis=0) if self.valid is not None else None
        return TensorColumn(taken, self.ltype, valid, self.encoding)

    def mask(self, mask: Tensor) -> "TensorColumn":
        """Select rows by boolean mask tensor."""
        kept = ops.boolean_mask(self.tensor, mask)
        valid = ops.boolean_mask(self.valid, mask) if self.valid is not None else None
        return TensorColumn(kept, self.ltype, valid, self.encoding)

    def slice(self, start: int, length: int) -> "TensorColumn":
        """A contiguous row range (zero-copy view via ``narrow``)."""
        data = ops.narrow(self.tensor, 0, start, length)
        valid = (ops.narrow(self.valid, 0, start, length)
                 if self.valid is not None else None)
        return TensorColumn(data, self.ltype, valid, self.encoding)

    def to(self, device: Device | str) -> "TensorColumn":
        valid = self.valid.to(device) if self.valid is not None else None
        encoding = self.encoding.to(device) if self.encoding is not None else None
        return TensorColumn(self.tensor.to(device), self.ltype, valid, encoding)

    def validity(self) -> Tensor:
        """Return the validity mask, materializing an all-true mask if absent.

        The mask is sized off the data tensor at run time (``full_like_rows``)
        so traced programs stay correct when a parameter rebinding changes how
        many rows reach this column.
        """
        if self.valid is not None:
            return self.valid
        return ops.full_like_rows(self.tensor, True, dtype="bool")

    # -- conversion ---------------------------------------------------------------

    def to_numpy(self) -> np.ndarray:
        """Decode back to a numpy array (strings → object, dates → datetime64[D])."""
        if self.encoding is not None:
            return self.decoded().to_numpy()
        data = self.tensor.numpy()
        if self.ltype == LogicalType.STRING:
            out = decode_strings(data)
        elif self.ltype == LogicalType.DATE:
            out = decode_dates(data)
        else:
            out = data
        if self.valid is not None:
            invalid = ~self.valid.numpy().astype(bool)
            if invalid.any():
                out = out.astype(object)
                out[invalid] = None
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"TensorColumn({self.ltype.value}, rows={self.num_rows}, "
                f"device={self.device})")


def concat_columns(cols: Sequence[TensorColumn]) -> TensorColumn:
    """Row-concatenate column chunks with one ``concat`` kernel per tensor.

    Dictionary-encoded chunks that share one dictionary (chunks sliced from
    the same stored column) concatenate their codes and stay encoded; any
    other mix of encoded/plain chunks decodes first.  String chunks of
    different widths are padded to the widest.
    """
    if not cols:
        raise ExecutionError("concat_columns() needs at least one chunk")
    if len(cols) == 1:
        return cols[0]
    ltype = cols[0].ltype
    encodings = [c.encoding for c in cols]
    shared_dictionary = (
        None not in encodings
        and len({id(e.dictionary) for e in encodings}) == 1
    )
    if shared_dictionary:
        parts = [c.tensor for c in cols]
        encoding = encodings[0]
    else:
        cols = [c.decoded() for c in cols]
        encoding = None
        if ltype == LogicalType.STRING:
            width = max(c.tensor.shape[1] for c in cols)
            parts = [c.tensor if c.tensor.shape[1] == width
                     else ops.pad2d(c.tensor, width) for c in cols]
        else:
            parts = [c.tensor for c in cols]
    data = ops.concat(parts, axis=0)
    valid = None
    if any(c.valid is not None for c in cols):
        valid = ops.concat([c.validity() for c in cols], axis=0)
    return TensorColumn(data, ltype, valid, encoding)


class TensorTable:
    """A set of equally sized :class:`TensorColumn` objects (paper §2.1)."""

    def __init__(self, columns: Mapping[str, TensorColumn] | None = None,
                 statistics=None):
        self._columns: dict[str, TensorColumn] = dict(columns or {})
        lengths = {col.num_rows for col in self._columns.values()}
        if len(lengths) > 1:
            raise ExecutionError(f"columns have inconsistent lengths: {lengths}")
        #: Storage statistics (zone maps) of the stored table these rows are,
        #: block for block.  Set on a converted scan input and kept only by
        #: ``select`` / ``to``, which leave every row in place; the scan
        #: prunes against them.
        self.statistics = statistics

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_dataframe(cls, frame: DataFrame, device: Device | str = "cpu"
                       ) -> "TensorTable":
        """Convert an ingestion DataFrame into the tensor representation."""
        columns = {
            name: TensorColumn.from_numpy(frame[name], device=device)
            for name in frame.columns
        }
        return cls(columns)

    # -- properties ----------------------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        for col in self._columns.values():
            return col.num_rows
        return 0

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    @property
    def device(self) -> Device:
        for col in self._columns.values():
            return col.device
        return parse_device("cpu")

    @property
    def anchor(self) -> Tensor:
        """A per-row tensor of this table — the one size reference the
        shape-polymorphic creation ops (``full_like_rows`` etc.) hang off, so
        no traced program bakes a row count in."""
        for col in self._columns.values():
            return col.tensor
        raise ExecutionError(
            "a table without columns has no rows to size a result against")

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def column(self, name: str) -> TensorColumn:
        try:
            return self._columns[name]
        except KeyError:
            raise ExecutionError(f"no such column in tensor table: {name!r}") from None

    def columns(self) -> Iterable[tuple[str, TensorColumn]]:
        return self._columns.items()

    # -- transformations ---------------------------------------------------------------

    def select(self, names: Sequence[str]) -> "TensorTable":
        return TensorTable({name: self.column(name) for name in names},
                           self.statistics)

    def rename(self, mapping: Mapping[str, str]) -> "TensorTable":
        return TensorTable({mapping.get(name, name): col
                            for name, col in self._columns.items()})

    def gather(self, indices: Tensor) -> "TensorTable":
        return TensorTable({name: col.gather(indices)
                            for name, col in self._columns.items()})

    def mask(self, mask: Tensor) -> "TensorTable":
        return TensorTable({name: col.mask(mask)
                            for name, col in self._columns.items()})

    def slice(self, start: int, length: int) -> "TensorTable":
        """A contiguous row range of every column (zero-copy views)."""
        return TensorTable({name: col.slice(start, length)
                            for name, col in self._columns.items()})

    def to(self, device: Device | str) -> "TensorTable":
        return TensorTable({name: col.to(device)
                            for name, col in self._columns.items()},
                           self.statistics)

    def decoded(self) -> "TensorTable":
        """Materialize every encoded column into its plain form."""
        return TensorTable({name: col.decoded()
                            for name, col in self._columns.items()})

    # -- conversion ------------------------------------------------------------------------

    def to_dataframe(self) -> DataFrame:
        return DataFrame({name: col.to_numpy() for name, col in self._columns.items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        cols = ", ".join(f"{n}:{c.ltype.value}" for n, c in self._columns.items())
        return f"TensorTable(rows={self.num_rows}, columns=[{cols}])"
