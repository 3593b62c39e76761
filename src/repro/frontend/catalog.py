"""Catalog of registered tables: one record per table, one dict of records.

A :class:`TableRecord` is one **generation** of a registered table — the
ingestion DataFrame, its schema, its storage statistics (row count,
per-column NDV/null counts and morsel-aligned zone maps, see
:mod:`repro.storage.statistics`), a version, and the tensor inputs converted
from exactly that frame.  Re-registering a name replaces the whole record by
one assignment, so nothing derived from the old data — statistics, converted
columns — can outlive it or be paired with the new frame.  The planner reads
the statistics for selectivity estimates and scan pruning, and conversion
reads their NDV counts when choosing which string columns become dictionaries.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Optional

from repro.core.columnar import LogicalType
from repro.dataframe import DataFrame
from repro.errors import CatalogError

_KIND_TO_LOGICAL = {
    "int": LogicalType.INT,
    "float": LogicalType.FLOAT,
    "bool": LogicalType.BOOL,
    "date": LogicalType.DATE,
    "string": LogicalType.STRING,
}


@dataclasses.dataclass
class TableSchema:
    """Schema of a registered table: ordered column names and logical types."""

    name: str
    columns: dict[str, LogicalType]

    def column_type(self, column: str) -> LogicalType:
        try:
            return self.columns[column]
        except KeyError:
            raise CatalogError(
                f"table {self.name!r} has no column {column!r}"
            ) from None


@dataclasses.dataclass
class TableRecord:
    """One generation of a registered table."""

    frame: DataFrame
    schema: TableSchema
    #: ``repro.storage.TableStatistics`` of ``frame`` (``None`` when the
    #: catalog does not collect them).
    statistics: Optional[object]
    #: Unique per registration, across names: a plan fingerprinted with it
    #: can never match a later registration.
    version: int
    #: ``column name → TensorColumn``: each column of ``frame`` a scan has
    #: read, converted once (``storage.encodings.encode_table``).
    columns: dict = dataclasses.field(default_factory=dict)
    #: Scan inputs assembled over ``columns``, keyed by the scan's field
    #: names.  Filled by ``TQPSession.prepare_inputs``; both die with the
    #: record.
    converted: dict = dataclasses.field(default_factory=dict)


class Catalog:
    """Holds the tables a session can query."""

    def __init__(self, collect_statistics: bool = True) -> None:
        self._records: dict[str, TableRecord] = {}
        self._versions = itertools.count(1)
        #: Whether ``register`` collects storage statistics (zone maps, NDV).
        self.collect_statistics = collect_statistics

    def register(self, name: str, frame: DataFrame, replace: bool = True) -> None:
        """Register ``frame`` under ``name`` (lower-cased, SQL style)."""
        key = name.lower()
        if not replace and key in self._records:
            raise CatalogError(f"table {name!r} is already registered")
        columns = {
            column: _KIND_TO_LOGICAL[kind] for column, kind in frame.dtypes().items()
        }
        statistics = None
        if self.collect_statistics:
            from repro.storage.statistics import compute_table_statistics

            statistics = compute_table_statistics(frame)
        self._records[key] = TableRecord(frame, TableSchema(key, columns),
                                         statistics, next(self._versions))

    def unregister(self, name: str) -> None:
        self._records.pop(name.lower(), None)

    def record(self, name: str) -> TableRecord:
        """The current generation of a registered table."""
        try:
            return self._records[name.lower()]
        except KeyError:
            raise CatalogError(f"unknown table: {name!r}") from None

    def version(self, name: str) -> int:
        """Version of the current registration (0 when there is none)."""
        record = self._records.get(name.lower())
        return record.version if record is not None else 0

    def statistics(self, name: str):
        """Storage statistics of a registered table (``None`` if absent)."""
        record = self._records.get(name.lower())
        return record.statistics if record is not None else None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._records

    def table_names(self) -> list[str]:
        return sorted(self._records)

    def dataframe(self, name: str) -> DataFrame:
        return self.record(name).frame

    def schema(self, name: str) -> TableSchema:
        return self.record(name).schema
