"""Reading and writing TPC-H tables as dbgen-style ``.tbl`` files.

dbgen writes pipe-delimited files without a header row; these helpers produce
and read the same layout so the generated data can be exchanged with other
TPC-H tooling.  Benchmarks and tests do not read tables back from disk:
:func:`repro.datasets.tpch.generate_tables` builds them in-process faster than
:func:`load_tables` parses the files.
"""

from __future__ import annotations

from pathlib import Path

from repro.dataframe import DataFrame, read_csv, write_csv
from repro.datasets.tpch import schema


def save_tables(tables: dict[str, DataFrame], directory: str | Path) -> dict[str, Path]:
    """Write every table as ``<directory>/<name>.tbl`` (pipe-delimited, no header)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for name, frame in tables.items():
        path = directory / f"{name}.tbl"
        write_csv(frame, path, delimiter="|", header=False)
        paths[name] = path
    return paths


def load_tables(directory: str | Path) -> dict[str, DataFrame]:
    """Load every ``.tbl`` file in ``directory`` using the TPC-H column names."""
    directory = Path(directory)
    tables: dict[str, DataFrame] = {}
    for name, columns in schema.TABLE_COLUMNS.items():
        path = directory / f"{name}.tbl"
        if not path.exists():
            continue
        tables[name] = read_csv(path, delimiter="|", header=False, columns=columns)
    return tables
