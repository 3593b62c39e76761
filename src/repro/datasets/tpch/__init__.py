"""TPC-H benchmark support: dbgen-like generator and the 22 queries."""

from repro.datasets.tpch.generator import generate_tables
from repro.datasets.tpch.io import load_tables, save_tables
from repro.datasets.tpch.queries import ALL_QUERY_IDS, QUERIES, query
from repro.datasets.tpch.schema import TABLE_COLUMNS, TABLE_NAMES

__all__ = [
    "ALL_QUERY_IDS",
    "QUERIES",
    "TABLE_COLUMNS",
    "TABLE_NAMES",
    "generate_tables",
    "load_tables",
    "query",
    "save_tables",
]
