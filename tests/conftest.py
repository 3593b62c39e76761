"""Shared fixtures and frame-comparison helpers for the test suite."""

from __future__ import annotations

import math
import pathlib

import numpy as np
import pytest

from repro import DataFrame, TQPSession
from repro.bench.harness import tpch_session


# -- differential frame comparison --------------------------------------------
#
# Shared by the differential suites (TPC-H conformance, expression properties,
# parallel-vs-serial): sharded plans reorder join output and re-associate
# partial sums, so frames are compared as row multisets within a float
# tolerance, never bitwise.


def normalize_cell(value):
    """Canonical python value for one cell (NaN, NaT and None all mean NULL)."""
    if value is None:
        return None
    if isinstance(value, np.datetime64):
        return None if np.isnat(value) else str(value.astype("datetime64[D]"))
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (float, np.floating)):
        return None if np.isnan(value) else float(value)
    if isinstance(value, (int, np.integer)):
        return float(value)
    return str(value)


def cells_close(left, right, rel_tol: float = 1e-6, abs_tol: float = 1e-6) -> bool:
    if left is None or right is None:
        return left is None and right is None
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=rel_tol, abs_tol=abs_tol)
    return left == right


def _frame_rows(frame) -> list[tuple]:
    columns = [frame[name] for name in frame.columns]
    return [tuple(normalize_cell(column[i]) for column in columns)
            for i in range(frame.num_rows)]


def _sort_key(row) -> tuple:
    return tuple("~none" if cell is None
                 else (f"{cell:+.4f}" if isinstance(cell, float) else str(cell))
                 for cell in row)


def assert_frames_match(actual, expected, context: str = "",
                        ordered: bool = False,
                        rel_tol: float = 1e-6, abs_tol: float = 1e-6) -> None:
    """Row-for-row equality within float tolerance; sorted unless ``ordered``."""
    assert len(actual.columns) == len(expected.columns), context
    assert actual.num_rows == expected.num_rows, context
    left, right = _frame_rows(actual), _frame_rows(expected)
    if not ordered:
        left, right = sorted(left, key=_sort_key), sorted(right, key=_sort_key)
    for row_index, (lrow, rrow) in enumerate(zip(left, right)):
        for col_index, (lcell, rcell) in enumerate(zip(lrow, rrow)):
            assert cells_close(lcell, rcell, rel_tol, abs_tol), (
                f"{context}: row {row_index}, column "
                f"{actual.columns[col_index]!r}: {lcell!r} != {rcell!r}"
            )

_TIERS = ("unit", "integration", "property")


def pytest_collection_modifyitems(config, items):
    """Mark each test with its tier (directory name) so CI can select
    ``-m "unit or property"`` as the fast tier on every push."""
    for item in items:
        parts = pathlib.Path(str(item.fspath)).parts
        for tier in _TIERS:
            if tier in parts:
                item.add_marker(getattr(pytest.mark, tier))
                break


@pytest.fixture(scope="session")
def event_stream():
    """``profile -> [event key, ...]``: everything of a profile's events except
    the wall-clock fields, which legitimately differ between two runs.  Equal
    streams mean equal simulated accounting (beside the plan's lanes map,
    the cost models read nothing else)."""
    def keys(profile):
        return [(e.op, e.input_bytes, e.output_bytes, e.device, e.scope,
                 e.shard) for e in profile.events]

    return keys


@pytest.fixture(scope="session")
def scaling_model():
    """``factor -> model callable`` multiplying its first argument: two
    registrations of one model name that answer differently."""
    from repro.core.expressions import ExprValue
    from repro.tensor import ops

    def scaling(factor):
        def model(args, num_rows):
            value = args[0]
            return ExprValue(ops.mul(value.tensor, factor), value.ltype,
                             valid=value.valid)
        return model

    return scaling


@pytest.fixture
def bytes_priced(monkeypatch):
    """Price ``cpu`` runs deterministically, so tests that assert *which*
    adaptive candidate is cheapest do not depend on host speed: the same
    concurrent structure as ``CPUDevice.report_time`` (serial work + one
    lane's share of the lanes work + per-morsel dispatch), each kernel
    charged a fixed launch cost plus the bytes it wrote."""
    from repro.backends.base import split_partitions
    from repro.backends.cpu import CPUDevice

    def bytes_charge(self, measured_s, profile, lanes=None):
        if profile is None:
            return measured_s
        host, _, _ = split_partitions(profile.events, lanes)
        return host.time(lambda event: 1e-6 + event.output_bytes / 1e9,
                         self.morsel_dispatch_overhead_s)

    monkeypatch.setattr(CPUDevice, "report_time", bytes_charge)


@pytest.fixture(scope="session")
def frames_match():
    """The shared differential frame assertion (see :func:`assert_frames_match`).

    Exposed as a fixture because ``tests/`` is not a package, so test modules
    in subdirectories cannot import helpers from this conftest directly.
    """
    return assert_frames_match


@pytest.fixture(scope="session")
def plain_session():
    """``tables -> TQPSession`` whose every column is stored plain: the
    reference side of the dictionary-code paths.  Conversion has one rule (a
    low-NDV string column of at least ``MIN_ENCODE_ROWS`` rows becomes a
    dictionary), so every column is converted here, with ``MIN_ENCODE_ROWS``
    above each table's size, and keeps that form for the table's generation.
    """
    from repro.storage import encodings

    def build(tables: dict[str, DataFrame]) -> TQPSession:
        session = TQPSession()
        for name, frame in tables.items():
            session.register(name, frame)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encodings, "MIN_ENCODE_ROWS",
                          max(frame.num_rows for frame in tables.values()) + 1)
            for name in tables:
                compiled = session.compile(f"select * from {name}")
                table = session.prepare_inputs(compiled.executor)[name]
                assert all(column.encoding is None
                           for _, column in table.columns())
        return session

    return build


@pytest.fixture
def toy_tables() -> dict[str, DataFrame]:
    """A tiny orders/items schema with every column kind (int, float, date, str)."""
    items = DataFrame({
        "item_id": np.array([1, 2, 3, 4, 5, 6], dtype=np.int64),
        "order_id": np.array([10, 10, 20, 30, 30, 30], dtype=np.int64),
        "price": np.array([5.0, 7.5, 2.5, 10.0, 1.0, 4.0]),
        "quantity": np.array([2, 1, 4, 1, 6, 3], dtype=np.int64),
        "shipped": np.array(["2024-01-05", "2024-01-20", "2024-02-10",
                             "2024-02-28", "2024-03-05", "2024-03-20"],
                            dtype="datetime64[D]"),
        "note": np.array(["fast delivery", "gift wrap", "fragile item",
                          "fast and fragile", "plain", "gift for friend"],
                         dtype=object),
    })
    orders = DataFrame({
        "order_id": np.array([10, 20, 30, 40], dtype=np.int64),
        "customer": np.array(["ada", "bob", "ada", "cleo"], dtype=object),
        "region": np.array(["EU", "US", "EU", "APAC"], dtype=object),
    })
    return {"items": items, "orders": orders}


@pytest.fixture
def toy_session(toy_tables) -> TQPSession:
    session = TQPSession()
    for name, frame in toy_tables.items():
        session.register(name, frame)
    return session


@pytest.fixture(scope="session")
def tpch_tiny():
    """A very small TPC-H instance shared by the integration tests."""
    return tpch_session(scale_factor=0.002, seed=7)
