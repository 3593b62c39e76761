"""Unit tests for the benchmark harness helpers and TPC-H .tbl I/O."""

import numpy as np

from repro import ExecutionOptions
from repro.bench import figure_table, series_dict, time_rowengine, time_tqp, tpch_session
from repro.datasets import tpch
from repro.datasets.tpch.io import load_tables, save_tables


def test_tpch_session_is_cached():
    first, tables_a = tpch_session(scale_factor=0.001, seed=42)
    second, tables_b = tpch_session(scale_factor=0.001, seed=42)
    assert first is second and tables_a is tables_b
    assert set(tables_a) == set(tpch.TABLE_NAMES)


def test_time_tqp_and_rowengine_protocol():
    session, tables = tpch_session(scale_factor=0.001, seed=42)
    sql = tpch.query(6, 0.001)
    tqp = time_tqp(session, sql,
                   ExecutionOptions(backend="torchscript", device="cpu"),
                   runs=3, warmup=1)
    assert len(tqp.times_s) == 3 and tqp.median_s > 0
    assert tqp.system == "TQP-CPU" and not tqp.simulated
    gpu = time_tqp(session, sql,
                   ExecutionOptions(backend="torchscript", device="cuda"),
                   runs=2, warmup=0)
    assert gpu.simulated and gpu.system == "TQP-CUDA"
    baseline = time_rowengine(session, tables, sql, runs=1)
    assert baseline.result.num_rows == tqp.result.num_rows
    table = figure_table("Figure X", [tqp, gpu], baseline)
    assert "Figure X" in table and "simulated time" in table and "measured" in table
    series = series_dict([tqp, gpu, baseline])
    assert set(series) == {"TQP-CPU", "TQP-CUDA", baseline.system}


def test_tpch_tbl_round_trip(tmp_path):
    """Every table survives a save / load round trip exactly: same columns,
    dtypes and values (floats round-trip through ``repr``)."""
    tables = tpch.generate_tables(scale_factor=0.001, seed=1)
    paths = save_tables(tables, tmp_path)
    assert all(path.exists() for path in paths.values())
    loaded = load_tables(tmp_path)
    assert set(loaded) == set(tpch.TABLE_NAMES)
    for name, frame in tables.items():
        assert loaded[name].columns == frame.columns, name
        assert loaded[name].equals(frame, float_tol=0.0), name
        for column in frame.columns:
            assert loaded[name][column].dtype == frame[column].dtype, (name, column)
            np.testing.assert_array_equal(loaded[name][column], frame[column])
