"""Unit tests for the benchmark harness helpers and TPC-H .tbl I/O."""

import numpy as np

from repro import ExecutionOptions
from repro.bench import figure_table, series_dict, time_rowengine, time_tqp, tpch_session
from repro.datasets import tpch
from repro.datasets.tpch.io import (
    cache_directory,
    cached_tables,
    load_tables,
    save_tables,
)


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
    tables = tpch.generate_tables(scale_factor=0.001, seed=1)
    subset = {"region": tables["region"], "nation": tables["nation"],
              "supplier": tables["supplier"]}
    paths = save_tables(subset, tmp_path)
    assert all(path.exists() for path in paths.values())
    loaded = load_tables(tmp_path)
    assert set(loaded) == set(subset)
    assert loaded["nation"].columns == tables["nation"].columns
    np.testing.assert_array_equal(loaded["supplier"]["s_suppkey"],
                                  tables["supplier"]["s_suppkey"])
    np.testing.assert_allclose(loaded["supplier"]["s_acctbal"],
                               tables["supplier"]["s_acctbal"])
    assert loaded["nation"]["n_name"].tolist() == tables["nation"]["n_name"].tolist()


def test_cached_tables_round_trip_and_reuse(tmp_path):
    """First call generates and saves, second call loads — with frames
    identical to fresh generation (floats round-trip through repr)."""
    first = cached_tables(scale_factor=0.001, seed=3, root=tmp_path)
    directory = cache_directory(0.001, 3, root=tmp_path)
    assert directory.is_dir()
    assert (directory / "lineitem.tbl").exists()
    stamp = (directory / "lineitem.tbl").stat().st_mtime_ns

    second = cached_tables(scale_factor=0.001, seed=3, root=tmp_path)
    assert (directory / "lineitem.tbl").stat().st_mtime_ns == stamp  # no rewrite
    generated = tpch.generate_tables(scale_factor=0.001, seed=3)
    for name, frame in generated.items():
        assert first[name].equals(frame, float_tol=0.0), name
        assert second[name].equals(frame, float_tol=0.0), name

    # A different (sf, seed) pair gets its own directory.
    other = cache_directory(0.002, 4, root=tmp_path)
    assert other != directory


def test_cached_tables_falls_back_on_partial_cache(tmp_path):
    cached_tables(scale_factor=0.001, seed=5, root=tmp_path)
    directory = cache_directory(0.001, 5, root=tmp_path)
    (directory / "orders.tbl").unlink()  # simulate a torn write
    tables = cached_tables(scale_factor=0.001, seed=5, root=tmp_path)
    assert set(tables) == set(tpch.TABLE_NAMES)
    assert (directory / "orders.tbl").exists()  # regenerated and re-saved


def test_cache_disabled_by_empty_env(monkeypatch):
    monkeypatch.setenv("REPRO_TPCH_CACHE", "")
    assert cache_directory(0.001, 1) is None
    tables = cached_tables(scale_factor=0.001, seed=6)
    assert set(tables) == set(tpch.TABLE_NAMES)
