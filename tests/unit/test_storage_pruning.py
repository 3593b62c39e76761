"""Unit tests for zone-map statistics and planner-driven scan pruning.

The correctness contract under test: pruned results are **bit-identical** to
unpruned results on every boundary shape — empty-after-pruning, all blocks
surviving, NULL-only blocks — for literal and parameterized predicates, on
both the eager and the traced backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.core.columnar import DEFAULT_MORSEL_ROWS
from repro.dataframe import DataFrame
from repro.storage import compute_table_statistics, estimate_selectivity
from repro.storage.pruning import extract_pruning_conjuncts, surviving_blocks
from repro.storage.statistics import zone_discrimination

BLOCKS = 5
ROWS = BLOCKS * DEFAULT_MORSEL_ROWS


def clustered_frame() -> DataFrame:
    """5 zone-map blocks, clustered on ``k``/``d``; block 3 is all-NaN in ``f``."""
    rng = np.random.default_rng(11)
    k = np.repeat(np.arange(BLOCKS, dtype=np.int64), DEFAULT_MORSEL_ROWS)
    f = rng.random(ROWS)
    f[3 * DEFAULT_MORSEL_ROWS:4 * DEFAULT_MORSEL_ROWS] = np.nan  # NULL-only block
    d = (np.datetime64("2020-01-01") + 30 * k).astype("datetime64[D]")
    tag = np.array(["even", "odd"], dtype=object)[(np.arange(ROWS) % 2)]
    return DataFrame({"k": k, "f": f, "d": d, "tag": tag})


@pytest.fixture(scope="module")
def frame() -> DataFrame:
    return clustered_frame()


@pytest.fixture()
def pruned_session(frame) -> TQPSession:
    session = TQPSession()
    session.register("t", frame)
    return session


@pytest.fixture()
def unpruned_session(frame) -> TQPSession:
    session = TQPSession()
    session.catalog.collect_statistics = False  # no zone maps → no pruning
    session.register("t", frame)
    return session


# -- statistics ----------------------------------------------------------------


def test_zone_maps_align_with_morsel_blocks(frame):
    stats = compute_table_statistics(frame)
    assert stats.num_blocks == BLOCKS
    k = stats.column("k")
    np.testing.assert_array_equal(k.block_min, np.arange(BLOCKS))
    np.testing.assert_array_equal(k.block_max, np.arange(BLOCKS))
    assert k.ndv == BLOCKS and k.null_count == 0

    f = stats.column("f")
    assert f.block_nonnull[3] == 0          # the NaN block counts as NULL-only
    assert f.null_count == DEFAULT_MORSEL_ROWS
    assert np.isfinite(f.block_min[:3].astype(float)).all()

    tag = stats.column("tag")
    assert tag.ndv == 2
    assert tag.block_min[0] == "even" and tag.block_max[0] == "odd"


def test_string_ndv_and_null_counts_match_the_sorting_count():
    """String NDVs are counted by hashing; the count (over non-NULL values,
    ``''`` being one) is what ``np.unique`` gave."""
    for values in (["b", None, "a", "", "b", None, ""], [None, None], [],
                   ["x", 7, "7", 7.5]):
        stats = compute_table_statistics(
            DataFrame({"s": np.array(values, dtype=object)})).column("s")
        live = np.array([str(v) for v in values if v is not None], dtype=object)
        assert stats.ndv == len(np.unique(live))
        assert stats.null_count == sum(v is None for v in values)


def test_zone_discrimination_separates_clustered_from_random(frame):
    stats = compute_table_statistics(frame)
    assert zone_discrimination(stats.column("k")) == 0.0    # one value per block
    rng = np.random.default_rng(0)
    random_frame = DataFrame({"x": rng.integers(0, 10**6, ROWS)})
    random_stats = compute_table_statistics(random_frame)
    assert zone_discrimination(random_stats.column("x")) > 0.9
    assert zone_discrimination(stats.column("tag")) == 1.0  # strings: undefined


def test_selectivity_estimates(frame):
    stats = compute_table_statistics(frame).columns
    session = TQPSession()
    session.register("t", frame)

    def selectivity(sql):
        from repro.core.operators import FilterOperator

        compiled = session.compile(sql)
        for op in compiled.operator_plan.root.walk():
            if isinstance(op, FilterOperator):
                return estimate_selectivity(op.condition, stats)
        raise AssertionError("no filter found")

    assert selectivity("select k from t where k = 2") == pytest.approx(1 / 5)
    assert selectivity("select k from t where k in (1, 2)") == pytest.approx(2 / 5)
    full = selectivity("select k from t where k <= 4")
    narrow = selectivity("select k from t where k < 1")
    assert full == pytest.approx(1.0) and narrow <= 0.3
    assert selectivity("select k from t where tag = 'even'") == pytest.approx(0.5)


# -- conjunct extraction & block survival -------------------------------------


def test_extract_and_survive(frame):
    stats = compute_table_statistics(frame)
    session = TQPSession()
    session.register("t", frame)
    compiled = session.compile(
        "select k from t where k >= 1 and k < 3 and tag = 'even' and f + 1 > 0")
    conjuncts = compiled.operator_plan.scans[0].pruning
    described = [c.op for c in conjuncts]
    # f + 1 > 0 is not a prunable shape and must be skipped
    assert described == ["ge", "lt", "eq"]
    mask = surviving_blocks(conjuncts, stats)
    np.testing.assert_array_equal(mask, [False, True, True, False, False])


def test_null_only_block_is_pruned_by_any_comparison(frame):
    stats = compute_table_statistics(frame)
    session = TQPSession()
    session.register("t", frame)
    compiled = session.compile("select f from t where f >= 0.0")
    mask = surviving_blocks(compiled.operator_plan.scans[0].pruning, stats)
    np.testing.assert_array_equal(mask, [True, True, True, False, True])


# -- pruned results are bit-identical to unpruned -----------------------------


BOUNDARY_QUERIES = [
    # empty after pruning: no block can contain k = 99
    ("select k, f from t where k = 99", 5),
    # all blocks survive
    ("select count(*) as c, sum(k) as s from t where k >= 0", 0),
    # NULL-only block pruned, NaN rows never match anyway
    ("select count(*) as c from t where f >= 0.0", 1),
    # range over the clustered date column (only block 2's 2020-03-01 falls
    # inside the window)
    ("select sum(k) as s from t where d between date '2020-02-01' "
     "and date '2020-03-15'", 4),
    # string equality cannot prune (both tags in every block) but must stay
    # correct with the conjunct attached
    ("select count(*) as c from t where tag = 'even' and k < 2", 3),
]


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("sql,expected_skips", BOUNDARY_QUERIES)
def test_pruned_matches_unpruned(pruned_session, unpruned_session, frames_match,
                                 sql, expected_skips, backend):
    options = ExecutionOptions(backend=backend)
    compiled = pruned_session.compile(sql, options=options)
    result = compiled.execute()
    expected = unpruned_session.sql(sql, options=options)
    frames_match(result.to_dataframe(), expected, f"{sql} [{backend}]")
    assert result.pruning["t"]["blocks_skipped"] == expected_skips, sql


def test_parameterized_pruning_rebinds_correctly(pruned_session,
                                                 unpruned_session, frames_match):
    """Bind-time pruning: each binding re-decides block survival — including
    to-empty and to-everything rebinds — on both backends."""
    sql = "select count(*) as c, sum(k) as s from t where k >= :lo and k <= :hi"
    bindings = [
        {"lo": 1, "hi": 2},     # middle blocks
        {"lo": 0, "hi": 99},    # everything survives
        {"lo": 50, "hi": 60},   # empty after pruning
        {"lo": 4, "hi": 4},     # last block only
    ]
    reference = unpruned_session.prepare(sql)
    for backend in ("pytorch", "torchscript"):
        query = pruned_session.prepare(
            sql, options=ExecutionOptions(backend=backend))
        for binding in bindings:
            frames_match(query.bind(**binding).run(),
                         reference.bind(**binding).run(),
                         f"{binding} [{backend}]")
        assert query.compiled.executor.compile_count == (
            1 if backend == "torchscript" else 0)


def test_eager_parameterized_pruning_skips_blocks(pruned_session):
    query = pruned_session.prepare(
        "select sum(k) as s from t where k >= :lo and k <= :hi",
        options=ExecutionOptions(backend="pytorch"))
    result = query.bind(lo=1, hi=2).execute()
    assert result.pruning["t"]["blocks_skipped"] == 3
    result = query.bind(lo=0, hi=99).execute()
    assert result.pruning["t"]["blocks_skipped"] == 0


def test_interleaved_executions_report_their_own_pruning(pruned_session,
                                                         monkeypatch):
    """The plan object is shared by every concurrent request of a statement:
    two eager executions of one prepared plan, interleaved so that both
    scans have pruned before either result is built, must each report the
    blocks *their* binding skipped."""
    import threading

    from repro.core.operators import ScanOperator

    query = pruned_session.prepare(
        "select sum(k) as s from t where k >= :lo and k <= :hi",
        options=ExecutionOptions(backend="pytorch"))
    both_pruned = threading.Barrier(2, timeout=30)
    apply_pruning = ScanOperator._apply_pruning

    def prune_then_wait(self, table, ctx):
        pruned = apply_pruning(self, table, ctx)
        both_pruned.wait()
        return pruned

    monkeypatch.setattr(ScanOperator, "_apply_pruning", prune_then_wait)
    results = {}

    def execute(name, **binding):
        results[name] = query.bind(**binding).execute()

    threads = [
        threading.Thread(target=execute, args=("narrow",),
                         kwargs={"lo": 1, "hi": 2}),
        threading.Thread(target=execute, args=("wide",),
                         kwargs={"lo": 0, "hi": 99}),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert results["narrow"].pruning["t"]["blocks_skipped"] == 3
    assert results["wide"].pruning["t"]["blocks_skipped"] == 0
    assert results["narrow"].to_dataframe().to_dict()["s"] != \
        results["wide"].to_dataframe().to_dict()["s"]


def test_morsel_scan_prunes_blocks_before_dispatch(pruned_session,
                                                   unpruned_session, frames_match):
    sql = "select sum(f) as s from t where k >= 3"
    options = ExecutionOptions(parallelism=4)
    compiled = pruned_session.compile(sql, options=options)
    assert "MorselScan" in compiled.operator_plan.pretty()
    result = compiled.execute()
    frames_match(result.to_dataframe(),
                 unpruned_session.sql(sql, options=options), sql)
    assert result.pruning["t"]["blocks_skipped"] == 3


def test_held_query_reregistered_same_rowcount_uses_fresh_zone_maps(frame):
    """A CompiledQuery held across a re-register() with the *same* row count
    must prune against the new data's zone maps, not the compile-time ones."""
    session = TQPSession()
    session.register("t", frame)
    sql = "select count(*) as c from t where k >= :lo"
    held = session.prepare(sql)  # eager backend: re-prunes per execution
    assert held.bind(lo=4).run().to_dict()["c"] == [DEFAULT_MORSEL_ROWS]

    reversed_frame = DataFrame({
        "k": frame["k"][::-1].copy(), "f": frame["f"], "d": frame["d"],
        "tag": frame["tag"],
    })
    session.register("t", reversed_frame)  # same row count, blocks reversed
    assert held.bind(lo=4).run().to_dict()["c"] == [DEFAULT_MORSEL_ROWS]


def test_pruning_survives_plan_cache_and_reregistration(frame):
    session = TQPSession()
    session.register("t", frame)
    sql = "select count(*) as c from t where k = 0"
    first = session.compile(sql)
    assert first.run().to_dict()["c"] == [DEFAULT_MORSEL_ROWS]
    # Re-register shifted data: the cached plan (and its zone maps) must not
    # serve the old block layout.
    shifted = DataFrame({
        "k": frame["k"] + 1, "f": frame["f"], "d": frame["d"],
        "tag": frame["tag"],
    })
    session.register("t", shifted)
    second = session.compile(sql)
    assert second is not first
    result = second.execute()
    assert result.to_dataframe().to_dict()["c"] == [0]
    assert result.pruning["t"]["blocks_skipped"] == BLOCKS


def test_a_parameterized_lanes_plan_prunes_in_its_one_trace(frames_match):
    """Lanes bake nothing into a trace, so a prepared statement plans them
    above and at a join and still lowers its zone-map-prunable parameter to
    the traced row mask: one trace serves the empty, the one-row and the
    every-row binding, each answering like the row engine."""
    from repro.baselines import RowEngine
    from repro.frontend import sql_to_physical

    rows = 8 * DEFAULT_MORSEL_ROWS
    rng = np.random.default_rng(5)
    frames = {
        "t": DataFrame({"id": np.arange(rows, dtype=np.int64),
                        "k": rng.integers(0, 50, rows).astype(np.int64),
                        "f": rng.random(rows)}),
        "u": DataFrame({"uk": np.arange(50, dtype=np.int64),
                        "g": np.arange(50, dtype=np.int64) % 3,
                        "w": rng.random(50)}),
    }
    session = TQPSession()
    for name, data in frames.items():
        session.register(name, data)
    sql = ("select g, count(*) as c, sum(f * w) as s from t join u on k = uk "
           "where id >= :lo and f + w >= 0 group by g order by g")
    query = session.prepare(sql, options=ExecutionOptions(
        backend="torchscript", parallelism=4))
    plan = query.compiled.operator_plan.pretty()
    assert "MorselFilter(workers=4)\n        PartitionedHashJoin" in plan, plan
    for lo, groups in ((rows, 0), (rows - 1, 1), (0, 3)):
        result = query.bind(lo=lo).execute()
        assert result.pruning["t"]["dynamic"] is True
        assert result.to_dataframe().num_rows == groups
        oracle = RowEngine(frames).execute_to_dataframe(
            sql_to_physical(sql.replace(":lo", str(lo)), session.catalog))
        frames_match(result.to_dataframe(), oracle, f"lo={lo}")
    assert query.compiled.executor.compile_count == 1
