"""A device count is a width: ``devices=d`` prices the serial program.

A statement compiled with ``devices=d`` shares the width-free entry's plan,
executor and traced program, so it must return the serial run's bits —
every test here runs the same query serially and at a device width (``shard``
``hash`` and ``range``, and a ``parallelism × devices`` product) and compares
the bytes, including the corners where an input degenerates: filters that
empty a prefix or every row, a join with one side emptied, one join key for
every row, NULL join keys under inner and left joins, and re-registration
while a width entry is cached.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.core.columnar import DEFAULT_MORSEL_ROWS
from repro.datasets import tpch
from repro.tensor.profiler import Profiler
from test_differential import column_bits, first_difference

#: Comfortably above the lanes threshold, so every scan is priced on lanes.
N_FACTS = 6 * DEFAULT_MORSEL_ROWS
N_DIMS = 2 * DEFAULT_MORSEL_ROWS + 100

WIDTHS = {
    "dev2-hash": ExecutionOptions(devices=2),
    "dev2-range": ExecutionOptions(devices=2, shard="range"),
    "dev4-hash": ExecutionOptions(devices=4),
    "dev4-range": ExecutionOptions(devices=4, shard="range"),
    "par2-dev2": ExecutionOptions(parallelism=2, devices=2),
}

width = pytest.mark.parametrize("options", list(WIDTHS.values()),
                                ids=list(WIDTHS))


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(20260808)
    facts = DataFrame({
        "fact_id": np.arange(N_FACTS, dtype=np.int64),
        "key": rng.integers(0, N_DIMS, size=N_FACTS).astype(np.int64),
        "val": np.round(rng.uniform(0.0, 100.0, size=N_FACTS), 2),
        "grp": rng.choice(["red", "green", "blue"], size=N_FACTS).astype(object),
    })
    dims = DataFrame({
        "key": np.arange(N_DIMS, dtype=np.int64),
        "name": rng.choice(["a", "b", "c", "d"], size=N_DIMS).astype(object),
    })
    return {"facts": facts, "dims": dims}


def session_of(frames: dict) -> TQPSession:
    sess = TQPSession()
    for name, frame in frames.items():
        sess.register(name, frame)
    return sess


@pytest.fixture()
def session(frames):
    return session_of(frames)


def assert_width_invisible(sess, sql, options) -> None:
    """``options`` shares the serial entry's executor and returns its bits."""
    serial, wide = sess.compile(sql), sess.compile(sql, options=options)
    assert wide.executor is serial.executor
    reference, got = serial.execute(), wide.execute()
    difference = first_difference(column_bits(got.table),
                                  column_bits(reference.table))
    assert not difference, f"{options}: {difference}"


# -- empty inputs -------------------------------------------------------------


@width
def test_filter_emptying_a_prefix(session, options):
    # Contiguous fact ids: every row past the first half-morsel is filtered.
    sql = (f"SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM facts "
           f"WHERE fact_id < {DEFAULT_MORSEL_ROWS // 2} "
           f"GROUP BY grp ORDER BY grp")
    assert_width_invisible(session, sql, options)


@width
def test_filter_emptying_every_row(session, options):
    sql = ("SELECT grp, COUNT(*) AS n FROM facts WHERE val < -1.0 "
           "GROUP BY grp")
    assert session.sql(sql, options=options).num_rows == 0
    assert_width_invisible(session, sql, options)
    # A join over an emptied input must also survive.
    sql = ("SELECT d.name, SUM(f.val) AS total FROM facts f "
           "JOIN dims d ON f.key = d.key WHERE f.val < -1.0 GROUP BY d.name")
    assert_width_invisible(session, sql, options)


@width
def test_join_with_one_side_emptied(session, options):
    sql = (f"SELECT d.name, COUNT(*) AS n FROM facts f "
           f"JOIN dims d ON f.key = d.key "
           f"WHERE f.fact_id >= {N_FACTS - 10} GROUP BY d.name ORDER BY d.name")
    assert_width_invisible(session, sql, options)


# -- skewed keys --------------------------------------------------------------


@width
def test_one_join_key_for_every_row(options):
    # A constant join key: every probe row matches every build row.
    rng = np.random.default_rng(3)
    sess = session_of({
        "skewed": DataFrame({
            "key": np.full(N_FACTS, 42, dtype=np.int64),
            "val": np.round(rng.uniform(0.0, 10.0, size=N_FACTS), 2),
        }),
        "lookup": DataFrame({
            "key": np.full(64, 42, dtype=np.int64),
            "weight": np.arange(64, dtype=np.int64) % 5,
        }),
    })
    sql = ("SELECT l.weight, COUNT(*) AS n, SUM(s.val) AS total FROM skewed s "
           "JOIN lookup l ON s.key = l.key GROUP BY l.weight ORDER BY l.weight")
    assert_width_invisible(sess, sql, options)


# -- NULL join keys -----------------------------------------------------------


NULL_KEY_SQL = (
    "SELECT d.name, COUNT(*) AS n, SUM(f.val) AS total FROM "
    "(SELECT CASE WHEN key % 7 <> 0 THEN key END AS jk, val FROM facts) f "
    "JOIN dims d ON f.jk = d.key GROUP BY d.name ORDER BY d.name"
)


@width
def test_null_join_keys_match_nothing(session, options):
    # CASE without ELSE makes every seventh key NULL; the inner join drops
    # those rows at every width exactly as the serial plan does.
    assert_width_invisible(session, NULL_KEY_SQL, options)


@width
def test_null_keys_survive_a_left_join(session, options):
    # LEFT JOIN keeps the NULL-key probe rows: they match nothing and come
    # back exactly once each.
    sql = (
        "SELECT f.grp, COUNT(*) AS rows, COUNT(d.name) AS matched FROM "
        "(SELECT CASE WHEN key % 7 <> 0 THEN key END AS jk, grp FROM facts) f "
        "LEFT JOIN dims d ON f.jk = d.key GROUP BY f.grp ORDER BY f.grp"
    )
    assert_width_invisible(session, sql, options)


# -- re-registration ----------------------------------------------------------


@width
def test_reregister_serves_fresh_data_at_a_width(session, frames, options):
    sql = "SELECT SUM(val) AS total FROM facts"
    before = session.sql(sql, options=options).to_dict()["total"][0]
    doubled = DataFrame({name: (np.asarray(frames["facts"][name]) * 2
                                if name == "val"
                                else np.asarray(frames["facts"][name]))
                         for name in frames["facts"].columns})
    session.register("facts", doubled)
    after = session.sql(sql, options=options).to_dict()["total"][0]
    assert after == pytest.approx(2 * before)
    assert_width_invisible(session, sql, options)


@pytest.mark.parametrize("devices", [2, 4])
def test_shard_changes_no_entry_and_no_answer(session, frames, devices):
    sql = "SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp"
    by_hash, by_range = (ExecutionOptions(devices=devices, shard=shard)
                         for shard in ("hash", "range"))
    assert by_hash.cache_key() == by_range.cache_key()
    assert session.compile(sql, options=by_hash) \
        is session.compile(sql, options=by_range)
    for options in (by_hash, by_range):
        assert_width_invisible(session, sql, options)

    session.register("facts", frames["facts"].head(N_DIMS))
    for options in (by_hash, by_range):
        assert session.sql(sql, options=options).to_dict()["n"] \
            == session.sql(sql).to_dict()["n"]
        assert_width_invisible(session, sql, options)


# -- plans and profiles -------------------------------------------------------


@pytest.mark.parametrize("devices", [2, 4])
def test_a_width_run_profiles_as_the_serial_run(tpch_tiny, devices):
    """A device width places nothing and moves nothing: every event is
    recorded inside an operator, and the run records the serial run's ops."""
    _, tables = tpch_tiny
    sess = session_of(tables)
    sql = tpch.query(6, 0.002)
    counts = {}
    for options in (ExecutionOptions(), ExecutionOptions(devices=devices)):
        with Profiler() as profiler:
            sess.sql(sql, options=options)
        assert [e.op for e in profiler.events if not e.scope] == []
        counts[options.devices] = Counter(e.op for e in profiler.events)
    assert counts[devices] == counts[None]


def _join_lines(sess, sql, **options) -> list[str]:
    compiled = sess.compile(sql, options=ExecutionOptions(**options))
    return [line.strip()
            for line in compiled.operator_plan.root.pretty().splitlines()
            if "Join" in line]


def test_null_key_plan_renders_as_the_lane_plan(session):
    assert session.compile(NULL_KEY_SQL,
                           options=ExecutionOptions(devices=2)).explain() \
        == session.compile(NULL_KEY_SQL,
                           options=ExecutionOptions(parallelism=2)).explain()


@pytest.mark.parametrize("n_facts, n_dims", [
    (32 * DEFAULT_MORSEL_ROWS, DEFAULT_MORSEL_ROWS),
    (DEFAULT_MORSEL_ROWS, 32 * DEFAULT_MORSEL_ROWS),
], ids=["small-right", "small-left"])
def test_a_width_keeps_the_serial_join(n_facts, n_dims):
    """Lopsided sides choose no exchange: inner and left joins at a device
    width are the lane plan's joins, and answer with the serial bits."""
    rng = np.random.default_rng(20260808)
    sess = session_of({
        "facts": DataFrame({
            "fact_id": np.arange(n_facts, dtype=np.int64),
            "key": rng.integers(0, n_dims, size=n_facts).astype(np.int64),
            "val": np.round(rng.uniform(0.0, 100.0, size=n_facts), 2),
        }),
        "dims": DataFrame({
            "key": np.arange(n_dims, dtype=np.int64),
            "name": rng.choice(["a", "b", "c"], size=n_dims).astype(object),
        }),
    })
    for sql in ("SELECT d.name, SUM(f.val) AS tv FROM facts f "
                "JOIN dims d ON f.key = d.key GROUP BY d.name ORDER BY d.name",
                "SELECT f.fact_id, d.name FROM facts f "
                "LEFT JOIN dims d ON f.key = d.key ORDER BY f.fact_id"):
        lines = _join_lines(sess, sql, devices=2)
        assert len(lines) == 1, lines
        assert lines == _join_lines(sess, sql, parallelism=2)
        assert not [word for word in ("Shuffle", "Broadcast", "Distributed")
                    if word in lines[0]], lines
        assert_width_invisible(sess, sql, ExecutionOptions(devices=2))
