"""Shard-boundary edge cases for multi-device distributed execution.

Distribution must be invisible in the answers: every test here runs the same
query serially (``devices=1``) and distributed (``devices`` ∈ {2, 4}, hash
and range sharding) and requires identical results — including the corners
where per-shard inputs degenerate (empty shards, single-destination
shuffles, NULL join keys crossing an exchange) and across table
re-registration while a sharded plan is cached.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.core.columnar import TensorTable
from repro.datasets import tpch
from repro.distributed import (
    SHARD_MIN_ROWS,
    ShardSpec,
    shard_bounds,
    shard_table,
)
from repro.distributed.sharding import HASH_MIX
from repro.errors import ExecutionError
from repro.tensor.profiler import Profiler

#: Comfortably above the per-table distribution threshold.
N_FACTS = 3 * SHARD_MIN_ROWS
N_DIMS = SHARD_MIN_ROWS + 100


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


@pytest.fixture()
def session(frames):
    sess = TQPSession()
    for name, frame in frames.items():
        sess.register(name, frame)
    return sess


def run(sess, sql, devices=1, shard="hash"):
    return sess.sql(sql, options=ExecutionOptions(devices=devices,
                                                  shard=shard))


def assert_distribution_invisible(sess, sql, frames_match):
    reference = run(sess, sql)
    for devices in (2, 4):
        for shard in ("hash", "range"):
            frames_match(run(sess, sql, devices, shard), reference,
                         context=f"devices={devices}, shard={shard}")


# -- sharding primitives ------------------------------------------------------


def test_shard_bounds_cover_input_exactly():
    assert shard_bounds(10, 4) == [(0, 3), (3, 3), (6, 2), (8, 2)]
    assert shard_bounds(2, 4) == [(0, 1), (1, 1), (2, 0), (2, 0)]
    assert shard_bounds(0, 2) == [(0, 0), (0, 0)]


def test_shard_spec_validation():
    with pytest.raises(ExecutionError):
        ShardSpec(mode="diagonal", devices=2)
    with pytest.raises(ExecutionError):
        ShardSpec(mode="hash", devices=0)


@pytest.mark.parametrize("mode", ["hash", "range"])
def test_shard_table_partitions_every_row_once(frames, mode):
    table = TensorTable.from_dataframe(frames["facts"])
    sharded = shard_table(table, 4, mode=mode)
    assert len(sharded.shards) == 4
    assert sum(s.num_rows for s in sharded.shards) == table.num_rows
    ids = np.concatenate([s.column("fact_id").tensor.numpy()
                          for s in sharded.shards])
    assert sorted(ids.tolist()) == list(range(table.num_rows))


def test_hash_sharding_is_deterministic(frames):
    table = TensorTable.from_dataframe(frames["facts"])
    first = shard_table(table, 2, mode="hash")
    second = shard_table(table, 2, mode="hash")
    for left, right in zip(first.shards, second.shards):
        assert np.array_equal(left.column("fact_id").tensor.numpy(),
                              right.column("fact_id").tensor.numpy())


@pytest.mark.parametrize("devices", [2, 3, 4])
def test_hash_placement_is_the_shuffle_hash(frames, devices):
    """Load-time placement and the query-time shuffle share one hash: the
    int64 key, mixed by ``HASH_MIX``, high bits modulo the device count."""
    table = TensorTable.from_dataframe(frames["facts"])
    sharded = shard_table(table, devices, mode="hash", key_column="key")
    keys = frames["facts"]["key"].astype(np.int64)
    expected = np.mod((keys * np.int64(HASH_MIX)) >> np.int64(32), devices)
    for device, shard in enumerate(sharded.shards):
        assert np.array_equal(shard.column("fact_id").tensor.numpy(),
                              np.flatnonzero(expected == device))


def test_placement_records_no_profile_events(tpch_tiny):
    """Shard placement happens outside every profile: the execution that
    places the tables records what the next one does, and no event outside
    an operator."""
    _, tables = tpch_tiny
    sess = TQPSession()
    for name, frame in tables.items():
        sess.register(name, frame)
    sql = tpch.query(6, 0.002)
    options = ExecutionOptions(devices=2)
    counts = []
    for _ in range(2):
        with Profiler() as profiler:
            sess.sql(sql, options=options)
        assert [e.op for e in profiler.events if not e.scope] == []
        counts.append(Counter(e.op for e in profiler.events))
    assert counts[0] == counts[1]


# -- empty shards -------------------------------------------------------------


def test_filter_emptying_some_shards(session, frames_match):
    # Range placement puts fact_id in contiguous blocks, so this predicate
    # leaves every shard but the first completely empty; hash placement
    # spreads the survivors.  Both must agree with the serial answer.
    sql = (f"SELECT grp, COUNT(*) AS n, SUM(val) AS total FROM facts "
           f"WHERE fact_id < {SHARD_MIN_ROWS // 2} "
           f"GROUP BY grp ORDER BY grp")
    assert_distribution_invisible(session, sql, frames_match)


def test_filter_emptying_every_shard(session, frames_match):
    sql = ("SELECT grp, COUNT(*) AS n FROM facts WHERE val < -1.0 "
           "GROUP BY grp")
    for devices in (1, 2, 4):
        assert run(session, sql, devices).num_rows == 0
    # A distributed join over universally-empty shards must also survive.
    sql = ("SELECT d.name, SUM(f.val) AS total FROM facts f "
           "JOIN dims d ON f.key = d.key WHERE f.val < -1.0 GROUP BY d.name")
    assert_distribution_invisible(session, sql, frames_match)


def test_join_with_one_side_emptied(session, frames_match):
    sql = (f"SELECT d.name, COUNT(*) AS n FROM facts f "
           f"JOIN dims d ON f.key = d.key "
           f"WHERE f.fact_id >= {N_FACTS - 10} GROUP BY d.name ORDER BY d.name")
    assert_distribution_invisible(session, sql, frames_match)


# -- skewed shuffles ----------------------------------------------------------


def test_all_rows_hash_to_one_destination(frames, frames_match):
    # A constant join key sends every row of both sides to the same shuffle
    # destination; the other shards' local joins see zero rows.
    rng = np.random.default_rng(3)
    skewed = DataFrame({
        "key": np.full(N_FACTS, 42, dtype=np.int64),
        "val": np.round(rng.uniform(0.0, 10.0, size=N_FACTS), 2),
    })
    lookup = DataFrame({
        "key": np.full(N_DIMS, 42, dtype=np.int64),
        "weight": np.arange(N_DIMS, dtype=np.int64) % 5,
    })
    sess = TQPSession()
    sess.register("skewed", skewed)
    sess.register("lookup", lookup)
    sql = ("SELECT l.weight, COUNT(*) AS n FROM skewed s "
           "JOIN lookup l ON s.key = l.key GROUP BY l.weight ORDER BY l.weight")
    assert_distribution_invisible(sess, sql, frames_match)


# -- NULL join keys crossing an exchange --------------------------------------


NULL_KEY_SQL = (
    "SELECT d.name, COUNT(*) AS n, SUM(f.val) AS total FROM "
    "(SELECT CASE WHEN key % 7 <> 0 THEN key END AS jk, val FROM facts) f "
    "JOIN dims d ON f.jk = d.key GROUP BY d.name ORDER BY d.name"
)


def test_null_join_keys_cross_exchange(session, frames_match):
    # CASE without ELSE makes every seventh key NULL *inside* the sharded
    # region, so NULL keys ride the shuffle exchange; the inner join must
    # drop them exactly as the serial plan does.
    assert_distribution_invisible(session, NULL_KEY_SQL, frames_match)


def test_null_join_keys_plan_stays_distributed(session):
    query = session.compile(NULL_KEY_SQL,
                            options=ExecutionOptions(devices=2))
    labels = [op.describe() for op in query.operator_plan.root.walk()]
    assert "ShuffleJoin[inner](devices=2, key=right)" in labels
    assert "DistributedRename(devices=2)" in labels


def test_null_keys_survive_left_join_across_exchange(session, frames_match):
    # LEFT JOIN keeps the NULL-key probe rows; they hash to shard 0, cross
    # the exchange, match nothing, and must come back exactly once each.
    sql = (
        "SELECT f.grp, COUNT(*) AS rows, COUNT(d.name) AS matched FROM "
        "(SELECT CASE WHEN key % 7 <> 0 THEN key END AS jk, grp FROM facts) f "
        "LEFT JOIN dims d ON f.jk = d.key GROUP BY f.grp ORDER BY f.grp"
    )
    assert_distribution_invisible(session, sql, frames_match)


# -- re-registration while sharded --------------------------------------------


def test_reregister_while_sharded_serves_fresh_shards(session, frames):
    sql = "SELECT SUM(val) AS total FROM facts"
    options = ExecutionOptions(devices=2)
    before = session.sql(sql, options=options).to_dict()["total"][0]

    doubled = DataFrame({name: (np.asarray(frames["facts"][name]) * 2
                                if name == "val"
                                else np.asarray(frames["facts"][name]))
                         for name in frames["facts"].columns})
    session.register("facts", doubled)

    after = session.sql(sql, options=options).to_dict()["total"][0]
    assert after == pytest.approx(2 * before)
    # The generation flip must hold for every shard: per-shard sums of the
    # re-registered table must cover the new data exactly.
    roundtrip = session.sql(sql, options=ExecutionOptions(devices=4,
                                                          shard="range"))
    assert roundtrip.to_dict()["total"][0] == pytest.approx(2 * before)


def test_reregister_does_not_leak_between_shard_modes(session, frames,
                                                      frames_match):
    sql = ("SELECT grp, COUNT(*) AS n FROM facts GROUP BY grp ORDER BY grp")
    hash_first = run(session, sql, devices=2, shard="hash")
    range_first = run(session, sql, devices=2, shard="range")
    frames_match(range_first, hash_first, context="hash vs range")

    smaller = frames["facts"].head(SHARD_MIN_ROWS + 17)
    session.register("facts", smaller)
    reference = run(session, sql)
    frames_match(run(session, sql, devices=2, shard="hash"), reference,
                 context="hash after re-register")
    frames_match(run(session, sql, devices=2, shard="range"), reference,
                 context="range after re-register")


# -- shuffle vs broadcast cost crossover --------------------------------------
#
# Both-sides-sharded joins pick the exchange by estimated bytes moved:
# shuffling repartitions (N-1)/N of both inputs, broadcasting gathers and
# replicates the chosen side to every device.  Broadcasting the right side
# wins once the left outweighs it by more than the replication overhead
# (at N devices: N²·right < (N-1)·left); comparable sides keep the shuffle.


def _sharded_join_session(n_facts: int, n_dims: int) -> TQPSession:
    rng = np.random.default_rng(20260808)
    sess = TQPSession()
    sess.register("facts", DataFrame({
        "fact_id": np.arange(n_facts, dtype=np.int64),
        "key": rng.integers(0, n_dims, size=n_facts).astype(np.int64),
        "val": np.round(rng.uniform(0.0, 100.0, size=n_facts), 2),
    }))
    sess.register("dims", DataFrame({
        "key": np.arange(n_dims, dtype=np.int64),
        "name": rng.choice(["a", "b", "c"], size=n_dims).astype(object),
    }))
    return sess


_JOIN_SQL = ("SELECT d.name, SUM(f.val) AS tv FROM facts f "
             "JOIN dims d ON f.key = d.key GROUP BY d.name")


def _join_line(sess, sql, **options) -> str:
    compiled = sess.compile(sql, options=ExecutionOptions(shard="hash",
                                                          **options))
    lines = [line.strip()
             for line in compiled.operator_plan.root.pretty().splitlines()
             if "Join" in line]
    assert len(lines) == 1, lines
    return lines[0]


def test_sharded_join_crossover_flips_shuffle_to_broadcast(frames_match):
    # Far past the crossover: the dimension side is 32× smaller in rows (and
    # more in bytes), so replicating it moves far less than repartitioning
    # the fact side.
    lopsided = _sharded_join_session(32 * SHARD_MIN_ROWS, SHARD_MIN_ROWS)
    line = _join_line(lopsided, _JOIN_SQL, devices=2)
    assert line.startswith("BroadcastJoin"), line
    assert "broadcast=right" in line

    # Comparable sides (≈3:1, inside the N²·R vs (N-1)·L margin): shuffling
    # both is cheaper than replicating either.
    comparable = _sharded_join_session(3 * SHARD_MIN_ROWS,
                                       SHARD_MIN_ROWS + 100)
    assert _join_line(comparable, _JOIN_SQL, devices=2).startswith(
        "ShuffleJoin")

    # The decision must never show in the answers.
    for sess in (lopsided, comparable):
        reference = run(sess, _JOIN_SQL)
        frames_match(run(sess, _JOIN_SQL, devices=2), reference,
                     context="broadcast-vs-shuffle crossover")


def test_sharded_join_broadcasts_small_left_only_when_inner():
    sess = _sharded_join_session(SHARD_MIN_ROWS, 32 * SHARD_MIN_ROWS)
    # Inner join: the tiny left (build) side replicates.
    line = _join_line(sess, _JOIN_SQL, devices=2)
    assert line.startswith("BroadcastJoin"), line
    assert "broadcast=left" in line
    # LEFT OUTER join: broadcasting the preserved side would duplicate its
    # unmatched rows on every device, so the planner must keep the shuffle.
    outer = ("SELECT f.val, d.name FROM facts f "
             "LEFT JOIN dims d ON f.key = d.key")
    assert _join_line(sess, outer, devices=2).startswith("ShuffleJoin")
