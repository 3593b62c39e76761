"""Property-based tests for string-tensor predicates and SQL-level invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataFrame, TQPSession
from repro.baselines import run_sql
from repro.core import strings
from repro.core.columnar import decode_strings, encode_strings
from repro.tensor import ops
from repro import ExecutionOptions

# Text alphabet kept to a handful of characters so patterns actually match.
words = st.text(alphabet="abcx ", min_size=0, max_size=12)
word_lists = st.lists(words, min_size=1, max_size=25)
# Single-segment shapes, then multi-segment, doubly anchored and
# self-overlapping ones (``a%a`` must not match ``'a'``; ``%ab%ab%`` must not
# reuse the ``b`` of ``'aba'``), and suffixes wider than most rows.
LIKE_PATTERNS = ["a%", "%x", "%ab%", "abc", "%a%b%", "%", "x%c",
                 "a%a", "%ab%ab%", "%aa%a", "ab%ab", "a%b%a", "%%", "a%%a",
                 "%abcabcabcabc", "%abc abc abc%", "%a%a%a%", "%x%x"]
patterns = st.sampled_from(LIKE_PATTERNS)


@given(word_lists)
@settings(max_examples=60, deadline=None)
def test_string_encoding_round_trip(values):
    decoded = decode_strings(encode_strings(values))
    assert decoded.tolist() == [v for v in values]


@given(word_lists, patterns)
@settings(max_examples=80, deadline=None)
def test_like_matches_python_reference(values, pattern):
    import re

    regex = re.compile("^" + ".*".join(re.escape(p) for p in pattern.split("%")) + "$")
    expected = [bool(regex.match(v)) for v in values]
    got = strings.like(ops.tensor(encode_strings(values)), pattern).tolist()
    assert got == expected


@given(st.integers(0, 10_000), patterns, st.booleans())
@settings(max_examples=60, deadline=None)
def test_like_sql_matches_row_engine_in_plain_and_dictionary_layouts(
        plain_session, seed, pattern, negated):
    rng = np.random.default_rng(seed)
    # Few distinct values over many rows, so ``dictionary`` really encodes;
    # every word is as wide as the column at least once (full-width rows).
    pool = ["a", "aa", "aba", "abab", "", "abc abc abc", "abcabcabcabc",
            "x" * 12, "xax", "ab ab"]
    frame = DataFrame({
        "id": np.arange(40, dtype=np.int64),
        "s": np.array(pool, dtype=object)[rng.integers(0, len(pool), 40)],
    })
    keys = DataFrame({"k": np.arange(0, 60, 3, dtype=np.int64)})
    operator = "not like" if negated else "like"
    # The second statement NULL-extends ``s`` (keys 42..57 match no row): a
    # NULL is neither LIKE nor NOT LIKE anything.
    statements = [
        f"select id from t where s {operator} '{pattern}'",
        f"select k from keys left join t on k = id where s {operator} '{pattern}'",
    ]
    tables = {"t": frame, "keys": keys}
    session = TQPSession()
    for name, table in tables.items():
        session.register(name, table)
    sessions = {"off": plain_session(tables), "auto": session}
    for sql in statements:
        expected = run_sql(sql, tables).to_dict()
        for encoding, layout in sessions.items():
            got = layout.sql(sql)
            assert got.to_dict() == expected, (sql, encoding)


@given(word_lists)
@settings(max_examples=60, deadline=None)
def test_dense_rank_consistent_with_sorting(values):
    ranks = strings.dense_rank(ops.tensor(encode_strings(values))).tolist()
    expected_order = {v: i for i, v in enumerate(sorted(set(values)))}
    assert ranks == [expected_order[v] for v in values]


# -- SQL-level properties -----------------------------------------------------


def _random_frame(rng, n):
    return DataFrame({
        "k": rng.integers(0, 8, n).astype(np.int64),
        "v": np.round(rng.normal(size=n), 3),
        "s": np.array(list("abcd"), dtype=object)[rng.integers(0, 4, n)],
    })


@given(st.integers(0, 10_000), st.integers(1, 120))
@settings(max_examples=25, deadline=None)
def test_filter_aggregate_matches_numpy_reference(seed, n):
    rng = np.random.default_rng(seed)
    frame = _random_frame(rng, n)
    session = TQPSession()
    session.register("t", frame)
    out = session.sql("select count(*) as n, sum(v) as total from t where v > 0")
    mask = frame["v"] > 0
    assert out["n"][0] == int(mask.sum())
    if mask.any():
        assert out["total"][0] == pytest.approx(float(frame["v"][mask].sum()), abs=1e-6)
    else:
        assert out["total"][0] is None


@given(st.integers(0, 10_000), st.integers(1, 100))
@settings(max_examples=20, deadline=None)
def test_group_by_matches_row_engine(seed, n):
    rng = np.random.default_rng(seed)
    frame = _random_frame(rng, n)
    sql = ("select s, k, count(*) as c, min(v) as lo, max(v) as hi "
           "from t group by s, k order by s, k")
    session = TQPSession()
    session.register("t", frame)
    tqp = session.sql(sql)
    baseline = run_sql(sql, {"t": frame})
    assert tqp.to_dict()["s"] == baseline.to_dict()["s"]
    assert tqp.to_dict()["k"] == baseline.to_dict()["k"]
    assert tqp.to_dict()["c"] == baseline.to_dict()["c"]
    np.testing.assert_allclose(tqp["lo"], baseline["lo"], atol=1e-9)
    np.testing.assert_allclose(tqp["hi"], baseline["hi"], atol=1e-9)


@given(st.integers(0, 10_000), st.integers(1, 60), st.integers(1, 60))
@settings(max_examples=20, deadline=None)
def test_join_matches_row_engine(seed, n_left, n_right):
    rng = np.random.default_rng(seed)
    left = DataFrame({
        "k": rng.integers(0, 10, n_left).astype(np.int64),
        "v": np.round(rng.normal(size=n_left), 3),
    })
    right = DataFrame({
        "k": rng.integers(0, 10, n_right).astype(np.int64),
        "w": np.round(rng.normal(size=n_right), 3),
    })
    sql = ("select left_t.k, count(*) as pairs, sum(v + w) as total "
           "from left_t, right_t where left_t.k = right_t.k "
           "group by left_t.k order by left_t.k")
    session = TQPSession()
    session.register("left_t", left)
    session.register("right_t", right)
    tqp = session.sql(sql)
    baseline = run_sql(sql, {"left_t": left, "right_t": right})
    assert tqp.to_dict()["k"] == baseline.to_dict()["k"]
    assert tqp.to_dict()["pairs"] == baseline.to_dict()["pairs"]
    np.testing.assert_allclose(tqp["total"], baseline["total"], atol=1e-6)


@given(st.integers(0, 10_000), st.integers(1, 80))
@settings(max_examples=15, deadline=None)
def test_backends_agree_on_random_queries(seed, n):
    rng = np.random.default_rng(seed)
    frame = _random_frame(rng, n)
    session = TQPSession()
    session.register("t", frame)
    sql = ("select s, sum(case when v > 0 then v else 0 end) as positive_sum "
           "from t group by s order by s")
    eager = session.compile(sql, options=ExecutionOptions(backend="pytorch")).run()
    traced = session.compile(sql, options=ExecutionOptions(backend="torchscript")).run()
    assert traced.equals(eager)
