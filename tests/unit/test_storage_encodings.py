"""Unit tests for the compressed storage encoding (dictionary codes).

Covers the encoding round trip itself, the auto-encoding policy, the
encoded execution paths (equality / IN / LIKE / GROUP BY / ORDER BY /
DISTINCT on dictionary codes), the per-column conversion memo, and the
version bump on re-registration.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExecutionOptions, TQPSession
from repro.core.columnar import LogicalType, TensorColumn, concat_columns
from repro.dataframe import DataFrame
from repro.storage import DictionaryEncoding, dictionary_encode, encode_column


def make_frame(num_rows: int = 64) -> DataFrame:
    rng = np.random.default_rng(7)
    return DataFrame({
        "k": np.repeat(np.arange(num_rows // 4, dtype=np.int64), 4),
        "v": rng.random(num_rows),
        "d": (np.datetime64("2024-01-01")
              + np.sort(rng.integers(0, 10, num_rows))).astype("datetime64[D]"),
        "tag": np.array(["alpha", "beta", "gamma"], dtype=object)[
            rng.integers(0, 3, num_rows)],
        "note": np.array([f"unique note {i}" for i in range(num_rows)],
                         dtype=object),
    })


def make_session() -> TQPSession:
    session = TQPSession()
    session.register("t", make_frame())
    return session


# -- round trips --------------------------------------------------------------


def test_dictionary_encode_round_trip():
    values = ["cherry", "apple", "banana", "apple", None, "cherry"]
    column = dictionary_encode(values)
    assert isinstance(column.encoding, DictionaryEncoding)
    assert column.encoding.cardinality == 4  # "", apple, banana, cherry
    assert column.tensor.ndim == 1 and column.tensor.dtype.name == "int32"
    decoded = column.to_numpy()
    assert list(decoded) == ["cherry", "apple", "banana", "apple", "", "cherry"]
    # The dictionary is sorted, so codes are order-preserving.
    codes = column.tensor.numpy()
    assert codes[1] < codes[2] < codes[0]  # apple < banana < cherry


def test_encode_column_policy():
    n = 1000
    rng = np.random.default_rng(1)
    low_card = np.array(["a", "b"], dtype=object)[rng.integers(0, 2, n)]
    unique = np.array([f"s{i}" for i in range(n)], dtype=object)
    sorted_ints = np.sort(rng.integers(0, 50, n)).astype(np.int64)
    random_ints = rng.integers(0, 10**9, n)

    assert isinstance(encode_column(low_card).encoding, DictionaryEncoding)
    assert encode_column(unique).encoding is None          # NDV too high
    assert encode_column(sorted_ints).encoding is None     # numerics stay plain
    assert encode_column(random_ints).encoding is None
    # Tiny columns are never encoded.
    assert encode_column(np.array(["a", "a"], dtype=object)).encoding is None


def test_concat_columns_shared_dictionary_stays_encoded():
    column = dictionary_encode(["x", "y", "x", "z", "y", "z"])
    top, bottom = column.slice(0, 3), column.slice(3, 3)
    merged = concat_columns([top, bottom])
    assert merged.encoding is column.encoding
    assert list(merged.to_numpy()) == ["x", "y", "x", "z", "y", "z"]
    # Mixed encoded/plain chunks decode to the padded representation.
    plain = TensorColumn.from_numpy(np.array(["long-string", "y"], dtype=object))
    mixed = concat_columns([top, plain])
    assert mixed.encoding is None
    assert list(mixed.to_numpy()) == ["x", "y", "x", "long-string", "y"]


# -- encoded execution matches plain execution --------------------------------


ENCODED_QUERIES = [
    "select k, tag from t where tag = 'beta' order by k, tag",
    "select tag, count(*) as c, sum(v) as s from t group by tag order by tag",
    "select k from t where tag in ('alpha', 'gamma') order by k",
    "select tag from t where note like '%note 1%' order by tag",
    "select distinct tag from t order by tag",
    "select tag, length(tag) as l from t where tag <> 'alpha' order by tag",
    "select count(distinct tag) as n from t",
    "select max(d) as hi from t where k between 3 and 9",
]


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("sql", ENCODED_QUERIES)
def test_encoded_execution_matches_plain(frames_match, plain_session, sql,
                                        backend):
    encoded = make_session()
    plain = plain_session({"t": make_frame()})
    frames_match(encoded.sql(sql, options=ExecutionOptions(backend=backend)),
                 plain.sql(sql, options=ExecutionOptions(backend=backend)), f"{sql} [{backend}]")


def test_session_conversion_actually_encodes():
    session = make_session()
    compiled = session.compile("select tag, d, note from t")
    inputs = session.prepare_inputs(compiled.executor)
    table = inputs["t"]
    assert isinstance(table.column("t.tag").encoding, DictionaryEncoding)
    assert table.column("t.d").encoding is None     # sorted dates stay plain
    assert table.column("t.note").encoding is None  # unique strings stay plain


def test_sorted_and_constant_numerics_are_plain_program_inputs():
    """A numeric column has one stored form: sorted and constant columns are
    plain ``(n,)`` tensors under ``auto``, so a traced scan of them takes one
    program input per column and decodes nothing."""
    n = 256
    session = TQPSession()
    session.register("t", DataFrame({
        "sorted_k": np.repeat(np.arange(n // 4, dtype=np.int64), 4),
        "constant": np.zeros(n, dtype=np.int64),
        "day": np.repeat(np.datetime64("2024-01-01"), n).astype("datetime64[D]"),
    }))
    compiled = session.compile(
        "select sorted_k, constant, day from t where sorted_k > 3",
        options=ExecutionOptions(backend="torchscript"))
    table = session.prepare_inputs(compiled.executor)["t"]
    for _, column in table.columns():
        assert column.encoding is None and column.tensor.shape == (n,)
    graph = compiled.executor_graph()
    assert "repeat" not in graph.op_counts()
    assert len(graph.inputs) == 3
    assert compiled.run().num_rows == n - 16


def test_parameterized_equality_on_dictionary_codes(frames_match,
                                                    plain_session):
    encoded = make_session()
    plain = plain_session({"t": make_frame()})
    options = ExecutionOptions(backend="torchscript")
    query = encoded.prepare("select k from t where tag = :tag order by k",
                            options=options)
    for tag in ("alpha", "beta", "nosuch"):
        expected = plain.sql(f"select k from t where tag = '{tag}' order by k")
        frames_match(query.bind(tag=tag).run(), expected, f"tag={tag}")
    assert query.compiled.executor.compile_count == 1


# -- cache keying and invalidation --------------------------------------------


def test_conversion_memo_is_keyed_by_column_name():
    """One stored form per column: two statements reading ``tag`` share its
    converted column, and each scan input is keyed by its fields."""
    session = make_session()
    narrow = session.compile("select tag from t")
    wide = session.compile("select tag, v from t",
                           options=ExecutionOptions(backend="torchscript"))
    first = session.prepare_inputs(narrow.executor)["t"].column("t.tag")
    second = session.prepare_inputs(wide.executor)["t"].column("t.tag")
    assert first is second and first.encoding is not None
    record = session.catalog.record("t")
    assert set(record.columns) == {"tag", "v"}
    assert set(record.converted) == {("t.tag",), ("t.v", "t.tag")}


def test_reregister_with_different_dtype_bumps_version():
    """Re-registering a table with a different layout (dtype or encoding
    eligibility) must invalidate cached plans and converted columns."""
    session = make_session()
    sql = "select k, tag from t where tag = 'alpha' order by k"
    first = session.compile(sql, options=ExecutionOptions(backend="torchscript"))
    result_first = first.run()
    assert result_first.num_rows > 0

    # New data under the same name: k becomes float, tag becomes high-NDV
    # (no longer dictionary-encodable), and the matching rows change.
    n = 64
    frame = DataFrame({
        "k": np.linspace(0.0, 1.0, n),
        "v": np.zeros(n),
        "d": np.repeat(np.datetime64("2024-06-01"), n).astype("datetime64[D]"),
        "tag": np.array([f"tag-{i}" for i in range(n)], dtype=object),
        "note": np.array(["x"] * n, dtype=object),
    })
    session.register("t", frame)
    second = session.compile(sql, options=ExecutionOptions(backend="torchscript"))
    assert second is not first, "stale plan served after re-registration"
    assert second.run().num_rows == 0
    converted = session.prepare_inputs(second.executor)["t"]
    assert converted.column("t.tag").encoding is None
    assert converted.column("t.k").ltype == LogicalType.FLOAT
