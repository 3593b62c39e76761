"""String code units: one rule picks uint8 or int32, and every path mixes them.

``encode_strings`` stores a string column as uint8 codes when every code
point is below 256 (ASCII and Latin-1) and as int32 otherwise.  Columns of
the two units meet in comparisons, joins, CASE and concatenation; literals and
bound parameters beyond Latin-1 meet uint8 columns.  Every SQL answer here is
checked against ``sqlite3`` (BINARY collation, case-sensitive LIKE), over
plain and dictionary storage.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.core import strings
from repro.core.columnar import (
    LogicalType,
    TensorColumn,
    TensorTable,
    concat_columns,
    decode_strings,
    encode_string_literal,
    encode_strings,
)
from repro.core.operators.join import _null_column_like
from repro.core.parameters import ParameterSpec, param_array_converter
from repro.storage import dictionary_encode
from repro.tensor import ops

#: Every code point below 256: ASCII and Latin-1 (``Ä`` 196, ``é`` 233).
NARROW = ["apple", "Äpfel", "é", "zebra", "", "ab", "abc", "café"]
#: Beyond Latin-1: the BMP (``漢`` 28,450) and beyond it (``😀`` 128,512).
WIDE = ["漢字", "😀 smile", "naïve", "ab", "", "漢", "abc", "zebra"]
ROWS = 20
#: Literals whose code points do not fit a uint8 column, beside ones that do.
LITERALS = ["ā", "漢", "😀", "ab", "é", "a", "zz"]


def _frame(values) -> DataFrame:
    picks = [values[i % len(values)] for i in range(ROWS)]
    return DataFrame({"id": np.arange(ROWS, dtype=np.int64),
                      "s": np.array(picks, dtype=object)})


TABLES = {
    "n": _frame(NARROW),
    "w": _frame(WIDE),
    "k": DataFrame({"id": np.arange(0, 2 * ROWS, 3, dtype=np.int64)}),
}


@pytest.fixture(scope="module")
def sqlite_db():
    db = sqlite3.connect(":memory:")
    db.execute("pragma case_sensitive_like = on")
    for name, frame in TABLES.items():
        columns = frame.columns
        db.execute(f"create table {name} ({', '.join(columns)})")
        rows = zip(*(frame[column].tolist() for column in columns))
        db.executemany(f"insert into {name} values "
                       f"({', '.join('?' for _ in columns)})", list(rows))
    yield db
    db.close()


def _string_column(session: TQPSession, table: str) -> TensorColumn:
    compiled = session.compile(f"select * from {table}")
    converted = session.prepare_inputs(compiled.executor)[table]
    (column,) = [column for _, column in converted.columns()
                 if column.ltype == LogicalType.STRING]
    return column


@pytest.fixture(scope="module", params=["plain", "dictionary"])
def layout(request, plain_session):
    """A session over :data:`TABLES` in one storage layout, its string
    columns in the unit the rule picks."""
    if request.param == "plain":
        session = plain_session(TABLES)
    else:
        session = TQPSession()
        for name, frame in TABLES.items():
            session.register(name, frame)
    for table, unit in (("n", "uint8"), ("w", "int32")):
        column = _string_column(session, table)
        assert (column.encoding is not None) == (request.param == "dictionary")
        assert column.code_unit == unit
    return session


def _rows(session, sql):
    frame = session.sql(sql, options=ExecutionOptions(backend="torchscript"))
    columns = frame.to_dict()
    return [tuple(row) for row in zip(*columns.values())]


def _expected(db, sql):
    return [tuple(row) for row in db.execute(sql)]


def _check(layout, db, sql, sqlite_sql=None, ordered=False):
    got = _rows(layout, sql)
    expected = _expected(db, sqlite_sql or sql)
    if not ordered:
        got, expected = sorted(got, key=repr), sorted(expected, key=repr)
    assert got == expected, sql


# -- the rule ------------------------------------------------------------------


@pytest.mark.parametrize("values, unit", [
    (["plain ascii", "", "~"], "uint8"),
    (["café", "Äpfel", "\xff"], "uint8"),
    (["café", "Ā"], "int32"),
    (["漢字", "a"], "int32"),
    (["😀", ""], "int32"),
    ([], "uint8"),
], ids=["ascii", "latin-1", "latin-extended", "bmp", "astral", "empty"])
def test_the_rule_picks_the_narrowest_unit(values, unit):
    codes = encode_strings(values)
    assert codes.dtype.name == unit
    assert decode_strings(codes).tolist() == values
    column = TensorColumn.from_numpy(np.array(values, dtype=object))
    assert column.code_unit == unit
    assert column.to_numpy().tolist() == values
    if values:
        encoded = dictionary_encode(values)
        assert encoded.code_unit == unit
        assert encoded.tensor.dtype.name == "int32"    # codes stay int32
        assert encoded.to_numpy().tolist() == values


def test_literals_follow_the_rule_and_parameters_stay_int32():
    assert encode_string_literal("ab", 4).dtype.name == "uint8"
    assert encode_string_literal("a漢", 4).dtype.name == "int32"
    convert = param_array_converter(ParameterSpec("p", LogicalType.STRING))
    for value in ("ab", "é", "漢", "😀"):
        assert convert(value).dtype.name == "int32"
        assert convert(value).shape == (64,)


def test_a_wide_code_point_is_never_cast_down():
    # 300 wrapped to uint8 would be 44 (","): it must match nothing.
    codes = ops.tensor(encode_strings(["a,b", ",", "Ĭ"]))
    wide = encode_strings(["Ĭ"])
    assert codes.dtype.name == "int32"
    narrow = ops.tensor(encode_strings(["a,b", ","]))
    assert narrow.dtype.name == "uint8"
    assert strings.contains(narrow, "Ĭ").tolist() == [False, False]
    assert strings.equals_literal(narrow, "Ĭ").tolist() == [False, False]
    assert strings.starts_with(narrow, "Ĭ").tolist() == [False, False]
    assert strings.ends_with(narrow, "Ĭ").tolist() == [False, False]
    assert strings.equals_columns(narrow, ops.tensor(wide)).tolist() == \
        [False, False]
    assert strings.contains(codes, "Ĭ").tolist() == [False, False, True]


# -- a uint8 column against wide literals ----------------------------------------


@pytest.mark.parametrize("table", ["n", "w"])
@pytest.mark.parametrize("literal", LITERALS)
def test_comparisons_with_any_literal_match_sqlite(layout, sqlite_db, table,
                                                   literal):
    for predicate in (f"s = '{literal}'", f"s <> '{literal}'",
                      f"s < '{literal}'", f"s >= '{literal}'",
                      f"'{literal}' < s", f"'{literal}' >= s",
                      f"s in ('{literal}', 'ab', 'zebra')",
                      f"s like '{literal}%'", f"s like '%{literal}'",
                      f"s like '%{literal}%'", f"s like 'a%{literal}'"):
        _check(layout, sqlite_db, f"select id from {table} where {predicate}")


# -- order, group, distinct, join ----------------------------------------------------


@pytest.mark.parametrize("table", ["n", "w"])
def test_order_group_and_distinct_match_sqlite(layout, sqlite_db, table):
    for sql in (f"select s, id from {table} order by s, id",
                f"select s, id from {table} order by s desc, id",
                f"select s, count(*) as c from {table} group by s order by s",
                f"select distinct s from {table} order by s desc"):
        _check(layout, sqlite_db, sql, ordered=True)


def test_joining_a_uint8_key_with_an_int32_key_matches_sqlite(layout,
                                                              sqlite_db):
    _check(layout, sqlite_db,
           "select n.id as a, w.id as b, n.s as s from n join w on n.s = w.s")


# -- placeholders and mixed units --------------------------------------------------


def test_concatenating_units_promotes_and_keeps_every_value():
    narrow = TensorColumn.from_numpy(np.array(NARROW, dtype=object))
    wide = TensorColumn.from_numpy(np.array(WIDE, dtype=object))
    encoded = dictionary_encode(NARROW)
    for parts, unit in (([narrow, narrow.slice(1, 3)], "uint8"),
                        ([narrow, wide], "int32"),
                        ([encoded, wide], "int32"),
                        ([wide, encoded.slice(0, 2)], "int32")):
        joined = concat_columns(parts)
        assert joined.code_unit == unit
        assert joined.to_numpy().tolist() == \
            [value for part in parts for value in part.to_numpy().tolist()]


def test_case_mixing_units_matches_sqlite(layout, sqlite_db):
    _check(layout, sqlite_db,
           "select id, case when id < 7 then s else '漢' end as x from n")
    _check(layout, sqlite_db,
           "select n.id as i, case when n.id < 7 then n.s else w.s end as x "
           "from n join w on n.id = w.id")
    _check(layout, sqlite_db,
           "select id, case when id < 7 then s end as x from n")


def test_left_join_null_extends_a_uint8_column(layout, sqlite_db):
    _check(layout, sqlite_db,
           "select k.id as k, n.s as s from k left join n on k.id = n.id")
    _check(layout, sqlite_db,
           "select k.id as k, w.s as s from k left join w on k.id = w.id")
    for values, unit in ((NARROW, "uint8"), (WIDE, "int32")):
        for column in (TensorColumn.from_numpy(np.array(values, dtype=object)),
                       dictionary_encode(values)):
            table = TensorTable({"x": column})
            null = _null_column_like(column, table)
            assert null.code_unit == unit
            assert null.to_numpy().tolist() == [None] * len(values)


def test_length_and_substring_match_sqlite(layout, sqlite_db):
    for table in ("n", "w"):
        _check(layout, sqlite_db,
               f"select id, length(s) as l, substring(s from 2 for 3) as x "
               f"from {table}",
               f"select id, length(s), substr(s, 2, 3) from {table}")
        _check(layout, sqlite_db,
               f"select id, substring(s from 40) as x from {table}",
               f"select id, substr(s, 40) from {table}")
    for values, unit in ((NARROW, "uint8"), (WIDE, "int32")):
        codes = ops.tensor(encode_strings(values))
        empty = strings.substring(codes, 40, None)
        assert empty.dtype.name == unit and empty.shape == (len(values), 1)


# -- one program, every binding ------------------------------------------------------


@pytest.mark.parametrize("table", ["n", "w"])
def test_a_string_parameter_rebinds_from_ascii_to_astral(layout, sqlite_db,
                                                         table):
    sql = (f"select id, s from {table} where s = :p or s < :q or "
           f"s like 'z%'")
    prepared = layout.prepare(sql, options=ExecutionOptions(
        backend="torchscript"))
    for p, q in (("apple", "ab"), ("😀 smile", "漢"), ("漢字", "😀"),
                 ("é", "Ā"), ("", "")):
        frame = prepared.bind(p=p, q=q).run().to_dict()
        got = sorted(zip(*frame.values()))
        expected = sorted(sqlite_db.execute(
            f"select id, s from {table} where s = ? or s < ? or s like 'z%'",
            (p, q)))
        assert got == expected, (p, q)
    assert prepared.compiled.executor.compile_count == 1
