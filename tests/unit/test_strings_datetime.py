"""Unit tests for string-tensor predicates and date extraction."""

import numpy as np
import pytest

from repro.core import datetime_ops, strings
from repro.core.columnar import encode_dates, encode_strings
from repro.errors import UnsupportedOperationError
from repro.tensor import ops, trace


def _codes(values):
    return ops.tensor(encode_strings(values))


WORDS = ["PROMO BRASS", "STANDARD COPPER", "PROMO STEEL", "ECONOMY BRASS", ""]


def test_row_lengths():
    assert strings.row_lengths(_codes(["abc", "", "zz"])).tolist() == [3, 0, 2]


def test_equals_literal_and_columns():
    codes = _codes(WORDS)
    np.testing.assert_array_equal(
        strings.equals_literal(codes, "PROMO STEEL").numpy(),
        [False, False, True, False, False])
    # literal longer than the column width can never match
    assert not strings.equals_literal(_codes(["ab"]), "abc").numpy()[0]
    left = _codes(["aa", "bb"])
    right = ops.tensor(encode_strings(["aa", "bc"], width=5))
    np.testing.assert_array_equal(strings.equals_columns(left, right).numpy(),
                                  [True, False])


def test_equals_literal_compares_only_the_decisive_columns():
    values = ["FRANCE", "FRANCES", "FRANC", "GERMANY", "", "FRANCE", "XFRANCE"]
    codes = _codes(values)  # width 7
    for literal in ["FRANCE", "GERMANY", "FRANCES", "", "F", "GERMANYS", "FRANCEX"]:
        assert strings.equals_literal(codes, literal).tolist() == \
            [value == literal for value in values], literal
    # The compare reads len(literal) + 1 columns: the code points and the pad.
    graph = trace(lambda c: strings.equals_literal(c, "FRANCE"), [codes])
    compared = next(n for n in graph.nodes if n.op == "eq")
    assert graph.values[compared.inputs[0]].shape == (len(values), 7)
    graph = trace(lambda c: strings.equals_literal(c, "F"), [codes])
    compared = next(n for n in graph.nodes if n.op == "eq")
    assert graph.values[compared.inputs[0]].shape == (len(values), 2)


def test_starts_with_and_ends_with():
    codes = _codes(WORDS)
    np.testing.assert_array_equal(strings.starts_with(codes, "PROMO").numpy(),
                                  [True, False, True, False, False])
    np.testing.assert_array_equal(strings.ends_with(codes, "BRASS").numpy(),
                                  [True, False, False, True, False])
    assert strings.ends_with(codes, "").tolist() == [True] * 5
    assert strings.starts_with(codes, "").tolist() == [True] * 5


def test_contains():
    codes = _codes(WORDS)
    np.testing.assert_array_equal(strings.contains(codes, "AND").numpy(),
                                  [False, True, False, False, False])
    assert strings.contains(codes, "").tolist() == [True] * 5
    assert strings.contains(_codes(["ab"]), "abcdef").tolist() == [False]


@pytest.mark.parametrize("pattern,expected", [
    ("PROMO%", [True, False, True, False, False]),
    ("%BRASS", [True, False, False, True, False]),
    ("%OPP%", [False, True, False, False, False]),
    ("PROMO BRASS", [True, False, False, False, False]),
    ("%", [True, True, True, True, True]),
    ("PROMO%STEEL", [False, False, True, False, False]),
    ("%O%BRASS", [True, False, False, True, False]),
])
def test_like_patterns(pattern, expected):
    np.testing.assert_array_equal(strings.like(_codes(WORDS), pattern).numpy(),
                                  expected)


def test_like_multi_segment_in_order():
    codes = _codes(["wake special packages requests daily", "requests then special",
                    "specialrequests", "nothing here"])
    np.testing.assert_array_equal(
        strings.like(codes, "%special%requests%").numpy(),
        [True, False, True, False])


def test_like_rejects_underscore_wildcard():
    with pytest.raises(UnsupportedOperationError):
        strings.like(_codes(["ab"]), "a_")


@pytest.mark.parametrize("engine", ["pytorch", "torchscript", "row engine"])
def test_like_underscore_raises_one_typed_error_at_analysis(engine):
    """Neither engine matches ``_``: a pattern with it raises the same typed
    error on every engine, when the statement is analyzed, and the row
    engine's matcher refuses it rather than reading ``_`` literally."""
    from repro import DataFrame, ExecutionOptions, TQPSession
    from repro.baselines import RowEngine
    from repro.baselines.rowengine import _like_to_regex
    from repro.frontend import sql_to_physical

    tables = {"t": DataFrame({"s": np.array(["ab", "a_b", "axb", "b"],
                                            dtype=object)})}
    session = TQPSession()
    session.register("t", tables["t"])
    sql = "select s from t where s like 'a_b'"
    with pytest.raises(UnsupportedOperationError, match="'_' wildcards"):
        if engine == "row engine":
            RowEngine(tables).execute_to_dataframe(
                sql_to_physical(sql, session.catalog))
        else:
            session.compile(sql, options=ExecutionOptions(backend=engine))
    with pytest.raises(UnsupportedOperationError, match="'_' wildcards"):
        _like_to_regex("a_b")
    assert session.sql("select s from t where s like 'a%b'",
                       options=ExecutionOptions(backend="pytorch")
                       ).to_dict() == {"s": ["ab", "a_b", "axb"]}


def test_substring():
    codes = _codes(["12-555-867", "33-111-222"])
    out = strings.substring(codes, 1, 2)
    from repro.core.columnar import decode_strings

    assert decode_strings(out.numpy()).tolist() == ["12", "33"]
    assert decode_strings(strings.substring(codes, 4, None).numpy()).tolist() == \
        ["555-867", "111-222"]
    with pytest.raises(UnsupportedOperationError):
        strings.substring(codes, 0, 2)


def test_dense_rank_matches_lexicographic_order():
    values = ["pear", "apple", "pear", "fig", "apple"]
    ranks = strings.dense_rank(_codes(values)).tolist()
    # equal strings share ids; ids follow sorted order (apple < fig < pear)
    assert ranks == [2, 0, 2, 1, 0]
    assert strings.dense_rank(_codes(["solo"])).tolist() == [0]


def test_extract_field_matches_numpy_calendar():
    dates = np.array(["1992-01-01", "1994-02-28", "1996-02-29", "1998-12-31",
                      "2000-03-01", "1970-01-01"], dtype="datetime64[D]")
    ns = ops.tensor(encode_dates(dates))
    years = datetime_ops.extract_field(ns, "year").numpy()
    months = datetime_ops.extract_field(ns, "month").numpy()
    days = datetime_ops.extract_field(ns, "day").numpy()
    np.testing.assert_array_equal(years, [1992, 1994, 1996, 1998, 2000, 1970])
    np.testing.assert_array_equal(months, [1, 2, 2, 12, 3, 1])
    np.testing.assert_array_equal(days, [1, 28, 29, 31, 1, 1])
    with pytest.raises(ValueError):
        datetime_ops.extract_field(ns, "hour")
