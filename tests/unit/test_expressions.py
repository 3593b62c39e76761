"""Unit tests for the expression → tensor-program compiler."""

import numpy as np
import pytest

from repro.core.columnar import LogicalType, TensorTable, date_literal_to_ns
from repro.core.expressions import EvaluationContext, as_mask, evaluate, to_column
from repro.dataframe import DataFrame
from repro.errors import ExecutionError, UnsupportedOperationError
from repro.frontend import ast
from repro.frontend.parser import parse


def _table():
    return TensorTable.from_dataframe(DataFrame({
        "t.qty": np.array([1, 5, 10], dtype=np.int64),
        "t.price": np.array([2.0, 3.0, 4.0]),
        "t.day": np.array(["1994-06-01", "1995-01-15", "1996-12-31"],
                          dtype="datetime64[D]"),
        "t.name": np.array(["PROMO BRASS", "ECONOMY TIN", "PROMO STEEL"], dtype=object),
    }))


def _col(name, ltype):
    ref = ast.ColumnRef(None, name.split(".")[-1], resolved=name)
    ref.otype = ltype
    return ref


def _lit(value, ltype):
    lit = ast.Literal(value, ltype)
    lit.otype = ltype
    return lit


CTX = EvaluationContext()
QTY = lambda: _col("t.qty", LogicalType.INT)          # noqa: E731
PRICE = lambda: _col("t.price", LogicalType.FLOAT)    # noqa: E731
DAY = lambda: _col("t.day", LogicalType.DATE)         # noqa: E731
NAME = lambda: _col("t.name", LogicalType.STRING)     # noqa: E731


def _binary(op, left, right, otype=LogicalType.BOOL):
    expr = ast.BinaryOp(op, left, right)
    expr.otype = otype
    return expr


def test_column_and_literal_evaluation():
    value = evaluate(QTY(), _table(), CTX)
    assert value.ltype == LogicalType.INT
    np.testing.assert_array_equal(value.tensor.numpy(), [1, 5, 10])
    scalar = evaluate(_lit(2.5, LogicalType.FLOAT), _table(), CTX)
    assert scalar.is_scalar and scalar.tensor.item() == 2.5


def test_arithmetic_and_comparison():
    expr = _binary("*", QTY(), PRICE(), LogicalType.FLOAT)
    np.testing.assert_allclose(evaluate(expr, _table(), CTX).tensor.numpy(),
                               [2.0, 15.0, 40.0])
    cmp = _binary(">=", QTY(), _lit(5, LogicalType.INT))
    np.testing.assert_array_equal(evaluate(cmp, _table(), CTX).tensor.numpy(),
                                  [False, True, True])


def test_date_comparison_with_literal():
    cutoff = _lit(date_literal_to_ns("1995-01-01"), LogicalType.DATE)
    expr = _binary("<", DAY(), cutoff)
    np.testing.assert_array_equal(evaluate(expr, _table(), CTX).tensor.numpy(),
                                  [True, False, False])


def _parsed_condition(condition):
    """``condition`` as the parser hands it on, its columns resolved to
    :func:`_table`'s."""
    return _resolved(parse(f"select qty from t where {condition}").where)


def _parsed_value(value):
    """The projected ``value`` as the parser hands it on, resolved likewise."""
    return _resolved(parse(f"select {value} from t").select_items[0].expr)


def _resolved(expr):
    for node in ast.walk_expr(expr):
        if isinstance(node, ast.ColumnRef):
            node.resolved = f"t.{node.name}"
    return expr


def test_between_and_in_list():
    between = _parsed_condition("qty between 2 and 10")
    assert isinstance(between, ast.BinaryOp) and between.op == "and"
    np.testing.assert_array_equal(evaluate(between, _table(), CTX).tensor.numpy(),
                                  [False, True, True])
    negated = _parsed_condition("qty not between 2 and 10")
    np.testing.assert_array_equal(evaluate(negated, _table(), CTX).tensor.numpy(),
                                  [True, False, False])
    inlist = ast.InList(QTY(), [_lit(1, LogicalType.INT), _lit(10, LogicalType.INT)])
    inlist.otype = LogicalType.BOOL
    np.testing.assert_array_equal(evaluate(inlist, _table(), CTX).tensor.numpy(),
                                  [True, False, True])


def test_string_equality_like_and_in_list():
    eq = _binary("=", NAME(), _lit("PROMO STEEL", LogicalType.STRING))
    np.testing.assert_array_equal(evaluate(eq, _table(), CTX).tensor.numpy(),
                                  [False, False, True])
    ne = _binary("<>", NAME(), _lit("PROMO STEEL", LogicalType.STRING))
    np.testing.assert_array_equal(evaluate(ne, _table(), CTX).tensor.numpy(),
                                  [True, True, False])
    like = ast.LikeExpr(NAME(), "PROMO%")
    like.otype = LogicalType.BOOL
    np.testing.assert_array_equal(evaluate(like, _table(), CTX).tensor.numpy(),
                                  [True, False, True])
    inlist = ast.InList(NAME(), [_lit("ECONOMY TIN", LogicalType.STRING)])
    inlist.otype = LogicalType.BOOL
    np.testing.assert_array_equal(evaluate(inlist, _table(), CTX).tensor.numpy(),
                                  [False, True, False])
    with pytest.raises(UnsupportedOperationError):
        evaluate(_binary("<", NAME(), _lit("A", LogicalType.STRING)), _table(), CTX)


def test_case_when_and_cast():
    case = ast.CaseWhen(
        whens=[(_binary(">", QTY(), _lit(4, LogicalType.INT)),
                _lit(1.0, LogicalType.FLOAT))],
        else_value=_lit(0.0, LogicalType.FLOAT),
    )
    case.otype = LogicalType.FLOAT
    np.testing.assert_allclose(evaluate(case, _table(), CTX).tensor.numpy(),
                               [0.0, 1.0, 1.0])
    cast = ast.Cast(PRICE(), "int")
    cast.otype = LogicalType.INT
    assert evaluate(cast, _table(), CTX).tensor.tolist() == [2, 3, 4]


def test_extract_and_substring_and_scalar_functions():
    extract = _parsed_value("extract(year from day)")
    assert isinstance(extract, ast.FuncCall) and extract.name == "year"
    assert evaluate(extract, _table(), CTX).tensor.tolist() == [1994, 1995, 1996]
    substring = ast.SubstringExpr(NAME(), _lit(1, LogicalType.INT),
                                  _lit(5, LogicalType.INT))
    substring.otype = LogicalType.STRING
    out = evaluate(substring, _table(), CTX)
    assert out.tensor.shape == (3, 5)
    length = ast.FuncCall("length", [NAME()])
    length.otype = LogicalType.INT
    assert evaluate(length, _table(), CTX).tensor.tolist() == [11, 11, 11]


def test_logical_operators_and_not():
    expr = _binary("and", _binary(">", QTY(), _lit(1, LogicalType.INT)),
                   _binary("<", PRICE(), _lit(4.0, LogicalType.FLOAT)))
    np.testing.assert_array_equal(evaluate(expr, _table(), CTX).tensor.numpy(),
                                  [False, True, False])
    negation = ast.UnaryOp("not", _binary(">", QTY(), _lit(1, LogicalType.INT)))
    negation.otype = LogicalType.BOOL
    np.testing.assert_array_equal(evaluate(negation, _table(), CTX).tensor.numpy(),
                                  [True, False, False])


def test_to_column_broadcasts_scalars_and_as_mask():
    scalar = evaluate(_lit(7, LogicalType.INT), _table(), CTX)
    column = to_column(scalar, _table())
    assert column.tensor.tolist() == [7, 7, 7]
    mask_value = evaluate(_binary(">", QTY(), _lit(1, LogicalType.INT)), _table(), CTX)
    assert as_mask(mask_value, _table()).tolist() == [False, True, True]
    with pytest.raises(ExecutionError):
        as_mask(evaluate(QTY(), _table(), CTX), _table())


def test_null_literal_and_is_null():
    isnull = _parsed_condition("qty is null")
    assert evaluate(isnull, _table(), CTX).tensor.tolist() == [False, False, False]
    isnotnull = _parsed_condition("qty is not null")
    assert isinstance(isnotnull, ast.UnaryOp) and isnotnull.op == "not"
    assert evaluate(isnotnull, _table(), CTX).tensor.tolist() == [True, True, True]


def test_predict_requires_registered_model():
    predict = ast.PredictExpr("missing_model", [PRICE()])
    predict.otype = LogicalType.FLOAT
    with pytest.raises(ExecutionError):
        evaluate(predict, _table(), CTX)


def test_subqueries_require_runner():
    scalar = ast.ScalarSubquery(query=None)
    scalar.subplan = object()
    scalar.otype = LogicalType.FLOAT
    with pytest.raises(ExecutionError):
        evaluate(scalar, _table(), CTX)


def test_validity_propagates_through_comparisons():
    from repro.core.columnar import TensorColumn
    from repro.tensor import ops

    table = TensorTable({
        "t.v": TensorColumn(ops.tensor([1.0, 2.0, 3.0]), LogicalType.FLOAT,
                            valid=ops.tensor([True, False, True])),
    })
    cmp = _binary(">", _col("t.v", LogicalType.FLOAT), _lit(0.0, LogicalType.FLOAT))
    value = evaluate(cmp, table, CTX)
    # NULL comparisons are not true: the mask removes the invalid row.
    assert as_mask(value, table).tolist() == [True, False, True]


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("then", ["s", "'hi'"])
def test_case_with_string_branches_pads_them_to_one_width(backend, then):
    """Code-point matrices of different widths are padded to one width
    before the ``where`` that selects between them."""
    from repro import ExecutionOptions, TQPSession

    session = TQPSession()
    session.register("t", DataFrame({
        "a": np.array([1, 2, 3, 4], dtype=np.int64),
        "s": np.array(["x", "yy", "zzz", "x"], dtype=object)}))
    result = session.sql(f"select case when a > 2 then {then} else 'zz' end "
                         "as c from t", options=ExecutionOptions(backend=backend))
    picked = ["zzz", "x"] if then == "s" else ["hi", "hi"]
    assert result.to_dict()["c"] == ["zz", "zz", *picked]
