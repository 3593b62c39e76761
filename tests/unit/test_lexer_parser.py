"""Unit tests for the SQL lexer and parser."""

import pytest

from repro.core.columnar import LogicalType, date_literal_to_ns
from repro.errors import SQLSyntaxError
from repro.frontend import ast, parse
from repro.frontend.lexer import TokenType, tokenize
from repro.frontend.optimizer import split_conjuncts


# -- lexer -------------------------------------------------------------------


def test_tokenize_keywords_identifiers_numbers_strings():
    tokens = tokenize("SELECT l_quantity, 'BRASS', 3.5, 42 FROM lineitem")
    kinds = [t.type for t in tokens]
    values = [t.value for t in tokens]
    assert kinds[0] == TokenType.KEYWORD and values[0] == "select"
    assert TokenType.STRING in kinds and "BRASS" in values
    assert values[-1] == "" and kinds[-1] == TokenType.EOF
    assert "3.5" in values and "42" in values
    assert "l_quantity" in values  # identifiers lower-cased


def test_tokenize_operators_and_comments():
    tokens = tokenize("a <> b -- comment\n and c >= 1 /* block\ncomment */ or d != 2")
    ops = [t.value for t in tokens if t.type == TokenType.OPERATOR]
    assert ops == ["<>", ">=", "!="]


def test_tokenize_quoted_identifier_and_escaped_string():
    tokens = tokenize("select \"Weird Name\", 'it''s' from t")
    assert any(t.type == TokenType.IDENTIFIER and t.value == "Weird Name" for t in tokens)
    assert any(t.type == TokenType.STRING and t.value == "it's" for t in tokens)


@pytest.mark.parametrize("bad", ["select 'unterminated", "select \"open", "select a ; ðŸ¦†"])
def test_tokenize_errors(bad):
    with pytest.raises(SQLSyntaxError):
        tokenize(bad)


def test_tokenize_reports_position():
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize("select\n  'oops")
    assert excinfo.value.line == 2



def test_tokenize_positions_across_lines_comments_and_strings():
    tokens = tokenize("select a,\n  'x\ny' /* c\n */ -- d\n\t1.5e-3 :p ?")
    assert [(t.type, t.value, t.line, t.column) for t in tokens] == [
        (TokenType.KEYWORD, "select", 1, 1),
        (TokenType.IDENTIFIER, "a", 1, 8),
        (TokenType.PUNCTUATION, ",", 1, 9),
        (TokenType.STRING, "x\ny", 2, 3),
        (TokenType.NUMBER, "1.5e-3", 5, 2),
        (TokenType.PARAMETER, "p", 5, 9),
        (TokenType.PARAMETER, "", 5, 12),
        (TokenType.EOF, "", 5, 13),
    ]


def test_tokenize_words_start_with_a_letter_or_underscore():
    tokens = tokenize("select a½, _1, Éa, :_p")
    assert [(t.type, t.value) for t in tokens[1:-1:2]] == [
        (TokenType.IDENTIFIER, "a½"), (TokenType.IDENTIFIER, "_1"),
        (TokenType.IDENTIFIER, "éa"), (TokenType.PARAMETER, "_p")]


@pytest.mark.parametrize("bad,message,line,column", [
    ("select 'a''", "unterminated string literal", 1, 12),
    ("select\n/* x\n y", "unterminated block comment", 3, 3),
    ('select "a\nb', "unterminated quoted identifier", 2, 2),
    ("select a\n  where : b", "':' must be followed by a parameter name", 2,
     9),
    ("select a !b", "unexpected character '!'", 1, 10),
    # A numeric character that is no decimal digit starts no token.
    ("select a,\n Ⅻ", "unexpected character 'Ⅻ'", 2, 2),
    ("select ½", "unexpected character '½'", 1, 8),
    ("select :½", "':' must be followed by a parameter name", 1, 8),
])
def test_tokenize_error_positions(bad, message, line, column):
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize(bad)
    assert (str(excinfo.value), excinfo.value.line, excinfo.value.column) == (
        f"{message} (line {line}, column {column})", line, column)

# -- parser -------------------------------------------------------------------


def test_parse_simple_select():
    stmt = parse("select a, b as bee from t where a > 1 order by bee desc limit 5")
    assert len(stmt.select_items) == 2
    assert stmt.select_items[1].alias == "bee"
    assert isinstance(stmt.from_items[0], ast.TableRef)
    assert isinstance(stmt.where, ast.BinaryOp)
    assert stmt.order_by[0].ascending is False
    assert stmt.limit == 5


def test_parse_group_by_having_distinct():
    stmt = parse("select distinct a, sum(b) from t group by a having sum(b) > 10")
    assert stmt.distinct is True
    assert len(stmt.group_by) == 1
    assert isinstance(stmt.having, ast.BinaryOp)
    agg = stmt.select_items[1].expr
    assert isinstance(agg, ast.FuncCall) and agg.name == "sum"


def test_parse_count_star_and_count_distinct():
    stmt = parse("select count(*), count(distinct x) from t")
    first, second = (item.expr for item in stmt.select_items)
    assert isinstance(first.args[0], ast.Star)
    assert second.distinct is True


def test_parse_joins_and_aliases():
    stmt = parse("""
        select * from a x join b on x.k = b.k
        left outer join c as sea on b.k2 = sea.k2
    """)
    join = stmt.from_items[0]
    assert isinstance(join, ast.JoinClause) and join.kind == "left"
    inner = join.left
    assert isinstance(inner, ast.JoinClause) and inner.kind == "inner"
    assert isinstance(stmt.select_items[0].expr, ast.Star)


def test_parse_comma_joins():
    stmt = parse("select 1 from a, b, c where a.x = b.x")
    assert len(stmt.from_items) == 3


def test_parse_date_and_interval_literals():
    stmt = parse("select 1 from t where d >= date '1994-01-01' + interval '3' month")
    comparison = stmt.where
    addition = comparison.right
    assert isinstance(addition, ast.BinaryOp) and addition.op == "+"
    assert addition.left.kind == LogicalType.DATE
    assert addition.left.value == date_literal_to_ns("1994-01-01")
    assert isinstance(addition.right, ast.IntervalLiteral)
    assert addition.right.unit == "month" and addition.right.value == 3


def test_parse_case_when_like_between_in():
    stmt = parse("""
        select case when a like 'PROMO%' then 1 else 0 end
        from t
        where b between 1 and 10 and c in (1, 2, 3) and d not like '%x%'
    """)
    case = stmt.select_items[0].expr
    assert isinstance(case, ast.CaseWhen) and len(case.whens) == 1
    assert isinstance(case.whens[0][0], ast.LikeExpr)
    conjuncts = stmt.where
    assert isinstance(conjuncts, ast.BinaryOp) and conjuncts.op == "and"


def test_parse_subqueries():
    stmt = parse("""
        select a from t
        where b in (select b from u)
          and exists (select * from v where v.k = t.k)
          and c > (select avg(c) from t)
    """)
    kinds = set()

    def collect(expr):
        kinds.add(type(expr).__name__)
        for child in expr.children():
            collect(child)
    collect(stmt.where)
    assert {"InSubquery", "ExistsSubquery", "ScalarSubquery"} <= kinds


def test_parse_derived_table_and_cte():
    stmt = parse("""
        with totals as (select k, sum(v) as s from t group by k)
        select * from (select k from totals) as only_keys
    """)
    assert stmt.ctes and stmt.ctes[0][0] == "totals"
    assert isinstance(stmt.from_items[0], ast.SubquerySource)
    assert stmt.from_items[0].alias == "only_keys"


def test_parse_extract_substring_cast_predict():
    stmt = parse("""
        select extract(year from d), substring(p from 1 for 2),
               cast(x as double), predict('model', a, b)
        from t
    """)
    exprs = [item.expr for item in stmt.select_items]
    assert isinstance(exprs[0], ast.FuncCall) and exprs[0].name == "year"
    assert isinstance(exprs[0].args[0], ast.ColumnRef)
    assert isinstance(exprs[1], ast.SubstringExpr)
    assert isinstance(exprs[2], ast.Cast) and exprs[2].target == "double"
    assert isinstance(exprs[3], ast.PredictExpr)
    assert exprs[3].model_name == "model" and len(exprs[3].args) == 2


def test_parse_lowers_not_forms_and_an_else_less_case():
    stmt = parse("select case when a > 1 then 1 end from t where "
                 "a not like 'x%' and b not in (1, 2) and c is not null "
                 "and d not in (select d from u)")
    else_value = stmt.select_items[0].expr.else_value
    assert isinstance(else_value, ast.Literal) and else_value.value is None
    assert [(type(c).__name__, c.op, type(c.operand).__name__)
            for c in split_conjuncts(stmt.where)] == [
        ("UnaryOp", "not", "LikeExpr"), ("UnaryOp", "not", "InList"),
        ("UnaryOp", "not", "IsNull"), ("UnaryOp", "not", "InSubquery")]


def test_parse_operator_precedence():
    stmt = parse("select 1 + 2 * 3 from t")
    expr = stmt.select_items[0].expr
    assert expr.op == "+" and expr.right.op == "*"
    stmt = parse("select 1 from t where a = 1 or b = 2 and c = 3")
    assert stmt.where.op == "or"
    assert stmt.where.right.op == "and"


def test_parse_not_exists_and_unary_not():
    stmt = parse("select 1 from t where not exists (select * from u) and not a > 1")
    left = stmt.where.left
    assert isinstance(left, ast.UnaryOp) and isinstance(left.operand, ast.ExistsSubquery)


@pytest.mark.parametrize("bad_sql", [
    "select from t",
    "select a t where",
    "select a from t where a like 5",
    "select a from t group a",
    "select a from t limit x",
    "select a from (select b from u)",        # derived table without alias
    "select case end from t",
    "select a from t; select b from u",       # trailing input
    "select extract(hour from d) from t",
    "select a from t where b in ()",
])
def test_parse_errors(bad_sql):
    with pytest.raises(SQLSyntaxError):
        parse(bad_sql)
