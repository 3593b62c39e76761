"""Recursive-descent SQL parser producing the AST of :mod:`repro.frontend.ast`.

Coverage is driven by what the 22 TPC-H queries and the paper's prediction
queries need: joins (explicit and comma-style), subqueries (scalar, IN,
EXISTS, derived tables, CTEs), CASE, LIKE, BETWEEN, EXTRACT, SUBSTRING,
date/interval arithmetic, aggregates with DISTINCT, ORDER BY / LIMIT, and the
``PREDICT`` extension of §3.3.

SQL shorthands are lowered here, so no later layer sees them: BETWEEN,
COALESCE and IN lists with a non-constant item (:func:`_is_constant`) become
comparisons, CASE and ``OR``; ``NOT LIKE`` / ``NOT IN`` / ``IS NOT NULL`` /
``NOT BETWEEN`` become ``NOT (...)``; ``EXTRACT(f FROM x)`` becomes the call
``f(x)``; and a CASE without ELSE gets ``ELSE NULL``.
"""

from __future__ import annotations

import copy

from repro.core.columnar import LogicalType, date_literal_to_ns
from repro.errors import SQLSyntaxError
from repro.frontend import ast
from repro.frontend.lexer import Token, TokenType, tokenize

_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}


class Parser:
    """Parses one SELECT statement (optionally preceded by WITH)."""

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        #: Parameter markers in lexical order: (name, positional?) pairs.
        #: ``?`` markers are assigned the generated names ``p1``, ``p2``, ...
        self.parameters: list[tuple[str, bool]] = []

    # -- token helpers ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.type != TokenType.EOF:
            self.pos += 1
        return token

    def _error(self, message: str) -> SQLSyntaxError:
        token = self._peek()
        return SQLSyntaxError(f"{message} (near {token.value!r})", token.line, token.column)

    def _expect_keyword(self, *names: str) -> Token:
        token = self._peek()
        if not token.is_keyword(*names):
            raise self._error(f"expected {' or '.join(names).upper()}")
        return self._advance()

    def _expect_punct(self, value: str) -> Token:
        token = self._peek()
        if token.type != TokenType.PUNCTUATION or token.value != value:
            raise self._error(f"expected {value!r}")
        return self._advance()

    def _match_keyword(self, *names: str) -> bool:
        if self._peek().is_keyword(*names):
            self._advance()
            return True
        return False

    def _match_punct(self, value: str) -> bool:
        token = self._peek()
        if token.type == TokenType.PUNCTUATION and token.value == value:
            self._advance()
            return True
        return False

    def _match_operator(self, *values: str) -> str | None:
        token = self._peek()
        if token.type == TokenType.OPERATOR and token.value in values:
            self._advance()
            return token.value
        return None

    # -- entry point -----------------------------------------------------------

    def parse(self) -> ast.SelectStatement:
        ctes: list[tuple[str, ast.SelectStatement]] = []
        if self._match_keyword("with"):
            while True:
                name_token = self._advance()
                if name_token.type != TokenType.IDENTIFIER:
                    raise self._error("expected CTE name")
                self._expect_keyword("as")
                self._expect_punct("(")
                cte_query = self._parse_select()
                self._expect_punct(")")
                ctes.append((name_token.value, cte_query))
                if not self._match_punct(","):
                    break
        statement = self._parse_select()
        statement.ctes = ctes
        self._match_punct(";")
        if self._peek().type != TokenType.EOF:
            raise self._error("unexpected trailing input")
        return statement

    # -- SELECT ------------------------------------------------------------------

    def _parse_select(self) -> ast.SelectStatement:
        self._expect_keyword("select")
        distinct = False
        if self._match_keyword("distinct"):
            distinct = True
        elif self._match_keyword("all"):
            distinct = False
        select_items = [self._parse_select_item()]
        while self._match_punct(","):
            select_items.append(self._parse_select_item())
        from_items: list[ast.FromItem] = []
        if self._match_keyword("from"):
            from_items.append(self._parse_from_item())
            while self._match_punct(","):
                from_items.append(self._parse_from_item())
        where = self._parse_expr() if self._match_keyword("where") else None
        group_by: list[ast.Expr] = []
        if self._match_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._parse_expr())
            while self._match_punct(","):
                group_by.append(self._parse_expr())
        having = self._parse_expr() if self._match_keyword("having") else None
        order_by: list[ast.OrderItem] = []
        if self._match_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._parse_order_item())
            while self._match_punct(","):
                order_by.append(self._parse_order_item())
        limit = None
        if self._match_keyword("limit"):
            token = self._advance()
            if token.type != TokenType.NUMBER:
                raise self._error("expected a number after LIMIT")
            limit = int(token.value)
        return ast.SelectStatement(
            select_items=select_items,
            from_items=from_items,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._match_keyword("as"):
            alias_token = self._advance()
            alias = alias_token.value
        elif self._peek().type == TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.SelectItem(expr, alias)

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self._parse_expr()
        ascending = True
        if self._match_keyword("desc"):
            ascending = False
        else:
            self._match_keyword("asc")
        return ast.OrderItem(expr, ascending)

    # -- FROM ---------------------------------------------------------------------

    def _parse_from_item(self) -> ast.FromItem:
        item = self._parse_table_primary()
        while True:
            kind = None
            if self._match_keyword("cross"):
                kind = "cross"
            elif self._match_keyword("inner"):
                kind = "inner"
            elif self._match_keyword("left"):
                self._match_keyword("outer")
                kind = "left"
            elif self._match_keyword("right"):
                self._match_keyword("outer")
                kind = "right"
            elif self._match_keyword("full"):
                self._match_keyword("outer")
                kind = "full"
            if kind is None:
                if self._peek().is_keyword("join"):
                    kind = "inner"
                else:
                    break
            self._expect_keyword("join")
            right = self._parse_table_primary()
            condition = None
            if kind != "cross" and self._match_keyword("on"):
                condition = self._parse_expr()
            item = ast.JoinClause(item, right, kind, condition)
        return item

    def _parse_table_primary(self) -> ast.FromItem:
        if self._match_punct("("):
            query = self._parse_select()
            self._expect_punct(")")
            self._match_keyword("as")
            alias_token = self._advance()
            if alias_token.type != TokenType.IDENTIFIER:
                raise self._error("derived table requires an alias")
            return ast.SubquerySource(query, alias_token.value)
        name_token = self._advance()
        if name_token.type != TokenType.IDENTIFIER:
            raise self._error("expected table name")
        alias = None
        if self._match_keyword("as"):
            alias = self._advance().value
        elif self._peek().type == TokenType.IDENTIFIER:
            alias = self._advance().value
        return ast.TableRef(name_token.value, alias)

    # -- expressions -------------------------------------------------------------------

    def _parse_expr(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self._match_keyword("or"):
            right = self._parse_and()
            left = ast.BinaryOp("or", left, right)
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self._match_keyword("and"):
            right = self._parse_not()
            left = ast.BinaryOp("and", left, right)
        return left

    def _parse_not(self) -> ast.Expr:
        if self._match_keyword("not"):
            return ast.UnaryOp("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        if self._peek().is_keyword("exists"):
            self._advance()
            self._expect_punct("(")
            query = self._parse_select()
            self._expect_punct(")")
            return ast.ExistsSubquery(query=query)
        left = self._parse_additive()
        while True:
            negated = False
            if self._peek().is_keyword("not") and self._peek(1).is_keyword(
                "in", "like", "between"
            ):
                self._advance()
                negated = True
            if self._match_keyword("is"):
                negated = self._match_keyword("not")
                self._expect_keyword("null")
                left = _negate(ast.IsNull(left), negated)
                continue
            if self._match_keyword("between"):
                low = self._parse_additive()
                self._expect_keyword("and")
                high = self._parse_additive()
                left = _negate(ast.BinaryOp(
                    "and", ast.BinaryOp(">=", left, low),
                    ast.BinaryOp("<=", copy.deepcopy(left), high)), negated)
                continue
            if self._match_keyword("like"):
                pattern_token = self._advance()
                if pattern_token.type != TokenType.STRING:
                    raise self._error("LIKE requires a string literal pattern")
                left = _negate(ast.LikeExpr(left, pattern_token.value), negated)
                continue
            if self._match_keyword("in"):
                left = _negate(self._parse_in_rhs(left), negated)
                continue
            op = self._match_operator(*_COMPARISON_OPS)
            if op is not None:
                right = self._parse_additive()
                op = "<>" if op == "!=" else op
                left = ast.BinaryOp(op, left, right)
                continue
            return left

    def _parse_in_rhs(self, operand: ast.Expr) -> ast.Expr:
        self._expect_punct("(")
        if self._peek().is_keyword("select"):
            query = self._parse_select()
            self._expect_punct(")")
            return ast.InSubquery(operand, query)
        items = [self._parse_expr()]
        while self._match_punct(","):
            items.append(self._parse_expr())
        self._expect_punct(")")
        if all(map(_is_constant, items)):
            return ast.InList(operand, items)
        disjunction = ast.BinaryOp("=", operand, items[0])
        for item in items[1:]:
            disjunction = ast.BinaryOp(
                "or", disjunction,
                ast.BinaryOp("=", copy.deepcopy(operand), item))
        return disjunction

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            op = self._match_operator("+", "-", "||")
            if op is None:
                return left
            right = self._parse_multiplicative()
            left = ast.BinaryOp(op, left, right)

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            op = self._match_operator("*", "/", "%")
            if op is None:
                return left
            right = self._parse_unary()
            left = ast.BinaryOp(op, left, right)

    def _parse_unary(self) -> ast.Expr:
        if self._match_operator("-"):
            return ast.UnaryOp("-", self._parse_unary())
        if self._match_operator("+"):
            return self._parse_unary()
        return self._parse_primary()

    # -- primary expressions -------------------------------------------------------

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()

        if token.type == TokenType.NUMBER:
            self._advance()
            if "." in token.value or "e" in token.value.lower():
                literal = ast.Literal(float(token.value), LogicalType.FLOAT)
            else:
                literal = ast.Literal(int(token.value), LogicalType.INT)
            return literal

        if token.type == TokenType.STRING:
            self._advance()
            return ast.Literal(token.value, LogicalType.STRING)

        if token.is_keyword("true"):
            self._advance()
            return ast.Literal(True, LogicalType.BOOL)
        if token.is_keyword("false"):
            self._advance()
            return ast.Literal(False, LogicalType.BOOL)
        if token.is_keyword("null"):
            self._advance()
            return ast.Literal(None)

        if token.is_keyword("date"):
            self._advance()
            value_token = self._advance()
            if value_token.type != TokenType.STRING:
                raise self._error("DATE requires a 'YYYY-MM-DD' string")
            return ast.Literal(date_literal_to_ns(value_token.value), LogicalType.DATE)

        if token.is_keyword("interval"):
            self._advance()
            value_token = self._advance()
            if value_token.type not in (TokenType.STRING, TokenType.NUMBER):
                raise self._error("INTERVAL requires a quoted value")
            unit_token = self._advance()
            unit = unit_token.value.rstrip("s")
            if unit not in ("day", "month", "year"):
                raise self._error(f"unsupported interval unit {unit_token.value!r}")
            return ast.IntervalLiteral(int(value_token.value), unit)

        if token.is_keyword("case"):
            return self._parse_case()

        if token.is_keyword("cast"):
            self._advance()
            self._expect_punct("(")
            operand = self._parse_expr()
            self._expect_keyword("as")
            target = self._advance().value
            self._expect_punct(")")
            return ast.Cast(operand, target)

        if token.is_keyword("extract"):
            self._advance()
            self._expect_punct("(")
            field_token = self._advance()
            field = field_token.value
            if field not in ("year", "month", "day"):
                raise self._error(f"unsupported EXTRACT field {field!r}")
            self._expect_keyword("from")
            operand = self._parse_expr()
            self._expect_punct(")")
            return ast.FuncCall(field, [operand])

        if token.is_keyword("substring"):
            self._advance()
            self._expect_punct("(")
            operand = self._parse_expr()
            if self._match_keyword("from"):
                start = self._parse_expr()
                length = None
                if self._match_keyword("for"):
                    length = self._parse_expr()
            else:
                self._expect_punct(",")
                start = self._parse_expr()
                length = None
                if self._match_punct(","):
                    length = self._parse_expr()
            self._expect_punct(")")
            return ast.SubstringExpr(operand, start, length)

        if token.is_keyword("predict"):
            self._advance()
            self._expect_punct("(")
            model_token = self._advance()
            if model_token.type != TokenType.STRING:
                raise self._error("PREDICT requires a quoted model name")
            args: list[ast.Expr] = []
            while self._match_punct(","):
                args.append(self._parse_expr())
            self._expect_punct(")")
            return ast.PredictExpr(model_token.value, args)

        if token.type == TokenType.PARAMETER:
            self._advance()
            return self._make_parameter(token)

        if token.type == TokenType.OPERATOR and token.value == "*":
            self._advance()
            return ast.Star()

        if self._match_punct("("):
            if self._peek().is_keyword("select"):
                query = self._parse_select()
                self._expect_punct(")")
                return ast.ScalarSubquery(query)
            expr = self._parse_expr()
            self._expect_punct(")")
            return expr

        if token.type == TokenType.IDENTIFIER or token.is_keyword("year", "month", "day"):
            return self._parse_identifier_expression()

        raise self._error("unexpected token in expression")

    def _make_parameter(self, token: Token) -> ast.ParameterExpr:
        positional = token.value == ""
        styles = {is_positional for _, is_positional in self.parameters}
        if styles and positional not in styles:
            raise SQLSyntaxError(
                "cannot mix '?' and ':name' parameter markers in one statement",
                token.line, token.column,
            )
        name = f"p{sum(1 for _, p in self.parameters if p) + 1}" if positional \
            else token.value
        position = next((i for i, (seen, _) in enumerate(self.parameters)
                         if seen == name), len(self.parameters))
        if position == len(self.parameters):
            self.parameters.append((name, positional))
        return ast.ParameterExpr(name, position=position, positional=positional)

    def _parse_case(self) -> ast.Expr:
        self._expect_keyword("case")
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self._match_keyword("when"):
            condition = self._parse_expr()
            self._expect_keyword("then")
            value = self._parse_expr()
            whens.append((condition, value))
        else_value = (self._parse_expr() if self._match_keyword("else")
                      else ast.Literal(None))
        self._expect_keyword("end")
        if not whens:
            raise self._error("CASE requires at least one WHEN clause")
        return ast.CaseWhen(whens, else_value)

    def _parse_identifier_expression(self) -> ast.Expr:
        name_token = self._advance()
        name = name_token.value
        # Function call?
        if self._peek().type == TokenType.PUNCTUATION and self._peek().value == "(":
            self._advance()
            distinct = bool(self._match_keyword("distinct"))
            args: list[ast.Expr] = []
            if self._peek().type == TokenType.OPERATOR and self._peek().value == "*":
                self._advance()
                args.append(ast.Star())
            elif not (self._peek().type == TokenType.PUNCTUATION and self._peek().value == ")"):
                args.append(self._parse_expr())
                while self._match_punct(","):
                    args.append(self._parse_expr())
            self._expect_punct(")")
            if name.lower() == "coalesce" and not distinct:
                return self._coalesce(args)
            return ast.FuncCall(name, args, distinct=distinct)
        # Qualified reference: table.column or table.*
        if self._match_punct("."):
            if self._peek().type == TokenType.OPERATOR and self._peek().value == "*":
                self._advance()
                return ast.Star(table=name)
            column_token = self._advance()
            return ast.ColumnRef(name, column_token.value)
        return ast.ColumnRef(None, name)

    def _coalesce(self, args: list[ast.Expr]) -> ast.Expr:
        """``COALESCE(a1, a2, ..., ak)`` as ``CASE WHEN a1 IS NULL THEN
        COALESCE(a2, ..., ak) ELSE a1 END``."""
        if not args:
            raise self._error("COALESCE requires at least one argument")
        first, *rest = args
        if not rest:
            return first
        return ast.CaseWhen([(ast.IsNull(copy.deepcopy(first)),
                              self._coalesce(rest))], first)


def _negate(expr: ast.Expr, negated: bool) -> ast.Expr:
    return ast.UnaryOp("not", expr) if negated else expr


def _is_constant(item: ast.Expr) -> bool:
    """A non-NULL literal, a negated one, or a bind parameter: the items an
    ``IN`` list keeps (one membership probe) instead of lowering to ``OR``."""
    if isinstance(item, ast.UnaryOp) and item.op == "-":
        item = item.operand
    return (isinstance(item, ast.ParameterExpr)
            or isinstance(item, ast.Literal) and item.value is not None)


def parse(sql: str) -> ast.SelectStatement:
    """Parse ``sql`` into a :class:`repro.frontend.ast.SelectStatement`."""
    return Parser(sql).parse()
