"""SQL lexer for the Spark-like frontend.

Produces a flat token stream consumed by :mod:`repro.frontend.parser`.
Keywords are case-insensitive; identifiers are lower-cased (TPC-H style),
quoted identifiers/strings preserve case.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import SQLSyntaxError


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENTIFIER = "identifier"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCTUATION = "punctuation"
    #: A bind-parameter marker: value is the name for ``:name``, "" for ``?``.
    PARAMETER = "parameter"
    EOF = "eof"


KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "as", "and", "or", "not", "in", "exists", "between", "like", "is", "null",
    "case", "when", "then", "else", "end", "distinct", "all", "asc", "desc",
    "join", "inner", "left", "right", "full", "outer", "cross", "on", "using",
    "union", "with", "date", "interval", "extract", "substring", "for", "cast",
    "true", "false", "predict",
    "year", "month", "day",
}

#: One token per match: skipped whitespace and comments, then one
#: alternative per token kind, tried in order.  The ``open_*`` alternatives
#: match only where the full form did not: an unterminated comment, string
#: or quoted identifier (the possessive ``*+`` never gives a string back to
#: end it at an escaped quote).  ``eof`` ends the text, ``other`` is any
#: character no token starts with.  A ``word`` (and a ``named`` parameter)
#: must start with a letter or ``_``; ``[^\W\d]`` also admits a numeric
#: character that is no decimal digit (``½``, ``²``), which ``tokenize``
#: rejects as unexpected.
_TOKEN = re.compile(r"""
    (?:\s+|--[^\n]*|/\*.*?\*/)*+
    (?:
      (?P<open_block>/\*)
    | (?P<string>'(?:[^']|'')*+')
    | (?P<open_string>')
    | (?P<quoted>"[^"]*")
    | (?P<open_quoted>")
    | (?P<number>(?:\d+\.?\d*|\.\d+)(?:(?<=\d)[eE][+-]?\d*)?)
    | (?P<word>[^\W\d]\w*)
    | (?P<positional>\?)
    | (?P<named>:(?:[^\W\d]\w*)?)
    | (?P<operator><>|!=|>=|<=|\|\||[=<>+\-*/%])
    | (?P<punctuation>[(),;.])
    | (?P<eof>\Z)
    | (?P<other>.)
    )
""", re.VERBOSE | re.DOTALL)

#: What an ``open_*`` match means: the text ends inside that construct.
_UNTERMINATED = {"open_block": "unterminated block comment",
                 "open_string": "unterminated string literal",
                 "open_quoted": "unterminated quoted identifier"}

_TYPES = {"number": TokenType.NUMBER, "operator": TokenType.OPERATOR,
          "punctuation": TokenType.PUNCTUATION}


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    type: TokenType
    value: str
    line: int
    column: int

    def is_keyword(self, *names: str) -> bool:
        return self.type == TokenType.KEYWORD and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Token({self.type.value}, {self.value!r})"


def _starts_word(text: str) -> bool:
    """Whether ``text`` starts with a letter or ``_``."""
    return text[:1].isalpha() or text[:1] == "_"


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL ``text`` into a token list ending with an EOF token.

    One compiled pattern (:data:`_TOKEN`) matches each token whole.  Lines
    and columns are 1-based, and only a newline starts a new line.  Errors
    carry the position of the offending character, or the end of the text
    for an unterminated construct.
    """
    tokens: list[Token] = []
    append, match, count = tokens.append, _TOKEN.match, text.count
    pos = counted = line_start = 0
    line = 1
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        start = len(text) if kind in _UNTERMINATED else m.start(kind)
        newlines = count("\n", counted, start)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", counted, start) + 1
        counted, column = start, start - line_start + 1
        if kind == "word":
            value = m.group(kind)
            if not _starts_word(value):
                raise SQLSyntaxError(f"unexpected character {value[0]!r}",
                                     line, column)
            value = value.lower()
            append(Token(TokenType.KEYWORD if value in KEYWORDS
                         else TokenType.IDENTIFIER, value, line, column))
        elif kind in _TYPES:
            append(Token(_TYPES[kind], m.group(kind), line, column))
        elif kind == "string":
            append(Token(TokenType.STRING,
                         m.group(kind)[1:-1].replace("''", "'"), line, column))
        elif kind == "quoted":
            append(Token(TokenType.IDENTIFIER, m.group(kind)[1:-1], line,
                         column))
        elif kind == "positional" or kind == "named":
            name = m.group(kind)[1:]
            if kind == "named" and not _starts_word(name):
                raise SQLSyntaxError(
                    "':' must be followed by a parameter name", line, column)
            append(Token(TokenType.PARAMETER, name.lower(), line, column))
        elif kind == "eof":
            append(Token(TokenType.EOF, "", line, column))
            return tokens
        elif kind == "other":
            raise SQLSyntaxError(f"unexpected character {m.group(kind)!r}",
                                 line, column)
        else:
            raise SQLSyntaxError(_UNTERMINATED[kind], line, column)
        pos = m.end()
