"""Prepared-statement parameters: specs, bind-time validation, auto-parameterization.

This module is the glue of the compile-once/bind-many API:

* :class:`ParameterSpec` — one parameter of a compiled plan (name, inferred
  logical type, lexical position), collected by the planning layer;
* :func:`bind_parameters` — validates a binding against the specs and
  normalizes every value to a canonical Python scalar, raising
  :class:`~repro.errors.BindingError` for missing / unknown / ill-typed
  values;
* :func:`param_array_converter` — turns a normalized value into the scalar
  array a query takes it as (on the graph backends these are the traced
  program's runtime inputs);
* :func:`auto_parameterize` — lifts literals out of ad-hoc SQL text so that
  ``sql()`` calls differing only in constants share one plan-cache entry.
"""

from __future__ import annotations

import dataclasses
import datetime
import re
from typing import Any, Iterable, Mapping, Optional

import numpy as np

from repro.core.columnar import LogicalType, date_literal_to_ns, encode_string_literal
from repro.errors import BindingError
from repro.frontend.lexer import Token, TokenType, tokenize

#: Fixed encoded width of STRING parameters.  Traced programs bake string
#: tensor widths into the graph, so every binding of a string parameter is
#: padded to this width — one compiled program then serves all of them.
PARAM_STRING_WIDTH = 64


@dataclasses.dataclass(frozen=True)
class ParameterSpec:
    """One bind parameter of a compiled plan."""

    name: str
    ltype: LogicalType
    #: Lexical position (0-based first-appearance order); drives positional
    #: binding of ``?`` markers.
    position: int = 0
    #: True when the marker was ``?`` (bound positionally).
    positional: bool = False

    def __str__(self) -> str:  # pragma: no cover - debugging helper
        return f":{self.name} {self.ltype.value}"


# ---------------------------------------------------------------------------
# bind-time validation
# ---------------------------------------------------------------------------


def _normalize_value(spec: ParameterSpec, value: Any) -> Any:
    def reject() -> BindingError:
        return BindingError(
            f"parameter :{spec.name} expects a {spec.ltype.value} value, "
            f"got {type(value).__name__} ({value!r})"
        )

    if value is None:
        raise reject()
    if spec.ltype == LogicalType.INT:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise reject()
        return int(value)
    if spec.ltype == LogicalType.FLOAT:
        if isinstance(value, bool) or not isinstance(
                value, (int, float, np.integer, np.floating)):
            raise reject()
        return float(value)
    if spec.ltype == LogicalType.BOOL:
        if not isinstance(value, (bool, np.bool_)):
            raise reject()
        return bool(value)
    if spec.ltype == LogicalType.STRING:
        if not isinstance(value, str):
            raise reject()
        if len(value) > PARAM_STRING_WIDTH:
            raise BindingError(
                f"parameter :{spec.name} string value is {len(value)} chars, "
                f"longer than the supported {PARAM_STRING_WIDTH}"
            )
        return value
    if spec.ltype == LogicalType.DATE:
        if isinstance(value, str):
            try:
                return date_literal_to_ns(value)
            except Exception:
                raise reject() from None
        if isinstance(value, np.datetime64):
            return int(value.astype("datetime64[ns]").astype(np.int64))
        if isinstance(value, (datetime.date, datetime.datetime)):
            day = value.date() if isinstance(value, datetime.datetime) else value
            return date_literal_to_ns(day.isoformat())
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise reject()
        return int(value)  # already epoch-ns
    raise BindingError(f"parameter :{spec.name} has unsupported type {spec.ltype}")


def bind_parameters(specs: Iterable[ParameterSpec],
                    values: Mapping[str, Any]) -> dict[str, Any]:
    """Validate ``values`` against ``specs``; return normalized values by name.

    Raises :class:`BindingError` naming every missing or unknown parameter,
    or the first ill-typed one.
    """
    specs = list(specs)
    known = {spec.name for spec in specs}
    unknown = sorted(set(values) - known)
    if unknown:
        raise BindingError(
            "unknown parameter(s): " + ", ".join(f":{n}" for n in unknown)
            + (f"; this statement takes {', '.join(f':{s.name}' for s in specs)}"
               if specs else "; this statement takes no parameters")
        )
    missing = sorted(known - set(values))
    if missing:
        raise BindingError(
            "missing value(s) for parameter(s): "
            + ", ".join(f":{n}" for n in missing)
        )
    return {spec.name: _normalize_value(spec, values[spec.name]) for spec in specs}


def make_binder(specs: Iterable[ParameterSpec]):
    """A reusable ``values -> normalized dict`` binder for one spec list.

    Behaves exactly like ``bind_parameters(specs, values)`` — same results,
    same typed errors — but does the spec-set bookkeeping once instead of per
    call.  Executors keep one binder per plan, so serving loops pay only the
    per-value normalization.
    """
    specs = list(specs)
    known = frozenset(spec.name for spec in specs)

    def binder(values: Mapping[str, Any]) -> dict[str, Any]:
        if frozenset(values) != known:
            return bind_parameters(specs, values)  # raises the typed error
        return {spec.name: _normalize_value(spec, values[spec.name])
                for spec in specs}

    return binder


def positional_binding(specs: Iterable[ParameterSpec],
                       args: tuple) -> dict[str, Any]:
    """Map positional arguments onto ``?`` parameters in marker order."""
    ordered = sorted(specs, key=lambda spec: spec.position)
    if len(args) != len(ordered):
        raise BindingError(
            f"statement takes {len(ordered)} positional parameter(s), "
            f"got {len(args)}"
        )
    return {spec.name: value for spec, value in zip(ordered, args)}


def param_array_converter(spec: ParameterSpec):
    """A reusable ``normalized value -> ndarray`` converter for one spec: the
    scalar (for strings, the padded code vector) a bound value enters a query
    as.  Resolves the dtype once per spec instead of once per binding — a
    serving loop converts every parameter of every request, so this is hot.

    The executor wraps the array as it needs: raw for the generated serving
    function, a CPU :class:`~repro.tensor.Tensor` for a profiled replay (the
    program moves it to the target device, so the transfer stays accounted),
    an ``ExprValue`` for the eager plan and the trace.
    """
    ltype = spec.ltype
    if ltype == LogicalType.STRING:
        return lambda value: encode_string_literal(value, PARAM_STRING_WIDTH)
    if ltype == LogicalType.BOOL:
        np_dtype = np.bool_
    elif ltype == LogicalType.FLOAT:
        np_dtype = np.float64
    else:
        np_dtype = np.int64
    return lambda value: np.asarray(value, dtype=np_dtype)


# ---------------------------------------------------------------------------
# auto-parameterization
# ---------------------------------------------------------------------------

#: Literals directly after these keywords must stay literals: LIMIT counts are
#: plan structure, LIKE patterns / DATE / INTERVAL values are compiled into
#: specialized tensor programs.
_SKIP_AFTER_KEYWORDS = {"limit", "like", "date", "interval"}

#: Function-like constructs whose parenthesized body must keep its literals
#: (SUBSTRING bakes start/length into narrow ops, PREDICT names a model, ...).
_SKIP_CALL_KEYWORDS = {"substring", "extract", "predict", "interval"}

_BARE_IDENTIFIER = re.compile(r"^[a-z_][a-z0-9_]*$")


@dataclasses.dataclass
class AutoParameterized:
    """Result of lifting literals out of a SQL string."""

    sql: str
    values: dict[str, Any]
    types: dict[str, LogicalType]


def _render_token(token: Token) -> str:
    if token.type == TokenType.STRING:
        return "'" + token.value.replace("'", "''") + "'"
    if token.type == TokenType.IDENTIFIER and not _BARE_IDENTIFIER.match(token.value):
        return '"' + token.value + '"'
    if token.type == TokenType.PARAMETER:
        return ":" + token.value if token.value else "?"
    return token.value


def _literal_of(token: Token) -> tuple[Any, LogicalType]:
    if token.type == TokenType.STRING:
        return token.value, LogicalType.STRING
    if "." in token.value or "e" in token.value.lower():
        return float(token.value), LogicalType.FLOAT
    return int(token.value), LogicalType.INT


def auto_parameterize(sql: str) -> Optional[AutoParameterized]:
    """Rewrite ``sql`` with its literals replaced by ``:__aN`` parameters.

    Returns ``None`` when there is nothing to lift (no literals, or the text
    already contains parameter markers — the caller is parameterizing by
    hand).  Equal literals are deduplicated onto one parameter, so the same
    expression in SELECT and GROUP BY keeps matching structurally.
    """
    tokens = tokenize(sql)
    if any(t.type == TokenType.PARAMETER for t in tokens):
        return None

    out: list[str] = []
    values: dict[str, Any] = {}
    types: dict[str, LogicalType] = {}
    by_literal: dict[tuple, str] = {}
    skip_depths: list[int] = []  # paren depths of active skip contexts
    depth = 0
    prev: Optional[Token] = None
    for i, token in enumerate(tokens):
        if token.type == TokenType.EOF:
            break
        if token.type == TokenType.PUNCTUATION:
            if token.value == "(":
                depth += 1
            elif token.value == ")":
                if skip_depths and skip_depths[-1] == depth:
                    skip_depths.pop()
                depth -= 1
        in_skip_call = bool(skip_depths)
        if (token.type == TokenType.KEYWORD and token.value in _SKIP_CALL_KEYWORDS
                and i + 1 < len(tokens)
                and tokens[i + 1].type == TokenType.PUNCTUATION
                and tokens[i + 1].value == "("):
            skip_depths.append(depth + 1)
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            skip = (in_skip_call
                    or (prev is not None and prev.type == TokenType.KEYWORD
                        and prev.value in _SKIP_AFTER_KEYWORDS))
            if not skip:
                value, kind = _literal_of(token)
                key = (kind, value)
                name = by_literal.get(key)
                if name is None:
                    name = f"__a{len(by_literal)}"
                    by_literal[key] = name
                    values[name] = value
                    types[name] = kind
                out.append(":" + name)
                prev = token
                continue
        out.append(_render_token(token))
        prev = token
    if not values:
        return None
    return AutoParameterized(sql=" ".join(out), values=values, types=types)
