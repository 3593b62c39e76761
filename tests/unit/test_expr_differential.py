"""Property-based differential tests for the expression compiler.

A seeded generator (plain ``random`` — no hypothesis dependency) produces
random arithmetic / comparison / NULL-logic expressions; each one is evaluated
by the tensor expression compiler (via a full ``SELECT``) and by the row
engine's per-row interpreter over the same optimized plan.  Any semantic
divergence between the two interpreters is a bug in one of them.

NULLs enter through ``CASE WHEN ... THEN ... END`` without an ELSE branch and
flow through arithmetic, comparisons, ``IS [NOT] NULL``, ``COALESCE`` and the
three-valued logic of ``WHERE``; a separate draw adds ``[NOT] BETWEEN`` and
``[NOT] IN (...)``, and another ``NOT LIKE``, ``IS NOT NULL`` and the scalar
functions over nullable numerics, strings and dates.  They also reach join
keys: the generator ends with outer→inner join chains, where the NULL-extended
side of a LEFT JOIN is the key of the next join and must match nothing, and
with keyed join chains that draw, per join, which side (if any) is a key — the
planner-derived fact that picks the join's pair construction.
"""

from __future__ import annotations

import itertools
import random
import warnings

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.baselines import RowEngine
from repro.core.operators import HashJoinOperator
from repro.core.tuning import tuning_overrides
from repro.frontend import sql_to_physical
from repro.frontend.functions import SCALAR_FUNCTIONS

N_ROWS = 64
N_CASES = 60
N_JOIN_CASES = 12
N_SHORTHAND_CASES = 30
N_LOWERED_CASES = 30
SEED = 20220701

#: ``t.s`` draws from these (a dictionary-encoded column at ``N_ROWS``), and
#: the lowered-forms draw matches them against these patterns.
STRING_VALUES = ["ab", "ba", "abc", "", "b", "aab", "cab"]
STRING_PATTERNS = ["a%", "%b", "%a%b%", "ab", "%", "c%"]


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(SEED)
    # ``s`` and ``d`` come from a stream of their own, so every other column
    # is what it was before they existed.
    more = np.random.default_rng(SEED + 5)
    frame = DataFrame({
        "a": rng.integers(-20, 21, size=N_ROWS).astype(np.int64),
        "b": rng.integers(-5, 6, size=N_ROWS).astype(np.int64),
        "x": np.round(rng.uniform(-10.0, 10.0, size=N_ROWS), 3),
        "y": np.round(rng.uniform(-2.0, 2.0, size=N_ROWS), 3),
        "s": np.array(STRING_VALUES, dtype=object)[
            more.integers(0, len(STRING_VALUES), size=N_ROWS)],
        "d": more.integers(-3000, 22000, size=N_ROWS).astype("datetime64[D]"),
    })
    # Join-chain tables: ``u`` covers part of ``a``'s range (so ``t LEFT JOIN
    # u`` NULL-extends ``uv``) and ``w`` has a row keyed 0, the payload a NULL
    # ``uv`` carries under its validity mask.
    u = DataFrame({"uk": np.arange(-20, 8, dtype=np.int64),
                   "uv": rng.integers(-3, 4, size=28).astype(np.int64)})
    w = DataFrame({"wv": np.arange(-3, 4, dtype=np.int64),
                   "wy": rng.integers(0, 100, size=7).astype(np.int64)})
    # Scalar-subquery and sort tables: ``nf`` stores NaN (a NULL to the
    # tensor engine), and no ``nu`` row passes ``> 100``, so a grand aggregate
    # over it is NULL.
    nt = DataFrame({"na": np.arange(1, 6, dtype=np.int64),
                    "nf": np.array([1.5, np.nan, 2.5, 3.5, np.nan])})
    nu = DataFrame({"nb": np.array([2, 3, 3, 9], dtype=np.int64),
                    "ng": np.array([10, 20, 30, 40], dtype=np.int64)})
    return {"t": frame, "u": u, "w": w, "nt": nt, "nu": nu}


@pytest.fixture(scope="module")
def session(tables):
    sess = TQPSession()
    for name, frame in tables.items():
        sess.register(name, frame)
    return sess


class ExprGen:
    """Random SQL expression source text, depth-bounded.

    Integer magnitudes stay small so no chain of multiplications can overflow
    int64 (numpy would wrap where Python promotes to bigint).
    """

    NUM_COLUMNS = ("a", "b", "x", "y")
    COMPARATORS = ("<", "<=", "=", "<>", ">", ">=")

    def __init__(self, rng: random.Random, shorthands: bool = False):
        self.rng = rng
        #: Draw ``[NOT] BETWEEN`` / ``[NOT] IN (...)`` too; off, the stream
        #: of every draw is what it was before they existed.
        self.shorthands = shorthands

    def literal(self) -> str:
        if self.rng.random() < 0.5:
            return str(self.rng.randint(-20, 20))
        return f"{self.rng.uniform(-10.0, 10.0):.3f}"

    def numeric(self, depth: int) -> str:
        if depth <= 0:
            return (self.rng.choice(self.NUM_COLUMNS)
                    if self.rng.random() < 0.7 else self.literal())
        pick = self.rng.random()
        if pick < 0.45:
            op = self.rng.choice(("+", "-", "*"))
            return f"({self.numeric(depth - 1)} {op} {self.numeric(depth - 1)})"
        if pick < 0.60:  # NULL injection: CASE without ELSE
            return (f"(case when {self.boolean(depth - 1)} "
                    f"then {self.numeric(depth - 1)} end)")
        if pick < 0.75:
            return (f"(case when {self.boolean(depth - 1)} "
                    f"then {self.numeric(depth - 1)} "
                    f"else {self.numeric(depth - 1)} end)")
        if pick < 0.85:
            return f"coalesce({self.numeric(depth - 1)}, {self.numeric(depth - 1)})"
        if pick < 0.95:
            return f"(- {self.numeric(depth - 1)})"
        return self.numeric(depth - 1)

    def boolean(self, depth: int) -> str:
        if depth <= 0:
            left = self.rng.choice(self.NUM_COLUMNS)
            return f"({left} {self.rng.choice(self.COMPARATORS)} {self.literal()})"
        pick = self.rng.random()
        if pick < 0.40:
            return (f"({self.numeric(depth - 1)} "
                    f"{self.rng.choice(self.COMPARATORS)} "
                    f"{self.numeric(depth - 1)})")
        if pick < 0.60:
            op = self.rng.choice(("and", "or"))
            return f"({self.boolean(depth - 1)} {op} {self.boolean(depth - 1)})"
        if pick < 0.72:
            return f"(not {self.boolean(depth - 1)})"
        if pick < 0.88:
            null_kind = self.rng.choice(("is null", "is not null"))
            return f"({self.numeric(depth - 1)} {null_kind})"
        if self.shorthands:
            return self.shorthand(depth - 1)
        return self.boolean(depth - 1)

    def shorthand(self, depth: int) -> str:
        """``[NOT] BETWEEN`` or ``[NOT] IN (...)`` over nullable numerics: an
        all-literal list keeps its membership probe, any other is lowered."""
        negated = "not " if self.rng.random() < 0.5 else ""
        operand = self.numeric(depth)
        if self.rng.random() < 0.5:
            return (f"({operand} {negated}between {self.numeric(depth)} "
                    f"and {self.numeric(depth)})")
        items = ", ".join(self.numeric(depth)
                          for _ in range(self.rng.randint(1, 3)))
        return f"({operand} {negated}in ({items}))"

    def shorthand_query(self) -> str:
        predicate = self.shorthand(self.rng.randint(0, 2))
        if self.rng.random() < 0.5:
            return f"select a, {predicate} as r from t"
        return f"select a, b from t where {predicate}"

    def query(self) -> str:
        exprs = [self.numeric(self.rng.randint(1, 3))
                 for _ in range(self.rng.randint(1, 3))]
        select = ", ".join(f"{expr} as v{i}" for i, expr in enumerate(exprs))
        sql = f"select a, {select} from t"
        if self.rng.random() < 0.6:
            sql += f" where {self.boolean(self.rng.randint(1, 2))}"
        return sql

    def nullable(self, column: str) -> str:
        """``column``, or ``column`` under a CASE without ELSE."""
        if self.rng.random() < 0.5:
            return column
        return f"(case when {self.boolean(0)} then {column} end)"

    def function(self, depth: int) -> str:
        """A scalar function call; a date field is an ``EXTRACT`` half the
        time."""
        name = self.rng.choice(sorted(SCALAR_FUNCTIONS))
        if name in ("year", "month", "day"):
            date = self.nullable("d")
            return self.rng.choice((f"{name}({date})",
                                    f"extract({name} from {date})"))
        if name == "length":
            return f"length({self.nullable('s')})"
        # A negative's square root is NaN to numpy and an error to ``math``.
        argument = self.numeric(depth)
        return (f"sqrt(abs({argument}))" if name == "sqrt"
                else f"{name}({argument})")

    def lowered(self, depth: int) -> str:
        """``NOT LIKE``, ``IS NOT NULL`` or a comparison of functions."""
        pick = self.rng.random()
        if pick < 0.3:
            return (f"({self.nullable('s')} not like "
                    f"'{self.rng.choice(STRING_PATTERNS)}')")
        if pick < 0.55:
            operand = self.rng.choice(
                (lambda: self.nullable("s"), lambda: self.nullable("d"),
                 lambda: self.function(depth)))()
            return f"({operand} is not null)"
        return (f"({self.function(depth)} {self.rng.choice(self.COMPARATORS)} "
                f"{self.function(depth)})")

    def lowered_query(self) -> str:
        depth = self.rng.randint(0, 2)
        sql = (f"select a, {self.function(depth)} as v0, "
               f"(case when {self.lowered(depth)} then {self.function(depth)} "
               f"end) as v1, {self.lowered(depth)} as v2 from t")
        if self.rng.random() < 0.6:
            sql += f" where {self.lowered(depth)}"
        return sql


    def join_chain(self) -> str:
        """``t LEFT JOIN u`` feeding a second join keyed on the nullable side.

        Half the chains also turn some of ``w``'s keys into NULL, so NULL
        meets NULL across the join.
        """
        right = "w"
        if self.rng.random() < 0.5:
            right = (f"(select case when wv {self.rng.choice(self.COMPARATORS)} "
                     f"{self.rng.randint(-2, 2)} then wv end as wv, wy from w) w")
        kind = self.rng.choice(("join", "left join"))
        sql = (f"select a, uv, wy from t left join u on a = uk "
               f"{kind} {right} on uv = wv")
        if self.rng.random() < 0.5:
            sql += f" where {self.boolean(1)}"
        return sql


    def keyed_join_chain(self, path: str, kind: str, residual: bool
                         ) -> "tuple[str, list[tuple[str, str]]]":
        """One statement whose first join takes ``path`` (which side is a
        key), plus the ``(kind, key side)`` of every hash join it plans.

        Each side is drawn among the relations with the wanted key-ness —
        NULL-extended or not, sometimes emptied; inner / left joins chain into
        a second join on a drawn column, semi / anti joins are an EXISTS.
        """
        emptied = self.rng.choice(("l", "r", "t") + (None,) * 7)

        def relation(unique: bool, alias: str):
            name = self.rng.choice(sorted(
                n for n, spec in KEY_RELATIONS.items() if spec[1] == unique))
            sql, _, payload = KEY_RELATIONS[name]
            if alias == emptied:
                sql += f" where {payload} < -1"          # an empty side
            return (f"({sql}) {alias}",
                    [("left", "right")] if name.startswith("null_") else [])

        left_unique = path in ("probe", "both")
        right_unique = path in ("build", "both")
        side = ("right" if right_unique else "left" if left_unique
                else "not-unique")
        (left, joins), (right, more) = (relation(left_unique, "l"),
                                        relation(right_unique, "r"))
        joins = joins + more + [(kind, side)]
        extra = " and l.p < r.p + 2" if residual else ""
        if kind in ("semi", "anti"):
            negation = "not " if kind == "anti" else ""
            return (f"select l.k as lk, l.p as lp from {left} where {negation}"
                    f"exists (select 1 from {right} where r.k = l.k{extra})",
                    joins)
        # The second join: a first-join column stays unique only when both
        # first-join sides were keys (neither side's rows were duplicated).
        column = self.rng.choice(("l.k", "r.k", "l.p", "r.p"))
        third_unique = self.rng.random() < 0.5
        third, more = relation(third_unique, "t")
        chained = "right" if third_unique else (
            "left" if column.endswith(".k") and left_unique and right_unique
            else "not-unique")
        next_kind = self.rng.choice(("inner", "left"))
        joins = joins + more + [(next_kind, chained)]
        return (f"select l.k as lk, l.p as lp, r.k as rk, r.p as rp, t.k as tk "
                f"from {left} {kind} join {right} on l.k = r.k{extra} "
                f"{next_kind} join {third} on {column} = t.k", joins)


#: Derived tables ``(k, p)``: their SQL, whether ``k`` is unique (derivable
#: from the base tables' statistics), and the payload column an emptying
#: filter reads.  ``null_*`` NULL-extend ``k`` through a LEFT JOIN.
KEY_RELATIONS = {
    "key": ("select aid as k, av as p from ka", True, "av"),
    "null_key": ("select bid as k, av as p from ka left join kb on aid = bid",
                 True, "av"),
    "dup": ("select fk as k, fv as p from fa", False, "fv"),
    "null_dup": ("select bid as k, fv as p from fa left join kb on fk = bid",
                 False, "fv"),
}

KEYED_JOIN_POINTS = list(itertools.product(
    ("build", "probe", "both", "neither"), ("inner", "left", "semi", "anti"),
    (False, True)))


def _generated_keyed_joins():
    gen = ExprGen(random.Random(SEED + 3))
    return [gen.keyed_join_chain(*point) for point in KEYED_JOIN_POINTS]


def _generated_queries():
    rng = random.Random(SEED)
    gen = ExprGen(rng)
    return [gen.query() for _ in range(N_CASES)]


def _generated_shorthand_queries():
    gen = ExprGen(random.Random(SEED + 4), shorthands=True)
    return [gen.shorthand_query() for _ in range(N_SHORTHAND_CASES)]


def _generated_lowered_queries():
    gen = ExprGen(random.Random(SEED + 5))
    return [gen.lowered_query() for _ in range(N_LOWERED_CASES)]


def _generated_join_chains():
    gen = ExprGen(random.Random(SEED + 1))
    return [gen.join_chain() for _ in range(N_JOIN_CASES)]


@pytest.mark.parametrize("sql", _generated_queries())
def test_random_expression_matches_row_engine(session, tables, frames_match, sql):
    tensor_frame = session.sql(sql)
    plan = sql_to_physical(sql, session.catalog)
    oracle_frame = RowEngine(tables).execute_to_dataframe(plan)
    # No ORDER BY: both engines preserve input row order through filters, so
    # compare ordered, with a tight tolerance (identical fp operation order).
    frames_match(tensor_frame, oracle_frame, sql, ordered=True,
                 rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("sql", _generated_shorthand_queries())
def test_random_shorthand_matches_row_engine(session, tables, frames_match,
                                             sql, backend):
    tensor_frame = session.sql(sql, options=ExecutionOptions(backend=backend))
    oracle_frame = RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, session.catalog))
    frames_match(tensor_frame, oracle_frame, f"{backend}: {sql}", ordered=True,
                 rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("sql", _generated_lowered_queries())
def test_random_lowered_forms_match_row_engine(session, tables, frames_match,
                                               sql, backend):
    tensor_frame = session.sql(sql, options=ExecutionOptions(backend=backend))
    oracle_frame = RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, session.catalog))
    frames_match(tensor_frame, oracle_frame, f"{backend}: {sql}", ordered=True,
                 rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("sql", _generated_join_chains())
def test_random_join_chain_matches_row_engine(session, tables, frames_match, sql):
    oracle = RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, session.catalog))
    # Outer joins append their unmatched rows last: compare as multisets.
    frames_match(session.sql(sql), oracle, sql)


@pytest.fixture(scope="module")
def key_tables():
    rng = np.random.default_rng(SEED + 3)
    return {
        "ka": DataFrame({"aid": np.arange(16, dtype=np.int64),
                         "av": rng.integers(0, 5, size=16).astype(np.int64)}),
        # Every third key, half of them past ``ka``: unmatched on both sides.
        "kb": DataFrame({"bid": np.arange(0, 30, 3, dtype=np.int64),
                         "bv": rng.integers(0, 5, size=10).astype(np.int64)}),
        "fa": DataFrame({"fk": rng.integers(-2, 20, size=40).astype(np.int64),
                         "fv": rng.integers(0, 5, size=40).astype(np.int64)}),
    }


@pytest.fixture(scope="module")
def key_session(key_tables):
    sess = TQPSession()
    for name, frame in key_tables.items():
        sess.register(name, frame)
    return sess


KEYED_JOIN_OPTIONS = [
    ExecutionOptions(backend="pytorch"), ExecutionOptions(backend="torchscript"),
    ExecutionOptions(backend="torchscript", parallelism=4),
    ExecutionOptions(backend="torchscript", devices=4)]


@pytest.mark.parametrize(
    "sql,expected_joins", _generated_keyed_joins(),
    ids=["-".join((path, kind, "residual" if residual else "equi"))
         for path, kind, residual in KEYED_JOIN_POINTS])
def test_keyed_join_chain_takes_its_path_and_matches_row_engine(
        key_session, key_tables, frames_match, sql, expected_joins):
    """Key build, key probe, both and neither, with NULL, unmatched and empty
    sides: every strategy plans the drawn path, answers like the row engine,
    and answers the same rows bit for bit."""
    oracle = RowEngine(key_tables).execute_to_dataframe(
        sql_to_physical(sql, key_session.catalog))
    # Sixteen-row tables: a zero threshold so joins really price on lanes.
    results = []
    for options in KEYED_JOIN_OPTIONS:
        with tuning_overrides(parallel_threshold_rows=0):
            compiled = key_session.compile(sql, options=options)
        planned = [(op.kind, op.key_side or op.key_reason)
                   for op in compiled.operator_plan.root.walk()
                   if isinstance(op, HashJoinOperator)]
        assert sorted(planned) == sorted(expected_joins), (
            sql, compiled.operator_plan.root.pretty())
        results.append(compiled.run())
        frames_match(results[-1], oracle, f"{options}: {sql}")
    eager, traced, lanes, devices = results
    # Row order included: a width runs the serial program.
    assert (eager.to_dict() == traced.to_dict() == lanes.to_dict()
            == devices.to_dict())


NULLABLE_QUERIES = [
    # Aggregates over nullable expressions: SQL skips NULL inputs, and a group
    # (or global aggregate) with no non-NULL input reports NULL.
    "select b, avg(case when x > 0 then x end) as a, "
    "min(case when x > 5 then x end) as lo, "
    "max(case when x > 5 then x end) as hi, "
    "sum(case when x > 0 then x end) as s, "
    "count(case when x > 0 then x end) as c from t group by b order by b",
    "select avg(case when x > 100 then x end) as a, "
    "min(case when x > 100 then x end) as lo, "
    "sum(case when x > 100 then x end) as s, "
    "count(case when x > 100 then x end) as c from t",
    "select b, sum(case when a > 0 then a end) as s, "
    "max(case when a > 15 then a end) as hi from t group by b order by b",
    "select avg(coalesce(case when x > 0 then x end, y)) as a from t",
    # NULL as a sort key and as a ``count(distinct)`` input, from the
    # NULL-extended side of a LEFT JOIN: a NULL key sorts after every other
    # under ASC and DESC alike (its rows then tie on the rest of the key), and
    # a NULL is no value, so an all-NULL group counts 0 (no ``wy`` is 0, the
    # fill value a counted NULL would add).
    "select a, uv from t left join u on a = uk order by uv, a",
    "select a, uv from t left join u on a = uk order by uv desc, a desc",
    "select count(distinct wy) as k from t left join w on b = wv",
    "select b, count(distinct wy) as k from t left join w on b = wv "
    "group by b order by b",
    # A scalar subquery over no rows is NULL, and a comparison with NULL
    # keeps no row (the NULL once lost its validity and matched every row).
    "select na from nt where na > (select max(nb) from nu where nb > 100)",
    "select na from nt where na <> (select min(nb) from nu where nb > 100)",
    "select na from nt where na > (select sum(nb) from nu where nb > 100)",
    "select na from nt where na > (select avg(nb) from nu where nb > 100)",
    "select na from nt where nf > (select max(ng) from nu where ng > 100)",
    "select na, na + (select max(nb) from nu where nb > 100) as s, "
    "(select max(nb) from nu where nb > 100) is null as n from nt order by s, na",
    # A stored NaN sorts as NULL: after every value, under ASC and DESC.
    "select na, nf from nt order by nf, na",
    "select na, nf from nt order by nf desc, na",
    # Three-valued logic: a known FALSE decides an AND and a known TRUE an OR
    # whatever the other side is, NOT of NULL is NULL, and WHERE keeps only
    # TRUE (sqlite gives [4], [2, 5] and [1, 3, 4, 5]).
    "select na from nt where not ((case when na > 3 then na end) > 4) "
    "order by na",
    "select na from nt where (case when na > 3 then na end) > 4 or na = 2 "
    "order by na",
    "select na from nt where not ((case when na > 3 then na end) > 4 "
    "and na = 2) order by na",
    # The parser's lowerings of BETWEEN and of IN lists with a NULL, CASE or
    # column item, IN over a subquery that yields NULL, the NULL literal and
    # CASE over strings (sqlite gives [1, 5], [2], [], [2, 4, 5], [1, 2] and
    # [3] for the WHERE forms).
    "select na from nt where na not between (case when na > 2 then 2 end) "
    "and 4 order by na",
    "select na, na between 2 and (case when na < 4 then 3 end) as r from nt "
    "order by na",
    "select na from nt where not (na in (2, null)) order by na",
    "select na from nt where na in (2, case when na > 3 then na end) "
    "order by na",
    "select na, na not in (5 - na, 3) as r from nt order by na",
    "select na from nt where na not in (5 - na, 3) order by na",
    "select na from nt where na not in "
    "(select case when nb > 2 then nb end from nu) order by na",
    "select na, na in (select case when nb > 2 then nb end from nu) as r "
    "from nt order by na",
    "select na from nt where na in "
    "(select case when nb > 2 then nb end from nu) order by na",
    "select na, na = null as r from nt order by na",
    "select na, case when nf > 2 then 'big' when nf > 0 then 'small' end "
    "as r from nt order by na",
    # A NULL literal takes the type of a CASE branch or an operand, or else
    # is an INT.
    "select na, null as r from nt order by na",
    "select na, case when na > 3 then na else null end as r from nt "
    "order by na",
    "select na, coalesce(null, na) as r from nt order by na",
    "select na, na + null as r, nf * null as f from nt order by na",
]


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("sql", NULLABLE_QUERIES)
def test_nullable_inputs_match_row_engine(session, tables, frames_match, sql,
                                          backend):
    oracle = RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, session.catalog))
    frames_match(session.sql(sql, options=ExecutionOptions(backend=backend)),
                 oracle, f"{backend}: {sql}", ordered=True,
                 rel_tol=1e-9, abs_tol=1e-9)


#: A projected AND of a scalar-subquery comparison: its validity ORs the
#: subquery's trace-time-constant validity with a value whose length the
#: bound filter decides, so constant folding must not fold it.
REBOUND_AND = ("select na, (na > 1 and na < (select max(nb) from nu)) as r "
               "from nt where na > :lo")
REBOUND_QUERIES = [
    REBOUND_AND,
    f"select na, r is null as n from ({REBOUND_AND}) q",
    f"select count(r) as c from ({REBOUND_AND}) q",
    f"select na, coalesce(r, false) as c from ({REBOUND_AND}) q",
]


@pytest.mark.parametrize("backend", ["torchscript", "onnx"])
@pytest.mark.parametrize("sql", REBOUND_QUERIES)
def test_rebinding_that_resizes_a_projected_and_matches_row_engine(
        session, tables, frames_match, sql, backend):
    """The first binding traces two rows; the later ones replay the program
    over five and one, and every validity mask has its column's length."""
    prepared = session.prepare(sql, options=ExecutionOptions(backend=backend))
    for lo in (3, 0, 4):
        result = prepared.bind(lo=lo).execute()
        for name, column in result.table.columns():
            assert (column.valid is None
                    or column.valid.shape == column.tensor.shape), (lo, name)
        oracle = RowEngine(tables).execute_to_dataframe(sql_to_physical(
            sql.replace(":lo", str(lo)), session.catalog))
        frames_match(result.to_dataframe(), oracle, f"{backend} lo={lo}: {sql}",
                     ordered=True)


#: A lossy cast under a widening one: the graph passes once collapsed the pair
#: into the outer cast alone (avg 2.625 for 2.5, sum 10.5 for 10.0).
CAST_CHAIN_QUERIES = {
    "select avg(cast(x as integer)) as a from c": 2.5,
    "select sum(cast(cast(x as integer) as double)) as s from c": 10.0,
}


@pytest.mark.parametrize("backend", ["pytorch", "torchscript", "onnx"])
@pytest.mark.parametrize("sql", CAST_CHAIN_QUERIES)
def test_cast_chains_truncate_on_every_backend(frames_match, sql, backend):
    tables = {"c": DataFrame({"x": np.array([1.7, 2.2, -3.9, 10.5])})}
    sess = TQPSession()
    sess.register("c", tables["c"])
    got = sess.sql(sql, options=ExecutionOptions(backend=backend))
    oracle = RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, sess.catalog))
    frames_match(got, oracle, f"{backend}: {sql}", rel_tol=0, abs_tol=0)
    assert list(got.to_dict().values()) == [[CAST_CHAIN_QUERIES[sql]]]


#: SQL's ``%`` truncates: the remainder takes the dividend's sign (sqlite,
#: Postgres and Spark agree), where a floor modulo takes the divisor's.
REMAINDER_INTS = [-7, 7, -8, 3]
REMAINDER_FLOATS = {"f % 2": [-1.5, 1.5, -0.0, 1.0],
                    "f % -2": [-1.5, 1.5, -0.0, 1.0],
                    "f % 0.75": [-0.0, 0.0, -0.5, 0.25]}


@pytest.mark.parametrize("backend", ["pytorch", "torchscript", "onnx"])
def test_remainder_takes_the_dividends_sign(backend):
    import sqlite3

    tables = {"r": DataFrame({
        "a": np.array(REMAINDER_INTS, dtype=np.int64),
        "f": np.array([-7.5, 7.5, -2.0, 1.0])})}
    sess = TQPSession()
    sess.register("r", tables["r"])
    options = ExecutionOptions(backend=backend)
    db = sqlite3.connect(":memory:")
    db.execute("create table r (a integer)")
    db.executemany("insert into r values (?)", [(a,) for a in REMAINDER_INTS])
    for expr in ("a % 3", "a % -3", "a % 5", "-a % 3"):
        sql = f"select {expr} as m from r"
        expected = [row[0] for row in db.execute(sql)]
        oracle = RowEngine(tables).execute_to_dataframe(
            sql_to_physical(sql, sess.catalog))
        assert sess.sql(sql, options=options).to_dict()["m"] == expected, expr
        assert oracle.to_dict()["m"] == expected, expr
    for expr, expected in REMAINDER_FLOATS.items():
        sql = f"select {expr} as m from r"
        oracle = RowEngine(tables).execute_to_dataframe(
            sql_to_physical(sql, sess.catalog))
        assert sess.sql(sql, options=options).to_dict()["m"] == expected, expr
        assert oracle.to_dict()["m"] == expected, expr


#: ``x`` / ``y`` code TRUE (1), FALSE (0) and NULL (2) over every pair.
TRUTH_CODES = [(x, y) for x in range(3) for y in range(3)]


def _truth(column: str) -> str:
    """The SQL truth value a code stands for: 2 is a NULL operand."""
    return f"((case when {column} < 2 then {column} end) = 1)"


TRUTH_EXPRS = {"and": f"{_truth('x')} and {_truth('y')}",
               "or": f"{_truth('x')} or {_truth('y')}",
               "not": f"not {_truth('x')}"}


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("op", TRUTH_EXPRS)
def test_three_valued_logic_matches_sqlite(op, backend):
    """The full ``{TRUE, FALSE, NULL}`` tables of AND / OR (and NOT) in
    WHERE, in a projection and in CASE, against sqlite, on both engines."""
    import sqlite3

    tables = {"tv": DataFrame({
        "x": np.array([x for x, _ in TRUTH_CODES], dtype=np.int64),
        "y": np.array([y for _, y in TRUTH_CODES], dtype=np.int64)})}
    sess = TQPSession()
    sess.register("tv", tables["tv"])
    db = sqlite3.connect(":memory:")
    db.execute("create table tv (x integer, y integer)")
    db.executemany("insert into tv values (?, ?)", TRUTH_CODES)
    expr = TRUTH_EXPRS[op]
    for sql in (
            f"select x, y from tv where {expr} order by x, y",
            f"select x, y, {expr} as r from tv order by x, y",
            f"select x, y, case when {expr} then 1 when not ({expr}) then 0 "
            f"else -1 end as r from tv order by x, y"):
        expected = [[None if v is None else int(v) for v in row]
                    for row in db.execute(sql)]
        for engine, frame in (
                (backend, sess.sql(sql, options=ExecutionOptions(
                    backend=backend))),
                ("row engine", RowEngine(tables).execute_to_dataframe(
                    sql_to_physical(sql, sess.catalog)))):
            got = [[None if v is None else int(v) for v in row]
                   for row in zip(*frame.to_dict().values())]
            assert got == expected, f"{engine}: {sql}"


# -- SQL shorthands and NULL, pinned to sqlite -------------------------------

#: ``sh(a = 1..5)`` beside ``shu(ub = 2, 3)``.  NULLs come from CASE without
#: ELSE, from a NULL literal and from a subquery that yields one; ``x`` holds
#: ties, which sqlite rounds away from zero.
SHORTHAND_ROWS = [(1, 1, "p", "1994-06-01", -2.5),
                  (2, 0, "qq", "1995-01-15", 0.5),
                  (3, 3, "r", "1996-12-31", 1.5),
                  (4, 4, "ss", "2000-02-29", 2.5),
                  (5, 0, "t", "1970-01-01", -0.5)]
NULL_LOW = "(case when a > 2 then 2 end)"
NULL_HIGH = "(case when a < 4 then 3 end)"
NULL_SUBQUERY = "(select case when ub > 2 then ub end from shu)"
NULL_DATE = "(case when a > 3 then d end)"

#: sqlite has no EXTRACT; a ``(sql, sqlite's spelling)`` pair states both.
EXTRACT_NULL_DATE = (f"extract(year from {NULL_DATE})",
                     f"cast(strftime('%Y', {NULL_DATE}) as integer)")

#: Predicates, each run in WHERE, in a projection and in CASE.
SHORTHAND_PREDICATES = {
    "between_null_low": f"a between {NULL_LOW} and 4",
    "not_between_null_low": f"a not between {NULL_LOW} and 4",
    "between_null_high": f"a between 2 and {NULL_HIGH}",
    "not_between_null_high": f"a not between 2 and {NULL_HIGH}",
    "between_null_both": f"a between {NULL_LOW} and {NULL_HIGH}",
    "not_between_null_both": f"a not between {NULL_LOW} and {NULL_HIGH}",
    "in_null_item": "a in (2, null)",
    "not_in_null_item": "not (a in (2, null))",
    "in_case_item": "a in (2, case when a > 3 then a end)",
    "not_in_case_item": "a not in (2, case when a > 3 then a end)",
    "in_column_item": "a in (b, 3)",
    "not_in_column_item": "a not in (b, 3)",
    "in_subquery_null": f"a in {NULL_SUBQUERY}",
    "not_in_subquery_null": f"a not in {NULL_SUBQUERY}",
    "null_in_no_rows": "(case when a > 3 then a end) in "
                       "(select ub from shu where ub > 9)",
    "null_not_in_no_rows": "(case when a > 3 then a end) not in "
                           "(select ub from shu where ub > 9)",
    "eq_null": "a = null",
    "coalesce_numeric": "coalesce(case when a > 3 then a end, "
                        "case when a > 1 then 0.5 end) < 5",
    "coalesce_string": "coalesce(case when a > 3 then s end, "
                       "case when a > 1 then 'k' end) = 'k'",
    "coalesce_boolean": "coalesce(case when a > 3 then a = 4 end, "
                        "case when a > 1 then a = 2 end)",
    "case_strings": "(case when a > 3 then s when a > 1 then 'kk' end) = 'kk'",
    # The NOT forms, EXTRACT and an ELSE-less CASE are lowered too.
    "not_like": "(case when a > 1 then s end) not like '%s'",
    "not_in_list": "(case when a > 1 then a end) not in (2, 4)",
    "not_in_subquery": "a not in (select ub from shu)",
    "is_not_null": "(case when a > 3 then a end) is not null",
    "not_exists": "not exists (select ub from shu where ub > 2)",
    "not_exists_empty": "not exists (select ub from shu where ub > 9)",
    "extract_null_date": tuple(f"{side} = 2000" for side in EXTRACT_NULL_DATE),
    "case_numeric_no_else": "(case when a > 3 then a * 1.5 end) > 6",
    "plus_null": "a + null > 1",
}

#: Values, projected as they are.
SHORTHAND_VALUES = {
    "coalesce_numeric": "coalesce(case when a > 3 then a end, "
                        "case when a > 1 then 0.5 end)",
    "coalesce_string": "coalesce(case when a > 3 then s end, "
                       "case when a > 1 then 'k' end, s)",
    "coalesce_boolean": "coalesce(case when a > 3 then a = 4 end, a = 2)",
    "case_strings": "case when a > 3 then s when a > 1 then 'kk' else 'k' end",
    "extract_null_date": EXTRACT_NULL_DATE,
    "case_numeric_no_else": "case when a > 3 then a * 1.5 end",
    "case_string_no_else": "case when a > 3 then s end",
    "plus_null": "a + null",
    # The NULL literal takes its type from a CASE branch or an operand, or
    # else is an INT.
    "select_null": "null",
    "case_else_null": "case when a > 3 then a else null end",
    "coalesce_null_first": "coalesce(null, a)",
}

SHORTHAND_SHAPES = list({**SHORTHAND_PREDICATES, **SHORTHAND_VALUES})


def _spellings(text) -> tuple[str, str]:
    """``(sql, sqlite's spelling)`` of a shape: one text unless a pair."""
    return (text, text) if isinstance(text, str) else text


#: A predicate runs in WHERE, in a projection and in CASE; a value projected.
PREDICATE_STATEMENTS = (
    "select a from sh where {} order by a",
    "select a, {} as r from sh order by a",
    "select a, case when {0} then 1 when not ({0}) then 0 else -1 end as r "
    "from sh order by a")
VALUE_STATEMENT = "select a, {} as r from sh order by a"


def _shorthand_statements(shape: str) -> list[tuple[str, str]]:
    """``(sql, sqlite's spelling)`` of each statement the shape runs."""
    statements = []
    if shape in SHORTHAND_PREDICATES:
        texts = _spellings(SHORTHAND_PREDICATES[shape])
        statements += [tuple(map(template.format, texts))
                       for template in PREDICATE_STATEMENTS]
    if shape in SHORTHAND_VALUES:
        texts = _spellings(SHORTHAND_VALUES[shape])
        statements.append(tuple(map(VALUE_STATEMENT.format, texts)))
    return statements


def _plain(value):
    """A result cell as sqlite reports it: booleans as 0 / 1, a float NULL
    (NaN in a frame) as ``None``."""
    if isinstance(value, float) and np.isnan(value):
        return None
    return int(value) if isinstance(value, (bool, np.bool_)) else value


@pytest.fixture(scope="module")
def sh_engines():
    """``sh`` and ``shu`` registered with TQP and loaded into sqlite."""
    import sqlite3

    tables = {
        "sh": DataFrame({
            "a": np.array([row[0] for row in SHORTHAND_ROWS], dtype=np.int64),
            "b": np.array([row[1] for row in SHORTHAND_ROWS], dtype=np.int64),
            "s": np.array([row[2] for row in SHORTHAND_ROWS], dtype=object),
            "d": np.array([row[3] for row in SHORTHAND_ROWS],
                          dtype="datetime64[D]"),
            "x": np.array([row[4] for row in SHORTHAND_ROWS])}),
        "shu": DataFrame({"ub": np.array([2, 3], dtype=np.int64)})}
    sess = TQPSession()
    for name, frame in tables.items():
        sess.register(name, frame)
    db = sqlite3.connect(":memory:")
    db.execute("create table sh (a integer, b integer, s text, d text, x real)")
    db.executemany("insert into sh values (?, ?, ?, ?, ?)", SHORTHAND_ROWS)
    db.execute("create table shu (ub integer)")
    db.executemany("insert into shu values (?)", [(2,), (3,)])
    return sess, tables, db


def _assert_matches_sqlite(sh_engines, backend, sql, sqlite_sql):
    """``sql`` on ``backend`` and on the row engine answers as ``sqlite_sql``
    does on sqlite."""
    sess, tables, db = sh_engines
    expected = [list(row) for row in db.execute(sqlite_sql)]
    for engine, frame in (
            (backend, sess.sql(sql, options=ExecutionOptions(backend=backend))),
            ("row engine", RowEngine(tables).execute_to_dataframe(
                sql_to_physical(sql, sess.catalog)))):
        got = [[_plain(v) for v in row]
               for row in zip(*frame.to_dict().values())]
        assert got == expected, f"{engine}: {sql}"


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("shape", SHORTHAND_SHAPES)
def test_shorthands_and_null_match_sqlite(sh_engines, shape, backend):
    """BETWEEN, IN, COALESCE, the NOT forms, EXTRACT and an ELSE-less CASE
    are lowered by the parser: with NULL bounds, NULL items, a subquery
    yielding NULL, a NULL date and a NULL literal they answer as sqlite does,
    on both engines."""
    for sql, sqlite_sql in _shorthand_statements(shape):
        _assert_matches_sqlite(sh_engines, backend, sql, sqlite_sql)


#: Per name of ``SCALAR_FUNCTIONS``: the ``sh`` column it reads and sqlite's
#: spelling.
FUNCTION_ARGUMENTS = {
    "abs": ("x", "abs({})"),
    "round": ("x", "round({})"),
    "sqrt": ("a", "sqrt({})"),
    "length": ("s", "length({})"),
    "year": ("d", "cast(strftime('%Y', {}) as integer)"),
    "month": ("d", "cast(strftime('%m', {}) as integer)"),
    "day": ("d", "cast(strftime('%d', {}) as integer)"),
}

#: Arguments outside a function's domain: sqlite answers NULL there.
OUTSIDE_DOMAIN = {"sqrt": ("a - 3", "x")}


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
@pytest.mark.parametrize("name", sorted(SCALAR_FUNCTIONS))
def test_scalar_functions_match_sqlite(sh_engines, name, backend):
    """Every declared scalar function, over a value, over a NULL argument
    (a CASE without ELSE, and the NULL literal) and over arguments outside
    its domain, answers as sqlite does on both engines, and the tensor
    kernels warn about no row."""
    column, spelling = FUNCTION_ARGUMENTS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for argument in (column, f"case when a > 3 then {column} end",
                         "null", *OUTSIDE_DOMAIN.get(name, ())):
            _assert_matches_sqlite(
                sh_engines, backend,
                f"select a, {name}({argument}) as r from sh order by a",
                f"select a, {spelling.format(argument)} as r from sh "
                f"order by a")


@pytest.mark.parametrize("backend", ["pytorch", "torchscript"])
def test_unaliased_calls_of_one_name_keep_every_column(sh_engines, backend):
    """An unaliased call is named after its function; a second call of the
    same name falls back to ``col<i>`` instead of overwriting the first."""
    sess, tables, _ = sh_engines
    sql = ("select a, extract(year from d), year(d), abs(a), abs(b) "
           "from sh order by a")
    _assert_matches_sqlite(
        sh_engines, backend, sql,
        "select a, cast(strftime('%Y', d) as integer), "
        "cast(strftime('%Y', d) as integer), abs(a), abs(b) "
        "from sh order by a")
    names = ["a", "year", "col2", "abs", "col4"]
    frame = sess.sql(sql, options=ExecutionOptions(backend=backend))
    assert list(frame.to_dict()) == names
    assert list(RowEngine(tables).execute_to_dataframe(
        sql_to_physical(sql, sess.catalog)).to_dict()) == names


def test_a_lowered_between_plans_one_aggregate(session, tables, frames_match):
    """``HAVING sum(x) BETWEEN ...`` names ``sum(x)`` twice after lowering;
    the analyzer still plans it as one aggregate."""
    from repro.frontend.logical import LogicalAggregate, walk_plan

    sql = ("select b, sum(x) as s from t group by b "
           "having sum(x) between -5 and 5 order by b")
    plan = sql_to_physical(sql, session.catalog)
    (aggregate,) = [node for node in walk_plan(plan)
                    if isinstance(node, LogicalAggregate)]
    assert len(aggregate.aggregates) == 1
    frames_match(session.sql(sql), RowEngine(tables).execute_to_dataframe(plan),
                 sql, ordered=True)


def test_a_lowered_between_keeps_its_parameters(session, tpch_tiny):
    """``? BETWEEN ? AND ?`` takes three positional parameters (the operand's
    copy is the same parameter), and the serving shape's bounds take the
    type of ``l_discount``."""
    from repro.core.columnar import LogicalType
    from repro.serve.simulator import Q6_SHAPE

    prepared = session.prepare(
        "select a from t where ? between ? and ?",
        param_types={name: LogicalType.INT for name in ("p1", "p2", "p3")})
    assert [spec.name for spec in prepared.parameters] == ["p1", "p2", "p3"]
    assert len(prepared.run(3, 2, 4).to_dict()["a"]) == N_ROWS
    assert prepared.run(5, 2, 4).to_dict()["a"] == []
    tpch, _ = tpch_tiny
    types = {spec.name: spec.ltype
             for spec in tpch.prepare(Q6_SHAPE).parameters}
    assert types == {"lo": LogicalType.FLOAT, "hi": LogicalType.FLOAT,
                     "q": LogicalType.FLOAT}


# -- LIKE: multi-segment, doubly anchored and self-overlapping patterns -------

#: Width 8; ``abcdefgh`` / ``xbcdefgh`` fill it, so a match that ran past the
#: end of one row would read the next row's first code points.
LIKE_VALUES = ["a", "aa", "abab", "aba", "", "abcdefgh", "xbcdefgh", "ab",
               "b", "ghab"]

LIKE_PATTERNS = [
    "a%a",          # 'a' must not match: the anchors may not share a character
    "%ab%ab%",      # 'abab' yes, 'aba' no: the segments may not overlap
    "%abab",        # a suffix wider than most rows
    "%%", "%",
    "%abcdefgh%",   # a segment equal to a whole full-width row
    "abcdefgh", "%ghab%", "%h%a%", "a%b%a", "ab%ab", "%b", "%a%a%",
    "%abcdefghx",   # wider than the column
]


@pytest.fixture(scope="module")
def like_tables():
    rng = np.random.default_rng(SEED + 2)
    values = np.array(LIKE_VALUES, dtype=object)[
        rng.integers(0, len(LIKE_VALUES), size=N_ROWS)]
    return {
        "strs": DataFrame({"sid": np.arange(N_ROWS, dtype=np.int64), "sv": values}),
        # Keys past N_ROWS match no row: the LEFT JOIN NULL-extends ``sv``.
        "keys": DataFrame({"kid": np.arange(0, 2 * N_ROWS, 5, dtype=np.int64)}),
    }


def _like_queries():
    queries = []
    for pattern in LIKE_PATTERNS:
        for operator in ("like", "not like"):
            queries.append(f"select sid from strs where sv {operator} '{pattern}'")
            queries.append(f"select kid, sv from keys left join strs on kid = sid "
                           f"where sv {operator} '{pattern}'")
        queries.append(f"select sid, sv like '{pattern}' as hit from strs")
    return queries


@pytest.fixture(scope="module")
def like_sessions(like_tables, plain_session):
    """``off`` (every column plain) and ``auto`` (``sv`` dictionary-encoded)."""
    sess = TQPSession()
    for name, frame in like_tables.items():
        sess.register(name, frame)
    return {"off": plain_session(like_tables), "auto": sess}


@pytest.mark.parametrize("encoding", ["off", pytest.param("auto", id="dictionary")])
@pytest.mark.parametrize("sql", _like_queries())
def test_like_patterns_match_row_engine(like_sessions, like_tables,
                                        frames_match, sql, encoding):
    """The plain (n x m) layout and the dictionary probe of the same column
    both agree with the row engine's regex, NULL rows and NOT LIKE included."""
    session = like_sessions[encoding]
    oracle = RowEngine(like_tables).execute_to_dataframe(
        sql_to_physical(sql, session.catalog))
    result = session.sql(sql)
    frames_match(result, oracle, f"{sql} [{encoding}]", ordered=True)


def test_generator_is_deterministic():
    assert _generated_queries() == _generated_queries()
    assert _generated_join_chains() == _generated_join_chains()
    assert _generated_keyed_joins() == _generated_keyed_joins()
    assert _generated_shorthand_queries() == _generated_shorthand_queries()
    assert _generated_lowered_queries() == _generated_lowered_queries()
