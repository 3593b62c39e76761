"""Property-based differential tests for the expression compiler.

A seeded generator (plain ``random`` — no hypothesis dependency) produces
random arithmetic / comparison / NULL-logic expressions; each one is evaluated
by the tensor expression compiler (via a full ``SELECT``) and by the row
engine's per-row interpreter over the same optimized plan.  Any semantic
divergence between the two interpreters is a bug in one of them.

NULLs enter through ``CASE WHEN ... THEN ... END`` without an ELSE branch and
flow through arithmetic, comparisons, ``IS [NOT] NULL``, ``COALESCE`` and the
three-valued logic of ``WHERE``.  They also reach join keys: the generator
ends with outer→inner join chains, where the NULL-extended side of a LEFT JOIN
is the key of the next join and must match nothing, and with keyed join
chains that draw, per join, which side (if any) is a key — the planner-derived
fact that picks the join's pair construction.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.baselines import RowEngine
from repro.core.operators import HashJoinOperator
from repro.core.tuning import tuning_overrides
from repro.frontend import sql_to_physical

N_ROWS = 64
N_CASES = 60
N_JOIN_CASES = 12
SEED = 20220701


@pytest.fixture(scope="module")
def tables():
    rng = np.random.default_rng(SEED)
    frame = DataFrame({
        "a": rng.integers(-20, 21, size=N_ROWS).astype(np.int64),
        "b": rng.integers(-5, 6, size=N_ROWS).astype(np.int64),
        "x": np.round(rng.uniform(-10.0, 10.0, size=N_ROWS), 3),
        "y": np.round(rng.uniform(-2.0, 2.0, size=N_ROWS), 3),
    })
    # Join-chain tables: ``u`` covers part of ``a``'s range (so ``t LEFT JOIN
    # u`` NULL-extends ``uv``) and ``w`` has a row keyed 0, the payload a NULL
    # ``uv`` carries under its validity mask.
    u = DataFrame({"uk": np.arange(-20, 8, dtype=np.int64),
                   "uv": rng.integers(-3, 4, size=28).astype(np.int64)})
    w = DataFrame({"wv": np.arange(-3, 4, dtype=np.int64),
                   "wy": rng.integers(0, 100, size=7).astype(np.int64)})
    return {"t": frame, "u": u, "w": w}


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

    def __init__(self, rng: random.Random):
        self.rng = rng

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
        return self.boolean(depth - 1)

    def query(self) -> str:
        exprs = [self.numeric(self.rng.randint(1, 3))
                 for _ in range(self.rng.randint(1, 3))]
        select = ", ".join(f"{expr} as v{i}" for i, expr in enumerate(exprs))
        sql = f"select a, {select} from t"
        if self.rng.random() < 0.6:
            sql += f" where {self.boolean(self.rng.randint(1, 2))}"
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


def _sorted_rows(frame) -> list[tuple]:
    rows = zip(*(frame[name] for name in frame.columns))
    return sorted((tuple(None if cell is None or cell != cell else int(cell)
                         for cell in row) for row in rows),
                  key=lambda row: tuple((cell is None, cell or 0) for cell in row))


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
    # Sixteen-row tables: zero thresholds so joins really plan on lanes and
    # shards really shuffle / broadcast.
    results = []
    for options in KEYED_JOIN_OPTIONS:
        with tuning_overrides(parallel_threshold_rows=0, shard_min_rows=0):
            compiled = key_session.compile(sql, options=options)
        planned = [(op.kind, op.key_side or op.key_reason)
                   for op in compiled.operator_plan.root.walk()
                   if isinstance(op, HashJoinOperator)]
        assert sorted(planned) == sorted(expected_joins), (
            sql, compiled.operator_plan.root.pretty())
        results.append(compiled.run())
        frames_match(results[-1], oracle, f"{options}: {sql}")
    eager, traced, lanes, shards = results
    # Row order included: a lanes plan runs the serial program.
    assert eager.to_dict() == traced.to_dict() == lanes.to_dict()
    assert _sorted_rows(traced) == _sorted_rows(shards)


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
