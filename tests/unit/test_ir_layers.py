"""Unit tests for the IR, the IR builder, and the IR optimizer rules."""

import numpy as np
import pytest

from repro import DataFrame
from repro.core import ir
from repro.core.columnar import LogicalType
from repro.core.ir_builder import build_ir
from repro.core.ir_optimizer import (
    fuse_filters,
    optimize_ir,
    remove_identity_projects,
    remove_identity_renames,
)
from repro.core.operators import HashJoinOperator
from repro.core.planner import Planner, plan_ir
from repro.frontend import Catalog, ast, sql_to_physical


@pytest.fixture
def catalog():
    catalog = Catalog()
    catalog.register("t", DataFrame({
        "a": np.array([1, 2, 3], dtype=np.int64),
        "b": np.array([1.0, 2.0, 3.0]),
        "s": np.array(["x", "y", "z"], dtype=object),
    }))
    return catalog


def _ir_for(sql, catalog):
    return build_ir(sql_to_physical(sql, catalog))


def test_build_ir_covers_operators(catalog):
    node = _ir_for("select a, count(*) as n from t where b > 1 group by a "
                   "order by n desc limit 2", catalog)
    counts = node.op_counts()
    for op in (ir.SCAN, ir.FILTER, ir.PROJECT, ir.HASH_AGGREGATE, ir.SORT, ir.LIMIT):
        assert counts.get(op, 0) >= 1
    assert node.op == ir.LIMIT
    assert "scan(t)" in node.pretty() or "scan" in node.pretty()


def test_build_ir_preserves_schema(catalog):
    node = _ir_for("select a as key, b * 2 as double_b from t", catalog)
    assert [f.name for f in node.fields] == ["key", "double_b"]


def test_fuse_filters_rule(catalog):
    node = _ir_for("select a from t where b > 1", catalog)
    # Manually stack a second filter to exercise the rule.
    inner_filter = node.children[0]
    assert inner_filter.op == ir.FILTER
    stacked = ir.IRNode(ir.FILTER, [inner_filter], dict(inner_filter.attrs),
                        inner_filter.fields)
    node.children[0] = stacked
    fused = fuse_filters(node)
    filters = [n for n in fused.walk() if n.op == ir.FILTER]
    assert len(filters) == 1


def test_remove_identity_projects_rule(catalog):
    node = _ir_for("select a, b, s from t", catalog)
    # The top project is an identity over the scan columns except for naming;
    # construct an explicit identity to validate the rule triggers.
    scan = [n for n in node.walk() if n.op == ir.SCAN][0]
    exprs = []
    for field in scan.fields:
        ref = ast.ColumnRef(None, field.name.split(".")[-1], resolved=field.name)
        ref.otype = field.ltype
        exprs.append(ref)
    identity = ir.IRNode(ir.PROJECT, [scan], {
        "exprs": exprs, "names": [f.name for f in scan.fields],
        "types": [f.ltype for f in scan.fields],
    }, scan.fields)
    assert remove_identity_projects(identity).op == ir.SCAN


def test_remove_identity_renames_rule(catalog):
    node = _ir_for("select a from t", catalog)
    scan = [n for n in node.walk() if n.op == ir.SCAN][0]
    rename = ir.IRNode(ir.RENAME, [scan], {"output_fields": list(scan.fields)},
                       scan.fields)
    assert remove_identity_renames(rename).op == ir.SCAN
    different = ir.IRNode(ir.RENAME, [scan], {
        "output_fields": [type(f)(name=f.name + "_x", ltype=f.ltype)
                          for f in scan.fields]}, scan.fields)
    assert remove_identity_renames(different).op == ir.RENAME


def test_optimize_ir_pipeline_keeps_semantics(catalog):
    node = optimize_ir(_ir_for("select a from t where a > 1 order by a", catalog))
    assert node.op in (ir.SORT, ir.PROJECT, ir.LIMIT)
    assert ir.SCAN in node.op_counts()


# -- key-ness: derived unique column sets and the join's key side ----------------


def _key_catalog(**kwargs):
    catalog = Catalog(**kwargs)
    catalog.register("d", DataFrame({
        "k": np.arange(6, dtype=np.int64),                       # a key
        "v": np.array([1, 1, 2, 2, 3, 3], dtype=np.int64),       # duplicates
        "n": np.array([1.0, np.nan, 2.0, np.nan, 3.0, 4.0]),     # stored NULLs
        "u": np.arange(0.0, 3.0, 0.5),                           # a float key
    }))
    catalog.register("h", DataFrame({"hk": np.array([0, 2, 4, 10],
                                                    dtype=np.int64)}))
    catalog.register("f", DataFrame({
        "fk": np.array([0, 0, 1, 2, 2, 9], dtype=np.int64),
        "g": np.array([0, 1, 0, 0, 1, 1], dtype=np.int64),
        "x": np.array([0.0, 0.0, 1.0, 2.0, 2.0, 9.0]),
    }))
    # Q9's partsupp: only the pair is unique, which no statistic records.
    catalog.register("ps", DataFrame({
        "pk": np.array([0, 0, 1, 1], dtype=np.int64),
        "sk": np.array([0, 1, 0, 1], dtype=np.int64),
    }))
    return catalog


def _planner(catalog):
    return Planner(table_stats={name: catalog.statistics(name)
                                for name in catalog.table_names()})


def _unique(sql, catalog=None):
    """The unique sets of the query's root, as sorted tuples."""
    catalog = catalog or _key_catalog()
    sets = _planner(catalog)._unique_sets(optimize_ir(_ir_for(sql, catalog)))
    return sorted(tuple(sorted(unique)) for unique in sets)


def _joins(sql, catalog=None):
    """``key_side or key_reason`` of every hash join, top down."""
    catalog = catalog or _key_catalog()
    plan = plan_ir(optimize_ir(_ir_for(sql, catalog)),
                   table_stats=_planner(catalog).table_stats)
    return [op.key_side or op.key_reason for op in plan.root.walk()
            if isinstance(op, HashJoinOperator)]


def test_a_scan_is_unique_on_each_column_with_as_many_values_as_rows():
    # Not v (duplicates); not n: its values are distinct, but a stored NULL
    # carries no validity, so the kernels would see two equal NaNs.
    assert _unique("select * from d") == [("k",), ("u",)]
    assert _unique("select * from f") == []
    # Through the scan node, not by column name: both aliases qualify.
    assert _joins("select f.x from f join d d1 on f.fk = d1.k "
                  "join d d2 on f.g = d2.k") == ["right", "right"]


def test_row_removing_and_reordering_operators_pass_unique_sets_through():
    assert _unique("select * from d where v > 1") == [("k",), ("u",)]
    assert _unique("select k, v from d order by v limit 3") == [("k",)]
    assert _unique("select distinct k, v from d") == [("k",)]


def test_projections_and_renames_map_bare_columns_only():
    assert _unique("select k as kk, v from d") == [("kk",)]
    assert _unique("select k + 0 as kk, v from d") == []
    assert _unique("select v from d") == []
    assert _unique("select q.kk, q.v from (select k as kk, v from d) q"
                   ) == [("kk",)]


def test_an_aggregate_is_unique_on_its_group_names():
    catalog = _key_catalog()
    grouped = optimize_ir(_ir_for(
        "select pk, sk, count(*) as c from ps group by pk, sk", catalog))
    aggregate = next(n for n in grouped.walk() if n.op == ir.HASH_AGGREGATE)
    planner = _planner(catalog)
    assert planner._unique_sets(aggregate) == {
        frozenset(aggregate.attrs["group_names"])}
    assert _unique("select pk, sk, count(*) as c from ps group by pk, sk",
                   catalog) == [("pk", "sk")]
    # A global aggregate has one row: unique on the empty set, so on anything.
    assert _unique("select max(k) as m from d") == [()]
    assert _joins("select fk from f join (select max(k) as m from d) t "
                  "on fk = t.m") == ["right"]


def _scan(catalog, table, alias):
    root = _ir_for(f"select * from {table} {alias}", catalog)
    return next(n for n in root.walk() if n.op == ir.SCAN)


def _join(kind, left, right, pairs, expression_side=None):
    def key(node, column, wrap):
        field = next(f for f in node.fields if f.name.endswith("." + column))
        ref = ast.ColumnRef(None, column, resolved=field.name)
        ref.otype = field.ltype
        if not wrap:
            return ref
        zero = ast.Literal(0)
        zero.otype = LogicalType.INT
        expr = ast.BinaryOp("+", ref, zero)
        expr.otype = field.ltype
        return expr
    fields = left.fields + ([] if kind in ("semi", "anti") else right.fields)
    return ir.IRNode(ir.HASH_JOIN, [left, right], {
        "kind": kind, "residual": None,
        "left_keys": [key(left, l, expression_side == "left") for l, _ in pairs],
        "right_keys": [key(right, r, expression_side == "right")
                       for _, r in pairs],
    }, fields)


def _join_facts(catalog, node):
    planner = _planner(catalog)
    (operator,) = [op for op in plan_ir(
        node, table_stats=planner.table_stats).root.walk()
        if isinstance(op, HashJoinOperator)]
    sets = sorted(tuple(sorted(unique)) for unique in planner._unique_sets(node))
    return operator.key_side or operator.key_reason, sets


@pytest.mark.parametrize("kind", ["inner", "left", "semi", "anti"])
def test_join_rules_for_every_kind(kind):
    catalog = _key_catalog()
    d1, d2 = _scan(catalog, "d", "d1"), _scan(catalog, "d", "d2")
    f1, f2 = _scan(catalog, "f", "f1"), _scan(catalog, "f", "f2")
    left_only = kind in ("semi", "anti")
    # Key build: the left rows are not duplicated, its sets survive.
    assert _join_facts(catalog, _join(kind, d1, d2, [("v", "k")])) == (
        "right", [("d1.k",), ("d1.u",)])
    # Key probe: the right rows are not duplicated (a semi / anti join keeps
    # its left side whatever the keys).
    assert _join_facts(catalog, _join(kind, d1, f1, [("k", "fk")])) == (
        "left", [("d1.k",), ("d1.u",)] if left_only else [])
    assert _join_facts(catalog, _join(kind, d1, d2, [("k", "v")])) == (
        "left", [("d1.k",), ("d1.u",)] if left_only else [("d2.k",), ("d2.u",)])
    # Both: right preferred, both sides' sets.
    assert _join_facts(catalog, _join(kind, d1, d2, [("k", "k")])) == (
        "right", [("d1.k",), ("d1.u",)] if left_only
        else [("d1.k",), ("d1.u",), ("d2.k",), ("d2.u",)])
    # Neither: an N:M join destroys both sides' sets.
    assert _join_facts(catalog, _join(kind, d1, d2, [("v", "v")])) == (
        "not-unique", [("d1.k",), ("d1.u",)] if left_only else [])
    assert _join_facts(catalog, _join(kind, f1, f2, [("fk", "fk")])) == (
        "not-unique", [])


def test_a_key_list_is_unique_when_bare_columns_cover_a_unique_set():
    catalog = _key_catalog()
    f, d, ps = (_scan(catalog, name, name) for name in ("f", "d", "ps"))
    # A superset of a unique set is unique.
    assert _join_facts(catalog, _join("inner", f, d, [("fk", "k"), ("g", "v")])
                       )[0] == "right"
    # Q9's partsupp: neither column is unique, only the pair is.
    assert _join_facts(catalog, _join("inner", f, ps, [("fk", "pk"), ("g", "sk")])
                       ) == ("not-unique", [])
    # An expression over a key column is not a key; the other side still may be.
    assert _join_facts(catalog, _join("inner", f, d, [("fk", "k")], "right")
                       )[0] == "expression-key"
    assert _join_facts(catalog, _join("inner", f, d, [("fk", "k")], "left")
                       )[0] == "right"
    assert _join_facts(catalog, _join("inner", d, f, [("k", "fk")], "left")
                       )[0] == "expression-key"
    # A NULL-extended key is still a key (NULL keys match nothing): ``hk``
    # below is NULL on four rows.  A column with stored NULLs is not.
    assert _unique("select k, hk from d left join h on k = hk", catalog
                   ) == [("hk",), ("k",)]
    assert _joins("select fk from f join (select k, hk from d left join h "
                  "on k = hk) n on fk = n.hk", catalog) == ["right", "right"]
    assert _join_facts(catalog, _join("inner", f, d, [("x", "u")]))[0] == "right"
    assert _join_facts(catalog, _join("inner", f, d, [("x", "n")])
                       )[0] == "not-unique"
    # An integer key cast to meet a FLOAT column is an expression of it.
    assert _join_facts(catalog, _join("inner", f, d, [("x", "k")])
                       )[0] == "expression-key"


def test_nothing_is_derived_without_statistics():
    catalog = _key_catalog(collect_statistics=False)
    assert _unique("select * from d", catalog) == []
    assert _unique("select v, count(*) as c from d group by v", catalog
                   ) == [("v",)]     # structural, not statistical
    assert _joins("select f.x from f join d on fk = k", catalog
                  ) == ["no-statistics"]
    # A hand-built operator consulted no statistics either.
    assert HashJoinOperator(None, None, "inner", [], []).describe() == (
        "HashJoin[inner](key=no-statistics)")
