"""Unit tests for semantic analysis, the logical optimizer, and the IR the
parsing layer builds from the optimized plan."""

import numpy as np
import pytest

from repro.core.columnar import LogicalType
from repro.dataframe import DataFrame
from repro.errors import AnalysisError, CatalogError
from repro.frontend import (
    Analyzer,
    Catalog,
    optimize,
    parse,
    sql_to_physical,
)
from repro.core import ir
from repro.core.ir_builder import build_ir
from repro.frontend.logical import (
    LogicalAggregate,
    LogicalFilter,
    LogicalJoin,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    walk_plan,
)


@pytest.fixture
def catalog(toy_tables):
    catalog = Catalog()
    for name, frame in toy_tables.items():
        catalog.register(name, frame)
    return catalog


# -- catalog ------------------------------------------------------------------


def test_catalog_registration_and_lookup(toy_tables):
    catalog = Catalog()
    catalog.register("Items", toy_tables["items"])
    assert catalog.has_table("items") and catalog.has_table("ITEMS")
    assert catalog.schema("items").column_type("price") == LogicalType.FLOAT
    assert catalog.schema("items").column_type("note") == LogicalType.STRING
    with pytest.raises(CatalogError):
        catalog.schema("nope")
    with pytest.raises(CatalogError):
        catalog.schema("items").column_type("nope")
    catalog.unregister("items")
    assert not catalog.has_table("items")


def test_catalog_replace_flag(toy_tables):
    catalog = Catalog()
    catalog.register("items", toy_tables["items"])
    with pytest.raises(CatalogError):
        catalog.register("items", toy_tables["items"], replace=False)


# -- analyzer ------------------------------------------------------------------


def test_analyzer_resolves_columns_and_types(catalog):
    plan = Analyzer(catalog).analyze(parse(
        "select price * quantity as total, note from items where quantity > 2"))
    project = plan
    assert isinstance(project, LogicalProject)
    assert project.names == ["total", "note"]
    assert project.types == [LogicalType.FLOAT, LogicalType.STRING]
    scan = [n for n in walk_plan(plan) if isinstance(n, LogicalScan)][0]
    assert scan.alias == "items"


def test_analyzer_unknown_column_and_ambiguity(catalog):
    with pytest.raises(AnalysisError):
        Analyzer(catalog).analyze(parse("select wrong_column from items"))
    with pytest.raises(AnalysisError):
        Analyzer(catalog).analyze(parse(
            "select order_id from items, orders where items.order_id = orders.order_id"))


def test_analyzer_star_expansion(catalog):
    plan = Analyzer(catalog).analyze(parse("select * from orders"))
    assert plan.field_names() == ["order_id", "customer", "region"]
    plan = Analyzer(catalog).analyze(parse(
        "select orders.* from items, orders where items.order_id = orders.order_id"))
    assert len(plan.schema()) == 3


def test_analyzer_aggregate_extraction(catalog):
    plan = Analyzer(catalog).analyze(parse(
        "select order_id, sum(price) as total, count(*) as n from items "
        "group by order_id having sum(price) > 5"))
    aggregate = [n for n in walk_plan(plan) if isinstance(n, LogicalAggregate)][0]
    assert len(aggregate.aggregates) == 2          # sum reused between SELECT/HAVING
    assert aggregate.group_names == ["items.order_id"]
    filters = [n for n in walk_plan(plan) if isinstance(n, LogicalFilter)]
    assert filters, "HAVING must become a filter above the aggregate"


def test_analyzer_rejects_aggregate_in_where(catalog):
    with pytest.raises(AnalysisError):
        Analyzer(catalog).analyze(parse("select 1 from items where sum(price) > 3"))


def test_analyzer_order_by_alias_and_type_of_avg(catalog):
    plan = Analyzer(catalog).analyze(parse(
        "select order_id, avg(quantity) as avg_q from items group by order_id "
        "order by avg_q desc"))
    assert isinstance(plan, LogicalSort)
    project = plan.child
    assert project.types[1] == LogicalType.FLOAT


def test_analyzer_folds_date_interval_arithmetic(catalog):
    plan = sql_to_physical(
        "select item_id from items where shipped < date '2024-01-01' + interval '1' month",
        catalog, optimized=False)
    from repro.frontend import ast

    literals = [node for n in walk_plan(plan)
                for e in ([n.condition] if isinstance(n, LogicalFilter) else [])
                for node in ast.walk_expr(e) if isinstance(node, ast.Literal)]
    assert any(lit.otype == LogicalType.DATE for lit in literals)
    assert all(not isinstance(node, ast.IntervalLiteral) for node in literals)


# -- optimizer -------------------------------------------------------------------


def test_optimizer_turns_comma_join_into_hash_join(catalog):
    plan = sql_to_physical(
        "select customer, sum(price * quantity) as spend "
        "from items, orders where items.order_id = orders.order_id "
        "and region = 'EU' group by customer", catalog)
    joins = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)]
    assert len(joins) == 1
    assert joins[0].kind == "inner" and len(joins[0].left_keys) == 1
    # the region predicate was pushed below the join
    filters = [n for n in walk_plan(plan) if isinstance(n, LogicalFilter)]
    assert any(isinstance(f.child, LogicalScan) for f in filters)


def test_optimizer_prunes_scan_columns(catalog):
    plan = sql_to_physical("select sum(price) as total from items", catalog)
    scan = [n for n in walk_plan(plan) if isinstance(n, LogicalScan)][0]
    assert [f.name for f in scan.fields] == ["items.price"]
    unpruned = sql_to_physical("select sum(price) as total from items", catalog,
                               optimized=False)
    unpruned_scan = [n for n in walk_plan(unpruned) if isinstance(n, LogicalScan)][0]
    assert len(unpruned_scan.fields) == 6


def test_optimizer_decorrelates_exists(catalog):
    plan = sql_to_physical(
        "select customer from orders where exists "
        "(select * from items where items.order_id = orders.order_id and price > 5)",
        catalog)
    joins = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)]
    assert joins and joins[0].kind == "semi"
    plan = sql_to_physical(
        "select customer from orders where not exists "
        "(select * from items where items.order_id = orders.order_id)", catalog)
    joins = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)]
    assert joins and joins[0].kind == "anti"


def test_optimizer_decorrelates_scalar_aggregate(catalog):
    plan = sql_to_physical(
        "select item_id from items i where price > "
        "(select avg(price) from items where items.order_id = i.order_id)",
        catalog)
    joins = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)]
    assert joins and joins[0].kind == "inner"
    aggregates = [n for n in walk_plan(plan) if isinstance(n, LogicalAggregate)]
    assert aggregates and aggregates[0].group_exprs, "subquery must become grouped"


def test_optimizer_keeps_uncorrelated_subqueries_as_expressions(catalog):
    plan = sql_to_physical(
        "select item_id from items where order_id in (select order_id from orders)",
        catalog)
    joins = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)]
    assert not joins  # evaluated at runtime via isin


def test_optimizer_explicit_join_keys_extracted(catalog):
    plan = sql_to_physical(
        "select customer from orders left outer join items "
        "on orders.order_id = items.order_id and price > 3", catalog)
    join = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)][0]
    assert join.kind == "left"
    assert len(join.left_keys) == 1
    assert join.residual is not None


# -- IR building -------------------------------------------------------------------


def _ir_joins(plan):
    """``(logical join, IR join)`` pairs, in the same pre-order."""
    logical = [n for n in walk_plan(plan) if isinstance(n, LogicalJoin)]
    built = [n for n in build_ir(plan).walk()
             if n.op in (ir.HASH_JOIN, ir.NESTED_LOOP_JOIN)]
    assert len(logical) == len(built)
    return list(zip(logical, built))


def test_build_ir_operator_choice(catalog):
    plan = sql_to_physical(
        "select customer, count(*) as n from items, orders "
        "where items.order_id = orders.order_id group by customer "
        "order by n desc limit 2", catalog)
    assert {ir.LIMIT, ir.SORT, ir.PROJECT, ir.HASH_AGGREGATE, ir.HASH_JOIN,
            ir.SCAN} <= set(build_ir(plan).op_counts())


def test_build_ir_join_rule(catalog):
    # A join with keys is a hash join; its residual rides beside the keys.
    (join, node), = _ir_joins(sql_to_physical(
        "select customer from orders left outer join items "
        "on orders.order_id = items.order_id and price > 3", catalog))
    assert node.op == ir.HASH_JOIN and node.attrs["kind"] == "left"
    assert node.attrs["left_keys"] == join.left_keys
    assert node.attrs["residual"] is join.residual is join.predicate
    assert join.residual is not None
    # A keyless join is a nested loop on its residual ...
    (join, node), = _ir_joins(sql_to_physical(
        "select customer, price from orders join items "
        "on orders.order_id < items.order_id", catalog))
    assert node.op == ir.NESTED_LOOP_JOIN and node.attrs["kind"] == "inner"
    assert join.condition is None
    assert node.attrs["condition"] is join.residual is join.predicate
    # ... or on its condition when nothing was split from it (unoptimized).
    (join, node), = _ir_joins(sql_to_physical(
        "select customer, price from orders join items "
        "on orders.order_id = items.order_id", catalog, optimized=False))
    assert node.op == ir.NESTED_LOOP_JOIN and join.residual is None
    assert node.attrs["condition"] is join.condition is join.predicate
    # A cross join is a nested loop with no predicate at all.
    (join, node), = _ir_joins(sql_to_physical(
        "select customer, price from orders cross join items", catalog))
    assert node.op == ir.NESTED_LOOP_JOIN
    assert node.attrs == {"kind": "cross", "condition": None}


def test_build_ir_schema_and_pretty(catalog):
    plan = sql_to_physical("select note, price from items where price > 3",
                           catalog)
    query_ir = build_ir(plan)
    assert query_ir.field_names() == plan.field_names() == ["note", "price"]
    assert query_ir.pretty().splitlines() == [
        "project(note, price)", "  filter", "    scan(items)"]
