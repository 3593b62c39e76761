"""Unit tests for the IR, the IR builder, and the IR optimizer rules."""

import numpy as np
import pytest

from repro import DataFrame
from repro.core import ir
from repro.core.ir_builder import build_ir
from repro.core.ir_optimizer import (
    fuse_filters,
    optimize_ir,
    remove_identity_projects,
    remove_identity_renames,
)
from repro.frontend import Catalog, sql_to_physical


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
    from repro.frontend import ast

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
