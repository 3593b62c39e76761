"""Unit tests for ExecutionOptions and the session entry-point signatures."""

import ast
import dataclasses
import inspect
import pathlib
import re

import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.backends import BackendSpec, DeviceCostModel
from repro.bench import time_tqp
from repro.core.executor import Executor
from repro.core.planner import plan_ir
from repro.datasets import tpch
from repro.errors import ExecutionError
from repro.serve import ServingRuntime
from repro import tensor
from repro.tensor import passes
from repro.tensor.script import EXECUTOR_MODES

import numpy as np


@pytest.fixture
def session():
    s = TQPSession()
    s.register("t", DataFrame({"a": np.array([1.0, 2.0, 3.0])}))
    return s


def test_the_knob_set_is_pinned():
    """The ROADMAP rule "no item may add an ``ExecutionOptions`` field", as a
    test: growing any of these surfaces is a deliberate edit here, not a
    by-product of a feature."""
    assert [f.name for f in dataclasses.fields(ExecutionOptions)] == [
        "backend", "device", "parallelism", "auto_parameterize", "executor",
        "devices", "shard", "adaptive"]
    assert EXECUTOR_MODES == ("compiled", "interpret")
    assert [f.name for f in dataclasses.fields(BackendSpec)] == [
        "name", "strategy", "serialize", "optimize_graph"]

    def parameters(fn):
        return [name for name in inspect.signature(fn).parameters
                if name != "self"]

    assert parameters(TQPSession.__init__) == ["plan_cache_size",
                                               "default_options"]
    assert parameters(Executor.__init__) == ["plan", "models", "options"]
    assert parameters(ServingRuntime.__init__) == [
        "session", "workers", "max_queue_depth", "batch_window",
        "default_options", "default_timeout"]
    assert parameters(DeviceCostModel.report_time) == ["measured_s", "profile",
                                                       "lanes"]
    assert parameters(time_tqp) == ["session", "sql", "options", "runs",
                                    "warmup", "profile"]


def _src_modules():
    """``(path below src/, text, syntax tree, identifiers)`` per module."""
    src = pathlib.Path(inspect.getfile(Executor)).parents[2]
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        identifiers = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                identifiers.add(node.id)
            elif isinstance(node, ast.Attribute):
                identifiers.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)):
                identifiers.add(node.arg)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                identifiers.add(node.name)
        yield path.relative_to(src).as_posix(), text, tree, identifiers


def test_one_compressed_encoding_is_pinned():
    """Dictionary codes are the one compressed form, and operators read it:
    no run-length identifier and no decode-before-positional-access hook
    (``TensorColumn._positional``) is left for a scan to call."""
    gone = re.compile(r"(^|_)rle(_|$)|run_?length", re.IGNORECASE)
    for where, _, _, identifiers in _src_modules():
        left = sorted(name for name in identifiers - {None}
                      if gone.search(name) or name == "_positional")
        assert not left, f"{left} in {where}"


def test_one_generation_one_way_in_is_pinned():
    """Which generation of the session's state an execution sees, and who
    observes it, is decided in one place (``CompiledQuery.execute_many``):
    zone maps ride on their inputs instead of being threaded beside them, the
    snapshot is taken by session code only, executions are priced at one
    call site, and the serving runtime does not know adaptive execution
    exists."""
    price_calls, snapshot_callers = [], set()
    for where, text, tree, identifiers in _src_modules():
        for gone in ("scan_stats", "zone_maps"):
            assert gone not in text, f"{gone} in {where}"
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "price":
                price_calls.append(where)
            if name == "execution_state" \
                    and isinstance(node.func, ast.Attribute):
                snapshot_callers.add(where)
        if where == "repro/serve/runtime.py":
            assert "adaptive" not in identifiers
    assert price_calls == ["repro/core/session.py"]
    assert snapshot_callers == {"repro/core/session.py"}


def test_the_cold_path_converts_and_factorizes_in_one_place():
    """One converter call site (``encode_table``, which reads and fills the
    record's per-column memo, is the only caller of ``encode_column``), no
    sort of every row left in the string encoder, and no option added on the
    way: ``ExecutionOptions`` still has the 8 fields pinned above."""
    callers = set()
    for where, text, tree, _ in _src_modules():
        for scope in ast.walk(tree):
            if isinstance(scope, ast.FunctionDef):
                callers.update(
                    (where, scope.name) for node in ast.walk(scope)
                    if isinstance(node, ast.Call)
                    and getattr(node.func, "id",
                                getattr(node.func, "attr", None))
                    == "encode_column")
        if where == "repro/storage/encodings.py":
            assert "np.unique" not in text
    assert callers == {("repro/storage/encodings.py", "encode_table")}
    assert len(dataclasses.fields(ExecutionOptions)) == 8


def test_each_aggregate_is_written_once():
    """One state table, one combine per state column, one finalize: serial is
    the one-partition case, so the per-function copies of the serial / partial
    / merge drivers are gone, each extreme reduction is named at exactly one
    site, and DISTINCT groups through ``grouping.group_rows`` instead of
    factorizing on its own."""
    modules = {where: (tree, identifiers)
               for where, _, tree, identifiers in _src_modules()}
    tree, identifiers = modules["repro/core/operators/aggregate.py"]
    assert not identifiers & {"_aggregate_column", "_partial_columns",
                              "_merge_column", "_aggregate_table",
                              "_partial_table", "_merge_partials"}
    for reduction in ("scatter_min", "scatter_max"):
        sites = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == reduction]
        assert len(sites) == 1, reduction
    tree, identifiers = modules["repro/core/operators/misc.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not (identifiers | imported) & {"combine_ids", "factorize_single"}
    assert len(dataclasses.fields(ExecutionOptions)) == 8


def test_where_an_op_ran_is_one_stamp():
    """Operator scope and device shard are one thread-local stack of stamps
    with one context manager and one reader: the per-``Profiler`` scope list,
    the two lane / shard stacks and their per-field readers are gone from
    every layer, generated code included, and nothing aliases them."""
    gone = {"lane_scope", "shard_scope", "current_lane", "current_shard",
            "push_scope", "pop_scope", "_ScopeGuard", "_scopes", "ProfileScope",
            "_replay_scopes", "node_lane", "node_shard"}
    for where, text, tree, identifiers in _src_modules():
        assert not identifiers & gone, f"{identifiers & gone} in {where}"
        # Inside string literals too (what codegen writes into a profiled body).
        assert not [name for name in gone if name in text], where
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "scope"], where
        if where == "repro/tensor/profiler.py":
            # Two thread-local stacks: the active profilers, and the stamps.
            slots = {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and getattr(node.value, "id", None) == "_STATE"}
            assert slots == set(vars(tensor.profiler._STATE)) == {
                "stack", "stamps"}
    assert not hasattr(tensor.Profiler, "scope")
    assert {"stamped", "current_stamp"} <= set(tensor.__all__)
    assert len(dataclasses.fields(ExecutionOptions)) == 8


def test_key_ness_is_a_planned_fact_not_a_knob_or_a_host_read(tpch_tiny):
    """Which pair construction a hash join runs is a planner-set argument
    derived from statistics, printed by ``explain()`` (with the reason when no
    side is a key), selected by no option, and decided without reading a
    tensor on the host — in the join and in the derivation alike."""
    session, _ = tpch_tiny

    def key_sides(query_id):
        plan = session.compile(tpch.query(query_id, 0.002)).explain()
        return re.findall(r"key=([a-z-]+)", plan.split("== Operator plan ==")[1])

    assert key_sides(3) == ["left", "left"]
    assert key_sides(14) == ["right"]
    assert "not-unique" in key_sides(21)      # the lineitem self-joins
    modules = {where: tree for where, _, tree, _ in _src_modules()}
    for where, names in (
            ("repro/core/operators/join.py", {"_match_pairs"}),
            ("repro/core/planner.py",
             {"_unique_sets", "_join_keys", "_key_column"})):
        functions = [node for node in ast.walk(modules[where])
                     if isinstance(node, ast.FunctionDef) and node.name in names]
        assert {function.name for function in functions} == names
        for function in functions:
            calls = [node.func for node in ast.walk(function)
                     if isinstance(node, ast.Call)]
            assert not [call for call in calls
                        if getattr(call, "attr", None) in ("numpy", "item")
                        or getattr(call, "id", None) == "int"], function.name
    assert len(dataclasses.fields(ExecutionOptions)) == 8
    assert len(passes.DEFAULT_PASSES) == 7


def test_late_materialization_is_a_pass_not_a_knob(tpch_tiny):
    """Seven passes, the seventh unconditional: no option selects it, and no
    filter compaction survives it on Q1 / Q3 / Q6 (``torchscript-noopt`` skips
    it with every other pass)."""
    assert len(passes.DEFAULT_PASSES) == 7
    assert passes.late_materialization in passes.DEFAULT_PASSES
    assert len(dataclasses.fields(ExecutionOptions)) == 8
    session, _ = tpch_tiny
    for query_id in (1, 3, 6):
        compiled = session.compile(
            tpch.query(query_id, 0.002),
            options=ExecutionOptions(backend="torchscript-noopt"))
        raw = compiled.executor.compile_program(
            session.prepare_inputs(compiled.executor)).graph
        assert raw.op_counts().get("boolean_mask", 0) > 0
        counts = passes.optimize(raw.clone()).op_counts()
        assert "boolean_mask" not in counts and counts["nonzero"] > 0


def test_resolved_fills_session_defaults():
    defaults = ExecutionOptions(backend="torchscript", device="cuda",
                                parallelism=4, devices=2)
    options = ExecutionOptions().resolved(defaults)
    assert options.backend == "torchscript"
    assert options.device.kind == "cuda"
    assert options.parallelism == 4 and options.devices == 2
    assert not options.auto_parameterize


def test_resolved_without_defaults_is_eager_on_one_cpu_lane():
    options = ExecutionOptions().resolved()
    assert (options.backend, options.device.kind) == ("pytorch", "cpu")
    assert (options.parallelism, options.devices) == (1, 1)
    assert ExecutionOptions(parallelism=0).resolved().parallelism == 1


def test_resolved_keeps_explicit_fields():
    options = ExecutionOptions(backend="onnx", device="wasm", parallelism=2)
    resolved = options.resolved(ExecutionOptions(backend="pytorch",
                                                 device="cpu", parallelism=1))
    assert resolved.backend == "onnx"
    assert resolved.device.kind == "wasm"
    assert resolved.parallelism == 2


def test_cache_key_covers_the_compile_knobs():
    a = ExecutionOptions(backend="torchscript").resolved()
    b = a.replace(device="cuda")
    c = a.replace(parallelism=4)
    d = a.replace(executor="interpret")
    assert len({a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()}) == 4


def test_executor_mode_is_validated():
    for gone in ("jit", "auto"):
        with pytest.raises(ValueError):
            ExecutionOptions(executor=gone)
    assert ExecutionOptions(executor="interpret").executor == "interpret"
    assert ExecutionOptions().executor == "compiled"


def test_cache_bypass_and_encoding_mode_are_gone():
    """Every compile goes through the plan cache and every conversion follows
    one rule (low-NDV strings become dictionaries): neither is a knob, on the
    options or on the encoders, and neither has a slot in the cache key."""
    from repro.storage import encode_column, encode_table

    for field in ("use_cache", "encoding"):
        with pytest.raises(TypeError):
            ExecutionOptions(**{field: False})
        with pytest.raises(TypeError):
            ExecutionOptions().replace(**{field: "off"})
    with pytest.raises(ImportError):
        from repro.core.options import ENCODING_MODES  # noqa: F401
    for encoder in (encode_column, encode_table):
        assert "mode" not in inspect.signature(encoder).parameters
    assert ExecutionOptions().resolved().cache_key() == (
        "pytorch", "cpu", 1, "compiled", 1, "hash", False)


def test_the_frontend_hands_tqp_one_plan(session):
    """The optimized logical plan is what ``sql_to_physical`` returns, what
    the IR is built from and what the row engine runs: no physical-plan layer
    copies it, and the logical plan and the IR each have one expression
    reader (and one walker: ``walk_plan`` / ``IRNode.walk``)."""
    import importlib

    import repro.frontend
    from repro.frontend.logical import LogicalNode

    for gone in ("repro.frontend.physical", "repro.frontend.planner"):
        with pytest.raises(ImportError):
            importlib.import_module(gone)
    assert not hasattr(repro.frontend, "sql_to_logical")
    assert isinstance(session.compile("select sum(a) as s from t").physical_plan,
                      LogicalNode)
    readers = set()
    for where, _, tree, identifiers in _src_modules():
        assert not identifiers & {"to_physical", "walk_physical", "_walk",
                                  "PhysicalNode", "node_expressions_physical",
                                  "_physical_contains_params",
                                  "_plan_embedded_subqueries"}, where
        readers.update((where, node.name) for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)
                       and node.name.endswith("node_expressions"))
    assert readers == {("repro/frontend/logical.py", "node_expressions"),
                       ("repro/core/planner.py", "ir_node_expressions")}


def _expr_nodes(value):
    """Every expression node of a parsed statement, subqueries included."""
    from repro.frontend import ast as sql_ast

    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _expr_nodes(item)
    elif dataclasses.is_dataclass(value):
        if isinstance(value, sql_ast.Expr):
            yield value
        for field in dataclasses.fields(value):
            yield from _expr_nodes(getattr(value, field.name))


def test_sql_shorthands_are_lowered_by_the_parser():
    """BETWEEN, COALESCE and IN lists with a non-constant item leave the
    parser as comparisons, CASE and ``OR``: no engine or pruning matcher
    keeps its own copy of them (or of their NULL rules)."""
    from repro.core import expressions
    from repro.frontend import ast as sql_ast
    from repro.frontend import parse
    from repro.serve.simulator import build_shapes

    assert not hasattr(sql_ast, "Between")
    assert not hasattr(expressions, "_evaluate_coalesce")

    def constant(item):
        if isinstance(item, sql_ast.UnaryOp) and item.op == "-":
            item = item.operand
        return (isinstance(item, sql_ast.ParameterExpr)
                or isinstance(item, sql_ast.Literal) and item.value is not None)

    statements = [shape.sql for shape in build_shapes(0.01)] + [
        "select coalesce(a, b, 1) as c, coalesce(a) as d from t "
        "where a in (1, -2, :p) and b not in (a, null, 3) "
        "and a between b and 3 and b in (select coalesce(x, 0) from u)"]
    in_lists = 0
    for sql in statements:
        for node in _expr_nodes(parse(sql)):
            assert not (isinstance(node, sql_ast.FuncCall)
                        and node.name.lower() == "coalesce"), sql
            if isinstance(node, sql_ast.InList):
                in_lists += 1
                assert all(map(constant, node.items)), sql
    assert in_lists == 11  # TPC-H has 10, all constant; one above


def test_not_forms_extract_and_else_less_case_are_lowered_by_the_parser(
        session):
    """No expression node carries a ``negated`` flag, EXTRACT is a call of
    ``year`` / ``month`` / ``day``, every parsed CASE has an ELSE, and each
    engine keeps exactly one kernel per declared scalar function (no other
    name, and no argument of another type, passes the analyzer)."""
    from repro.baselines import rowengine
    from repro.core import expressions
    from repro.errors import AnalysisError
    from repro.frontend import ast as sql_ast
    from repro.frontend import parse
    from repro.frontend.functions import SCALAR_FUNCTIONS
    from repro.serve.simulator import build_shapes

    kinds = [value for value in vars(sql_ast).values()
             if isinstance(value, type) and issubclass(value, sql_ast.Expr)
             and value is not sql_ast.Expr]
    assert len(kinds) == 19
    assert [kind.__name__ for kind in kinds
            if "negated" in {f.name for f in dataclasses.fields(kind)}] == []
    assert not hasattr(sql_ast, "ExtractExpr")
    statements = [shape.sql for shape in build_shapes(0.01)] + [
        "select case when a > 1 then 1 end as c, coalesce(a, b, 2) as k, "
        "extract(year from d) from t where s not like 'x%' and a not in "
        "(select b from u) and b is not null and not exists (select 1 from u)"]
    cases = [node for sql in statements for node in _expr_nodes(parse(sql))
             if isinstance(node, sql_ast.CaseWhen)]
    assert len(cases) == 8  # 4 in TPC-H, 1 in PREDICT, 3 above (2 COALESCE)
    assert all(isinstance(case.else_value, sql_ast.Expr) for case in cases)
    assert set(SCALAR_FUNCTIONS) == set(expressions.SCALAR_KERNELS) \
        == set(rowengine.SCALAR_KERNELS)
    for name in ("floor", "ceil"):
        with pytest.raises(AnalysisError, match="unknown function"):
            session.compile(f"select {name}(a) from t")
    with pytest.raises(AnalysisError, match="year.. does not take float"):
        session.compile("select extract(year from a) from t")


def test_tpch_tables_come_from_the_generator_only():
    """There is no on-disk TPC-H cache: callers generate their tables, and
    ``.tbl`` files are only read and written on request."""
    import repro.datasets.tpch.io as tpch_io

    assert not hasattr(tpch, "cached_tables")
    assert "cached_tables" not in tpch.__all__
    for gone in ("cached_tables", "cache_directory", "CACHE_ENV",
                 "DEFAULT_CACHE_DIR"):
        assert not hasattr(tpch_io, gone), gone
    assert callable(tpch_io.save_tables) and callable(tpch_io.load_tables)


def test_legacy_kwargs_are_gone(session):
    # The PR-3 deprecation shim was removed: the old spellings now fail
    # loudly instead of warning.
    with pytest.raises(TypeError):
        session.compile("select sum(a) as s from t", **{"backend": "torchscript"})
    with pytest.raises(TypeError):
        session.sql("select sum(a) as s from t", **{"device": "cuda"})
    with pytest.raises(TypeError):
        session.prepare("select sum(a) as s from t", **{"parallelism": 2})
    # So is the thread-pool knob (nothing but two tests ever set it, and it
    # did nothing under a trace or a profiler).
    with pytest.raises(TypeError):
        TQPSession(**{"parallel_mode": "threads"})
    # The session's defaults are one options object; ``optimize`` went with
    # its last caller (ablations go through ``sql_to_physical(optimized=)``).
    for gone in ("default_backend", "default_device", "default_parallelism"):
        with pytest.raises(TypeError):
            TQPSession(**{gone: 1})
    with pytest.raises(TypeError):
        ExecutionOptions(**{"optimize": False})
    with pytest.raises(TypeError):
        plan_ir(session.compile("select sum(a) as s from t").ir,
                **{"use_threads": True})


def test_session_compile_accepts_options_object(session):
    compiled = session.compile("select sum(a) as s from t",
                               options=ExecutionOptions(backend="torchscript"))
    assert compiled.executor.backend.name == "torchscript"
    assert compiled.options.backend == "torchscript"
    assert compiled.run().to_dict() == {"s": [6.0]}


def test_equal_options_share_one_cache_entry(session):
    a = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript"))
    b = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript"))
    assert a is b


def test_executor_mode_splits_the_cache_entry(session):
    a = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript",
                                                 executor="interpret"))
    b = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript",
                                                 executor="compiled"))
    assert a is not b


def test_session_default_options():
    s = TQPSession(default_options=ExecutionOptions(backend="torchscript",
                                                    device="cuda",
                                                    parallelism=2))
    assert s.default_options.backend == "torchscript"
    assert s.default_options.device.kind == "cuda"
    assert s.default_options.parallelism == 2
    s.register("t", DataFrame({"a": np.array([1.0, 2.0, 3.0])}))
    # A passed object's ``None`` fields inherit; its explicit ones win.
    compiled = s.compile("select sum(a) as s from t",
                         options=ExecutionOptions(device="cpu"))
    assert compiled.options.backend == "torchscript"
    assert compiled.options.device.kind == "cpu"
    assert compiled.options.parallelism == 2
    bare = TQPSession().default_options
    assert (bare.backend, bare.device.kind, bare.parallelism) == (
        "pytorch", "cpu", 1)


def test_unknown_backend_still_rejected(session):
    with pytest.raises(ExecutionError):
        session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="nope"))


def test_lanes_are_a_model_not_a_plan_shape():
    """``lanes(n)`` is the planner's per-operator decision and the cost
    models' business only: nothing slices, dispatches, radix-partitions or
    merges per lane, no key numbering or pruning rule depends on lanes, and
    no knob sizes a morsel."""
    from repro.backends import base
    from repro.core import columnar, planner, tuning
    from repro.core.operators import grouping, join, partition, scan
    from repro.tensor import ops

    gone = {partition: ("slice_table", "_dispatched", "effective_morsel_rows",
                        "_MORSELS_PER_LANE"),
            join.HashJoinOperator: ("_radix_match_pairs",),
            ops: ("morsel_dispatch",),
            base: ("DISPATCH_OPS",),
            passes: ("_SIDE_EFFECT_OPS",),
            scan.ScanOperator: ("traced_dynamic_pruning",),
            columnar.TensorTable: ("morsels",)}
    for owner, names in gone.items():
        assert not [name for name in names if hasattr(owner, name)], owner
    assert "morsel_dispatch" not in ops.OP_REGISTRY
    for function, parameter in ((ops.join_ids, "dense"),
                                (grouping.factorize_pair, "dense"),
                                (planner.Planner, "morsel_rows"),
                                (plan_ir, "morsel_rows"),
                                (partition.input_of, "closed"),
                                (partition.lanes, "morsel_rows")):
        assert parameter not in inspect.signature(function).parameters, function
    assert len(dataclasses.fields(tuning.Tuning)) == 3
    assert len(dataclasses.fields(ExecutionOptions)) == 8
    assert len(passes.DEFAULT_PASSES) == 7


def test_adaptive_chooses_from_what_it_observed():
    """The adaptive runtime settles on observed times alone: no learned
    strategy cost model, no plan features, no knobs."""
    import importlib

    from repro import adaptive
    from repro.core import planner, tuning

    with pytest.raises(ImportError):
        importlib.import_module("repro.adaptive.cost_model")
    # The classes that owned ``training_data``, ``prune_factor`` and the
    # ``features`` field are gone too (see the pins below).
    gone = {adaptive: ("StrategyCostModel", "featurize", "FEATURE_NAMES",
                       "training_data", "prune_factor", "features"),
            planner.Planner: ("_plan_estimates",)}
    for owner, names in gone.items():
        assert not [name for name in names if hasattr(owner, name)], owner
    assert "estimates" not in {
        f.name for f in dataclasses.fields(planner.OperatorPlan)}
    assert len(dataclasses.fields(ExecutionOptions)) == 8
    assert len(dataclasses.fields(tuning.Tuning)) == 3
    assert len(passes.DEFAULT_PASSES) == 7


def test_adaptive_prices_its_candidates_instead_of_running_them():
    """One profile prices every candidate, so exploration, drift flushes,
    estimate correction and strategy-switch re-plans are gone: no
    ``filter_correction`` hook on the planner, no re-plan path that lends a
    traced program to another executor."""
    import importlib

    from repro import adaptive
    from repro.core import planner, session

    with pytest.raises(ImportError):
        importlib.import_module("repro.adaptive.estimates")
    for function in (planner.Planner, plan_ir):
        assert "filter_correction" not in inspect.signature(
            function).parameters, function
    gone = {adaptive: ("EstimateCorrector", "harvest_feedback",
                       "OperatorObservation", "MIN_OBSERVATIONS",
                       "DRIFT_FACTOR", "DRIFT_FLOOR_BYTES", "PRIOR_WEIGHT",
                       "min_observations", "_drifted", "wants_replan",
                       "plan_statement", "forget_statement",
                       "median_operator_bytes", "median_reported_s"),
            Executor: ("adopt_program",),
            session: ("_scope_order",)}
    for owner, names in gone.items():
        assert not [name for name in names if hasattr(owner, name)], owner
    assert len(dataclasses.fields(ExecutionOptions)) == 8


def test_adaptive_prices_the_run_it_just_made():
    """Each execution reports its own cheapest candidate, so nothing is
    stored between executions and nothing is chosen before one: no feedback
    store, no binding regions, no runtime object on the session, and the
    snapshot carries no strategy."""
    import importlib

    from repro import adaptive
    from repro.core import session

    for module in ("repro.adaptive.feedback", "repro.adaptive.planner"):
        with pytest.raises(ImportError):
            importlib.import_module(module)
    assert not [name for name in (
        "AdaptiveRuntime", "FeedbackStore", "ExecutionFeedback",
        "binding_region", "_bucket_value", "choose", "observe",
        "statement_key", "HISTORY", "MAX_STATEMENTS", "records", "dump")
        if hasattr(adaptive, name)]
    assert callable(adaptive.plan_candidates) and callable(adaptive.price)
    assert not hasattr(TQPSession(), "adaptive")
    assert list(inspect.signature(
        session.TQPSession.execution_state).parameters) == ["self", "compiled"]
    assert len(dataclasses.fields(ExecutionOptions)) == 8


def test_a_width_is_priced_not_planned(tpch_tiny, monkeypatch):
    """A lanes width prices one width-free plan: the planner takes no width,
    adaptive pricing calls no planner, the executor reads no lanes off its
    plan, no planned operator carries ``lanes(n)``, and a statement's
    serial, ``parallelism=4`` and adaptive entries are one planner walk."""
    from repro import adaptive
    from repro.core import planner
    from repro.core.operators import NONE

    assert "parallelism" not in inspect.signature(planner.Planner).parameters
    assert not hasattr(adaptive, "plan_ir")
    (tree,) = [tree for where, _, tree, _ in _src_modules()
               if where == "repro/core/executor.py"]
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "lanes"
                and getattr(node.value, "attr", None) == "plan"]

    _, tables = tpch_tiny
    session = TQPSession()
    for name, frame in tables.items():
        session.register(name, frame)
    walks, walk = [], planner.Planner.plan

    def counted_walk(self, root):
        walks.append(root)
        return walk(self, root)

    monkeypatch.setattr(planner.Planner, "plan", counted_walk)
    priced = 0
    for index, query_id in enumerate(tpch.ALL_QUERY_IDS, start=1):
        serial, spread, adaptive_entry = (
            session.compile(tpch.query(query_id, 0.002),
                            options=ExecutionOptions(**options))
            for options in ({}, {"parallelism": 4},
                            {"parallelism": 4, "adaptive": True}))
        assert len(walks) == index, query_id
        assert spread.executor is adaptive_entry.executor is serial.executor
        plan = spread.operator_plan
        operators = [op for root in [plan.root, *plan.subqueries.values()]
                     for op in root.walk()]
        assert not [op for op in operators for name in (
            "partitioning", "input_partitioning", "exchange")
            if getattr(op, name, NONE).kind == "lanes"]
        priced += bool(plan.lanes)
    # Priced on lanes where the rows clear the threshold at this scale.
    assert priced == 17
