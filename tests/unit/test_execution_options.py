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
from repro.core.options import ENCODING_MODES
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
        "backend", "device", "use_cache", "parallelism", "auto_parameterize",
        "encoding", "executor", "devices", "shard", "adaptive"]
    assert EXECUTOR_MODES == ("compiled", "interpret")
    assert ENCODING_MODES == ("auto", "off")
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
    snapshot is taken by session code only, feedback is recorded at one call
    site, and the serving runtime does not know adaptive execution exists."""
    observe_calls, snapshot_callers = [], set()
    for where, text, tree, identifiers in _src_modules():
        for gone in ("scan_stats", "zone_maps"):
            assert gone not in text, f"{gone} in {where}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner = node.func.value
                owner_name = getattr(owner, "attr", getattr(owner, "id", None))
                if node.func.attr == "observe" and owner_name == "adaptive":
                    observe_calls.append(where)
                if node.func.attr == "execution_state":
                    snapshot_callers.add(where)
        if where == "repro/serve/runtime.py":
            assert "adaptive" not in identifiers
    assert observe_calls == ["repro/core/session.py"]
    assert snapshot_callers == {"repro/core/session.py"}


def test_the_cold_path_converts_and_factorizes_in_one_place():
    """One converter call site (``encode_table``, which reads and fills the
    record's per-column memo, is the only caller of ``encode_column``), no
    sort of every row left in the string encoder, and no option added on the
    way: ``ExecutionOptions`` still has the 10 fields pinned above."""
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
    assert len(dataclasses.fields(ExecutionOptions)) == 10


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
    assert len(dataclasses.fields(ExecutionOptions)) == 10


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
    assert len(dataclasses.fields(ExecutionOptions)) == 10


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
    assert len(dataclasses.fields(ExecutionOptions)) == 10
    assert len(passes.DEFAULT_PASSES) == 7


def test_late_materialization_is_a_pass_not_a_knob(tpch_tiny):
    """Seven passes, the seventh unconditional: no option selects it, and no
    filter compaction survives it on Q1 / Q3 / Q6 (``torchscript-noopt`` skips
    it with every other pass)."""
    assert len(passes.DEFAULT_PASSES) == 7
    assert passes.late_materialization in passes.DEFAULT_PASSES
    assert len(dataclasses.fields(ExecutionOptions)) == 10
    session, _ = tpch_tiny
    for query_id in (1, 3, 6):
        compiled = session.compile(
            tpch.query(query_id, 0.002),
            options=ExecutionOptions(backend="torchscript-noopt", use_cache=False))
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
    assert options.use_cache
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
    b = a.replace(encoding="off")
    c = a.replace(parallelism=4)
    d = a.replace(executor="interpret")
    assert len({a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()}) == 4


def test_executor_mode_is_validated():
    for gone in ("jit", "auto"):
        with pytest.raises(ValueError):
            ExecutionOptions(executor=gone)
    assert ExecutionOptions(executor="interpret").executor == "interpret"
    assert ExecutionOptions().executor == "compiled"


def test_encoding_mode_is_validated_at_construction():
    # Not at the first conversion: the two deleted modes fail where they are
    # written, as does a typo.
    for gone in ("rle", "dictionary", "bogus"):
        with pytest.raises(ValueError, match="auto"):
            ExecutionOptions(encoding=gone)
        with pytest.raises(ValueError):
            ExecutionOptions().replace(encoding=gone)
    assert ExecutionOptions().encoding == "auto"
    assert ExecutionOptions(encoding="off").encoding == "off"


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
    # its last caller (ablations go through ``sql_to_logical(optimized=)``).
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
    assert len(dataclasses.fields(ExecutionOptions)) == 10
    assert len(passes.DEFAULT_PASSES) == 7


def test_adaptive_chooses_from_what_it_observed():
    """The adaptive runtime settles on observed times alone: no learned
    strategy cost model, no plan features, no knobs."""
    import importlib

    from repro import adaptive
    from repro.adaptive.feedback import ExecutionFeedback, FeedbackStore
    from repro.adaptive.planner import AdaptiveRuntime
    from repro.core import planner, tuning

    with pytest.raises(ImportError):
        importlib.import_module("repro.adaptive.cost_model")
    gone = {adaptive: ("StrategyCostModel", "featurize", "FEATURE_NAMES"),
            planner.Planner: ("_plan_estimates",),
            FeedbackStore: ("training_data",),
            AdaptiveRuntime: ("prune_factor",)}
    for owner, names in gone.items():
        assert not [name for name in names if hasattr(owner, name)], owner
    for cls, field in ((planner.OperatorPlan, "estimates"),
                       (ExecutionFeedback, "features")):
        assert field not in {f.name for f in dataclasses.fields(cls)}, cls
    assert len(inspect.signature(AdaptiveRuntime).parameters) == 0
    assert len(dataclasses.fields(ExecutionOptions)) == 10
    assert len(dataclasses.fields(tuning.Tuning)) == 3
    assert len(passes.DEFAULT_PASSES) == 7
