"""Per-layer timing from outside: spans around each layer's public calls.

``probe_operation`` takes one statement down the cold path the way
``TQPSession.sql`` does — compile, convert inputs, first execute,
materialize — one span per layer.  ``probe_children`` then calls the
children of those layers directly: the three functions ``_compile_uncached``
chains, a second ``compile`` / ``prepare_inputs`` for the cache-hit cost, and
trace → passes → codegen on a ``torchscript-noopt`` / ``interpret`` twin of
the statement so each step can be timed on its own.

``kernel_split`` reads the existing ``execute(profile=True)`` event stream
and groups kernel time into the families ROADMAP item 3 targets.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Optional

from common import median
from spans import Tracer

#: Kernel families of ``tensor/ops.py`` (by profile-event op name).
KERNEL_FAMILIES = {
    "unique": "key_densify", "searchsorted": "key_densify",
    "argsort": "key_densify",
    "all": "like", "sliding_window": "like",
    "fused_kernel": "fused_kernel",
    "take": "take",
}

#: Spans that make up one cold operation; together they should cover it.
COLD_OPERATION_SPANS = ("session.compile_miss", "convert.cold",
                        "executor.first_execute", "materialize.to_dataframe")


@dataclasses.dataclass(frozen=True)
class Statement:
    """One statement of a workload: text, options, and its reference rows."""

    name: str
    sql: str
    options: object
    #: Key of the reference rows this statement's result must equal.
    reference: str
    #: ``execute(profile=True)`` (the profiled variant of ``tpch_strategies``).
    profile: bool = False
    #: Binding used when a parameterized shape is probed or profiled.
    params: Optional[dict] = None


@dataclasses.dataclass
class ProbeCounts:
    """Counts taken at the layer boundaries of one probe sweep."""

    tensor_bytes: int = 0
    nodes_traced: int = 0
    nodes_optimized: int = 0
    source_lines: int = 0
    fallbacks: int = 0


def _table_bytes(inputs: dict) -> int:
    """Bytes of the converted input tensors (data plus encoding parts)."""
    tables = []
    for table in inputs.values():
        tables.extend(getattr(table, "shards", [table]))
    total = 0
    for table in tables:
        for _, column in table.columns():
            total += column.tensor.data.nbytes
            if column.encoding is not None:
                total += sum(tensor.data.nbytes
                             for _, tensor in column.encoding.parts())
    return total


def probe_operation(session, statement: Statement, tracer: Tracer,
                    counts: ProbeCounts):
    """One cold operation on ``session`` under spans, split the way
    ``TQPSession.sql`` chains it.

    Returns ``(compiled, frame)``: the now-warm compiled query and the
    materialized result of its first execution.
    """
    with tracer.span("operation", operation=statement.name):
        with tracer.span("session.compile_miss"):
            compiled = session.compile(statement.sql,
                                       options=statement.options)
        with tracer.span("convert.cold"):
            inputs = session.prepare_inputs(compiled.executor)
        with tracer.span("executor.first_execute"):
            result = compiled.executor.execute(inputs,
                                               params=statement.params)
        with tracer.span("materialize.to_dataframe"):
            frame = result.to_dataframe()
    if result.executor_mode == "interpreted":
        counts.fallbacks += 1
    counts.tensor_bytes += _table_bytes(inputs)
    return compiled, frame


def probe_children(session, statement: Statement, compiled, tracer: Tracer,
                   counts: ProbeCounts) -> None:
    """The children of the cold operation's layers, each called directly.

    Run after every operation of the sweep, not between them, so the
    operations see the same caches an untraced sweep does.
    """
    from repro.core import ir_builder, ir_optimizer
    from repro.core.planner import plan_ir
    from repro.errors import CodegenError
    from repro.frontend import sql_to_physical
    from repro.tensor import codegen, passes

    options, params = statement.options, statement.params
    with tracer.span("session.compile_hit", operation=statement.name):
        session.compile(statement.sql, options=options)
    with tracer.span("convert.warm", operation=statement.name):
        session.prepare_inputs(compiled.executor)

    # The children of compile_miss, called with the session's catalog and
    # statistics.
    names = session.table_names()
    with tracer.span("frontend.sql_to_physical", operation=statement.name):
        physical = sql_to_physical(statement.sql, session.catalog)
    with tracer.span("ir.build_optimize", operation=statement.name):
        query_ir = ir_optimizer.optimize_ir(ir_builder.build_ir(physical))
    resolved = compiled.options
    with tracer.span("planner.plan_ir", operation=statement.name):
        plan_ir(query_ir, parallelism=resolved.parallelism,
                table_rows={n: session.dataframe(n).num_rows for n in names},
                table_stats={n: session.catalog.statistics(n) for n in names},
                devices=resolved.devices, shard_mode=resolved.shard)

    # The children of first_execute, on a twin whose executor neither runs
    # the graph passes nor generates code, so each step is a separate call.
    twin = session.compile(statement.sql, options=options.replace(
        backend="torchscript-noopt", executor="interpret"))
    twin_inputs = session.prepare_inputs(twin.executor)
    with tracer.span("tensor.trace", operation=statement.name):
        program = twin.executor.compile_program(twin_inputs, params=params)
    counts.nodes_traced += program.num_nodes
    with tracer.span("tensor.passes", operation=statement.name):
        graph = passes.optimize(program.graph)
    counts.nodes_optimized += len(graph.nodes)
    with tracer.span("tensor.codegen", operation=statement.name):
        try:
            generated = codegen.compile_graph(graph)
        except CodegenError:
            generated = None
    if generated is not None:
        counts.source_lines += generated.source.count("\n") + 1


def register_all(session, data, tracer: Optional[Tracer] = None) -> None:
    """Register the tables and the model, one ``session.register`` span each."""
    for name, frame in data.frames.items():
        if tracer is None:
            session.register(name, frame)
        else:
            with tracer.span("session.register", operation=name):
                session.register(name, frame)
    if data.model is not None:
        session.register_model("sentiment_classifier", data.model)


def probe_metrics(tracer: Tracer, since: int, counts: ProbeCounts,
                  plan_cache_stats: dict) -> dict:
    """The generic per-layer metrics of one probe sweep (times in ms)."""
    totals = tracer.totals(since)
    metrics = {f"{name}_ms": totals.get(name, 0.0) * 1e3 for name in (
        "session.register", "session.compile_miss", "session.compile_hit",
        "frontend.sql_to_physical", "ir.build_optimize", "planner.plan_ir",
        "convert.cold", "convert.warm", "executor.first_execute",
        "tensor.trace", "tensor.passes", "tensor.codegen",
        "materialize.to_dataframe")}
    metrics.update({
        "plan_cache.hits": plan_cache_stats["hits"],
        "plan_cache.misses": plan_cache_stats["misses"],
        "convert.tensor_bytes": counts.tensor_bytes,
        "graph.nodes_traced": counts.nodes_traced,
        "graph.nodes_optimized": counts.nodes_optimized,
        "codegen.source_lines": counts.source_lines,
        "codegen.fallbacks": counts.fallbacks,
    })
    return metrics


def kernel_split(compiled_statements, repeats: int = 3) -> dict:
    """Kernel-family times per sweep from ``execute(profile=True)`` events.

    Each statement is executed ``repeats`` times profiled and unprofiled,
    interleaved; the run with the median profiled wall time supplies the
    events.  Returns the ``ops.*`` metrics, ``replay.dispatch_ms`` (profiled
    wall minus the sum of its kernel events) and ``profile.overhead_share``
    (profiled over unprofiled wall, minus one).
    """
    family_s = {family: 0.0 for family in
                ("key_densify", "like", "fused_kernel", "take", "other")}
    events = output_bytes = 0
    profiled_s = plain_s = kernel_s = 0.0
    for statement, compiled in compiled_statements:
        runs, plain = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            result = compiled.execute(profile=True, params=statement.params)
            runs.append((time.perf_counter() - start, result))
            start = time.perf_counter()
            compiled.execute(params=statement.params)
            plain.append(time.perf_counter() - start)
        runs.sort(key=lambda pair: pair[0])
        wall, result = runs[len(runs) // 2]
        profiled_s += wall
        plain_s += median(plain)
        for event in result.profile.events:
            family_s[KERNEL_FAMILIES.get(event.op, "other")] += event.elapsed_s
            kernel_s += event.elapsed_s
            output_bytes += event.output_bytes
        events += len(result.profile.events)
    metrics = {f"ops.{family}_ms": seconds * 1e3
               for family, seconds in family_s.items()}
    metrics.update({
        "ops.kernel_events": events,
        "ops.output_bytes": output_bytes,
        "replay.dispatch_ms": (profiled_s - kernel_s) * 1e3,
        "profile.overhead_share": profiled_s / plain_s - 1.0,
    })
    return metrics
