"""Public API: the TQP session, prepared statements, and execution options.

The session exposes the paper's compile-to-tensors pipeline behind a
**prepared-statement** API shaped for serving traffic: a query is compiled
(parse → analyze → optimize → plan → trace) **once**, and every execution
after that only binds new parameter values to the already-traced program.

Typical use::

    from repro import TQPSession, ExecutionOptions
    from repro.datasets import tpch

    session = TQPSession()
    for name, frame in tpch.generate_tables(scale_factor=0.01).items():
        session.register(name, frame)

    # Compile once ...
    query = session.prepare(
        "select sum(l_extendedprice * l_discount) as revenue "
        "from lineitem where l_quantity < :q",
        options=ExecutionOptions(backend="torchscript", device="cpu"),
    )
    # ... bind many: each execution feeds the values as runtime tensor
    # inputs to the same traced program — no re-compilation, ever.
    for q in range(1, 25):
        print(query.bind(q=q).run())

A serving loop batches bindings through :meth:`PreparedQuery.execute_many`::

    results = query.execute_many([{"q": q} for q in range(1, 25)])

All knobs (backend, device, plan cache, parallelism, auto-parameterization,
executor) live on one :class:`ExecutionOptions` object, and a session's
defaults are one such object (``TQPSession(default_options=...)``).  On the
graph backends the traced graph is lowered to generated code
(:mod:`repro.tensor.codegen`), so a serving loop executes one compiled
function per request instead of walking the graph node by node;
``ExecutionOptions(executor="interpret")`` replays through the reference
graph interpreter instead, with identical results and profiles.  Ad-hoc
``session.sql(...)`` calls can opt into **auto-parameterization** (``ExecutionOptions(auto_parameterize=True)``),
which lifts literals out of the text so that queries differing only in
constants share one plan-cache entry.  ``session.plan_cache.stats()`` exposes
hit/miss/invalidation counters for monitoring cache behaviour in a serving
deployment.

Switching hardware or software backend remains a one-line change
(``device="cuda"``, ``backend="onnx"``), as in Figure 3 of the paper.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Iterable, Optional, Sequence

from repro.adaptive.planner import AdaptiveRuntime
from repro.backends import BACKENDS
from repro.core import ir_builder, ir_optimizer
from repro.core.columnar import TensorTable
from repro.core.executor import ExecutionResult, Executor, convert_scan_input
from repro.core.ir import IRNode
from repro.core.options import ExecutionOptions
from repro.core.parameters import (
    ParameterSpec,
    auto_parameterize,
    positional_binding,
)
from repro.core.plan_cache import PlanCache, normalize_sql
from repro.core.planner import OperatorPlan, plan_ir
from repro.dataframe import DataFrame
from repro.errors import (
    BatchBindingError,
    BindingError,
    CatalogError,
    ExecutionError,
)
from repro.frontend import Catalog, sql_to_physical
from repro.frontend.physical import PhysicalNode


@dataclasses.dataclass
class CompiledQuery:
    """A query compiled down to an Executor, plus every intermediate artifact."""

    sql: str
    physical_plan: PhysicalNode
    ir: IRNode
    operator_plan: OperatorPlan
    executor: Executor
    session: "TQPSession"
    #: ``(table, version)`` pairs of the scanned tables at compile time; the
    #: plan cache revalidates this on every hit so a re-registered table can
    #: never be served a stale traced program.
    schema_fingerprint: Optional[tuple] = None
    #: The fully resolved options this query was compiled under.
    options: ExecutionOptions = dataclasses.field(default_factory=ExecutionOptions)
    #: Parameter-type hints the statement was compiled with (needed to
    #: re-plan faithfully when a held handle refreshes after a re-register).
    param_types: Optional[dict] = None
    #: Adaptive strategy this plan was built under (``None`` when compiled
    #: statically; see :mod:`repro.adaptive`).
    strategy: Optional[str] = None

    @property
    def params(self) -> list[ParameterSpec]:
        """Bind parameters of the compiled plan, in lexical order."""
        return list(self.executor.params)

    @property
    def model_names(self) -> frozenset[str]:
        """ML models referenced by ``PREDICT`` calls in this plan."""
        return self.operator_plan.model_names

    def _refresh_from(self, fresh: "CompiledQuery") -> None:
        """Adopt a freshly compiled generation of this statement in place.

        Held handles (PreparedQuery, a serving runtime's statements) keep
        *this* object's identity; after a ``register()`` of new data the
        session rebuilds the plan and swaps the artifacts here, under the
        session lock, so the handle transparently follows the new table
        generation instead of replaying a traced program whose baked-in
        shapes (including pruning decisions) describe data that no longer
        exists.
        """
        self.physical_plan = fresh.physical_plan
        self.ir = fresh.ir
        self.operator_plan = fresh.operator_plan
        self.executor = fresh.executor
        self.schema_fingerprint = fresh.schema_fingerprint
        self.strategy = fresh.strategy

    def execute(self, profile: bool = False,
                params: Optional[dict] = None) -> ExecutionResult:
        """Run the query against the session's registered tables.

        ``params`` binds the statement's parameters (validated with typed
        :class:`~repro.errors.BindingError`\\ s); re-executions with new
        bindings reuse the traced program.

        Under ``ExecutionOptions(adaptive=True)`` every execution profiles
        (the feedback the runtime learns from) and feeds its observations
        back to ``session.adaptive`` afterwards.
        """
        adaptive = self.options.adaptive
        executor, inputs, stats = self.session.execution_state(self, params)
        # The strategy this snapshot runs under; read before executing so a
        # concurrent re-plan can't misattribute the observation.
        strategy = self.strategy
        result = executor.execute(inputs, profile=profile or adaptive,
                                  params=params, scan_stats=stats)
        if adaptive:
            self.session.adaptive.observe(
                self, params, result, strategy=strategy,
                plan_signature=executor.plan.root.pretty())
        return result

    def run(self, params: Optional[dict] = None) -> DataFrame:
        """Execute and return the result as a DataFrame."""
        return self.execute(params=params).to_dataframe()

    def explain(self) -> str:
        """Human-readable physical plan / IR / operator plan."""
        sections = [
            "== Physical plan ==", self.physical_plan.pretty(),
            "== TQP IR ==", self.ir.pretty(),
            "== Operator plan ==", self.operator_plan.root.pretty(),
        ]
        if self.params:
            sections += ["== Parameters ==",
                         "\n".join(str(spec) for spec in self.params)]
        return "\n\n".join(sections)

    def executor_graph(self, params: Optional[dict] = None):
        """Traced tensor graph of the query (Figure-4 style artifact)."""
        executor, inputs, _ = self.session.execution_state(self)
        return executor.executor_graph(inputs, params=params)

    def export_onnx(self, path: str, params: Optional[dict] = None) -> None:
        executor, inputs, _ = self.session.execution_state(self)
        executor.export_onnx(inputs, path, params=params)


class BoundQuery:
    """A prepared query plus one validated parameter binding."""

    def __init__(self, prepared: "PreparedQuery", values: dict[str, Any]):
        self.prepared = prepared
        #: Normalized values, validated at bind time.
        self.values = values

    def execute(self, profile: bool = False) -> ExecutionResult:
        return self.prepared.compiled.execute(profile=profile, params=self.values)

    def run(self) -> DataFrame:
        return self.execute().to_dataframe()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BoundQuery({self.values})"


class PreparedQuery:
    """Compile-once / bind-many handle returned by :meth:`TQPSession.prepare`.

    The underlying :class:`CompiledQuery` lives in the session plan cache, so
    preparing the same statement twice shares one compiled artifact, and the
    first traced execution is reused by every subsequent binding.
    """

    def __init__(self, compiled: CompiledQuery, session: "TQPSession"):
        self.compiled = compiled
        self.session = session

    @property
    def parameters(self) -> list[ParameterSpec]:
        """The statement's parameters (name, inferred type, position)."""
        return self.compiled.params

    def bind(self, *args: Any, **kwargs: Any) -> BoundQuery:
        """Bind parameter values; validation happens here, with typed errors.

        Positional arguments bind ``?`` markers in order; keyword arguments
        bind ``:name`` markers.  Raises
        :class:`~repro.errors.BindingError` for missing, unknown or ill-typed
        values.
        """
        if args and kwargs:
            raise BindingError(
                "bind either positionally (for '?' markers) or by name "
                "(for ':name' markers), not both"
            )
        values = positional_binding(self.parameters, args) if args else dict(kwargs)
        normalized = self.compiled.executor.bind(values)
        return BoundQuery(self, normalized)

    def execute(self, *args: Any, **kwargs: Any) -> ExecutionResult:
        """Bind and execute in one call."""
        return self.bind(*args, **kwargs).execute()

    def run(self, *args: Any, **kwargs: Any) -> DataFrame:
        """Bind, execute, and return the result as a DataFrame."""
        return self.bind(*args, **kwargs).run()

    def execute_many(self, param_batches: Iterable[dict | Sequence[Any]],
                     on_error: str = "raise") -> list[ExecutionResult]:
        """Serving-loop entry point: execute one binding after another.

        Each batch item is either a dict (named parameters) or a sequence
        (positional ``?`` parameters).  The traced program is compiled at
        most once across the whole loop, the table inputs are converted and
        flattened once, and each binding then costs one call of the cached
        program (on the ``compiled`` executor, one generated-function call).

        All bindings are validated up front.  A bad one raises a typed
        :class:`~repro.errors.BatchBindingError` carrying the request index
        before any query runs (``on_error="raise"``), or — with
        ``on_error="collect"`` — fails only its own slot (the error object
        takes the failed request's place in the result list) while every
        other binding still executes.
        """
        params = self.parameters
        batches: list = []
        for index, batch in enumerate(param_batches):
            if isinstance(batch, dict):
                batches.append(dict(batch))
                continue
            try:
                batches.append(positional_binding(params, tuple(batch)))
            except BindingError as exc:
                # Attribute the failure to its request index; the executor
                # raises or collects it according to ``on_error``.
                batches.append(BatchBindingError(index, exc))
        executor, inputs, stats = self.session.execution_state(self.compiled)
        return executor.execute_many(inputs, batches, on_error=on_error,
                                     scan_stats=stats)

    def explain(self) -> str:
        return self.compiled.explain()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        names = ", ".join(f":{spec.name}" for spec in self.parameters)
        return f"PreparedQuery([{names}])"


class TQPSession:
    """Entry point: register data and models, compile SQL, execute on backends."""

    def __init__(self, plan_cache_size: int = 64,
                 default_options: Optional[ExecutionOptions] = None):
        #: Session-level defaults for per-query ``ExecutionOptions``, fully
        #: resolved (``pytorch`` on ``cpu``, one lane, one device where the
        #: caller named nothing).
        self.default_options = (default_options or ExecutionOptions()).resolved()
        if self.default_options.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.default_options.backend!r}")
        self.catalog = Catalog()
        self._dataframes: dict[str, DataFrame] = {}
        self._models: dict[str, Callable] = {}
        self._conversion_cache: dict[tuple, TensorTable] = {}
        #: Compiled-plan LRU: repeated queries skip parse→optimize→plan→trace.
        self.plan_cache = PlanCache(capacity=plan_cache_size)
        #: Feedback loop behind ``ExecutionOptions(adaptive=True)``: observes
        #: executions, corrects estimates, and re-plans cached statements when
        #: a different strategy looks better (``self.adaptive.feedback.dump()``
        #: exposes the collected observations).
        self.adaptive = AdaptiveRuntime()
        self._table_versions: dict[str, int] = {}
        #: Guards the mutable session state (catalog, dataframes, models,
        #: conversion cache, table versions) against concurrent serving
        #: workers.  Re-entrant so locked entry points may call each other.
        #: Lock ordering is session lock → plan-cache lock, never the
        #: reverse: ``_plan_is_current`` runs under the cache lock and must
        #: therefore stay lock-free (its dict reads are GIL-atomic).
        self._lock = threading.RLock()

    # -- data & model registration ------------------------------------------

    def register(self, name: str, frame: DataFrame) -> None:
        """Register a DataFrame as a queryable table.

        Safe to call while other threads are serving queries: in-flight
        executions keep the snapshot they took at admission (see
        :meth:`execution_state`), and every later execution sees the new
        data, never a mix of generations.
        """
        with self._lock:
            self.catalog.register(name, frame)
            key = name.lower()
            self._dataframes[key] = frame
            stale = [k for k in self._conversion_cache if k[0] == key]
            for k in stale:
                del self._conversion_cache[k]
            # Traced programs bake data-dependent sizes in, so (re)registering
            # a table must drop every cached plan that scans it; bumping the
            # table version also changes the schema fingerprint (and the
            # conversion cache key) for future lookups.
            self._table_versions[key] = self._table_versions.get(key, 0) + 1
            self.plan_cache.remove_if(
                lambda q: any(scan.table.lower() == key
                              for scan in q.operator_plan.scans))

    def register_model(self, name: str, model) -> None:
        """Register an ML model for use with ``PREDICT('name', cols...)``.

        ``model`` may be a fitted model from :mod:`repro.ml.models` (it is
        compiled to a tensor function via the Hummingbird-like compiler) or an
        already-compiled callable ``f(args, num_rows) -> ExprValue``.

        Re-registering a model invalidates only the cached plans whose
        ``PREDICT`` calls actually reference it — plans over other models (or
        none) stay warm.
        """
        from repro.ml import compile_model

        if callable(model) and not hasattr(model, "predict_tensor"):
            compiled_model = model
        else:
            compiled_model = compile_model(model)
        with self._lock:
            self._models[name] = compiled_model
            # Compiled executors captured the model table at compile time;
            # drop exactly the plans that embed this model.
            self.plan_cache.remove_if(
                lambda q: name in q.operator_plan.model_names)

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def dataframe(self, name: str) -> DataFrame:
        with self._lock:
            key = name.lower()
            if key not in self._dataframes:
                raise CatalogError(f"unknown table: {name!r}")
            return self._dataframes[key]

    # -- compilation -------------------------------------------------------------

    def _scan_fingerprint(self, operator_plan: OperatorPlan) -> tuple:
        """Schema fingerprint of a plan: the scanned tables' current versions.

        Every schema or data change goes through :meth:`register`, which bumps
        the table's version, so comparing this fingerprint at cache-hit time
        guarantees a stale compiled plan can never be served.
        """
        return tuple(sorted({
            (scan.table.lower(), self._table_versions.get(scan.table.lower(), 0))
            for scan in operator_plan.scans
        }))

    def _plan_is_current(self, compiled: CompiledQuery) -> bool:
        return (compiled.schema_fingerprint
                == self._scan_fingerprint(compiled.operator_plan))

    def _resolve_options(self, options: Optional[ExecutionOptions]
                         ) -> ExecutionOptions:
        # A call without an options object inherits the session's
        # default_options wholesale (including use_cache /
        # auto_parameterize); a passed object fully specifies those
        # fields, while its ``None`` fields still inherit.
        base = options if options is not None else self.default_options
        resolved = base.resolved(self.default_options)
        if resolved.backend not in BACKENDS:
            raise ExecutionError(f"unknown backend {resolved.backend!r}")
        return resolved

    def compile(self, sql: str, options: Optional[ExecutionOptions] = None,
                param_types: Optional[dict] = None) -> CompiledQuery:
        """Compile a SQL query down to an Executor.

        Args:
            sql: the query text (Spark-SQL-style, plus the PREDICT extension).
                May contain ``:name`` or ``?`` bind-parameter markers; the
                compiled plan then expects values at execution time.
            options: all compile/execute knobs in one
                :class:`ExecutionOptions`.  Unset fields inherit the
                session's ``default_options``.
            param_types: optional logical-type hints for parameters, by name
                (used by auto-parameterization; explicit markers are typed
                from their comparison context by the analyzer).

        The session plan cache is keyed on the *parameterized shape* of the
        statement — normalized SQL with markers, plus the options — so one
        cache entry serves every binding.  A hit returns the *same*
        :class:`CompiledQuery` and skips parse→optimize→plan→trace.
        Concurrent misses on one cold statement are single-flighted
        (:meth:`PlanCache.get_or_create`): the first caller compiles, the
        rest wait and share the entry.
        """
        resolved = self._resolve_options(options)
        if resolved.use_cache:
            hint_key = tuple(sorted(
                (name, ltype.value) for name, ltype in (param_types or {}).items()))
            cache_key = (normalize_sql(sql), resolved.cache_key(), hint_key)
            return self.plan_cache.get_or_create(
                cache_key,
                lambda: self._compile_uncached(sql, resolved, param_types),
                validate=self._plan_is_current)
        return self._compile_uncached(sql, resolved, param_types)

    def _compile_uncached(self, sql: str, resolved: ExecutionOptions,
                          param_types: Optional[dict]) -> CompiledQuery:
        """Run the full parse→analyze→optimize→plan pipeline.

        Holds the session lock throughout so the catalog, table statistics
        and model table the plan captures all describe one generation of the
        session state, even while another thread is re-registering a table.
        """
        with self._lock:
            physical = sql_to_physical(sql, self.catalog,
                                       param_types=param_types)
            query_ir = ir_optimizer.optimize_ir(ir_builder.build_ir(physical))
            plan_kwargs = dict(
                table_rows={name: frame.num_rows
                            for name, frame in self._dataframes.items()},
                table_stats={name: self.catalog.statistics(name)
                             for name in self._dataframes},
                devices=resolved.devices, shard_mode=resolved.shard)
            strategy = None
            if resolved.adaptive:
                # The runtime plans every strategy candidate and returns the
                # preferred one; the executor runs under the strategy's lane
                # count while the statement keeps ``resolved`` as its cache
                # identity (so re-plans land on the same cache entry).
                operator_plan, exec_options, strategy = \
                    self.adaptive.plan_statement(
                        sql, query_ir, resolved, plan_kwargs)
            else:
                operator_plan = plan_ir(
                    query_ir, parallelism=resolved.parallelism, **plan_kwargs)
                exec_options = resolved
            executor = Executor(operator_plan, models=dict(self._models),
                                options=exec_options,
                                scan_stats=self.scan_statistics(operator_plan))
            return CompiledQuery(
                sql=sql, physical_plan=physical, ir=query_ir,
                operator_plan=operator_plan, executor=executor,
                session=self, options=resolved, param_types=param_types,
                strategy=strategy,
                schema_fingerprint=self._scan_fingerprint(operator_plan))

    def prepare(self, sql: str, options: Optional[ExecutionOptions] = None,
                param_types: Optional[dict] = None) -> PreparedQuery:
        """Compile a parameterized statement for repeated execution.

        ``sql`` may use ``:name`` or ``?`` markers.  The returned
        :class:`PreparedQuery` exposes ``bind(...).execute()``,
        ``run(...)`` and the serving-loop ``execute_many(...)``; all bindings
        share one compiled (and, on the graph backends, one *traced*)
        artifact.
        """
        compiled = self.compile(sql, options=options, param_types=param_types)
        return PreparedQuery(compiled, self)

    def sql(self, sql: str, options: Optional[ExecutionOptions] = None,
            params: Optional[dict] = None) -> DataFrame:
        """Compile and execute in one call, returning a DataFrame.

        With ``params``, the text may contain ``:name`` markers.  With
        ``ExecutionOptions(auto_parameterize=True)`` literals are lifted out
        of the text first, so repeated calls that differ only in constants
        share one compiled plan (their results still match literal
        execution exactly).
        """
        resolved = self._resolve_options(options)
        if params:
            return self.compile(sql, options=resolved).run(params=params)
        if resolved.auto_parameterize:
            lifted = auto_parameterize(sql)
            if lifted is not None:
                compiled = self.compile(lifted.sql, options=resolved,
                                        param_types=lifted.types)
                return compiled.run(params=lifted.values)
        return self.compile(sql, options=resolved).run()

    # -- input preparation (data conversion phase) ----------------------------------

    def execution_state(self, compiled: CompiledQuery,
                        params: Optional[dict] = None
                        ) -> tuple[Executor, dict[str, TensorTable], dict]:
        """Atomic per-execution snapshot: ``(executor, inputs, zone maps)``.

        All three are resolved under one hold of the session lock, so a
        concurrent ``register()`` can never hand an in-flight request
        mixed-generation state — new columns pruned against old zone maps, a
        traced program whose baked-in pruning shapes describe the old data,
        or any other cross-generation pairing.  Either the whole snapshot
        predates the re-registration or the whole snapshot follows it.

        When the handle's compile-time generation went stale (its cache
        entry was already purged by :meth:`register`, but long-lived handles
        keep their object), the statement is re-planned here and the handle
        refreshed in place, so every held PreparedQuery keeps serving
        current data.

        Adaptive statements re-plan through the same path when the runtime's
        preferred strategy for this binding region differs from the compiled
        one (new observations, a region switch, or a drift flush).
        """
        with self._lock:
            replan = not self._plan_is_current(compiled)
            if compiled.options.adaptive:
                # Always consulted (lock order session → runtime): it also
                # records the binding region a triggered re-plan compiles for.
                replan = self.adaptive.wants_replan(compiled, params) or replan
            if replan:
                compiled._refresh_from(self._compile_uncached(
                    compiled.sql, compiled.options, compiled.param_types))
            executor = compiled.executor
            return (executor, self.prepare_inputs(executor),
                    self.scan_statistics(executor.plan))

    def scan_statistics(self, plan: OperatorPlan) -> dict[str, "object"]:
        """Storage statistics (zone maps) per scan alias of a plan.

        Handed to the :class:`Executor` so scans can prune morsel-aligned
        blocks; the statistics always describe the current table version
        (registration recomputes them), matching the inputs
        :meth:`prepare_inputs` serves for the same plan.
        """
        with self._lock:
            stats = {}
            for scan in plan.scans:
                table_stats = self.catalog.statistics(scan.table)
                if table_stats is not None:
                    stats[scan.alias] = table_stats
            return stats

    def prepare_inputs(self, executor: Executor) -> dict[str, TensorTable]:
        """Convert registered DataFrames into tensor tables for an executor.

        Columns are stored under the executor's encoding configuration
        (``ExecutionOptions.encoding``): low-cardinality strings become
        dictionary codes, sorted numerics run-length runs (see
        :mod:`repro.storage.encodings`).  Conversions
        (:func:`repro.core.executor.convert_scan_input`) are cached per
        ``(table, columns, table version, encoding mode, shard placement)`` so
        repeated
        executions — benchmark iterations, serving loops — only pay the
        encoding cost once, while a ``register()`` of new data under the same
        name (or a different encoding configuration) can never serve stale
        converted columns to a long-lived :class:`CompiledQuery`.
        """
        with self._lock:
            encoding_mode = executor.options.encoding
            inputs: dict[str, TensorTable] = {}
            for scan in executor.plan.scans:
                table_key = scan.table.lower()
                if table_key not in self._dataframes:
                    raise CatalogError(f"no registered table named {scan.table!r}")
                # The table name must stay the key's first element: register()
                # purges stale conversions by matching ``key[0]``.  Only a
                # sharded scan's partitioning shapes the converted table.
                placement = (scan.partitioning
                             if scan.partitioning.kind == "shards" else None)
                cache_key = (table_key, tuple(f.name for f in scan.fields),
                             self._table_versions.get(table_key, 0),
                             encoding_mode, placement)
                if cache_key not in self._conversion_cache:
                    self._conversion_cache[cache_key] = convert_scan_input(
                        scan, self._dataframes[table_key], encoding_mode,
                        self.catalog.statistics(table_key))
                inputs[scan.alias] = self._conversion_cache[cache_key]
            return inputs
