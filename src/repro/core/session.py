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

Every execution — these, ``session.sql`` and the serving runtime's workers —
enters through one function, :meth:`CompiledQuery.execute_many`: it takes one
generation of the session's state (a registered table is one catalog record —
frame, statistics, version, converted inputs — and models are versioned the
same way, so a held handle re-plans after ``register()`` /
``register_model()``), runs the bindings, and prices them under the
statement's lanes map — adaptive ones under every strategy candidate
(:mod:`repro.adaptive`).  A width is only that map: a statement's serial,
``parallelism=N`` and adaptive entries share one plan and one executor.

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

from repro.adaptive import plan_candidates, price
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
from repro.core.planner import OperatorPlan, Planner
from repro.core.tuning import active_tuning
from repro.dataframe import DataFrame
from repro.errors import BatchBindingError, BindingError, ExecutionError
from repro.frontend import Catalog, sql_to_physical
from repro.frontend.physical import PhysicalNode
from repro.tensor import onnxlike


@dataclasses.dataclass
class CompiledQuery:
    """A query compiled down to an Executor, plus every intermediate artifact."""

    sql: str
    physical_plan: PhysicalNode
    ir: IRNode
    operator_plan: OperatorPlan
    executor: Executor
    session: "TQPSession"
    #: Versions of the scanned tables and referenced models at compile time;
    #: revalidated on every cache hit and every execution, so a re-registered
    #: table or model can never be served by a stale program.
    schema_fingerprint: Optional[tuple] = None
    #: The fully resolved options this query was compiled under.
    options: ExecutionOptions = dataclasses.field(default_factory=ExecutionOptions)
    #: Parameter-type hints the statement was compiled with (needed to
    #: re-plan faithfully when a held handle refreshes after a re-register).
    param_types: Optional[dict] = None
    #: Adaptive candidate the latest execution reported — the cheapest on
    #: its own profile (``auto`` before any) — whose plan is
    #: ``operator_plan`` (``None`` when compiled statically; see
    #: :mod:`repro.adaptive`).
    strategy: Optional[str] = None
    #: Every adaptive candidate's pricing of this generation's plan, in
    #: candidate order (empty when compiled statically).  They are one
    #: operator tree, so ``executor`` runs each of them.
    candidates: dict[str, OperatorPlan] = dataclasses.field(
        default_factory=dict)

    @property
    def params(self) -> list[ParameterSpec]:
        """Bind parameters of the compiled plan, in lexical order."""
        return list(self.executor.params)

    @property
    def model_names(self) -> frozenset[str]:
        """ML models referenced by ``PREDICT`` calls in this plan."""
        return self.operator_plan.model_names

    def _refresh_from(self, fresh: "CompiledQuery") -> None:
        """Adopt the current generation of this statement in place (a fresh
        compile, or the plan cache's current entry for it).

        Held handles (PreparedQuery, a serving runtime's statements) keep
        *this* object's identity; after a ``register()`` / ``register_model()``
        the session rebuilds the plan and swaps the artifacts here, under the
        session lock, so the handle follows the new generation instead of
        replaying a traced program whose baked-in shapes (including pruning
        decisions) and captured models describe state that no longer exists.
        """
        self.physical_plan = fresh.physical_plan
        self.ir = fresh.ir
        self.operator_plan = fresh.operator_plan
        self.executor = fresh.executor
        self.schema_fingerprint = fresh.schema_fingerprint
        self.strategy = fresh.strategy
        self.candidates = fresh.candidates

    def execute_many(self, bindings: "list[dict | BatchBindingError]",
                     profile: bool = False, on_error: str = "raise"
                     ) -> "list[ExecutionResult | BatchBindingError]":
        """The one way into execution: every binding of ``bindings`` runs
        against one generation of the session's state.

        :meth:`execute`, :class:`BoundQuery`, :class:`PreparedQuery`,
        ``session.sql`` and the serving workers all enter here.  The snapshot
        re-plans a stale handle first, and the bindings are re-validated
        against the snapshot's executor (a re-plan may have changed parameter
        types) with the typed errors of :meth:`Executor.execute_many`.

        Under ``ExecutionOptions(adaptive=True)`` every execution profiles,
        batched or not, and its profile prices every candidate: its
        ``reported_s`` is the cheapest price, and afterwards ``strategy`` /
        ``operator_plan`` name the cheapest candidate of the last execution.
        """
        adaptive = self.options.adaptive
        executor, inputs, plan, candidates = self.session.execution_state(self)
        outcomes = executor.execute_many(
            inputs, bindings, profile=profile or adaptive, on_error=on_error,
            lanes=plan.lanes)
        cheapest = None
        for outcome in outcomes:
            if adaptive and isinstance(outcome, ExecutionResult):
                # Outside the session lock, so workers price concurrently.
                prices = price(candidates, outcome, executor.cost_model)
                cheapest = min(prices, key=prices.__getitem__)
                outcome.reported_s = prices[cheapest]
        if cheapest is not None:
            with self.session._lock:
                # A concurrent ``register()`` may have refreshed this handle:
                # one generation's choice never lands on another's plans.
                if self.candidates is candidates:
                    self.strategy = cheapest
                    self.operator_plan = candidates[cheapest]
        return outcomes

    def execute(self, profile: bool = False,
                params: Optional[dict] = None) -> ExecutionResult:
        """Run the query once; ``params`` binds the statement's parameters
        (a bad binding raises a plain :class:`~repro.errors.BindingError`).
        The one-binding case of :meth:`execute_many`."""
        try:
            return self.execute_many([params or {}], profile=profile)[0]
        except BatchBindingError as exc:
            raise exc.cause from None

    def run(self, params: Optional[dict] = None) -> DataFrame:
        """Execute and return the result as a DataFrame."""
        return self.execute(params=params).to_dataframe()

    def explain(self) -> str:
        """Human-readable physical plan / IR / operator plan."""
        sections = [
            "== Physical plan ==", self.physical_plan.pretty(),
            "== TQP IR ==", self.ir.pretty(),
            "== Operator plan ==", self.operator_plan.pretty(),
        ]
        if self.params:
            sections += ["== Parameters ==",
                         "\n".join(str(spec) for spec in self.params)]
        return "\n\n".join(sections)

    def executor_graph(self, params: Optional[dict] = None):
        """Traced tensor graph of the query (Figure-4 style artifact)."""
        executor, inputs, _, _ = self.session.execution_state(self)
        return executor.executor_graph(inputs, params=params)

    def export_onnx(self, path: str, params: Optional[dict] = None) -> None:
        """Export the traced query to the ONNX-like portable format."""
        onnxlike.save(self.executor_graph(params), path)


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

    def __init__(self, compiled: CompiledQuery):
        self.compiled = compiled

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
        return self.compiled.execute_many(batches, on_error=on_error)

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
        #: One record per registered table: frame, schema, statistics,
        #: version and that generation's converted inputs.
        self.catalog = Catalog()
        #: name → ``(version, compiled model)``; versioned like tables.
        self._models: dict[str, tuple[int, Callable]] = {}
        #: Compiled-plan LRU: repeated queries skip parse→optimize→plan→trace.
        self.plan_cache = PlanCache(capacity=plan_cache_size)
        #: Guards the mutable session state (catalog records, models) against
        #: concurrent serving workers.  Re-entrant so locked entry points may
        #: call each other.
        #: Lock ordering is session lock → plan-cache lock, never the
        #: reverse: ``_plan_is_current`` runs under the cache lock and must
        #: therefore stay lock-free (its dict reads are GIL-atomic), and
        #: code holding the session lock never waits on a cache builder.
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
            # One new record: frame, statistics and version change together,
            # and the old generation's converted inputs go with its record.
            self.catalog.register(name, frame)
            key = name.lower()
            # Traced programs bake data-dependent sizes in: drop every cached
            # plan that scans the table (held handles notice by its version).
            self.plan_cache.remove_if(
                lambda q: any(scan.table.lower() == key
                              for scan in q.operator_plan.scans))

    def register_model(self, name: str, model) -> None:
        """Register an ML model for use with ``PREDICT('name', cols...)``.

        ``model`` may be a fitted model from :mod:`repro.ml.models` (it is
        compiled to a tensor function via the Hummingbird-like compiler) or an
        already-compiled callable ``f(args, num_rows) -> ExprValue``.

        Re-registering a model invalidates only the plans whose ``PREDICT``
        calls actually reference it — cached ones are dropped, held handles
        re-plan on their next execution — while plans over other models (or
        none) stay warm.
        """
        from repro.ml import compile_model

        if callable(model) and not hasattr(model, "predict_tensor"):
            compiled_model = model
        else:
            compiled_model = compile_model(model)
        with self._lock:
            self._models[name] = (self._model_version(name) + 1, compiled_model)
            # Compiled executors captured the model table at compile time;
            # drop exactly the plans that embed this model.
            self.plan_cache.remove_if(
                lambda q: name in q.operator_plan.model_names)

    def _model_version(self, name: str) -> int:
        return self._models.get(name, (0, None))[0]

    def table_names(self) -> list[str]:
        return self.catalog.table_names()

    def dataframe(self, name: str) -> DataFrame:
        return self.catalog.dataframe(name)

    # -- compilation -------------------------------------------------------------

    def _fingerprint(self, operator_plan: OperatorPlan) -> tuple:
        """Current versions of the tables a plan scans and the models it calls.

        Every data, schema or model change goes through :meth:`register` /
        :meth:`register_model`, which hand out a new version, so comparing
        this fingerprint guarantees a stale compiled plan is never served.
        """
        tables = {scan.table.lower() for scan in operator_plan.scans}
        return (tuple((table, self.catalog.version(table)) for table in tables),
                tuple((model, self._model_version(model))
                      for model in operator_plan.model_names))

    def _plan_is_current(self, compiled: CompiledQuery) -> bool:
        tables, models = compiled.schema_fingerprint
        return (all(self.catalog.version(table) == version
                    for table, version in tables)
                and all(self._model_version(model) == version
                        for model, version in models))

    def _resolve_options(self, options: Optional[ExecutionOptions]
                         ) -> ExecutionOptions:
        # A call without an options object inherits the session's
        # default_options wholesale (including auto_parameterize); a passed
        # object fully specifies its non-``None`` fields, while its ``None``
        # fields still inherit.
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
        return self.plan_cache.get_or_create(
            self._cache_key(sql, resolved, param_types),
            lambda: self._compile_uncached(sql, resolved, param_types),
            validate=self._plan_is_current)

    @staticmethod
    def _cache_key(sql: str, resolved: ExecutionOptions,
                   param_types: Optional[dict]) -> tuple:
        """Parameterized text, options, hints and the thread's tuning."""
        hint_key = tuple(sorted(
            (name, ltype.value) for name, ltype in (param_types or {}).items()))
        return (normalize_sql(sql), resolved.cache_key(), hint_key,
                active_tuning())

    def _current_entry(self, sql: str, resolved: ExecutionOptions,
                       param_types: Optional[dict],
                       into: Optional[CompiledQuery] = None) -> CompiledQuery:
        """The plan cache's current entry for a statement (``into``, a stale
        handle, adopts it), else a fresh compile, which enters the cache —
        as ``into``, refreshed, when given.  Runs under the session lock, so
        only ``get`` / ``put``: a ``get_or_create`` could wait on a builder
        that waits on this lock."""
        key = self._cache_key(sql, resolved, param_types)
        entry = self.plan_cache.get(key, validate=self._plan_is_current)
        fresh = entry is None
        if fresh:
            entry = self._compile_uncached(sql, resolved, param_types)
        if into is not None:
            into._refresh_from(entry)
            entry = into
        if fresh:
            self.plan_cache.put(key, entry)
        return entry

    def _compile_uncached(self, sql: str, resolved: ExecutionOptions,
                          param_types: Optional[dict]) -> CompiledQuery:
        """Run the full parse→analyze→optimize→plan pipeline — for width-free
        options only: a width or ``adaptive=True`` shares the width-free
        entry's artifacts and executor and adds its own lanes map(s).

        Holds the session lock throughout so the catalog, table statistics
        and model table the plan captures all describe one generation of the
        session state, even while another thread is re-registering a table.
        """
        with self._lock:
            if resolved.parallelism > 1 or resolved.adaptive:
                entry = self._current_entry(sql, resolved.replace(
                    parallelism=1, adaptive=False), param_types)
                plan, width = entry.operator_plan, resolved.parallelism
                threshold = active_tuning().parallel_threshold_rows
                candidates = (plan_candidates(plan, width, threshold)
                              if resolved.adaptive else {})
                return dataclasses.replace(
                    entry, options=resolved, candidates=candidates,
                    strategy=next(iter(candidates), None),
                    operator_plan=(candidates.get("auto")
                                   or plan.priced(width, threshold)))
            physical = sql_to_physical(sql, self.catalog,
                                       param_types=param_types)
            query_ir = ir_optimizer.optimize_ir(ir_builder.build_ir(physical))
            names = self.catalog.table_names()
            operator_plan = Planner(
                table_rows={name: self.catalog.dataframe(name).num_rows
                            for name in names},
                table_stats={name: self.catalog.statistics(name)
                             for name in names},
                devices=resolved.devices, shard_mode=resolved.shard,
            ).plan(query_ir)
            executor = Executor(
                operator_plan, options=resolved,
                models={name: model
                        for name, (_, model) in self._models.items()})
            return CompiledQuery(
                sql=sql, physical_plan=physical, ir=query_ir,
                operator_plan=operator_plan, executor=executor,
                session=self, options=resolved, param_types=param_types,
                schema_fingerprint=self._fingerprint(operator_plan))

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
        return PreparedQuery(compiled)

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

    def execution_state(self, compiled: CompiledQuery
                        ) -> tuple[Executor, dict[str, TensorTable],
                                   OperatorPlan, dict[str, OperatorPlan]]:
        """Per-execution snapshot of one generation: ``(executor, inputs,
        operator plan, candidates)``.

        All four are resolved under one hold of the session lock, and the
        inputs carry the zone maps they were converted beside, so a
        concurrent ``register()`` either precedes the whole snapshot or
        follows it.

        A handle whose compile-time generation went stale (a table or model it
        uses was re-registered; its cache entry is purged, but long-lived
        handles keep their object) is refreshed in place here, from the plan
        cache's current entry or a fresh compile (:meth:`_current_entry`).
        """
        with self._lock:
            if not self._plan_is_current(compiled):
                self._current_entry(compiled.sql, compiled.options,
                                    compiled.param_types, into=compiled)
            executor = compiled.executor
            return (executor, self.prepare_inputs(executor),
                    compiled.operator_plan, compiled.candidates)

    def prepare_inputs(self, executor: Executor) -> dict[str, TensorTable]:
        """Convert registered DataFrames into tensor tables for an executor.

        Low-cardinality string columns become dictionary codes, every other
        column a plain tensor (see :mod:`repro.storage.encodings`).  The
        table's record keeps each column converted once and each scan's input
        (:func:`repro.core.executor.convert_scan_input`) per ``(fields, shard
        placement)``: a repeated execution is one lookup per scan, and a
        ``register()`` of new data starts from an empty record, so a
        long-lived :class:`CompiledQuery` can never be served stale converted
        columns.
        """
        with self._lock:
            inputs: dict[str, TensorTable] = {}
            for scan in executor.plan.scans:
                record = self.catalog.record(scan.table)
                # A scan is planned ``none`` or ``shards``: its placement.
                key = (tuple(f.name for f in scan.fields), scan.partitioning)
                if key not in record.converted:
                    record.converted[key] = convert_scan_input(scan, record)
                inputs[scan.alias] = record.converted[key]
            return inputs
