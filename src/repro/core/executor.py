"""Execution layer: operator plan → Executor for a backend/device (paper §2.2, layer 4).

The Executor is the runnable artifact TQP produces for a query:

* on the ``pytorch`` backend it dispatches the operator plan eagerly, op by op;
* on the ``torchscript`` backend the whole query (relational operators,
  expressions, runtime subqueries and any embedded ML models) is traced into a
  single tensor graph, optimized, lowered to generated code and replayed;
* on the ``onnx`` backend the traced graph is additionally round-tripped
  through the ONNX-like portable format — the path used for browser/WASM
  execution.

Either way there is one program and one per-binding loop
(:meth:`Executor._replay`): ``execute(p)`` is ``execute_many([p])[0]``.  An
executor is ``(plan, models, options)`` of a width-free plan; the data arrives
in the ``inputs`` (:func:`convert_scan_input`), and the lanes widths a run is
priced under with the run (``lanes``).

On a graph backend the first execution traces, and the tracing run computes
every kernel on the full data.  When that execution is unprofiled, carries
one binding and runs under ``executor="compiled"``, its result *is* the
trace's (``executor_mode="traced"``): lowering the graph to generated code
waits for the statement's second execution, so a statement that runs once
never pays for code it would not replay.

Devices: results are always computed with real kernels; the CPU reports
measured wall time while the simulated ``cuda`` / ``wasm`` devices report time
from their documented cost models (see ``repro.backends``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import threading
import time
from typing import Callable, NamedTuple, Optional

from repro.backends import BackendSpec, get_backend, get_device_model
from repro.core.columnar import LogicalType, TensorColumn, TensorTable
from repro.core.expressions import EvaluationContext, ExprValue
from repro.core.operators import ExecutionContext
from repro.core.options import ExecutionOptions
from repro.core.parameters import (
    ParameterSpec,
    make_binder,
    param_array_converter,
)
from repro.core.planner import OperatorPlan
from repro.dataframe import DataFrame
from repro.distributed.sharding import ShardedTable, shard_table
from repro.errors import (
    BatchBindingError,
    BindingError,
    CodegenError,
    ExecutionError,
)
from repro.tensor import (
    Graph,
    Profiler,
    ScriptedProgram,
    Tensor,
    codegen,
    onnxlike,
    passes,
    tracing,
)
from repro.tensor.device import CPU, Device


@dataclasses.dataclass
class ExecutionResult:
    """Result of one query execution."""

    table: TensorTable
    #: Wall clock of the run: the plan's eager run, one call of the program,
    #: or — for a ``traced`` result — the tracing run (passes and the
    #: unsupported-op check that follow it are outside).
    measured_s: float
    reported_s: float
    backend: str
    device: str
    profile: Optional[Profiler] = None
    #: Zone-map pruning outcome per scan alias (blocks skipped/total) of
    #: *this* execution; empty when no scan pruned.  On the graph backends
    #: the counters describe the tracing run, captured with the program (a
    #: replay does not re-execute the operators).
    pruning: dict = dataclasses.field(default_factory=dict)
    #: How the query ran: ``eager`` (pytorch backend), ``traced`` (the
    #: tracing run of a graph backend's first execution, unprofiled and with
    #: one binding), ``compiled`` (generated code) or ``interpreted``
    #: (``executor="interpret"``).
    executor_mode: str = "eager"

    def to_dataframe(self) -> DataFrame:
        return self.table.to_dataframe()


def convert_scan_input(scan, record):
    """Assemble (and, for a sharded scan, place) the table one scan reads.

    Only the columns the scan needs are converted, once per column per
    generation: ``encode_table`` keeps them on ``record`` (the catalog's, of
    the scanned table), so every scan shares them (one copy of a numeric
    column; strings and dates pay an encoding pass).  The record's statistics
    lend their NDV counts to the dictionary decision and ride on the converted
    table: the scan prunes against the zone maps of exactly the rows it
    reads.  A scan partitioned into ``shards`` gets its table placed across
    the devices here: sharding is load-time placement, not query work, so it
    happens outside any trace or profiler and the traced program receives
    each shard's columns as separate named inputs.
    """
    from repro.storage.encodings import encode_table

    table = TensorTable(encode_table(record, scan.fields), record.statistics)
    scheme = scan.partitioning
    if scheme.kind == "shards":
        return shard_table(table, scheme.n, scheme.placement)
    return table


class _Program(NamedTuple):
    """Everything one trace produced, published by a single assignment.

    Unlocked readers take ``Executor._program`` once and use only that
    record, so they can never pair one trace's program with another's layouts.
    A trace publishes the record unlowered (``scripted`` and ``serve`` are
    ``None``); the first execution that replays lowers it and publishes the
    lowered record in its place.
    """

    #: The optimized graph; once lowered, the one ``scripted`` replays
    #: (round-tripped through the portable format on ``onnx``).
    graph: Graph
    #: ``(alias, column, part)`` per flat table input, in program order.
    input_layout: list
    #: ``(name, logical type, has validity)`` per result column.
    output_layout: list
    #: Pruning outcome of the tracing run (a replay does not re-run the scans).
    pruning: dict
    #: The replayable program; ``None`` until lowered.
    scripted: Optional[ScriptedProgram] = None
    #: Unprofiled entry on the executor's device, raw arrays in and tensors
    #: out (``None`` until lowered, and under ``executor="interpret"``).
    serve: Optional[Callable] = None

    def table(self, outputs: list[Tensor]) -> TensorTable:
        """The result table of the program's flat outputs."""
        columns: dict[str, TensorColumn] = {}
        cursor = 0
        for name, ltype, has_valid in self.output_layout:
            valid = outputs[cursor + 1] if has_valid else None
            columns[name] = TensorColumn(outputs[cursor], ltype, valid)
            cursor += 2 if has_valid else 1
        return TensorTable(columns)


#: What an unprofiled execution enters in place of a :class:`Profiler`.
_UNPROFILED = contextlib.nullcontext()


class Executor:
    """Runs an operator plan on the backend and device its options name.

    Plans with bind parameters (see ``plan.params``) take a ``params`` mapping
    on every :meth:`execute`; on the graph backends those values are fed to
    the already-traced program as runtime inputs — re-binding never re-traces.
    """

    def __init__(self, plan: OperatorPlan,
                 models: Optional[dict[str, Callable]] = None,
                 options: Optional[ExecutionOptions] = None):
        self.plan = plan
        #: Fully resolved.  The plan already embeds the shard choice; the
        #: options say where and how it runs.
        self.options = (options or ExecutionOptions()).resolved()
        self.backend: BackendSpec = get_backend(self.options.backend)
        self.device: Device = self.options.device
        if self.device.kind == "wasm" and self.backend.name != "onnx":
            raise ExecutionError(
                "the wasm device requires the 'onnx' backend (browser execution "
                "goes through the portable graph format)"
            )
        self.models = models or {}
        #: ``ExecutionResult.executor_mode`` of everything this executor runs
        #: but a first execution's tracing run (``traced``).
        self.executor_mode = (
            "eager" if self.backend.strategy == "eager"
            else "compiled" if self.options.executor == "compiled"
            else "interpreted")
        #: Bind parameters of the plan, in lexical order.
        self.params: list[ParameterSpec] = list(getattr(plan, "params", []) or [])
        self._binder = make_binder(self.params)
        self._array_converters = [(spec.name, param_array_converter(spec))
                                  for spec in self.params]
        self.cost_model = get_device_model(self.device)
        #: Number of trace-compilations performed; the plan-cache benchmarks
        #: read this to prove cache hits skip the trace entirely.
        self.compile_count = 0
        self._program: Optional[_Program] = None
        # Serializes trace compilation: concurrent first executions of a
        # shared plan must produce exactly one traced program.
        self._compile_lock = threading.Lock()

    # -- execution ------------------------------------------------------------

    def bind(self, params: Optional[dict] = None) -> dict:
        """Validate and normalize a parameter binding for this plan.

        Raises :class:`~repro.errors.BindingError` for missing, unknown or
        ill-typed values (see ``repro.core.parameters.bind_parameters``).
        """
        return self._binder(params or {})

    def _param_arrays(self, bound: dict) -> list:
        """The raw scalar arrays of a normalized binding, in parameter order
        (what the generated serving function takes)."""
        return [convert(bound[name]) for name, convert in self._array_converters]

    def _param_tensors(self, bound: dict) -> list[Tensor]:
        """The same scalars as tensors, created on the CPU: the program (or
        the execution context) moves them to the target device alongside the
        table inputs, so the transfer is accounted by the cost models."""
        return [Tensor(array, CPU) for array in self._param_arrays(bound)]

    def execute(self, inputs: dict[str, TensorTable], profile: bool = False,
                params: Optional[dict] = None) -> ExecutionResult:
        """Run the query over prepared inputs; the result is priced serially.

        ``params`` binds the plan's parameters (validated up front with typed
        errors); on the graph backends the values are runtime inputs of the
        traced program, so executing with a new binding never re-traces.

        This is the one-binding case of :meth:`execute_many`.
        """
        return self._replay(inputs, [self.bind(params)], profile, None)[0]

    def execute_many(self, inputs: dict[str, TensorTable],
                     param_batches: "list[dict]",
                     profile: bool = False,
                     on_error: str = "raise",
                     lanes: Optional[dict[str, int]] = None
                     ) -> "list[ExecutionResult | BatchBindingError]":
        """Serving loop: run many parameter bindings over one input set.

        All bindings are validated up front, then each one runs against the
        one program (:meth:`_replay`): the table inputs are flattened once,
        and each binding costs one parameter conversion plus one call.
        ``lanes`` (``OperatorPlan.lanes``; ``None``: serial) prices each run.

        A bad binding raises a typed :class:`~repro.errors.BatchBindingError`
        naming the request index (``on_error="raise"``, nothing executes), or
        — under ``on_error="collect"``, the serving runtime's mode — fails
        only that request: its result slot holds the error object while every
        other binding still executes.
        """
        slots = self._bind_batch(param_batches, on_error)
        valid = [index for index, bound in enumerate(slots)
                 if not isinstance(bound, BatchBindingError)]
        if valid:
            results = self._replay(inputs, [slots[index] for index in valid],
                                   profile, lanes)
            for index, result in zip(valid, results):
                slots[index] = result
        return slots

    def _replay(self, inputs: dict[str, TensorTable], bindings: "list[dict]",
                profile: bool, lanes: Optional[dict]) -> list[ExecutionResult]:
        """One result per normalized binding: the only place a plan runs.

        What a run *is* — the eager plan, or the traced program over inputs
        flattened once — is decided before the loop; the loop only binds,
        times and reports.  ``measured_s`` is the wall clock around the run,
        ``reported_s`` what the device's cost model makes of it (and of the
        profile, which simulated devices always collect) under ``lanes``.

        The one exception: the unprofiled, one-binding execution that traces
        the program under ``executor="compiled"`` returns the tracing run's
        result, and the program stays unlowered until the next execution.
        """
        want_profile = profile or self.device.is_simulated
        backend, device = self.backend.name, str(self.device)
        if self.backend.strategy == "eager":
            def run(bound: dict) -> tuple[TensorTable, dict]:
                return self._run_eager(inputs, bound)
        else:
            # Trace before entering any profiled region: the eager tracing
            # run dispatches every op once, and folding those events into a
            # run's profile would make the simulated devices charge each
            # kernel and transfer twice on a one-shot execution.
            program, traced = self._ensure_program(
                inputs, bindings[0], keep_trace=(
                    not want_profile and len(bindings) == 1
                    and self.options.executor == "compiled"))
            if traced is not None:
                table, measured = traced
                return [ExecutionResult(
                    table=table, measured_s=measured,
                    reported_s=self.cost_model.report_time(
                        measured, None, lanes),
                    backend=backend, device=device,
                    pruning=program.pruning, executor_mode="traced")]
            run = self._program_run(program, inputs, want_profile)
        mode = self.executor_mode
        report_time, perf_counter = self.cost_model.report_time, time.perf_counter
        results: list[ExecutionResult] = []
        for bound in bindings:
            profiler = (Profiler(name=f"{backend}-{device}")
                        if want_profile else None)
            with profiler if want_profile else _UNPROFILED:
                start = perf_counter()
                table, pruning = run(bound)
                measured = perf_counter() - start
            results.append(ExecutionResult(
                table=table, measured_s=measured,
                reported_s=report_time(measured, profiler, lanes),
                backend=backend,
                device=device, profile=profiler, pruning=pruning,
                executor_mode=mode))
        return results

    # -- eager (PyTorch-like) path ----------------------------------------------

    def _execution_context(self, inputs: dict[str, TensorTable],
                           param_tensors: "list[Tensor] | tuple[Tensor, ...]"
                           ) -> ExecutionContext:
        """The plan's view of one run: tables and parameter scalars (concrete,
        or symbolic under a trace) on the executor's device."""
        moved = {alias: table.to(self.device) for alias, table in inputs.items()}
        params = {
            spec.name: ExprValue(
                tensor if tensor.device == self.device
                else tensor.to(self.device), spec.ltype, True)
            for spec, tensor in zip(self.params, param_tensors)}
        ctx = ExecutionContext(moved, device=self.device)
        ctx.eval_ctx = EvaluationContext(
            device=self.device,
            subquery_runner=lambda subplan: self.plan.subqueries[
                subplan].execute(ctx),
            models=self.models,
            params=params,
        )
        return ctx

    def _run_eager(self, inputs: dict[str, TensorTable], bound: dict
                   ) -> tuple[TensorTable, dict]:
        """``(result, pruning outcome)`` of one eager run of the plan."""
        ctx = self._execution_context(inputs, self._param_tensors(bound))
        return self.plan.root.execute(ctx), ctx.pruning

    # -- traced (TorchScript / ONNX-like) path ------------------------------------

    def _flatten_inputs(self, inputs: dict[str, TensorTable]
                        ) -> tuple[list[Tensor], list[tuple[str, str, str]]]:
        """Flatten input tables into the traced program's input tensor list.

        Encoded columns contribute one tensor per storage part: the codes
        plus the encoding's dictionary, so a traced program receives the
        compressed layout exactly as stored.

        Sharded tables flatten one shard at a time, with the shard id folded
        into the part tag (``s<k>:data`` / ``s<k>:<part>``): each simulated
        device's columns are distinct named inputs of the program, which is
        what lets a traced distributed plan replay against re-registered data.
        """
        tensors: list[Tensor] = []
        layout: list[tuple[str, str, str]] = []

        def flatten_table(alias: str, table: TensorTable, prefix: str,
                          shared: "dict[str, int] | None" = None) -> None:
            for name, column in table.columns():
                tensors.append(column.tensor)
                layout.append((alias, name, prefix + "data"))
                if column.encoding is not None:
                    if shared is not None and shared.get(name) == id(column.encoding):
                        # The encoding (dictionary) is one object replicated
                        # across shards at load time: flatten it once, and let
                        # every shard's rebuilt column share the rebuilt copy —
                        # preserving the object identity the concat fast path
                        # keys on.
                        continue
                    if shared is not None:
                        shared[name] = id(column.encoding)
                    for part, tensor in column.encoding.parts():
                        tensors.append(tensor)
                        layout.append((alias, name, prefix + part))

        for alias in sorted(inputs):
            table = inputs[alias]
            if isinstance(table, ShardedTable):
                shared: dict[str, int] = {}
                for shard, sub in enumerate(table.shards):
                    flatten_table(alias, sub, f"s{shard}:", shared)
            else:
                flatten_table(alias, table, "")
        return tensors, layout

    def _rebuild_inputs(self, tensors: list[Tensor],
                        layout: list[tuple[str, str, str]],
                        reference: dict[str, TensorTable]) -> dict[str, TensorTable]:
        data: dict[tuple[str, int | None, str], Tensor] = {}
        parts: dict[tuple[str, int | None, str], dict[str, Tensor]] = {}
        for tensor, (alias, name, part) in zip(tensors, layout):
            shard: int | None = None
            if part.startswith("s") and ":" in part:
                prefix, part = part.split(":", 1)
                shard = int(prefix[1:])
            if part == "data":
                data[(alias, shard, name)] = tensor
            else:
                parts.setdefault((alias, shard, name), {})[part] = tensor
        rebuilt: dict[tuple[str, int | None], dict[str, TensorColumn]] = {}
        # Shared encodings (dictionaries replicated across shards) were
        # flattened once, under the first shard that carried them; rebuilt
        # columns of later shards reuse that one rebuilt object, keeping the
        # object identity the concat fast path relies on.  Insertion order of
        # ``data`` follows the flatten order, so the carrying shard rebuilds
        # before any shard that references it.
        rebuilt_shared: dict[tuple[str, str], object] = {}
        for (alias, shard, name), tensor in data.items():
            ref_table = reference[alias]
            if shard is not None:
                ref_table = ref_table.shards[shard]
            ref_column = ref_table.column(name)
            encoding = ref_column.encoding
            if encoding is not None:
                own_parts = parts.get((alias, shard, name))
                if own_parts is not None:
                    encoding = encoding.with_parts(own_parts)
                    if shard is not None:
                        rebuilt_shared[(alias, name)] = encoding
                else:
                    encoding = rebuilt_shared[(alias, name)]
            rebuilt.setdefault((alias, shard), {})[name] = TensorColumn(
                tensor, ref_column.ltype, encoding=encoding)
        tables: dict[str, TensorTable] = {}
        shard_groups: dict[str, dict[int, TensorTable]] = {}
        for (alias, shard), columns in rebuilt.items():
            if shard is None:
                tables[alias] = TensorTable(columns,
                                            reference[alias].statistics)
            else:
                shard_groups.setdefault(alias, {})[shard] = TensorTable(columns)
        for alias, group in shard_groups.items():
            tables[alias] = ShardedTable(
                [group[shard] for shard in sorted(group)],
                reference[alias].spec)
        return tables

    def _ensure_program(self, inputs: dict[str, TensorTable], bound: dict,
                        keep_trace: bool = False
                        ) -> "tuple[_Program, tuple[TensorTable, float] | None]":
        """``(program, traced)``: the program, traced exactly once under
        concurrency and lowered before it is returned.

        With ``keep_trace``, the call that traces returns the tracing run's
        ``(result, wall clock)`` as ``traced`` and leaves the published
        program unlowered; otherwise ``traced`` is ``None``.  Concurrent
        first executions of a shared plan all race to trace; the
        double-checked lock makes one of them trace while the others wait,
        then the first of those lowers and the rest replay the same program
        (``compile_count`` stays 1).
        """
        program = self._program
        if program is None or program.scripted is None:
            with self._compile_lock:
                program = self._program
                if program is None:
                    program, outputs, measured = self._trace_locked(inputs,
                                                                    bound)
                    if keep_trace:
                        return program, (program.table(outputs), measured)
                if program.scripted is None:
                    program = self._lower_locked(program)
        return program, None

    def compile_program(self, inputs: dict[str, TensorTable],
                        params: Optional[dict] = None) -> ScriptedProgram:
        """Trace the whole query into a tensor graph for the graph backends.

        Like ``torch.jit.trace``, data-dependent sizes observed during tracing
        (e.g. join match counts) are baked into the program; the compiled
        program is therefore tied to the dataset it was traced on.  Bind
        parameters, by contrast, enter the graph as *named runtime inputs*
        (``param:<name>``): executing the program with a different binding
        feeds new scalar tensors to the same trace — this is the
        compile-once/bind-many contract of the prepared-statement API.

        Under the default ``executor="compiled"`` the traced graph is lowered
        to generated code here; one the emitter cannot lower raises
        :class:`~repro.errors.CodegenError` and nothing is published.

        Calling this directly always re-traces (that is the documented remedy
        after an input-layout change); compilation is serialized per executor
        so a concurrent caller can never observe a torn program/layout pair.
        """
        bound = self.bind(params)
        with self._compile_lock:
            program, _, _ = self._trace_locked(inputs, bound)
            return self._lower_locked(program).scripted

    def _trace_locked(self, inputs: dict[str, TensorTable], bound: dict
                      ) -> "tuple[_Program, list[Tensor], float]":
        """Trace and optimize the plan, then publish the unlowered program.

        Returns it with the tracing run's flat outputs and wall clock.  A
        graph the emitter cannot lower raises
        :class:`~repro.errors.CodegenError` here, before anything is
        published, under ``executor="compiled"``.
        """
        example_tensors, layout = self._flatten_inputs(inputs)
        input_names = ([f"{alias}.{name}" if part == "data"
                        else f"{alias}.{name}#{part}"
                        for alias, name, part in layout]
                       + [f"param:{spec.name}" for spec in self.params])
        output_columns: list[tuple[str, LogicalType, bool]] = []
        outputs: list[Tensor] = []
        traced_pruning: dict = {}

        def traced_query(*tensors: Tensor) -> list[Tensor]:
            rebuilt = self._rebuild_inputs(list(tensors[:len(layout)]),
                                           layout, inputs)
            ctx = self._execution_context(rebuilt, tensors[len(layout):])
            # Output columns are decoded before flattening so the program's
            # outputs are always plain tensors, whatever the storage layout.
            result = self.plan.root.execute(ctx).decoded()
            traced_pruning.clear()
            traced_pruning.update(ctx.pruning)
            outputs.clear()
            output_columns.clear()
            for name, column in result.columns():
                outputs.append(column.tensor)
                has_valid = column.valid is not None
                output_columns.append((name, column.ltype, has_valid))
                if has_valid:
                    outputs.append(column.valid)
            return outputs

        self.compile_count += 1
        start = time.perf_counter()
        graph = tracing.trace(traced_query,
                              example_tensors + self._param_tensors(bound),
                              name="tqp_query", input_names=input_names)
        measured = time.perf_counter() - start
        if self.backend.optimize_graph:
            graph = passes.optimize(graph)
        if self.options.executor == "compiled":
            reason = codegen.unsupported_reason(graph)
            if reason is not None:
                raise CodegenError(
                    f"cannot compile graph {graph.name!r}: {reason}")
        program = _Program(graph, layout, list(output_columns),
                           traced_pruning)
        self._program = program
        # Re-wrapped: a result never carries its trace's symbolic values.
        return program, [Tensor(t.data, t.device) for t in outputs], measured

    def _lower_locked(self, program: _Program) -> _Program:
        """Lower a traced program to its replay path and publish it."""
        graph = program.graph
        if self.backend.serialize:
            graph = onnxlike.loads(onnxlike.dumps(graph))
        scripted = ScriptedProgram(graph, executor=self.options.executor)
        program = program._replace(graph=graph, scripted=scripted,
                                   serve=scripted.serving_fn(self.device))
        self._program = program
        return program

    def _program_run(self, program: _Program, inputs: dict[str, TensorTable],
                     profile: bool) -> Callable[[dict], tuple[TensorTable, dict]]:
        """``bound -> (result, pruning)`` over ``inputs``, flattened once.

        An unprofiled run goes through the generated serving function: the
        fixed table arrays are moved and unwrapped here, once, and a binding
        appends its parameter scalars and makes one call.  A profiled run,
        and any run under ``executor="interpret"``, goes through
        ``ScriptedProgram.run``, which moves the inputs per call and records
        those transfers as events.
        """
        tensors, layout = self._flatten_inputs(inputs)
        if layout != program.input_layout:
            raise ExecutionError(
                "compiled program does not match the provided inputs; "
                "re-create the executor or call compile_program() again"
            )
        device = self.device
        if program.serve is not None and not profile:
            call, bind = program.serve, self._param_arrays
            fixed = [(t if t.device == device else t.to(device)).data
                     for t in tensors]
        else:
            if profile:
                # Before the timed region: ``measured_s`` of the first
                # profiled run is a replay, like that of every later one.
                program.scripted.build_profiled()
            call = functools.partial(program.scripted.run, device=device)
            bind, fixed = self._param_tensors, tensors
        table, pruning = program.table, program.pruning

        def run(bound: dict) -> tuple[TensorTable, dict]:
            return table(call(fixed + bind(bound))), pruning

        return run

    def _bind_batch(self, param_batches: "list[dict]", on_error: str
                    ) -> "list[dict | BatchBindingError]":
        """Validate every binding of a batch, attributing failures by index.

        A bad binding becomes a :class:`~repro.errors.BatchBindingError`
        carrying the 0-based request index.  With ``on_error="raise"`` the
        first one is raised before anything executes; with
        ``on_error="collect"`` it takes the failed request's slot and the
        remaining bindings stay usable — a mid-batch failure can never poison
        the cached program, the converters, or its neighbours.
        """
        if on_error not in ("raise", "collect"):
            raise ValueError(
                f"on_error must be 'raise' or 'collect', got {on_error!r}")
        bound_list: "list[dict | BatchBindingError]" = []
        for index, batch in enumerate(param_batches):
            try:
                if isinstance(batch, BatchBindingError):
                    # Pre-attributed failure (e.g. a positional binding of the
                    # wrong arity, caught by the prepared-statement layer).
                    raise batch.cause
                bound_list.append(self.bind(batch))
            except BindingError as exc:
                error = BatchBindingError(index, exc)
                if on_error == "raise":
                    raise error from exc
                bound_list.append(error)
        return bound_list

    # -- artifacts ------------------------------------------------------------------

    def executor_graph(self, inputs: dict[str, TensorTable],
                       params: Optional[dict] = None) -> Graph:
        """The traced tensor graph of this query (the Figure-4 artifact)."""
        return self._ensure_program(inputs, self.bind(params))[0].graph
