"""Execution layer: operator plan → Executor for a backend/device (paper §2.2, layer 4).

The Executor is the runnable artifact TQP produces for a query:

* on the ``pytorch`` backend it dispatches the operator plan eagerly, op by op;
* on the ``torchscript`` backend the whole query (relational operators,
  expressions, runtime subqueries and any embedded ML models) is traced into a
  single tensor graph, optimized, and replayed by the graph interpreter;
* on the ``onnx`` backend the traced graph is additionally round-tripped
  through the ONNX-like portable format — the path used for browser/WASM
  execution.

Devices: results are always computed with real kernels; the CPU reports
measured wall time while the simulated ``cuda`` / ``wasm`` devices report time
from their documented cost models (see ``repro.backends``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Callable, Optional

from repro.backends import BackendSpec, get_backend, get_device_model
from repro.core.columnar import LogicalType, TensorColumn, TensorTable
from repro.core.expressions import EvaluationContext, ExprValue
from repro.core.operators import ExecutionContext
from repro.core.options import ExecutionOptions
from repro.core.parameters import (
    ParameterSpec,
    make_binder,
    param_array_converter,
    param_converter,
)
from repro.core.planner import OperatorPlan
from repro.dataframe import DataFrame
from repro.distributed.sharding import ShardedTable, shard_table
from repro.errors import BatchBindingError, BindingError, CatalogError, ExecutionError
from repro.tensor import Graph, Profiler, ScriptedProgram, Tensor, onnxlike, passes, tracing
from repro.tensor.device import Device, parse_device


@dataclasses.dataclass
class ExecutionResult:
    """Result of one query execution."""

    table: TensorTable
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
    #: How the query actually ran: ``eager`` (pytorch backend), ``compiled``
    #: (generated code) or ``interpreted`` (graph interpreter, including the
    #: ``auto``-mode fallback).
    executor_mode: str = "eager"

    def to_dataframe(self) -> DataFrame:
        return self.table.to_dataframe()


def convert_scan_input(scan, frame: DataFrame, encoding: str, stats=None):
    """Convert (and, for a sharded scan, place) the table one scan reads.

    Only the columns the scan needs are converted (strings and dates require
    an encoding pass; numeric columns are zero-copy), under the storage
    ``encoding`` mode.  ``stats`` (the catalog's
    ``repro.storage.TableStatistics``) lends its NDV counts so the
    dictionary-encoding decision skips its ``np.unique`` fallback.  A scan
    partitioned into ``shards`` gets its table placed across the devices
    here: sharding is load-time placement, not query work, so it happens
    outside any trace or profiler and the traced program receives each
    shard's columns as separate named inputs.
    """
    from repro.storage.encodings import encode_table

    ndv = ({name: column.ndv for name, column in stats.columns.items()}
           if stats is not None else None)
    table = TensorTable(encode_table(frame, scan.fields, mode=encoding,
                                     column_ndv=ndv))
    scheme = scan.partitioning
    if scheme.kind == "shards":
        return shard_table(table, scheme.n, scheme.placement)
    return table


class Executor:
    """Runs an operator plan on a chosen backend and device.

    Construction accepts either an :class:`ExecutionOptions` (preferred) or
    the legacy ``backend=`` / ``device=`` / ``parallelism=`` keywords.  Plans
    with bind parameters (see ``plan.params``) take a ``params`` mapping on
    every :meth:`execute`; on the graph backends those values are fed to the
    already-traced program as runtime inputs — re-binding never re-traces.
    """

    def __init__(self, plan: OperatorPlan, backend: BackendSpec | str = "pytorch",
                 device: Device | str = "cpu",
                 models: Optional[dict[str, Callable]] = None,
                 parallelism: int = 1,
                 options: Optional[ExecutionOptions] = None,
                 scan_stats: Optional[dict] = None):
        self.plan = plan
        #: Storage statistics per scan alias (zone maps for pruning); set by
        #: the session at compile time, ``None`` disables pruning.
        self.scan_stats = scan_stats or {}
        if options is not None:
            backend = options.backend or backend
            device = options.device if options.device is not None else device
            parallelism = (options.parallelism if options.parallelism is not None
                           else parallelism)
        self.backend = get_backend(backend) if isinstance(backend, str) else backend
        self.device = parse_device(device)
        self.options = (options or ExecutionOptions()).replace(
            backend=self.backend.name, device=self.device,
            parallelism=max(1, int(parallelism)))
        self.models = models or {}
        #: Worker lanes available to the plan's morsel-driven operators.  The
        #: plan itself already embeds the parallel operator choice; the knob is
        #: threaded here so results/profiles can report the worker count.
        self.parallelism = max(1, int(parallelism))
        #: Bind parameters of the plan, in lexical order.
        self.params: list[ParameterSpec] = list(getattr(plan, "params", []) or [])
        self._param_converters = [(spec.name, param_converter(spec))
                                  for spec in self.params]
        self._binder = make_binder(self.params)
        self.cost_model = get_device_model(self.device)
        #: Number of trace-compilations performed; the plan-cache benchmarks
        #: read this to prove cache hits skip the trace entirely.
        self.compile_count = 0
        self._program: Optional[ScriptedProgram] = None
        self._program_layout: Optional[list] = None
        #: Pruning outcome of the tracing run, published with the program.
        self._program_pruning: dict = {}
        self._input_layout: Optional[list[tuple[str, str]]] = None
        # Serializes trace compilation: concurrent first executions of a
        # shared plan must produce exactly one traced program, never a torn
        # (_program, _program_layout, _input_layout) triple from two
        # interleaved traces.
        self._compile_lock = threading.Lock()
        if self.device.kind == "wasm" and self.backend.name != "onnx":
            raise ExecutionError(
                "the wasm device requires the 'onnx' backend (browser execution "
                "goes through the portable graph format)"
            )

    # -- input preparation --------------------------------------------------

    def prepare_inputs(self, dataframes: dict[str, DataFrame]) -> dict[str, TensorTable]:
        """Convert the registered DataFrames into tensor tables, per scan
        (:func:`convert_scan_input`).  The result is keyed by scan alias with
        fully qualified column names.

        Every table the plan references is validated up front (matched
        case-insensitively, like the session catalog); missing tables or
        columns raise :class:`repro.errors.CatalogError` /
        :class:`repro.errors.ExecutionError` naming what is absent, never a
        bare ``KeyError``.
        """
        by_key = {name.lower(): frame for name, frame in dataframes.items()}
        missing = sorted({scan.table for scan in self.plan.scans
                          if scan.table.lower() not in by_key})
        if missing:
            raise CatalogError(
                "plan references unregistered table(s): "
                + ", ".join(repr(name) for name in missing)
            )
        inputs: dict[str, TensorTable] = {}
        for scan in self.plan.scans:
            frame = by_key[scan.table.lower()]
            for field in scan.fields:
                base = field.name.split(".", 1)[1] if "." in field.name else field.name
                if base not in frame:
                    raise ExecutionError(
                        f"table {scan.table!r} has no column {base!r} "
                        f"(required by scan {scan.alias!r})"
                    )
            inputs[scan.alias] = convert_scan_input(
                scan, frame, self.options.encoding,
                self.scan_stats.get(scan.alias))
        return inputs

    # -- execution ------------------------------------------------------------

    def bind(self, params: Optional[dict] = None) -> dict:
        """Validate and normalize a parameter binding for this plan.

        Raises :class:`~repro.errors.BindingError` for missing, unknown or
        ill-typed values (see ``repro.core.parameters.bind_parameters``).
        """
        return self._binder(params or {})

    def _param_values(self, bound: dict) -> dict[str, ExprValue]:
        """Scalar tensors for a normalized binding, created on the CPU.

        The execution context moves them to the target device alongside the
        table inputs, so the transfer is part of the traced program and the
        simulated cost models account for it.
        """
        return {name: convert(bound[name])
                for name, convert in self._param_converters}

    def execute(self, inputs: dict[str, TensorTable], profile: bool = False,
                params: Optional[dict] = None,
                scan_stats: Optional[dict] = None) -> ExecutionResult:
        """Run the query over prepared inputs and return the result.

        ``params`` binds the plan's parameters (validated up front with typed
        errors); on the graph backends the values are runtime inputs of the
        traced program, so executing with a new binding never re-traces.
        ``scan_stats`` optionally overrides the executor's stored zone maps
        for this execution only — sessions pass a snapshot taken atomically
        with ``inputs``, so a concurrent re-registration can never pair fresh
        statistics with stale converted columns (or vice versa).
        """
        bound = self.bind(params)
        if self.backend.strategy == "graph":
            # Trace before entering the profiled region: the eager tracing
            # run dispatches every op once, and folding those events into the
            # run's profile would make the simulated devices charge each
            # kernel and transfer twice on a one-shot execution.
            self._ensure_program(inputs, bound, scan_stats=scan_stats)
        want_profile = profile or self.device.is_simulated
        profiler = Profiler(name=f"{self.backend.name}-{self.device}") if want_profile else None

        if self.backend.strategy == "eager":
            def run(tables: dict[str, TensorTable]) -> tuple[TensorTable, dict]:
                return self._run_eager(tables, bound, scan_stats=scan_stats)
        else:
            def run(tables: dict[str, TensorTable]) -> tuple[TensorTable, dict]:
                return self._run_graph(tables, bound), self._program_pruning

        if profiler is not None:
            with profiler:
                start = time.perf_counter()
                table, pruning = run(inputs)
                measured = time.perf_counter() - start
        else:
            start = time.perf_counter()
            table, pruning = run(inputs)
            measured = time.perf_counter() - start

        reported = self.cost_model.report_time(
            measured, profiler,
            interpreter_overhead_s=self.backend.per_node_overhead_s)
        if self.backend.strategy == "eager":
            mode = "eager"
        else:
            mode = "compiled" if self._program.uses_codegen else "interpreted"
        return ExecutionResult(table=table, measured_s=measured, reported_s=reported,
                               backend=self.backend.name, device=str(self.device),
                               profile=profiler, pruning=pruning,
                               executor_mode=mode)

    # -- eager (PyTorch-like) path ----------------------------------------------

    def _execution_context(self, inputs: dict[str, TensorTable],
                           param_values: Optional[dict[str, ExprValue]] = None,
                           scan_stats: Optional[dict] = None
                           ) -> ExecutionContext:
        moved = {alias: table.to(self.device) for alias, table in inputs.items()}
        params = {}
        for name, value in (param_values or {}).items():
            tensor = value.tensor
            if tensor.device != self.device:
                tensor = tensor.to(self.device)
            params[name] = ExprValue(tensor, value.ltype, value.is_scalar,
                                     value.valid)
        ctx = ExecutionContext(moved, device=self.device,
                               zone_maps=(scan_stats if scan_stats is not None
                                          else self.scan_stats))
        ctx.eval_ctx = EvaluationContext(
            device=self.device,
            subquery_runner=lambda subplan: subplan.execute(ctx),
            models=self.models,
            params=params,
        )
        return ctx

    def _run_eager(self, inputs: dict[str, TensorTable],
                   bound: Optional[dict] = None,
                   scan_stats: Optional[dict] = None
                   ) -> tuple[TensorTable, dict]:
        """``(result, pruning outcome)`` of one eager run of the plan."""
        ctx = self._execution_context(inputs, self._param_values(bound or {}),
                                      scan_stats=scan_stats)
        return self.plan.root.execute(ctx), ctx.pruning

    # -- traced (TorchScript / ONNX-like) path ------------------------------------

    def _flatten_inputs(self, inputs: dict[str, TensorTable]
                        ) -> tuple[list[Tensor], list[tuple[str, str, str]]]:
        """Flatten input tables into the traced program's input tensor list.

        Encoded columns contribute one tensor per storage part: the main
        tensor (dictionary codes / run values) plus the encoding's auxiliary
        tensors (dictionary / run lengths), so a traced program receives the
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
                tables[alias] = TensorTable(columns)
            else:
                shard_groups.setdefault(alias, {})[shard] = TensorTable(columns)
        for alias, group in shard_groups.items():
            tables[alias] = ShardedTable(
                [group[shard] for shard in sorted(group)],
                reference[alias].spec)
        return tables

    def _ensure_program(self, inputs: dict[str, TensorTable],
                        bound: Optional[dict] = None,
                        scan_stats: Optional[dict] = None) -> ScriptedProgram:
        """The traced program, compiling it exactly once under concurrency.

        Concurrent first executions of a shared plan all race to trace; the
        double-checked lock makes one of them compile while the others wait
        and then replay the same program (``compile_count`` stays 1).
        """
        program = self._program
        if program is None:
            with self._compile_lock:
                program = self._program
                if program is None:
                    program = self._compile_locked(inputs, bound or {},
                                                   scan_stats=scan_stats)
        return program

    def compile_program(self, inputs: dict[str, TensorTable],
                        params: Optional[dict] = None,
                        scan_stats: Optional[dict] = None) -> ScriptedProgram:
        """Trace the whole query into a tensor graph for the graph backends.

        Like ``torch.jit.trace``, data-dependent sizes observed during tracing
        (e.g. join match counts) are baked into the program; the compiled
        program is therefore tied to the dataset it was traced on.  Bind
        parameters, by contrast, enter the graph as *named runtime inputs*
        (``param:<name>``): executing the program with a different binding
        feeds new scalar tensors to the same trace — this is the
        compile-once/bind-many contract of the prepared-statement API.

        Calling this directly always re-traces (that is the documented remedy
        after an input-layout change); compilation is serialized per executor
        so a concurrent caller can never observe a torn program/layout pair.
        """
        bound = self.bind(params)
        with self._compile_lock:
            return self._compile_locked(bound=bound, inputs=inputs,
                                        scan_stats=scan_stats)

    def _compile_locked(self, inputs: dict[str, TensorTable],
                        bound: dict,
                        scan_stats: Optional[dict] = None) -> ScriptedProgram:
        example_tensors, layout = self._flatten_inputs(inputs)
        param_specs = list(self.params)
        param_exprs = self._param_values(bound)
        param_tensors = [param_exprs[spec.name].tensor for spec in param_specs]
        input_names = ([f"{alias}.{name}" if part == "data"
                        else f"{alias}.{name}#{part}"
                        for alias, name, part in layout]
                       + [f"param:{spec.name}" for spec in param_specs])
        output_columns: list[tuple[str, LogicalType, bool]] = []
        traced_pruning: dict = {}

        def traced_query(*tensors: Tensor) -> list[Tensor]:
            table_tensors = list(tensors[:len(layout)])
            symbolic_params = {
                spec.name: ExprValue(tensor, spec.ltype, True)
                for spec, tensor in zip(param_specs, tensors[len(layout):])
            }
            rebuilt = self._rebuild_inputs(table_tensors, layout, inputs)
            ctx = self._execution_context(rebuilt, symbolic_params,
                                          scan_stats=scan_stats)
            # Output columns are decoded before flattening so the program's
            # outputs are always plain tensors, whatever the storage layout.
            result = self.plan.root.execute(ctx).decoded()
            traced_pruning.clear()
            traced_pruning.update(ctx.pruning)
            flat: list[Tensor] = []
            output_columns.clear()
            for name, column in result.columns():
                flat.append(column.tensor)
                has_valid = column.valid is not None
                output_columns.append((name, column.ltype, has_valid))
                if has_valid:
                    flat.append(column.valid)
            return flat

        self.compile_count += 1
        graph = tracing.trace(traced_query, example_tensors + param_tensors,
                              name="tqp_query", input_names=input_names)
        if self.backend.optimize_graph:
            graph = passes.optimize(graph)
        if self.backend.serialize:
            graph = onnxlike.loads(onnxlike.dumps(graph))
        program = ScriptedProgram(graph, self.backend.per_node_overhead_s,
                                  executor=self.options.executor)
        # Publish the layouts before the program: unlocked readers gate on
        # ``self._program``, so by the time they see it, the matching layouts
        # are already in place.
        self._program_layout = list(output_columns)
        self._program_pruning = traced_pruning
        self._input_layout = layout
        self._program = program
        return program

    def _run_graph(self, inputs: dict[str, TensorTable],
                   bound: Optional[dict] = None) -> TensorTable:
        bound = bound if bound is not None else self.bind(None)
        self._ensure_program(inputs, bound)
        tensors, layout = self._flatten_inputs(inputs)
        if layout != self._input_layout:
            raise ExecutionError(
                "compiled program does not match the provided inputs; "
                "re-create the executor or call compile_program() again"
            )
        param_exprs = self._param_values(bound)
        tensors = tensors + [param_exprs[spec.name].tensor for spec in self.params]
        outputs = self._program.run(tensors, device=self.device)
        return self._outputs_to_table(outputs)

    def _outputs_to_table(self, outputs: list[Tensor]) -> TensorTable:
        """Reassemble the program's flat output tensors into a result table."""
        columns: dict[str, TensorColumn] = {}
        cursor = 0
        for name, ltype, has_valid in self._program_layout:
            tensor = outputs[cursor]
            cursor += 1
            valid = None
            if has_valid:
                valid = outputs[cursor]
                cursor += 1
            columns[name] = TensorColumn(tensor, ltype, valid)
        return TensorTable(columns)

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

    def execute_many(self, inputs: dict[str, TensorTable],
                     param_batches: "list[dict]",
                     profile: bool = False,
                     on_error: str = "raise",
                     scan_stats: Optional[dict] = None
                     ) -> "list[ExecutionResult | BatchBindingError]":
        """Serving loop: run many parameter bindings over one input set.

        All bindings are validated up front, then each one runs against the
        cached program.  When the program was lowered to generated code the
        loop takes a dedicated hot path: the table inputs are flattened and
        moved **once**, and each binding costs one parameter conversion plus
        a single generated-function call with zero graph-walking.  Programs
        that replay through the interpreter have no such single entry point,
        so they keep the general per-request path — that gap is exactly what
        ``benchmarks/bench_compiled_executor.py`` measures.  Semantics
        (validation, profiling, reported times) match calling :meth:`execute`
        once per binding either way.

        A bad binding raises a typed :class:`~repro.errors.BatchBindingError`
        naming the request index (``on_error="raise"``, nothing executes), or
        — under ``on_error="collect"``, the serving runtime's mode — fails
        only that request: its result slot holds the error object while every
        other binding still executes.
        """
        bound_list = self._bind_batch(param_batches, on_error)
        errors = {i: b for i, b in enumerate(bound_list)
                  if isinstance(b, BatchBindingError)}
        valid = [(i, b) for i, b in enumerate(bound_list) if i not in errors]

        def weave(results: list) -> list:
            slots: list = [None] * len(bound_list)
            for index, error in errors.items():
                slots[index] = error
            for (index, _), result in zip(valid, results):
                slots[index] = result
            return slots

        if not valid:
            return weave([])
        if self.backend.strategy != "graph":
            return weave([self.execute(inputs, profile=profile, params=bound,
                                       scan_stats=scan_stats)
                          for _, bound in valid])
        self._ensure_program(inputs, valid[0][1], scan_stats=scan_stats)
        if not self._program.uses_codegen:
            return weave([self.execute(inputs, profile=profile, params=bound,
                                       scan_stats=scan_stats)
                          for _, bound in valid])
        valid_bindings = [bound for _, bound in valid]
        tensors, layout = self._flatten_inputs(inputs)
        if layout != self._input_layout:
            raise ExecutionError(
                "compiled program does not match the provided inputs; "
                "re-create the executor or call compile_program() again"
            )
        want_profile = profile or self.device.is_simulated
        pruning = self._program_pruning
        program, device = self._program, self.device
        backend_name, device_str = self.backend.name, str(device)
        overhead_s = self.backend.per_node_overhead_s
        report_time, perf_counter = self.cost_model.report_time, time.perf_counter
        # Unprofiled serving over generated code skips the per-call input
        # handling entirely: the fixed table arrays are moved and unwrapped
        # once, each request appends its parameter scalars and makes one
        # generated-function call.
        serve = None if want_profile else program.serving_fn(device)
        if serve is not None:
            base_arrays = [(t if t.device == device else t.to(device)).data
                           for t in tensors]
            array_converters = [(spec.name, param_array_converter(spec))
                                for spec in self.params]
        results: list[ExecutionResult] = []
        for bound in valid_bindings:
            profiler = (Profiler(name=f"{backend_name}-{device}")
                        if want_profile else None)
            if profiler is not None:
                param_exprs = self._param_values(bound)
                run_tensors = tensors + [param_exprs[spec.name].tensor
                                         for spec in self.params]
                with profiler:
                    start = perf_counter()
                    outputs = program.run(run_tensors, device=device)
                    measured = perf_counter() - start
            else:
                run_arrays = base_arrays + [convert(bound[name])
                                            for name, convert in array_converters]
                start = perf_counter()
                outputs = serve(run_arrays)
                measured = perf_counter() - start
            reported = report_time(measured, profiler,
                                   interpreter_overhead_s=overhead_s)
            results.append(ExecutionResult(
                table=self._outputs_to_table(outputs), measured_s=measured,
                reported_s=reported, backend=backend_name,
                device=device_str, profile=profiler, pruning=pruning,
                executor_mode="compiled"))
        return weave(results)

    # -- artifacts ------------------------------------------------------------------

    def executor_graph(self, inputs: dict[str, TensorTable],
                       params: Optional[dict] = None) -> Graph:
        """The traced tensor graph of this query (the Figure-4 artifact)."""
        return self._ensure_program(inputs, self.bind(params)).graph

    def export_onnx(self, inputs: dict[str, TensorTable], path: str,
                    params: Optional[dict] = None) -> None:
        """Export the traced query to the ONNX-like portable format."""
        onnxlike.save(self.executor_graph(inputs, params=params), path)
