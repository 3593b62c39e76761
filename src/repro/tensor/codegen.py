"""Codegen executor: lower a traced graph to one generated Python function.

The interpreter (:mod:`repro.tensor.interpreter`) pays per-node dispatch on
every replay — environment dict lookups, registry lookups, tensor wrapping —
which is exactly the overhead the paper's TorchScript/ONNX compilation step
exists to remove.  This module removes it for real: a traced, optimized graph
is lowered through the ONNX-like portable structure
(:func:`repro.tensor.onnxlike.export_ir`, the stable IR) into the source of a
single Python function whose locals are the graph's SSA values, whose
constants and kernels are closed over, and which is compiled once with
``compile()``/``exec``.  Executing a cached plan is then one call with zero
graph-walking.

Two function bodies are generated from the same IR:

* a **fast** body — straight-line kernel calls, used when no profiler is
  active (the wall-clock serving path), and
* a **profiled** body — the same calls bracketed with ``perf_counter`` and an
  inline :class:`~repro.tensor.profiler.OpEvent` per node, emitting byte
  counts, devices and stamps *identical* to interpreted replay — the operator
  scope, worker lane and device shard a node was traced under are literals in
  the text, a field it carries none of is the run's ambient one — so the
  simulated GPU/WASM cost models, the lane accounting and the per-operator
  breakdown cannot tell the two executors apart.  It is three quarters of the
  text and most programs never profile, so :func:`compile_graph` leaves it to
  the first run that does (:meth:`CompiledGraphProgram.profiled_fn`).

Both bodies take their per-node semantics from the shared registry
(:mod:`repro.tensor.op_semantics`); no op is implemented here (enforced by
``tools/lint_op_registry.py``).

There is no fallback: :func:`compile_graph` raises a typed
:class:`~repro.errors.CodegenError` naming the construct
(:func:`unsupported_reason`) when

* a node's op is not in the shared registry (e.g. a portable model produced
  by a newer runtime), or
* a node's attributes do not survive the portable IR (not JSON-stable, e.g.
  a hand-built or loaded graph carrying a Python object).

Set the ``REPRO_CODEGEN_DUMP`` environment variable to a directory to write
every generated source there for debugging (or to ``-`` to print it to
stderr): ``<graph>_<n>.py`` at compile, ``<graph>_<n>_profiled.py`` if and
when the profiled body is built.  ``CompiledGraphProgram.source`` /
``.profiled_source`` always hold the text.
"""

from __future__ import annotations

import itertools
import json
import linecache
import os
import sys
import threading
import time
import weakref
from typing import Sequence

import numpy as np

from repro.errors import CodegenError, GraphError
from repro.tensor import onnxlike, op_semantics
from repro.tensor.device import Device, parse_device
from repro.tensor.graph import Graph
from repro.tensor.profiler import (
    OpEvent,
    Stamp,
    current_profiler,
    current_stamp,
)
from repro.tensor.tensor import Tensor

#: Environment variable controlling generated-source dumps.
DUMP_ENV_VAR = "REPRO_CODEGEN_DUMP"

#: Numbers the generated modules (``next()`` is atomic across threads).
_serial = itertools.count(1)


def _attrs_are_portable(attrs: dict) -> bool:
    """Whether node attributes survive the JSON-stable portable IR.

    Numpy scalars are accepted (they serialize to plain numbers); anything
    ``json`` cannot express is not.
    """
    def default(value):
        if isinstance(value, (np.integer, np.floating, np.bool_)):
            return value.item()
        raise TypeError(f"not portable: {type(value).__name__}")

    try:
        json.dumps(attrs, default=default)
    except (TypeError, ValueError):
        return False
    return True


def unsupported_reason(graph: Graph) -> "str | None":
    """Why ``graph`` cannot be compiled, or ``None`` when it can."""
    for node in graph.nodes:
        reason = op_semantics.op_unsupported_reason(node.op)
        if reason is not None:
            return reason
        if node.op == op_semantics.FUSED_OP:
            steps, _ = op_semantics.fused_steps(node.attrs)
            for step in steps:
                reason = op_semantics.op_unsupported_reason(step["op"])
                if reason is not None:
                    return f"fused step: {reason}"
        if not _attrs_are_portable(node.attrs):
            return (f"node op {node.op!r} carries attributes that do not "
                    f"survive the portable IR")
    return None


class _Emitter:
    """Generates the two function bodies from the portable IR."""

    def __init__(self, model: dict):
        self.model = model
        #: Closed-over namespace for the generated module.
        self.namespace: dict = {
            "_asarray": np.asarray,
            "_pc": time.perf_counter,
            "_EV": OpEvent,
            "_stamp": current_stamp,
        }
        #: Static device tag per value id: ``None`` means "the run device"
        #: (only ``to_device`` outputs ever differ, see the emit loop).
        self.value_device: dict[int, "Device | None"] = {}
        self._input_ids = [item["id"] for item in model["inputs"]]
        self._init_ids = sorted(model["initializers"])

    def _ref(self, vid: int) -> str:
        return f"_c{vid}" if vid in self.model["initializers"] else f"v{vid}"

    @staticmethod
    def _where(attrs: dict) -> str:
        """The stamp arguments of a node's event: the fields it was traced
        under as literals, the run's ambient ones for those it carries none of
        — what the interpreter's ``stamped(*Stamp.of(attrs))`` resolves to."""
        return ", ".join(repr(attrs[field]) if field in attrs else f"_{field}"
                         for field in Stamp._fields)

    def _emit_preamble(self, lines: list[str]) -> None:
        if self._input_ids:
            unpack = ", ".join(f"v{vid}" for vid in self._input_ids)
            lines.append(f"    ({unpack},) = args")

    def _emit_node(self, lines: list[str], index: int, node: dict,
                   profiled: bool) -> None:
        op = node["op"]
        attrs = node.get("attrs") or {}
        in_refs = [self._ref(vid) for vid in node["inputs"]]
        out_ids = node["outputs"]

        if op == op_semantics.TRANSFER_OP:
            self._emit_transfer(lines, index, node, in_refs, profiled)
            return
        for vid in out_ids:
            self.value_device[vid] = None

        unpack = [f"v{vid}" for vid in out_ids]
        if op == op_semantics.FUSED_OP:
            # Unroll the fused local-SSA program into straight-line calls of
            # the step kernels: one event / one simulated launch for the
            # whole chain, zero per-step dispatch at runtime.
            body, results = self._unrolled_fused(index, node, in_refs, attrs)
        elif len(out_ids) == 1 and (
                (np_fn := op_semantics.inline_np_fn(op)) is not None
                or (np_fn := op_semantics.specialized_fn(op, attrs)) is not None):
            # Registry-provided direct callable: the shared np_fn, or a
            # per-node specialization with the static attrs bound in.
            fn_name = (f"_u_{op}" if op_semantics.inline_np_fn(op) is not None
                       else f"_s{index}")
            self.namespace[fn_name] = np_fn
            call = f"{fn_name}({', '.join(in_refs)})"
            if not profiled:
                lines.append(f"    {unpack[0]} = _asarray({call})")
                return
            body = [f"_r = {call}"]
            results = ["_r"]
        else:
            kernel_name = f"_k_{op}"
            self.namespace[kernel_name] = op_semantics.kernel(op)
            attrs_name = f"_a{index}"
            self.namespace[attrs_name] = attrs
            call = (f"{kernel_name}(({', '.join(in_refs)}"
                    f"{',' if in_refs else ''}), {attrs_name})")
            if len(unpack) == 1 and not profiled:
                lines.append(f"    {unpack[0]} = _asarray({call}[0])")
                return
            body = [f"_r = {call}"]
            results = [f"_r[{i}]" for i in range(len(unpack))]
        if not profiled:
            for stmt in body:
                lines.append(f"    {stmt}")
            for name, res in zip(unpack, results):
                lines.append(f"    {name} = _asarray({res})")
            return
        in_bytes = " + ".join(f"{ref}.nbytes" for ref in in_refs) or "0"
        out_bytes = " + ".join(f"{name}.nbytes" for name in unpack)
        lines.append("    _t = _pc()")
        for stmt in body:
            lines.append(f"    {stmt}")
        lines.append("    _el = _pc() - _t")
        for name, res in zip(unpack, results):
            lines.append(f"    {name} = _asarray({res})")
        lines.append(
            f"    _events.append(_EV({op!r}, _el, {in_bytes}, {out_bytes}, "
            f"dev_str, _pc() - _t0, {self._where(attrs)}))")

    def _unrolled_fused(self, index: int, node: dict, in_refs: list[str],
                        attrs: dict) -> tuple[list[str], list[str]]:
        """Statements and result expressions for an unrolled fused node."""
        steps, out_slots = op_semantics.fused_steps(attrs)
        n_inputs = len(in_refs)

        def slot_ref(slot: int) -> str:
            return in_refs[slot] if slot < n_inputs else f"_f{index}_{slot - n_inputs}"

        body: list[str] = []
        for j, step in enumerate(steps):
            step_refs = ", ".join(slot_ref(s) for s in step["inputs"])
            np_fn = op_semantics.inline_np_fn(step["op"])
            if np_fn is not None:
                fn_name = f"_u_{step['op']}"
                self.namespace[fn_name] = np_fn
                body.append(f"_f{index}_{j} = {fn_name}({step_refs})")
                continue
            kernel_name = f"_k_{step['op']}"
            self.namespace[kernel_name] = op_semantics.kernel(step["op"])
            attrs_name = f"_a{index}_{j}"
            self.namespace[attrs_name] = step.get("attrs") or {}
            body.append(f"_f{index}_{j} = {kernel_name}(({step_refs}"
                        f"{',' if step['inputs'] else ''}), {attrs_name})[0]")
        return body, [slot_ref(slot) for slot in out_slots]

    def _emit_transfer(self, lines: list[str], index: int, node: dict,
                       in_refs: list[str], profiled: bool) -> None:
        """``to_device`` nodes: identity data-wise, transfer-event-wise not.

        The shared semantics (:func:`op_semantics.transfer_is_noop`) forward
        the tensor without an event when its device already matches the
        target.  Source devices are statically known relative to the run
        device, so the no-op test compiles to nothing, a constant, or a
        single string comparison.
        """
        attrs = node.get("attrs") or {}
        target = op_semantics.transfer_target(attrs)
        src_vid = node["inputs"][0]
        out_vid = node["outputs"][0]
        src_dev = self.value_device.get(src_vid)
        self.value_device[out_vid] = target
        in_ref, out_ref = in_refs[0], f"v{out_vid}"
        if not profiled:
            lines.append(f"    {out_ref} = {in_ref}")
            return
        event = (f"_events.append(_EV('to_device', _pc() - _t, {in_ref}.nbytes, "
                 f"{out_ref}.nbytes, {str(target)!r}, _pc() - _t0, "
                 f"{self._where(attrs)}))")
        if src_dev is not None and op_semantics.transfer_is_noop(src_dev, target):
            lines.append(f"    {out_ref} = {in_ref}")
            return
        indent = "    "
        if src_dev is None:
            # Source sits on the run device: no-op exactly when the run
            # device is already the target.
            lines.append(f"    if dev_str != {str(target)!r}:")
            indent = "        "
        lines.append(f"{indent}_t = _pc()")
        lines.append(f"{indent}{out_ref} = {in_ref}")
        lines.append(f"{indent}{event}")
        if src_dev is None:
            lines.append("    else:")
            lines.append(f"        {out_ref} = {in_ref}")

    def emit(self, profiled: bool) -> list[str]:
        name = "run_profiled" if profiled else "run"
        args = "args, dev_str, prof" if profiled else "args, dev_str"
        lines = [f"def {name}({args}):"]
        if profiled:
            lines.append("    _events = prof.events")
            lines.append("    _t0 = prof._start")
            lines.append("    _scope, _lane, _shard = _stamp()")
        self._emit_preamble(lines)
        self.value_device = {vid: None for vid in self._input_ids}
        self.value_device.update({vid: None for vid in self._init_ids})
        for index, node in enumerate(self.model["nodes"]):
            self._emit_node(lines, index, node, profiled)
        outs = ", ".join(self._ref(vid) for vid in self.model["outputs"])
        lines.append(f"    return [{outs}]")
        lines.append("")
        return lines


class CompiledGraphProgram:
    """A graph lowered to generated code; call :meth:`run` to execute it."""

    def __init__(self, graph: Graph, model: dict):
        self.graph = graph
        #: The portable IR both bodies are lowered from.
        self._model = model
        self._name = f"{graph.name}:{next(_serial)}"
        #: ``source`` is the fast body's text; an output's static device tag
        #: is ``None`` where that is the run device.
        self.source, self._fast, self._output_devices = self._lower(False)
        #: Text of the profiled body; ``None`` until something profiles.
        self.profiled_source: "str | None" = None
        self._profiled = None
        self._profiled_lock = threading.Lock()

    def _lower(self, profiled: bool):
        """One body: ``(source, compiled function, output device tags)``."""
        emitter = _Emitter(self._model)
        source = "\n".join(emitter.emit(profiled))
        namespace = emitter.namespace
        for vid, array in self._model["initializers"].items():
            namespace[f"_c{vid}"] = array
        name = self._name + (":profiled" if profiled else "")
        filename = f"<tqp-codegen:{name}>"
        exec(compile(source, filename, "exec"), namespace)
        # Visible to tracebacks and pdb while the program lives; ``checkcache``
        # never evicts an entry without an mtime, so the program's end does.
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        weakref.finalize(self, linecache.cache.pop, filename, None)
        _dump_source(name.replace(":", "_"), source)
        return (source, namespace["run_profiled" if profiled else "run"],
                [emitter.value_device.get(vid)
                 for vid in self._model["outputs"]])

    def profiled_fn(self):
        """The profiled body, built on first use: racing first profiled runs
        (serving workers) wait on one build, published by one assignment."""
        fn = self._profiled
        if fn is None:
            with self._profiled_lock:
                fn = self._profiled
                if fn is None:
                    self.profiled_source, fn, _ = self._lower(True)
                    self._profiled = fn
        return fn

    def run(self, inputs: Sequence[Tensor], device: Device | str | None = None
            ) -> list[Tensor]:
        """Execute the generated function; returns one tensor per output.

        Input handling matches the interpreter exactly: with a ``device``
        every input is moved there first (recording the same transfer events
        a replay would), without one the inputs' own (common) device is used.
        """
        graph_inputs = self.graph.inputs
        if len(inputs) != len(graph_inputs):
            raise GraphError(
                f"graph expects {len(graph_inputs)} inputs, got {len(inputs)}"
            )
        if device is not None:
            dev = parse_device(device)
            moved = [t if t.device == dev else t.to(dev) for t in inputs]
        else:
            dev = inputs[0].device if inputs else parse_device(None)
            moved = list(inputs)
        arrays = [t.data for t in moved]
        prof = current_profiler()
        dev_str = str(dev)
        if prof is None:
            out_arrays = self._fast(arrays, dev_str)
        else:
            out_arrays = self.profiled_fn()(arrays, dev_str, prof)
        return [Tensor(array, dev if tag is None else tag)
                for array, tag in zip(out_arrays, self._output_devices)]

    def serving_fn(self, device: Device | str):
        """An unprofiled single-call entry point for serving loops.

        Returns ``fn(arrays) -> list[Tensor]`` taking the flat raw input
        arrays, already resident on ``device``; each call is exactly one
        invocation of the generated function.  Callers that want profiling
        (or that still need input transfers accounted) use :meth:`run`.
        """
        dev = parse_device(device)
        dev_str = str(dev)
        fast = self._fast
        tags = [dev if tag is None else tag for tag in self._output_devices]

        def serve(arrays: "list[np.ndarray]") -> list[Tensor]:
            return [Tensor(array, tag)
                    for array, tag in zip(fast(arrays, dev_str), tags)]

        return serve


def _dump_source(name: str, source: str) -> None:
    target = os.environ.get(DUMP_ENV_VAR)
    if not target:
        return
    if target == "-":
        sys.stderr.write(source)
        return
    os.makedirs(target, exist_ok=True)
    path = os.path.join(target, f"{name}.py")
    with open(path, "w", encoding="utf-8") as f:
        f.write(source)


def compile_graph(graph: Graph) -> CompiledGraphProgram:
    """Lower ``graph`` to a :class:`CompiledGraphProgram` (fast body only).

    Raises :class:`~repro.errors.CodegenError` naming the unsupported
    construct when the graph cannot be lowered.
    """
    reason = unsupported_reason(graph)
    if reason is not None:
        raise CodegenError(f"cannot compile graph {graph.name!r}: {reason}")
    return CompiledGraphProgram(
        graph, onnxlike.export_ir(graph, encode_initializers=False))
