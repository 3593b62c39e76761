"""Lazy trace capture: run a Python function once and record the tensor ops.

This mirrors ``torch.jit.trace``: the function is executed with example inputs,
every op dispatched through :mod:`repro.tensor.ops` is appended to a
:class:`~repro.tensor.graph.Graph`, and tensors that were not produced inside
the trace (e.g. model weights, literal constants) are captured as graph
initializers.

The usual tracing caveat applies and is inherited deliberately from the paper's
TorchScript backend: Python-level control flow is baked in at trace time.
TQP's relational operators are written to be shape- and data-polymorphic, so a
program traced at one input size replays correctly at other sizes.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

from repro.errors import GraphError
from repro.tensor.graph import Graph, Node, Value
from repro.tensor.profiler import current_stamp
from repro.tensor.tensor import Tensor

# Trace capture is **thread-scoped**: each thread records into its own active
# trace context, so a serving worker tracing a cold statement never captures
# ops dispatched concurrently by other workers (their requests would otherwise
# leak foreign nodes into the graph).  The executor serializes compilation per
# plan (see ``Executor.compile_program``) and always traces on the thread that
# runs the ops, which together make tracing safe under a worker pool.
_STATE = threading.local()


def current_trace() -> "TraceContext | None":
    """Return the active trace context, if a trace is being recorded."""
    return getattr(_STATE, "trace", None)


class TraceContext:
    """Accumulates nodes while a function is being traced."""

    def __init__(self, name: str = "traced"):
        self.graph = Graph(name)

    # -- used by ops._record_trace ---------------------------------------

    def value_for(self, tensor: Tensor) -> Value:
        """Return the symbolic value of ``tensor``, capturing it as a constant
        initializer when it did not originate inside this trace."""
        value = tensor.trace_value
        if value is not None and self.graph.values.get(value.id) is value:
            return value
        captured = self.graph.add_initializer(tensor.data, name="captured_const")
        tensor.trace_value = captured
        return captured

    def record(self, op: str, inputs: "Sequence[Tensor]",
               outputs: "Sequence[Tensor]", attrs: dict) -> None:
        """Append one node: ``op`` over ``inputs``, its attributes the stamp
        the op ran under followed by ``attrs``, and one value per output
        carrying the output's shape and dtype.

        The stamp says which relational operator the node belongs to, so a
        replay attributes it to the same operator (and the lanes model prices
        it under that operator's width).
        """
        graph = self.graph
        node_attrs = current_stamp().as_attrs()
        node_attrs.update(attrs)
        input_ids = [self.value_for(tensor).id for tensor in inputs]
        output_ids = []
        for index, tensor in enumerate(outputs):
            value = graph.new_value(f"{op}_out{index}", tensor.shape,
                                    tensor.dtype.name)
            tensor.trace_value = value
            output_ids.append(value.id)
        graph.nodes.append(Node(op, input_ids, output_ids, node_attrs))

    # -- context management -----------------------------------------------

    def __enter__(self) -> "TraceContext":
        if current_trace() is not None:
            raise GraphError("nested traces are not supported")
        _STATE.trace = self
        return self

    def __exit__(self, *exc_info) -> None:
        # Only clear our own activation: if an exception unwound through a
        # stale context on a pooled worker thread, a blind reset could cancel
        # a trace that a fresh context on this thread legitimately owns.
        if current_trace() is self:
            _STATE.trace = None


def trace(fn: Callable[..., "Tensor | Sequence[Tensor]"],
          example_inputs: Sequence[Tensor],
          name: str = "traced",
          input_names: Sequence[str] | None = None) -> Graph:
    """Trace ``fn`` over ``example_inputs`` and return the captured graph.

    The function may return a single tensor or a sequence of tensors; the
    returned graph has one output per returned tensor, in order.
    ``input_names`` optionally labels the graph inputs (e.g. table columns
    and bind parameters), defaulting to ``input_<i>``.
    """
    if input_names is not None and len(input_names) != len(example_inputs):
        raise GraphError("input_names must match example_inputs in length")
    ctx = TraceContext(name)
    with ctx:
        symbolic_inputs: list[Tensor] = []
        for i, example in enumerate(example_inputs):
            if not isinstance(example, Tensor):
                raise GraphError("trace() example inputs must be tensors")
            input_name = input_names[i] if input_names is not None else f"input_{i}"
            value = ctx.graph.add_input(input_name, example.shape, example.dtype.name)
            # Re-wrap so caller-held tensors keep trace_value = None.
            wrapped = Tensor(example.data, example.device)
            wrapped.trace_value = value
            symbolic_inputs.append(wrapped)
        result = fn(*symbolic_inputs)
    if isinstance(result, Tensor):
        results: Sequence[Tensor] = [result]
    elif isinstance(result, (list, tuple)):
        results = list(result)
    else:
        raise GraphError(
            "traced function must return a tensor or a sequence of tensors, "
            f"got {type(result).__name__}"
        )
    output_ids = []
    for tensor in results:
        if not isinstance(tensor, Tensor):
            raise GraphError("traced function must return tensors")
        if tensor.trace_value is None:
            # The output did not pass through any op (e.g. an input returned
            # unchanged or a constant); capture it so the graph stays valid.
            output_ids.append(ctx.value_for(tensor).id)
        else:
            output_ids.append(tensor.trace_value.id)
    ctx.graph.set_outputs(output_ids)
    ctx.graph.validate()
    return ctx.graph
