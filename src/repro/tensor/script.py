"""TorchScript-like compilation target: trace + optimize + execute.

``script_trace(fn, example_inputs)`` returns a :class:`ScriptedProgram` — a
standalone, optimized tensor program that can be executed repeatedly on new
inputs (and moved across devices), matching the role ``torch.jit.trace`` plays
in the paper's TorchScript backend.

A scripted program replays through exactly one *executor*, fixed at
construction:

* ``compiled`` (the default) — the graph is lowered to one generated Python
  function (:mod:`repro.tensor.codegen`); a graph the emitter cannot lower
  raises :class:`~repro.errors.CodegenError` here, at construction — there is
  no second path to change to;
* ``interpret`` — replay the graph node-by-node
  (:class:`~repro.tensor.interpreter.GraphInterpreter`), the reference the
  generated code is held against.

Both executors consume the shared op-semantics registry, so results and
profile-event streams are identical either way.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.tensor import codegen, passes as graph_passes, tracing
from repro.tensor.device import Device
from repro.tensor.graph import Graph
from repro.tensor.interpreter import GraphInterpreter
from repro.tensor.tensor import Tensor

#: Valid values for the ``executor`` knob, here and in ExecutionOptions; the
#: first one is the default of both.
EXECUTOR_MODES = ("compiled", "interpret")


class ScriptedProgram:
    """An optimized, replayable tensor program."""

    def __init__(self, graph: Graph, executor: str = EXECUTOR_MODES[0]):
        if executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, got {executor!r}")
        self.graph = graph
        self.executor = executor
        if executor == "compiled":
            graph.validate()
            self._replay = codegen.compile_graph(graph)
        else:
            self._replay = GraphInterpreter(graph)

    @property
    def compiled_source(self) -> "str | None":
        """The generated Python source (``None`` under ``interpret``)."""
        return self._replay.source if self.executor == "compiled" else None

    @property
    def compiled_profiled_source(self) -> "str | None":
        """The generated profiled body (``None`` until a run has profiled)."""
        return (self._replay.profiled_source if self.executor == "compiled"
                else None)

    def build_profiled(self) -> None:
        """Build the profiled body now rather than inside the first profiled
        :meth:`run`, for a caller about to time one."""
        if self.executor == "compiled":
            self._replay.profiled_fn()

    def serving_fn(self, device: Device | str):
        """Unprofiled serving entry (see ``CompiledGraphProgram.serving_fn``).

        ``None`` under ``interpret`` — the interpreter has no single entry
        point; callers use :meth:`run` per request.
        """
        if self.executor != "compiled":
            return None
        return self._replay.serving_fn(device)

    def __call__(self, *inputs: Tensor, device: Device | str | None = None
                 ) -> list[Tensor]:
        return self.run(list(inputs), device=device)

    def run(self, inputs: Sequence[Tensor], device: Device | str | None = None
            ) -> list[Tensor]:
        return self._replay.run(list(inputs), device=device)

    @property
    def num_nodes(self) -> int:
        return len(self.graph.nodes)

    def op_counts(self) -> dict[str, int]:
        return self.graph.op_counts()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ScriptedProgram(nodes={self.num_nodes}, {self.executor})"


def script_trace(fn: Callable, example_inputs: Sequence[Tensor],
                 optimize: bool = True, name: str = "scripted"
                 ) -> ScriptedProgram:
    """Trace ``fn`` and return an optimized :class:`ScriptedProgram`."""
    graph = tracing.trace(fn, example_inputs, name=name)
    if optimize:
        graph = graph_passes.optimize(graph)
    return ScriptedProgram(graph)
