"""Graph IR for traced tensor programs.

A :class:`Graph` is the runtime's equivalent of a TorchScript/ONNX graph: a
flat list of op nodes over SSA values, plus constant initializers captured at
trace time.  TQP's execution layer lowers operator plans into these graphs for
the "torchscript" and "onnx" compilation targets.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Iterable

import numpy as np

from repro.errors import GraphError


@dataclasses.dataclass
class Value:
    """An SSA value produced by a graph input, an initializer, or a node."""

    id: int
    name: str
    shape: tuple[int, ...] | None = None
    dtype: str | None = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"%{self.id}:{self.name}"


@dataclasses.dataclass
class Node:
    """A single op application."""

    op: str
    inputs: list[int]
    outputs: list[int]
    attrs: dict[str, Any] = dataclasses.field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        ins = ", ".join(f"%{i}" for i in self.inputs)
        outs = ", ".join(f"%{o}" for o in self.outputs)
        return f"{outs} = {self.op}({ins}) {self.attrs if self.attrs else ''}"


class Graph:
    """A tensor program: inputs, initializers, nodes, outputs."""

    def __init__(self, name: str = "graph"):
        self.name = name
        self.values: dict[int, Value] = {}
        self.inputs: list[int] = []
        self.outputs: list[int] = []
        self.nodes: list[Node] = []
        self.initializers: dict[int, np.ndarray] = {}
        self._counter = itertools.count()

    # -- construction ------------------------------------------------------

    def new_value(self, name: str, shape: tuple[int, ...] | None = None,
                  dtype: str | None = None) -> Value:
        vid = next(self._counter)
        value = Value(vid, name, shape, dtype)
        self.values[vid] = value
        return value

    def add_input(self, name: str, shape: tuple[int, ...] | None = None,
                  dtype: str | None = None) -> Value:
        value = self.new_value(name, shape, dtype)
        self.inputs.append(value.id)
        return value

    def add_initializer(self, array: np.ndarray, name: str = "const") -> Value:
        value = self.new_value(name, tuple(array.shape), str(array.dtype))
        self.initializers[value.id] = array
        return value

    def add_node(self, op: str, inputs: list[int], n_outputs: int,
                 attrs: dict[str, Any] | None = None,
                 output_names: list[str] | None = None) -> list[Value]:
        outputs = []
        for i in range(n_outputs):
            name = output_names[i] if output_names else f"{op}_out{i}"
            outputs.append(self.new_value(name))
        node = Node(op, list(inputs), [v.id for v in outputs], dict(attrs or {}))
        self.nodes.append(node)
        return outputs

    def set_outputs(self, value_ids: Iterable[int]) -> None:
        self.outputs = list(value_ids)

    # -- inspection ----------------------------------------------------------

    def op_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.nodes:
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def referenced_values(self) -> set[int]:
        """All value ids reachable from inputs, initializers, nodes, outputs."""
        referenced: set[int] = set(self.inputs) | set(self.initializers)
        referenced.update(self.outputs)
        for node in self.nodes:
            referenced.update(node.inputs)
            referenced.update(node.outputs)
        return referenced

    def prune_values(self) -> None:
        """Drop metadata for values no node references any more.

        Passes that swallow intermediate values (e.g. elementwise fusion,
        which keeps them alive only inside a fused kernel's local program)
        call this so ``values`` stays in sync with the visible graph.
        """
        referenced = self.referenced_values()
        self.values = {vid: v for vid, v in self.values.items() if vid in referenced}

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphError` on violation."""
        defined: set[int] = set(self.inputs) | set(self.initializers)
        for vid in defined:
            if vid not in self.values:
                raise GraphError(f"value %{vid} referenced but not declared")
        for node in self.nodes:
            for vid in node.inputs:
                if vid not in defined:
                    raise GraphError(
                        f"node {node.op} uses value %{vid} before definition"
                    )
            for vid in node.outputs:
                if vid in defined:
                    raise GraphError(f"value %{vid} defined twice")
                defined.add(vid)
        for vid in self.outputs:
            if vid not in defined:
                raise GraphError(f"graph output %{vid} is never defined")

    def __repr__(self) -> str:
        lines = [f"graph {self.name}("]
        lines.extend(f"    %{vid}: {self.values[vid].name}," for vid in self.inputs)
        lines.append("):")
        for vid, arr in self.initializers.items():
            lines.append(f"  init %{vid}: shape={arr.shape} dtype={arr.dtype}")
        for node in self.nodes:
            lines.append(f"  {node!r}")
        lines.append("  return " + ", ".join(f"%{vid}" for vid in self.outputs))
        return "\n".join(lines)

    def clone(self) -> "Graph":
        """Deep-copy the graph (initializer arrays are shared, nodes copied)."""
        g = Graph(self.name)
        g.values = {vid: dataclasses.replace(v) for vid, v in self.values.items()}
        g.inputs = list(self.inputs)
        g.outputs = list(self.outputs)
        g.nodes = [Node(n.op, list(n.inputs), list(n.outputs), dict(n.attrs))
                   for n in self.nodes]
        g.initializers = dict(self.initializers)
        g._counter = itertools.count(max(self.values, default=-1) + 1)
        return g
