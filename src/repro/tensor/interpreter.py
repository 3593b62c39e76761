"""Interpreter for traced tensor graphs.

The interpreter replays a :class:`~repro.tensor.graph.Graph` over new inputs,
one node at a time.  It is the de-optimized sibling of the codegen executor
(:mod:`repro.tensor.codegen`): both consume the shared op-semantics registry
(:mod:`repro.tensor.op_semantics`), so a graph produces identical results and
identical profile-event streams under either: each node runs inside the
:class:`~repro.tensor.profiler.stamped` frame — operator scope, lanes width,
device shard — it was traced under.  Generated code is what every
graph backend replays through; the interpreter is the *reference* executor
(``executor="interpret"``) that the differential harness, the
compiled-vs-interpreted benchmark gate and the ledger's trace twin hold the
generated code against, and what replays a loaded portable graph whose
attributes the emitter cannot lower.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import GraphError
from repro.tensor import op_semantics, ops
from repro.tensor.device import Device, parse_device
from repro.tensor.graph import Graph
from repro.tensor.profiler import Stamp, stamped
from repro.tensor.tensor import Tensor


class GraphInterpreter:
    """Executes a graph node-by-node."""

    def __init__(self, graph: Graph):
        graph.validate()
        self.graph = graph

    def run(self, inputs: Sequence[Tensor], device: Device | str | None = None
            ) -> list[Tensor]:
        """Run the graph; returns one tensor per graph output."""
        dev = parse_device(device) if device is not None else None
        if len(inputs) != len(self.graph.inputs):
            raise GraphError(
                f"graph expects {len(self.graph.inputs)} inputs, got {len(inputs)}"
            )
        env: dict[int, Tensor] = {}
        for value_id, tensor in zip(self.graph.inputs, inputs):
            env[value_id] = tensor if dev is None else tensor.to(dev)
        for value_id, array in self.graph.initializers.items():
            env[value_id] = Tensor(array, dev if dev is not None else
                                   (inputs[0].device if inputs else parse_device(None)))
        for node in self.graph.nodes:
            node_inputs = [env[value_id] for value_id in node.inputs]
            node_device = dev
            if node.op == op_semantics.TRANSFER_OP:
                node_device = op_semantics.transfer_target(node.attrs)
                if node_inputs and op_semantics.transfer_is_noop(
                        node_inputs[0].device, node_device):
                    env[node.outputs[0]] = node_inputs[0]
                    continue
            # Re-enter the stamp the node was traced under — operator, lanes
            # width, device shard — so the profile (and the cost models that
            # read it) sees the plan's structure; a scope or shard the node
            # does not carry keeps the replaying thread's ambient value.
            with stamped(*Stamp.of(node.attrs)):
                outputs = ops.execute_op(node.op, node_inputs, node.attrs, node_device)
            if len(outputs) != len(node.outputs):
                raise GraphError(
                    f"op {node.op} produced {len(outputs)} outputs, "
                    f"expected {len(node.outputs)}"
                )
            for value_id, tensor in zip(node.outputs, outputs):
                env[value_id] = tensor
        missing = [vid for vid in self.graph.outputs if vid not in env]
        if missing:
            raise GraphError(f"graph outputs never produced: {missing}")
        return [env[value_id] for value_id in self.graph.outputs]
