"""``repro.tensor`` — the mini Tensor Computation Runtime (TCR).

This package plays the role PyTorch plays in the paper: a tensor type with a
functional op vocabulary, eager execution, trace capture, graph optimization,
a scripted (TorchScript-like) target, an ONNX-like portable format, and an
op-level profiler.
"""

from repro.tensor.device import CPU, CUDA, WASM, Device, parse_device
from repro.tensor.dtype import (
    ALL_DTYPES,
    DType,
    bool_,
    by_name,
    float32,
    float64,
    from_numpy,
    int32,
    int64,
    int8,
    result_type,
    uint8,
)
from repro.tensor.graph import Graph, Node, Value
from repro.tensor.interpreter import GraphInterpreter
from repro.tensor.profiler import (
    OpEvent,
    OpSummary,
    Profiler,
    current_profiler,
    current_stamp,
    stamped,
)
from repro.tensor.script import ScriptedProgram, script_trace
from repro.tensor.tensor import Tensor
from repro.tensor.tracing import TraceContext, current_trace, trace
from repro.tensor import allocator  # noqa: F401 - fixes the C allocator's thresholds
from repro.tensor import onnxlike, ops, passes

__all__ = [
    "ALL_DTYPES",
    "CPU",
    "CUDA",
    "WASM",
    "Device",
    "DType",
    "Graph",
    "GraphInterpreter",
    "Node",
    "OpEvent",
    "OpSummary",
    "Profiler",
    "ScriptedProgram",
    "Tensor",
    "TraceContext",
    "Value",
    "bool_",
    "by_name",
    "current_profiler",
    "current_stamp",
    "current_trace",
    "float32",
    "float64",
    "from_numpy",
    "int32",
    "int64",
    "int8",
    "onnxlike",
    "ops",
    "parse_device",
    "passes",
    "result_type",
    "script_trace",
    "stamped",
    "tensor",
    "trace",
    "uint8",
]

tensor = ops.tensor
