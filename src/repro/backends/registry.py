"""Lookup tables for backends (compilation targets) and devices (cost models)."""

from __future__ import annotations

from repro.backends.base import BackendSpec, DeviceCostModel
from repro.backends.cpu import CPUDevice
from repro.backends.gpu_sim import SimulatedGPU
from repro.backends.wasm_sim import SimulatedWASM
from repro.errors import ExecutionError
from repro.tensor.device import Device, parse_device

#: Compilation targets, mirroring the paper's PyTorch / TorchScript / ONNX.
BACKENDS: dict[str, BackendSpec] = {
    # Vanilla eager execution (the paper's default PyTorch target).
    "pytorch": BackendSpec(name="pytorch", strategy="eager"),
    # Traced + optimized graph replayed as generated code (torch.jit analogue).
    "torchscript": BackendSpec(name="torchscript", strategy="graph"),
    # The same, exported to the portable format and re-imported before
    # execution (the ONNX / ORT-web analogue).
    "onnx": BackendSpec(name="onnx", strategy="graph", serialize=True),
    # Ablation target: traced graph executed without optimization passes.
    "torchscript-noopt": BackendSpec(name="torchscript-noopt", strategy="graph",
                                     optimize_graph=False),
}


def get_backend(name: str) -> BackendSpec:
    try:
        return BACKENDS[name]
    except KeyError:
        raise ExecutionError(
            f"unknown backend {name!r}; available: {sorted(BACKENDS)}"
        ) from None


def get_device_model(device: Device | str) -> DeviceCostModel:
    """Return the cost model responsible for reporting time on ``device``."""
    dev = parse_device(device)
    if dev.kind == "cpu":
        return CPUDevice()
    if dev.kind == "cuda":
        return SimulatedGPU()
    if dev.kind == "wasm":
        return SimulatedWASM()
    raise ExecutionError(f"no cost model for device {dev}")  # pragma: no cover
