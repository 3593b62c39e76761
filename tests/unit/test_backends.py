"""Unit tests for backend specs and device cost models."""

import pytest

from repro.backends import (
    BACKENDS,
    BackendSpec,
    CPUDevice,
    SimulatedGPU,
    SimulatedWASM,
    get_backend,
    get_device_model,
)
from repro.errors import ExecutionError
from repro.tensor import Profiler, ops


def _profile_with_ops(n_ops: int = 3, size: int = 1000) -> Profiler:
    with Profiler() as profiler:
        t = ops.tensor([1.0] * size)
        for _ in range(n_ops):
            t = ops.add(t, 1.0)
    return profiler


def test_backend_registry_contents():
    assert {"pytorch", "torchscript", "onnx", "torchscript-noopt"} <= set(BACKENDS)
    assert get_backend("pytorch").strategy == "eager"
    assert get_backend("torchscript").strategy == "graph"
    assert get_backend("onnx").serialize is True
    assert get_backend("torchscript-noopt").optimize_graph is False
    with pytest.raises(ExecutionError):
        get_backend("tvm")


def test_backend_spec_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        BackendSpec(name="x", strategy="interpreted")


def test_device_model_selection():
    assert isinstance(get_device_model("cpu"), CPUDevice)
    assert isinstance(get_device_model("cuda"), SimulatedGPU)
    assert isinstance(get_device_model("wasm"), SimulatedWASM)


def test_cpu_reports_measured_time():
    model = CPUDevice()
    assert model.report_time(0.123, None) == 0.123


def test_gpu_cost_model_is_bandwidth_and_launch_bound():
    model = SimulatedGPU(hbm_bandwidth_gbs=500, pcie_bandwidth_gbs=16,
                         kernel_launch_overhead_s=5e-6)
    profile = _profile_with_ops(n_ops=4)
    reported = model.report_time(measured_s=1.0, profile=profile)
    # Tiny kernels are launch-overhead bound: ~4 launches of 5us each.
    assert 4 * 5e-6 <= reported < 1e-3
    # Without a profile the fallback speedup is applied.
    assert model.report_time(1.0, None) == pytest.approx(1.0 / model.compute_speedup)


def test_gpu_cost_model_charges_transfers():
    model = SimulatedGPU()
    with Profiler() as profile:
        ops.to_device(ops.tensor([1.0] * 1_000_000), "cuda")
    with_transfer = model.report_time(0.0, profile)
    assert with_transfer > 1_000_000 * 8 / (model.pcie_bandwidth_gbs * 1e9)


def test_gpu_larger_scans_scale_with_bytes():
    model = SimulatedGPU(kernel_launch_overhead_s=0.0)
    small = Profiler()
    small.record("mul", 0.0, 8_000, 8_000, ops.tensor([1.0]).device)
    large = Profiler()
    large.record("mul", 0.0, 8_000_000, 8_000_000, ops.tensor([1.0]).device)
    assert model.report_time(0.0, large) > 100 * model.report_time(0.0, small)


def test_wasm_cost_model_slowdown_and_dispatch():
    model = SimulatedWASM(slowdown=6.0, per_op_overhead_s=1e-5)
    profile = _profile_with_ops(n_ops=10)
    reported = model.report_time(measured_s=0.01, profile=profile)
    assert reported >= 0.06  # slowdown applied
    assert reported >= 0.06 + 10 * 1e-5 - 1e-9  # dispatch overhead added
