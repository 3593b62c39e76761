"""Simulated browser/WASM device (stand-in for ONNX Runtime Web).

The paper runs the ONNX export of a query inside a browser on a laptop and
observes that "the web execution is quite slow".  This device models that
path: the query must have been compiled through the ONNX-like serialized
format, and the reported time is the measured wall-clock time under a slowdown
factor (WASM code generation quality and the weaker client machine) plus a
JS/WASM boundary crossing per executed op.
"""

from __future__ import annotations

from repro.backends.base import TRANSFER_OPS, DeviceCostModel, split_partitions
from repro.tensor.profiler import Profiler


class SimulatedWASM(DeviceCostModel):
    """Browser/WASM cost model: measured time × slowdown + dispatch overhead."""

    name = "wasm (simulated)"

    def __init__(self, slowdown: float = 6.0, per_op_overhead_s: float = 30e-6,
                 morsel_dispatch_overhead_s: float = 20e-6):
        #: Multiplier over native CPU time (WASM SIMD-less kernels + laptop CPU).
        self.slowdown = slowdown
        #: JS/WASM boundary crossing cost charged per executed op.
        self.per_op_overhead_s = per_op_overhead_s
        #: ``postMessage``-style cost charged per morsel handed to a Web
        #: Worker (``n`` per lanes operator) — deliberately steep: browsers
        #: make fine-grained task parallelism expensive.
        self.morsel_dispatch_overhead_s = morsel_dispatch_overhead_s

    def report_time(self, measured_s: float, profile: Profiler | None,
                    lanes: "dict[str, int] | None" = None) -> float:
        """``measured × slowdown + events × per_op_overhead``.

        Every profiler event pays the JS/WASM boundary cost once, so fused
        elementwise chains pay it once per fused kernel.

        Morsel-parallel plans model Web-Worker execution: a lanes kernel's
        measured time becomes one lane's share, ``elapsed / k``, before the
        slowdown, and every morsel dispatch pays a ``postMessage`` charge.
        """
        if profile is None:
            return measured_s * self.slowdown
        n_boundary_crossings = len(profile.events)
        _, kernels = profile.partition(TRANSFER_OPS)
        region = split_partitions(kernels, lanes)
        kernel_s = max(0.0, measured_s - sum(event.elapsed_s * (n - 1) / n
                                             for event, n in region.spread))
        return (kernel_s * self.slowdown
                + n_boundary_crossings * self.per_op_overhead_s
                + region.dispatches * self.morsel_dispatch_overhead_s)
