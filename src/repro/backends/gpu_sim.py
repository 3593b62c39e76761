"""Simulated GPU device (stand-in for the paper's NVIDIA P100).

The paper's Figure 1 reports GPU execution 20× (Q6) and 6× (Q14) faster than
Spark-CPU.  Without a GPU we keep the *computation* on the CPU (so results are
always real) and report a time produced by a roofline-style cost model driven
by the op-level profile of the run:

``compute  = Σ_kernels  max(launch_overhead, bytes / HBM_bw)``
``transfer = Σ_copies   (pcie_latency + payload_bytes / PCIe_bw)``
``t        = max(compute, hideable_transfer) + exposed_transfer``

A *kernel* here is one profiler event; with the ``fuse_elementwise`` pass
active a whole chain of elementwise ops is a single ``fused_kernel`` event,
so launch overhead is charged per fused kernel actually launched — the same
reason fusion pays on real GPUs.  Transfers that happen while later kernels
still run (i.e. any copy observed before the last kernel event) are assumed
to overlap with compute through the copy engine; a transfer with no compute
after it stays exposed.

The defaults approximate a P100: ~16 GB/s effective PCIe 3.0 x16 transfer
bandwidth, ~500 GB/s effective HBM2 bandwidth, ~5 µs per kernel launch, and a
few µs of per-copy PCIe/driver latency.  The model intentionally captures the
two qualitative behaviours the paper relies on: (1) large scans are
memory-bandwidth bound and therefore much faster than CPU, and (2) small
inputs are dominated by kernel-launch overhead and data transfer, so GPU
execution does not help tiny queries.
"""

from __future__ import annotations

from repro.backends.base import TRANSFER_OPS, DeviceCostModel, split_partitions
from repro.tensor.profiler import Profiler


class SimulatedGPU(DeviceCostModel):
    """Analytic P100-like cost model."""

    name = "cuda (simulated)"

    def __init__(
        self,
        hbm_bandwidth_gbs: float = 500.0,
        pcie_bandwidth_gbs: float = 16.0,
        kernel_launch_overhead_s: float = 5e-6,
        compute_speedup: float = 12.0,
        pcie_latency_s: float = 3e-6,
        morsel_dispatch_overhead_s: float = 4e-6,
    ):
        self.hbm_bandwidth_gbs = hbm_bandwidth_gbs
        self.pcie_bandwidth_gbs = pcie_bandwidth_gbs
        self.kernel_launch_overhead_s = kernel_launch_overhead_s
        #: Fallback speedup applied to measured CPU time when no profile is
        #: available (e.g. profiling disabled for a benchmark run).
        self.compute_speedup = compute_speedup
        #: Fixed driver/DMA-setup latency charged per host<->device copy.
        self.pcie_latency_s = pcie_latency_s
        #: Stream/scheduling cost charged per morsel handed to a worker lane
        #: (the GPU analogue is launching the morsel's kernels on a side
        #: stream), ``n`` per lanes operator.  It caps the modelled speedup.
        self.morsel_dispatch_overhead_s = morsel_dispatch_overhead_s

    @property
    def min_report_s(self) -> float:
        """Physical floor: no GPU run beats one launch plus one copy setup."""
        return self.kernel_launch_overhead_s + self.pcie_latency_s

    def report_time(self, measured_s: float, profile: Profiler | None,
                    lanes: "dict[str, int] | None" = None) -> float:
        if profile is None or not profile.events:
            # No profile to drive the roofline: apply the fallback speedup,
            # clamped so the report can never dip below the launch+transfer
            # floor no matter how small the measured time is.
            return max(measured_s / self.compute_speedup, self.min_report_s)
        hbm_bps = self.hbm_bandwidth_gbs * 1e9
        pcie_bps = self.pcie_bandwidth_gbs * 1e9
        transfers, kernels = profile.partition(TRANSFER_OPS)

        def kernel_cost(event, lanes: int = 1) -> float:
            # A lane moves 1/lanes of the bytes but pays a whole launch.
            return max(self.kernel_launch_overhead_s,
                       event.total_bytes / (lanes * hbm_bps))

        # Per-morsel dispatch stays serial (one scheduler), which is what
        # bends the speedup curve at high worker counts.
        compute_s = split_partitions(kernels, lanes).time(
            kernel_cost, self.morsel_dispatch_overhead_s, kernel_cost)
        # A to_device event's payload is its output tensor; input/output byte
        # totals would charge the same copy twice.
        last_kernel_ts = max((e.timestamp_s for e in kernels), default=float("-inf"))
        hideable_s = exposed_s = 0.0
        for event in transfers:
            cost = self.pcie_latency_s + event.output_bytes / pcie_bps
            if event.timestamp_s < last_kernel_ts:
                hideable_s += cost  # overlapped with compute via the copy engine
            else:
                exposed_s += cost
        return max(compute_s, hideable_s) + exposed_s
