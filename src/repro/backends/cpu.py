"""CPU device: real execution, measured time.

Unprofiled runs report wall-clock time, exactly as before.  Profiled runs
report *kernel time* — the sum of the profiler's per-op durations — which
excludes the pure-Python dispatch overhead of this simulation harness (the
regime a compiled engine or the paper's TorchScript backend operates in).
Kernel time is also what makes morsel-parallel reporting meaningful: worker
lanes run concurrently on a multicore CPU, so a parallel plan charges its
serial kernels, the *slowest worker lane*, and a fixed task-scheduling cost
per morsel dispatch.  Serial plans charge every kernel — same basis, so
``parallelism=1`` vs ``parallelism=N`` speedup curves are apples to apples.
"""

from __future__ import annotations

from repro.backends.base import DeviceCostModel, split_partitions
from repro.tensor.profiler import Profiler


class CPUDevice(DeviceCostModel):
    """The host CPU — kernels run for real; see the module docstring for the
    measured-vs-kernel-time reporting rules.

    With ``devices > 1`` the "devices" are NUMA-socket-like peers reached over
    a coherent interconnect: each shard's kernels run concurrently (the region
    charges its slowest shard), and every exchange op pays a per-message
    latency plus its payload bytes over the interconnect bandwidth.
    """

    name = "cpu"

    def __init__(self, morsel_dispatch_overhead_s: float = 2e-6,
                 interconnect_bandwidth_gbs: float = 25.0,
                 interconnect_latency_s: float = 1e-6):
        #: Task-queue push/pop cost charged per morsel handed to a worker.
        self.morsel_dispatch_overhead_s = morsel_dispatch_overhead_s
        #: Peer-to-peer bandwidth between simulated devices (UPI/xGMI-class).
        self.interconnect_bandwidth_gbs = interconnect_bandwidth_gbs
        #: Fixed per-message cost charged per exchange op.
        self.interconnect_latency_s = interconnect_latency_s

    def report_time(self, measured_s: float, profile: Profiler | None
                    ) -> float:
        if profile is None or not profile.events:
            return measured_s
        host, shards, exchanges = split_partitions(profile.events)
        bandwidth_bps = self.interconnect_bandwidth_gbs * 1e9
        exchange_s = sum(self.interconnect_latency_s
                         + event.output_bytes / bandwidth_bps
                         for event in exchanges)

        def region_s(region) -> float:
            return region.time(lambda event: event.elapsed_s,
                               self.morsel_dispatch_overhead_s)

        slowest_shard_s = max(map(region_s, shards.values()), default=0.0)
        return region_s(host) + slowest_shard_s + exchange_s
