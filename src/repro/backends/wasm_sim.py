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
                 morsel_dispatch_overhead_s: float = 20e-6,
                 message_bandwidth_gbs: float = 1.0,
                 message_latency_s: float = 50e-6):
        #: Multiplier over native CPU time (WASM SIMD-less kernels + laptop CPU).
        self.slowdown = slowdown
        #: JS/WASM boundary crossing cost charged per executed op.
        self.per_op_overhead_s = per_op_overhead_s
        #: ``postMessage``-style cost charged per morsel handed to a Web
        #: Worker — on top of the boundary crossing the dispatch op pays like
        #: every other event, and deliberately steep: browsers make fine-
        #: grained task parallelism expensive.
        self.morsel_dispatch_overhead_s = morsel_dispatch_overhead_s
        #: Structured-clone serialization bandwidth for moving a shard
        #: fragment between Web Workers — the browser's "interconnect" copies
        #: payloads through ``postMessage``, orders of magnitude slower than
        #: any GPU link.
        self.message_bandwidth_gbs = message_bandwidth_gbs
        #: Fixed event-loop round-trip latency charged per exchanged message.
        self.message_latency_s = message_latency_s

    def report_time(self, measured_s: float, profile: Profiler | None
                    ) -> float:
        """``measured × slowdown + events × per_op_overhead``.

        Every profiler event pays the JS/WASM boundary cost once, so fused
        elementwise chains pay it once per fused kernel.

        Morsel-parallel plans model Web-Worker execution: the measured time of
        worker-lane kernels is replaced by the slowest lane's share before the
        slowdown is applied, and every morsel dispatch pays a ``postMessage``
        charge on top of its boundary crossing.

        Multi-device plans model a Web-Worker *pool*: each shard's kernels run
        on their own worker, so the measured time of all shard kernels (and of
        the zero-cost exchange identities) is replaced by the slowest shard's
        share, and every exchange pays a ``postMessage`` latency plus its
        payload bytes over the structured-clone bandwidth.
        """
        if profile is None:
            return measured_s * self.slowdown
        n_boundary_crossings = len(profile.events)
        _, kernels = profile.partition(TRANSFER_OPS)
        kernel_s = measured_s
        host, shards, exchanges = split_partitions(kernels)
        if shards or exchanges:
            shard_s = [sum(event.elapsed_s for event in region.events())
                       for region in shards.values()]
            off_host_s = sum(shard_s) + sum(event.elapsed_s
                                            for event in exchanges)
            kernel_s = max(0.0,
                           kernel_s - off_host_s + max(shard_s, default=0.0))
        if host.lanes:
            lane_s = [sum(event.elapsed_s for event in lane_events)
                      for lane_events in host.lanes.values()]
            kernel_s = max(0.0, kernel_s - sum(lane_s) + max(lane_s))
        bandwidth_bps = self.message_bandwidth_gbs * 1e9
        message_s = sum(self.message_latency_s
                        + event.output_bytes / bandwidth_bps
                        for event in exchanges)
        return (kernel_s * self.slowdown
                + n_boundary_crossings * self.per_op_overhead_s
                + len(host.dispatches) * self.morsel_dispatch_overhead_s
                + message_s)
