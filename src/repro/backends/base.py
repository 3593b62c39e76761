"""Backend and device cost-model abstractions.

A *backend* in TQP terms is a compilation target for the tensor program
(PyTorch eager, TorchScript, ONNX, ...).  A *device* is where the kernels run
(CPU, GPU, browser/WASM).  In this reproduction:

* backends decide the execution strategy (eager op dispatch vs. traced graph),
* devices decide how the reported execution time is produced: the CPU reports
  measured wall time; the simulated CUDA and WASM devices report time from an
  analytic cost model fed with the op-level profile of the (real) execution.

Results are always computed by real kernels; only *time* is ever simulated.

Partitioned plans (:mod:`repro.core.operators.partition`) run their partitions
one after another and annotate every event with the worker lane / device shard
it belongs to; :func:`split_partitions` is the one place that turns those
annotations back into the concurrent structure every cost model charges:
host work, plus the *slowest* shard, each of them serial work plus its
*slowest* lane plus a fixed cost per morsel dispatch, plus every exchange as
an interconnect transfer.
"""

from __future__ import annotations

import dataclasses

from repro.tensor.op_semantics import EXCHANGE_OPS
from repro.tensor.profiler import Profiler

#: Ops charged by cost models as host<->device transfers rather than kernels.
TRANSFER_OPS = frozenset({"to_device"})

#: Ops that mark the hand-off of one morsel to a worker lane.  They are
#: zero-copy identities — cost models must ignore their pass-through byte
#: counts and charge a fixed per-dispatch scheduling cost instead.
DISPATCH_OPS = frozenset({"morsel_dispatch"})


@dataclasses.dataclass
class Region:
    """The events of one device (the host, or one shard), by worker lane.

    Attributes:
        serial: events whose stamp names no worker lane.
        lanes: worker-lane id → the events executed on that lane.  Lanes run
            concurrently: a region's time charges its *slowest lane*.
        dispatches: morsel hand-offs.  Morsels are handed out one at a time
            by the scheduler, so dispatch is the part of a parallel region
            that never scales: a fixed cost each, their bytes ignored.
    """

    serial: list = dataclasses.field(default_factory=list)
    lanes: dict = dataclasses.field(default_factory=dict)
    dispatches: list = dataclasses.field(default_factory=list)

    def events(self):
        """Every event of the region."""
        yield from self.serial
        for lane_events in self.lanes.values():
            yield from lane_events
        yield from self.dispatches

    def time(self, cost, dispatch_overhead_s: float) -> float:
        """Serial work + the slowest lane + per-dispatch scheduling, with
        ``cost(event)`` the model's price of one kernel."""
        return (sum(cost(event) for event in self.serial)
                + max((sum(cost(event) for event in lane_events)
                       for lane_events in self.lanes.values()), default=0.0)
                + len(self.dispatches) * dispatch_overhead_s)


def split_partitions(events) -> tuple[Region, dict, list]:
    """Partition kernel events into the partitioned execution structure.

    Returns ``(host, shards, exchanges)``: the host's :class:`Region`, a
    device (shard) id → :class:`Region` map, and the exchange events.
    Exchange ops (``shard_exchange`` / ``shard_broadcast`` /
    ``shard_gather``) are pulled out first, whatever annotation they carry —
    they are zero-copy identities whose *payload bytes* (their output tensor;
    input + output would count the payload twice) the cost models charge
    against an interconnect tier, never as kernels.  Events whose stamp names
    no shard run on the host.  Devices run concurrently, so a sharded
    plan charges its *slowest shard*, plus the host region, plus the
    exchanges.
    """
    host, shards, exchanges = Region(), {}, []
    for event in events:
        if event.op in EXCHANGE_OPS:
            exchanges.append(event)
            continue
        region = (host if event.shard is None
                  else shards.setdefault(event.shard, Region()))
        if event.op in DISPATCH_OPS:
            region.dispatches.append(event)
        elif event.lane is None:
            region.serial.append(event)
        else:
            region.lanes.setdefault(event.lane, []).append(event)
    return host, shards, exchanges


@dataclasses.dataclass(frozen=True)
class BackendSpec:
    """A compilation target.

    Attributes:
        name: backend name exposed to users (``"pytorch"``, ``"torchscript"``,
            ``"onnx"``).
        strategy: ``"eager"`` (op-by-op Python dispatch, the PyTorch-like
            default) or ``"graph"`` (trace once, optimize, replay).
        serialize: whether the traced graph is round-tripped through the
            ONNX-like portable format before execution (models the
            export-to-browser path).
        optimize_graph: whether graph optimization passes run after tracing.
    """

    name: str
    strategy: str
    serialize: bool = False
    optimize_graph: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in ("eager", "graph"):
            raise ValueError(f"unknown backend strategy: {self.strategy!r}")


class DeviceCostModel:
    """Base cost model: report the measured wall-clock time unchanged."""

    name = "measured"

    def report_time(self, measured_s: float, profile: Profiler | None
                    ) -> float:
        """Return the execution time to report for a run.

        Args:
            measured_s: wall-clock seconds of the real (numpy) execution.
            profile: op-level profile of that execution (may be ``None`` when
                profiling was disabled; cost models must degrade gracefully).
        """
        return measured_s
