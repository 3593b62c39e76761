"""Backend and device cost-model abstractions.

A *backend* in TQP terms is a compilation target for the tensor program
(PyTorch eager, TorchScript, ONNX, ...).  A *device* is where the kernels run
(CPU, GPU, browser/WASM).  In this reproduction:

* backends decide the execution strategy (eager op dispatch vs. traced graph),
* devices decide how the reported execution time is produced: the CPU reports
  measured wall time; the simulated CUDA and WASM devices report time from an
  analytic cost model fed with the op-level profile of the (real) execution.

Results are always computed by real kernels; only *time* is ever simulated.

Every event names its operator (``scope``, ``label#id``) and its device
shard; the plan's ``lanes`` map (``OperatorPlan.lanes``, ``{scope: n}``) says
which operators its pricing put on ``n`` worker lanes.
:func:`split_partitions` turns the two into the concurrent structure every
cost model charges: host work plus the *slowest* shard, each serial work plus
one lane's share of every lanes event plus ``n`` morsel dispatches per lanes
operator, plus every exchange as an interconnect transfer.  Lanes are a
*model*: the kernels are the serial program's, and so is the wall clock.
"""

from __future__ import annotations

import dataclasses

from repro.core.columnar import DEFAULT_MORSEL_ROWS
from repro.tensor.op_semantics import EXCHANGE_OPS
from repro.tensor.profiler import Profiler

#: Ops charged by cost models as host<->device transfers rather than kernels.
TRANSFER_OPS = frozenset({"to_device"})


@dataclasses.dataclass
class Region:
    """The events of one device (the host, or one shard).

    Attributes:
        serial: events of serial operators, or under two :func:`morsel_lanes`.
        spread: ``(event, k)`` for every other event: a lane runs 1/k of it.
        operators: ``(scope, n)`` of every lanes operator with an event here,
            each handing out ``n`` morsels.  A set, not a run of events: a
            graph pass that moves or fuses a kernel leaves the count alone.
    """

    serial: list = dataclasses.field(default_factory=list)
    spread: list = dataclasses.field(default_factory=list)
    operators: set = dataclasses.field(default_factory=set)

    @property
    def dispatches(self) -> int:
        """Morsel hand-offs: one scheduler, so they never scale."""
        return sum(n for _, n in self.operators)

    def events(self) -> list:
        """Every event of the region."""
        return self.serial + [event for event, _ in self.spread]

    def time(self, cost, dispatch_overhead_s: float, share=None) -> float:
        """Serial work + one lane's share of the lanes work + dispatches:
        ``cost(event)`` prices a kernel, ``share(event, k)`` a lane's part."""
        share = share or (lambda event, n: cost(event) / n)
        return (sum(cost(event) for event in self.serial)
                + sum(share(event, n) for event, n in self.spread)
                + self.dispatches * dispatch_overhead_s)


def morsel_lanes(event, n: int) -> int:
    """The lanes an event's work spreads over: one per whole morsel of its
    rows, at most ``n``, its operator's width (under two, it is priced
    whole)."""
    return max(1, min(n, event.rows // DEFAULT_MORSEL_ROWS))


def split_partitions(events, lanes: "dict[str, int] | None" = None
                     ) -> tuple[Region, dict, list]:
    """Partition kernel events into the partitioned execution structure.

    Returns ``(host, shards, exchanges)``: the host's :class:`Region`, a
    device (shard) id → :class:`Region` map, and the exchange events.
    Exchange ops (``shard_exchange`` / ``shard_broadcast`` /
    ``shard_gather``) are pulled out first, whatever annotation they carry —
    they are zero-copy identities whose *payload bytes* (their output tensor;
    input + output would count the payload twice) the cost models charge
    against an interconnect tier, never as kernels.  Events whose stamp names
    no shard run on the host; ``lanes`` (the plan's ``{scope: n}``) gives
    each event its operator's width, and a scope it does not name is serial.
    """
    lanes = lanes or {}
    host, shards, exchanges = Region(), {}, []
    for event in events:
        if event.op in EXCHANGE_OPS:
            exchanges.append(event)
            continue
        region = (host if event.shard is None
                  else shards.setdefault(event.shard, Region()))
        width = lanes.get(event.scope, 1)
        if width > 1:
            region.operators.add((event.scope, width))
        spread = morsel_lanes(event, width)
        if spread < 2:
            region.serial.append(event)
        else:
            region.spread.append((event, spread))
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

    def report_time(self, measured_s: float, profile: Profiler | None,
                    lanes: "dict[str, int] | None" = None) -> float:
        """Return the execution time to report for a run.

        Args:
            measured_s: wall-clock seconds of the real (numpy) execution.
            profile: op-level profile of that execution (may be ``None`` when
                profiling was disabled; cost models must degrade gracefully).
            lanes: the plan's ``{scope: n}`` lanes widths
                (``OperatorPlan.lanes``); ``None`` prices every operator
                serial.
        """
        return measured_s
