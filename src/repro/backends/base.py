"""Backend and device cost-model abstractions.

A *backend* in TQP terms is a compilation target for the tensor program
(PyTorch eager, TorchScript, ONNX, ...).  A *device* is where the kernels run
(CPU, GPU, browser/WASM).  In this reproduction:

* backends decide the execution strategy (eager op dispatch vs. traced graph),
* devices decide how the reported execution time is produced: the CPU reports
  measured wall time; the simulated CUDA and WASM devices report time from an
  analytic cost model fed with the op-level profile of the (real) execution.

Results are always computed by real kernels; only *time* is ever simulated.

Every event names its operator (``scope``, ``label#id``); the plan's
``lanes`` map (``OperatorPlan.lanes``, ``{scope: n}``) says which operators
its pricing put on ``n`` worker lanes.  :func:`split_partitions` turns the two
into the structure every cost model charges: serial work plus one lane's
share of every lanes event plus ``n`` morsel dispatches per lanes operator.
Lanes are a *model*: the kernels are the serial program's, and so is the
wall clock.  A device count is priced as lanes too
(``parallelism × devices``); no interconnect is modelled.
"""

from __future__ import annotations

import dataclasses

from repro.core.columnar import DEFAULT_MORSEL_ROWS
from repro.tensor.profiler import Profiler

#: Ops charged by cost models as host<->device transfers rather than kernels.
TRANSFER_OPS = frozenset({"to_device"})


@dataclasses.dataclass
class Region:
    """The events of one run, split by how the lanes model prices them.

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


def split_partitions(events, lanes: "dict[str, int] | None" = None) -> Region:
    """The :class:`Region` of kernel events the cost models price: ``lanes``
    (the plan's ``{scope: n}``) gives each event its operator's width, and a
    scope it does not name is serial."""
    lanes = lanes or {}
    region = Region()
    for event in events:
        width = lanes.get(event.scope, 1)
        if width > 1:
            region.operators.add((event.scope, width))
        spread = morsel_lanes(event, width)
        if spread < 2:
            region.serial.append(event)
        else:
            region.spread.append((event, spread))
    return region


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
        optimize_graph: whether graph optimization passes run when the traced
            graph is lowered.
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
