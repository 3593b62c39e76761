"""CPU device: real execution, measured time.

Unprofiled runs report wall-clock time, exactly as before.  Profiled runs
report *kernel time* — the sum of the profiler's per-op durations — which
excludes the pure-Python dispatch overhead of this simulation harness (the
regime a compiled engine or the paper's TorchScript backend operates in).
Kernel time is also what the lanes model spreads: a ``parallelism=N`` plan
runs the serial program, and each kernel of an operator the plan's ``lanes``
map puts on ``N`` lanes (looked up by the event's scope, ``label#id``) is
charged one lane's share, ``elapsed / k`` with ``k`` its ``morsel_lanes``
(one lane per whole morsel of its rows, at most ``N``; a kernel under two
morsels stays serial), plus a fixed cost per morsel dispatch, ``N`` per lanes
operator — each its own, even where two render the same label.  Serial
plans charge every kernel — same basis, so ``parallelism=1`` vs
``parallelism=N`` speedup curves are apples to apples.  They are a *model*:
the wall clock of both is the serial program's, and so is that of a
``devices=D`` statement, priced at ``parallelism × D`` lanes.
"""

from __future__ import annotations

from repro.backends.base import DeviceCostModel, split_partitions
from repro.tensor.profiler import Profiler


class CPUDevice(DeviceCostModel):
    """The host CPU — kernels run for real; see the module docstring for the
    measured-vs-kernel-time reporting rules."""

    name = "cpu"

    def __init__(self, morsel_dispatch_overhead_s: float = 8e-6):
        #: Cost per morsel handed to a worker (queue push/pop and waking it):
        #: all a lanes operator pays beyond its kernels' shares.  At 8 µs a
        #: 4-lane filter over 20k rows loses to serial, one over 60k wins.
        self.morsel_dispatch_overhead_s = morsel_dispatch_overhead_s

    def report_time(self, measured_s: float, profile: Profiler | None,
                    lanes: "dict[str, int] | None" = None) -> float:
        if profile is None or not profile.events:
            return measured_s
        return split_partitions(profile.events, lanes).time(
            lambda event: event.elapsed_s, self.morsel_dispatch_overhead_s)
