"""ExecutionOptions: one object for every compile/execute knob.

A single frozen dataclass is threaded through
:class:`~repro.core.session.TQPSession` (whose only defaults are one such
object), :meth:`~repro.core.session.TQPSession.compile`, the
:class:`~repro.core.executor.Executor`, and the plan-cache key; nothing else
takes ``backend=`` / ``device=`` / ``parallelism=`` keywords.  The field set is
pinned by ``tests/unit/test_execution_options.py``: adding a field fails CI.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional

from repro.tensor.device import Device, parse_device
from repro.tensor.script import EXECUTOR_MODES


@dataclasses.dataclass(frozen=True)
class ExecutionOptions:
    """Compilation/execution settings for one query (or a whole session).

    Every field has an "inherit" default (``None`` or the common case), so a
    partially specified instance can be resolved against a session's default
    options with :meth:`resolved`.

    Attributes:
        backend: ``pytorch`` (eager), ``torchscript``, ``onnx``,
            ``torchscript-noopt`` — ``None`` inherits the session default
            (``pytorch`` when the session names none).
        device: ``cpu``, ``cuda`` (simulated) or ``wasm`` (simulated) —
            ``None`` inherits the session default (``cpu``).
        parallelism: worker lanes a statement is priced on — ``None``
            inherits the session default (1).  A price, not a plan: the
            statement runs its serial entry's plan, program and executor;
            only its lanes map, labels and reported time differ.
        auto_parameterize: lift literals out of ad-hoc ``sql()`` calls into
            bind parameters, so queries differing only in constants share one
            compiled plan (opt-in; see ``repro.core.parameters``).
        executor: how traced graph plans are replayed — ``compiled`` (the
            default: the graph is lowered to generated code; one the emitter
            cannot lower raises :class:`~repro.errors.CodegenError` at first
            execution) or ``interpret`` (the node-by-node graph interpreter,
            the reference executor of the differential harness).  Part of the
            plan-cache key.  Only affects graph backends; the eager
            ``pytorch`` backend has no traced graph to replay.
        devices: simulated devices a statement is priced on — ``None``
            inherits the session default (1).  A width, like
            ``parallelism``: the statement runs its serial entry's plan,
            program and executor, and the lanes model prices it at
            ``parallelism × devices`` lanes (no interconnect is modelled).
        shard: ``hash`` or ``range``; changes nothing and is not part of the
            plan-cache key.  Kept only because the frozen performance ledger
            still passes it; the ``[benchmark]`` change that unfreezes the
            ledger (ROADMAP item 3) removes it together with ``devices``.
        adaptive: price every execution under each strategy candidate
            (:mod:`repro.adaptive`).  Its three candidates price the serial
            entry's plan and share its executor; every execution is profiled,
            its profile prices each candidate under the device's cost model
            (``reported_s``: lanes move no wall-clock time), and it reports
            the cheapest — results are always identical across strategies.
            ``parallelism`` then sets the lane budget the candidates may
            use, not a fixed choice.  Part of the plan-cache key.
    """

    backend: Optional[str] = None
    device: Device | str | None = None
    parallelism: Optional[int] = None
    auto_parameterize: bool = False
    executor: str = EXECUTOR_MODES[0]
    devices: Optional[int] = None
    shard: str = "hash"
    adaptive: bool = False

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, "
                f"got {self.executor!r}")
        if self.shard not in ("hash", "range"):
            raise ValueError(
                f"shard must be 'hash' or 'range', got {self.shard!r}")

    def resolved(self, defaults: "ExecutionOptions | None" = None
                 ) -> "ExecutionOptions":
        """A fully concrete copy: every ``None`` field takes ``defaults``'
        value, or the built-in one (``pytorch`` on ``cpu``, one lane, one
        device) where ``defaults`` has none either."""
        def pick(field: str, builtin):
            value = getattr(self, field)
            if value is None and defaults is not None:
                value = getattr(defaults, field)
            return builtin if value is None else value

        return dataclasses.replace(
            self,
            backend=pick("backend", "pytorch"),
            device=parse_device(pick("device", "cpu")),
            parallelism=max(1, int(pick("parallelism", 1))),
            devices=max(1, int(pick("devices", 1))),
        )

    def replace(self, **changes: Any) -> "ExecutionOptions":
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> tuple:
        """The options' contribution to the session plan-cache key."""
        return (self.backend, str(self.device), self.parallelism,
                self.executor, self.devices, self.adaptive)
