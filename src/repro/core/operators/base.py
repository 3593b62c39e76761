"""Operator-plan infrastructure: the output of TQP's planning layer.

The planning layer maps every IR operator to a :class:`TensorOperator` whose
``execute`` method is written purely in terms of tensor ops (plus the
expression compiler).  The execution layer (see :mod:`repro.core.executor`)
turns the resulting operator plan into an Executor for a chosen backend and
device.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.columnar import TensorTable
from repro.core.expressions import EvaluationContext
from repro.core.operators.partition import (
    NONE,
    PartitionedTable,
    Partitioning,
    gather,
    input_of,
    lanes,
    partition_label,
)
from repro.errors import ExecutionError
from repro.tensor import stamped
from repro.tensor.device import Device, parse_device


class ExecutionContext:
    """Everything an operator needs at runtime."""

    def __init__(self, inputs: dict[str, TensorTable],
                 eval_ctx: Optional[EvaluationContext] = None,
                 device: Device | str = "cpu"):
        #: Converted scan inputs per alias; each carries the storage
        #: statistics it was converted beside (``TensorTable.statistics``).
        self.inputs = inputs
        self.device = parse_device(device)
        self.eval_ctx = eval_ctx or EvaluationContext(device=self.device)
        #: Zone-map pruning outcome per scan alias, written by the scans of
        #: *this* execution (the plan object is shared by every concurrent
        #: request of a statement, so nothing per-run may live on it).
        self.pruning: dict[str, dict] = {}

    def input_table(self, alias: str) -> TensorTable:
        if alias not in self.inputs:
            raise ExecutionError(f"no input table bound for scan alias {alias!r}")
        return self.inputs[alias]


class TensorOperator:
    """Base class for relational operators implemented as tensor programs."""

    #: short name used by the profiler scopes and the Figure-2 breakdown
    name = "operator"
    #: Plan-unique name its events and traced nodes are stamped with,
    #: ``label#id`` (the label rendered without partitioning), given out by
    #: the planner (a plan's ``lanes`` map keys on it); unset, it stamps nothing.
    scope = ""

    def __init__(self, children: list["TensorOperator"],
                 partitioning: Partitioning = NONE):
        self.children = children
        #: How this operator's output is partitioned (chosen by the planner).
        #: ``execute`` always hands back one table; a sharded operator also
        #: hands its shards over through ``partitions``.
        self.partitioning = partitioning

    def _scoped(self, body, ctx: ExecutionContext):
        """Run ``body`` stamped with this operator's scope: eager events and
        traced nodes alike say which operator they belong to.  How many
        worker lanes the cost models spread it over is the plan's business
        (``OperatorPlan.lanes``), not the program's."""
        with stamped(scope=self.scope):
            return body(ctx)

    def execute(self, ctx: ExecutionContext) -> TensorTable:
        """Execute the subtree rooted at this operator into one table."""
        return self._scoped(self._execute, ctx)

    def partitions(self, ctx: ExecutionContext) -> PartitionedTable:
        """Execute the subtree into the shards of ``self.partitioning``."""
        return self._scoped(self._partitions, ctx)

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        raise NotImplementedError

    def _partitions(self, ctx: ExecutionContext) -> PartitionedTable:
        raise ExecutionError(f"{self.describe()} has no partitioned output")

    def describe(self, scheme: Optional[Partitioning] = None) -> str:
        """This operator's label, rendered under ``scheme`` (its own by
        default; ``NONE`` gives the label its scope is built from)."""
        return self.name

    def pretty(self, indent: int = 0,
               widths: Optional[Mapping[str, int]] = None) -> str:
        """The subtree's labels, one per line; an operator whose scope
        ``widths`` (a plan's ``lanes``) names renders under ``lanes(n)``."""
        width = (widths or {}).get(self.scope)
        lines = ["  " * indent + self.describe(width and lanes(width))]
        for child in self.children:
            lines.append(child.pretty(indent + 1, widths))
        return "\n".join(lines)

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


class MapOperator(TensorOperator):
    """A row-local unary operator (filter, project, rename).

    Subclasses write their per-table body once (:meth:`_apply`) and name
    themselves per partitioning kind (``labels``: none, lanes, shards); this
    class maps the body over whatever partitions the planner placed the
    operator under.
    """

    labels: tuple = ("operator",) * 3

    def __init__(self, child: TensorOperator,
                 partitioning: Partitioning = NONE):
        super().__init__([child], partitioning)

    def _apply(self, table: TensorTable, ctx: ExecutionContext) -> TensorTable:
        raise NotImplementedError

    def _mapped(self, parts: PartitionedTable, ctx: ExecutionContext
                ) -> PartitionedTable:
        return parts.map(lambda table: self._apply(table, ctx), self.scope)

    def _execute(self, ctx: ExecutionContext) -> TensorTable:
        data = input_of(self.children[0], self.partitioning, ctx)
        if isinstance(data, TensorTable):
            return self._apply(data, ctx)
        return gather(self._mapped(data, ctx))

    def _partitions(self, ctx: ExecutionContext) -> PartitionedTable:
        return self._mapped(
            input_of(self.children[0], self.partitioning, ctx), ctx)

    def _details(self) -> tuple:
        """What the label shows before the partitioning suffix."""
        return ()

    def describe(self, scheme: Optional[Partitioning] = None) -> str:
        return partition_label(self.labels, scheme or self.partitioning,
                               *self._details())
