"""Partitioning: a width the cost models price, placed on no operator.

There is one operator family and one program.  ``lanes(n)`` is a *price* of
``n`` worker lanes of one device: a priced plan (``OperatorPlan.priced``)
names its lanes operators by scope in ``OperatorPlan.lanes``, labels render
from it, and the cost models (:mod:`repro.backends.base`) price each of their
events as one lane's share over one lane per whole morsel of its rows (at
most ``n``), plus ``n`` morsel dispatches per lanes operator.  The program is
the serial plan's; a device count (``ExecutionOptions.devices``) is priced as
the same kind of width.
"""

from __future__ import annotations

import dataclasses

from repro.core.columnar import TensorTable, concat_columns
from repro.errors import ExecutionError

#: The partitioning kinds, in the order operators list their ``labels``.
KINDS = ("none", "lanes")


@dataclasses.dataclass(frozen=True)
class Partitioning:
    """How an operator is priced: ``none | lanes(n)``.

    Attributes:
        kind: one of :data:`KINDS`.
        n: worker lanes.
    """

    kind: str = "none"
    n: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ExecutionError(f"unknown partitioning kind {self.kind!r}")
        if self.n < 1:
            raise ExecutionError("a partitioning needs n >= 1")

    @property
    def suffix(self) -> str:
        """What operator labels carry (``workers=4``)."""
        return f"workers={self.n}"


NONE = Partitioning()


def lanes(n: int) -> Partitioning:
    return Partitioning("lanes", n)


def partition_label(labels: tuple, scheme: Partitioning, *details: str,
                    after: str = "") -> str:
    """An operator's ``describe()`` label, rendered from its partitioning.

    ``labels`` holds the operator's name per kind (:data:`KINDS` order):
    ``("Filter", "MorselFilter")`` under ``lanes(4)`` renders
    ``MorselFilter(workers=4)``.  ``details`` precede the scheme suffix,
    ``after`` follows it.
    """
    args = [detail for detail in details if detail]
    if scheme.kind != "none":
        args.append(scheme.suffix)
    if after:
        args.append(after)
    name = labels[KINDS.index(scheme.kind)]
    return f"{name}({', '.join(args)})" if args else name


def concat_rows(tables: list[TensorTable]) -> TensorTable:
    """Row-concatenate tables with identical column sets with one ``concat``
    kernel per column — a pairwise fold would copy O(tables) times."""
    if not tables:
        raise ExecutionError("concat_rows() needs at least one table")
    if len(tables) == 1:
        return tables[0]
    return TensorTable({
        name: concat_columns([t.column(name) for t in tables])
        for name in tables[0].column_names
    })
