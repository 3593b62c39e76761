"""Partitioned execution: partitioning as a property of an operator's output.

There is one operator family.  What differs between a serial, a
morsel-parallel and a multi-device plan is the :class:`Partitioning` the
planner placed each operator under:

* ``none`` — one table, one execution lane;
* ``lanes(n)`` — a *model* of ``n`` worker lanes of one device.  The operator
  runs its serial body under its own scope, so a lanes plan traces, optimizes
  and generates exactly the serial program; only the plan knows the width
  (``OperatorPlan.lanes``, keyed by scope), and the device cost models
  (:mod:`repro.backends.base`) price each event of a lanes operator as one
  lane's share over one lane per whole morsel of its rows (at most ``n``),
  plus ``n`` morsel dispatches per lanes operator;
* ``shards(n, hash|range)`` — the table lives on ``n`` simulated devices,
  placed at load time (:mod:`repro.distributed.sharding`).

A sharded operator hands its parent a :class:`PartitionedTable` and every
per-shard body runs through :func:`run_partitions`.  Where a child's property
is not what its parent needs, an **enforcer** from this module sits on the
edge: :func:`repartition` (shards → shards by join-key hash),
:func:`broadcast` (none → shards, replicated) and :func:`gather` (shards →
none).

Results are always computed with real kernels, one shard after another
(deterministic, trace- and profile-friendly); like the simulated devices,
only *time* is simulated.  Each shard runs under one
:class:`~repro.tensor.profiler.stamped` frame — the operator's scope plus the
device shard, on every event and every traced node — and data movement
between devices is explicit: one ``shard_exchange`` / ``shard_broadcast`` /
``shard_gather`` identity op per column tensor (plus one per validity mask),
so the bytes a cost model charges are exactly the bytes the plan moves.  The
device cost models replay those annotations into concurrent timelines:
reported time charges the *slowest* device and every exchange as an
interconnect transfer.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Union

from repro.core.columnar import (
    LogicalType,
    TensorColumn,
    TensorTable,
    concat_columns,
)
from repro.core.expressions import ExprValue, decode_value, evaluate
from repro.distributed.sharding import (
    HASH_MIX,
    STRING_HASH_BASE,
    string_hash_weights,
)
from repro.errors import ExecutionError
from repro.tensor import Tensor, ops, stamped

#: The partitioning kinds, in the order operators list their ``labels``.
KINDS = ("none", "lanes", "shards")


@dataclasses.dataclass(frozen=True)
class Partitioning:
    """How an operator's output is split: ``none | lanes(n) | shards(n, mode)``.

    Attributes:
        kind: one of :data:`KINDS`.
        n: worker lanes / simulated devices.
        placement: ``shards`` only — the load-time placement of base tables
            (``"hash"`` or ``"range"``).  Query-time exchanges re-hash by join
            key, so both placements run the same plans.
    """

    kind: str = "none"
    n: int = 1
    placement: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ExecutionError(f"unknown partitioning kind {self.kind!r}")
        if self.n < 1:
            raise ExecutionError("a partitioning needs n >= 1")

    @property
    def suffix(self) -> str:
        """What operator labels carry (``workers=4`` / ``devices=4``)."""
        return f"{'workers' if self.kind == 'lanes' else 'devices'}={self.n}"


NONE = Partitioning()


def lanes(n: int) -> Partitioning:
    return Partitioning("lanes", n)


def shards(n: int, placement: str = "hash") -> Partitioning:
    return Partitioning("shards", n, placement=placement)


def partition_label(labels: tuple, scheme: Partitioning, *details: str,
                    after: str = "") -> str:
    """An operator's ``describe()`` label, rendered from its partitioning.

    ``labels`` holds the operator's name per kind (:data:`KINDS` order):
    ``("Filter", "MorselFilter", "DistributedFilter")`` under ``lanes(4)``
    renders ``MorselFilter(workers=4)``.  ``details`` precede the scheme
    suffix, ``after`` follows it.
    """
    args = [detail for detail in details if detail]
    if scheme.kind != "none":
        args.append(scheme.suffix)
    if after:
        args.append(after)
    name = labels[KINDS.index(scheme.kind)]
    return f"{name}({', '.join(args)})" if args else name


# -- running shards -------------------------------------------------------------


def run_partitions(scheme: Partitioning, fn: Callable[[int], object],
                   label: str = "") -> list:
    """Run ``fn(shard)`` for every shard of ``scheme``, one after another,
    each stamped with its shard and the scope ``<label>@d<shard>``; results
    come back in shard order.  The cost models turn the stamps back into
    concurrent timelines."""
    results = []
    for shard in range(scheme.n):
        with stamped(scope=label and f"{label}@d{shard}", shard=shard):
            results.append(fn(shard))
    return results


def concat_rows(tables: list[TensorTable]) -> TensorTable:
    """Row-concatenate tables with identical column sets (partition outputs,
    say) with one ``concat`` kernel per column — a pairwise fold would copy
    O(tables) times."""
    if not tables:
        raise ExecutionError("concat_rows() needs at least one table")
    if len(tables) == 1:
        return tables[0]
    return TensorTable({
        name: concat_columns([t.column(name) for t in tables])
        for name in tables[0].column_names
    })


class PartitionedTable:
    """One table per shard of a ``shards`` :class:`Partitioning`.

    Partitions are *producers*: zero-argument callables that the consumer
    runs inside the shard's annotation, which is how :func:`broadcast` and
    :func:`repartition` deliver moved data on the receiving shard.  Every
    operator is a step all devices finish before the next one starts, so an
    operator's own output (:meth:`run`, :meth:`map`) is computed at once.
    """

    def __init__(self, scheme: Partitioning,
                 producers: list[Callable[[], TensorTable]]):
        self.scheme = scheme
        self._producers = producers

    @classmethod
    def of(cls, scheme: Partitioning, tables: list[TensorTable]
           ) -> "PartitionedTable":
        """Partitions that are already computed."""
        return cls(scheme, [lambda table=table: table for table in tables])

    @classmethod
    def run(cls, scheme: Partitioning, fn: Callable[[int], TensorTable],
            label: str = "") -> "PartitionedTable":
        """One partition per shard, computed now (see :func:`run_partitions`)."""
        return cls.of(scheme, run_partitions(scheme, fn, label))

    def produce(self, index: int) -> TensorTable:
        """Partition ``index``; the caller is inside its annotation."""
        return self._producers[index]()

    def map(self, fn: Callable[[TensorTable], TensorTable], label: str = ""
            ) -> "PartitionedTable":
        return PartitionedTable.run(
            self.scheme, lambda shard: fn(self.produce(shard)), label)


def input_of(child, scheme: Partitioning, ctx
             ) -> Union[TensorTable, PartitionedTable]:
    """``child``'s output in the form an operator running under ``scheme``
    consumes: its shards under ``shards``, else one table (a lanes operator
    runs its serial body on the whole table)."""
    if scheme.kind == "shards":
        return child.partitions(ctx)
    return child.execute(ctx)


# -- enforcers: explicit data movement between shards ----------------------------


def _move_table(table: TensorTable, move: Callable[[Tensor], Tensor]
                ) -> TensorTable:
    """Thread every column's per-row tensors through an exchange identity op.

    Auxiliary encoding tensors (dictionaries) are *not* threaded: they were
    replicated to every device at load time, so only codes ever cross the
    interconnect — which is precisely the payload the cost models should see.
    """
    moved = {}
    for name, column in table.columns():
        valid = move(column.valid) if column.valid is not None else None
        moved[name] = TensorColumn(move(column.tensor), column.ltype, valid,
                                   column.encoding)
    return TensorTable(moved)


def gather(parts: PartitionedTable) -> TensorTable:
    """Close a sharded region (an operator's computed shards): one table,
    concatenated in shard order (so sharded plans are deterministic), each
    shard's result returning to the host through ``shard_gather``."""
    return concat_rows([
        _move_table(parts.produce(src),
                    lambda t, src=src: ops.shard_gather(t, src))
        for src in range(parts.scheme.n)])


def broadcast(table: TensorTable, scheme: Partitioning) -> PartitionedTable:
    """Replicate an unpartitioned table onto every shard (``shard_broadcast``,
    issued on the receiving shard)."""
    return PartitionedTable(scheme, [
        (lambda dst=dst: _move_table(
            table, lambda t: ops.shard_broadcast(t, dst)))
        for dst in range(scheme.n)])


def _hash_expr_value(value: ExprValue) -> Tensor:
    """A ``(n,)`` int64 hash of raw key values, built from tensor ops only.

    Integer/date/bool keys cast to int64; floats truncate (equal values stay
    equal, which is all partitioning needs).  Strings hash their code-point
    matrix with pad-invariant polynomial weights via one int64 ``matmul``.
    NULL keys hash to 0 — they all land on one destination, where the join
    machinery refuses to match them exactly as it does on a single device.
    """
    value = decode_value(value)
    data = value.tensor
    if value.ltype == LogicalType.STRING:
        width = data.shape[-1] if data.ndim > 1 else 1
        weights = ops.tensor(string_hash_weights(width), dtype="int64",
                             device=data.device)
        hashed = ops.matmul(ops.cast(data, "int64"), weights)
    else:
        hashed = ops.cast(data, "int64")
    if value.valid is not None:
        hashed = ops.where(value.valid, hashed, 0)
    return hashed


def partition_ids(table: TensorTable, keys: list, ctx, devices: int) -> Tensor:
    """Destination shard per row: multi-key polynomial combine, multiplicative
    mix, then the *high* bits modulo ``devices`` (low bits alone would leave
    power-of-two device counts keyed by the raw low bits).

    The hash is computed from raw key *values* (not the load-time placement),
    entirely inside the traced op vocabulary — no ``.numpy()`` escapes — so
    hash- and range-sharded inputs run the same plans.
    """
    hashed = None
    for key in keys:
        part = _hash_expr_value(evaluate(key, table, ctx.eval_ctx))
        hashed = part if hashed is None else ops.add(
            ops.mul(hashed, STRING_HASH_BASE), part)
    if hashed is None:
        raise ExecutionError("shuffle requires at least one join key")
    return ops.mod(ops.floordiv(ops.mul(hashed, HASH_MIX), 1 << 32), devices)


def repartition(sides: list[tuple[PartitionedTable, list]], ctx,
                label: str = "") -> list[PartitionedTable]:
    """Co-partition sharded tables by the hash of their keys (the shuffle).

    ``sides`` pairs each table with its key expressions.  Every *source*
    shard hashes its rows into a destination id, cuts one fragment per
    destination with a boolean mask and sends every non-local fragment
    through ``shard_exchange``; equal keys land on the same destination on
    every side.  The returned tables concatenate the arriving fragments when
    their consumer produces them on the destination shard.
    """
    scheme = sides[0][0].scheme

    def scatter(src: int) -> list[list[TensorTable]]:
        scattered = []
        for parts, keys in sides:
            table = parts.produce(src)
            part = partition_ids(table, keys, ctx, scheme.n)
            fragments = []
            for dst in range(scheme.n):
                fragment = table.mask(ops.eq(part, dst))
                fragments.append(fragment if dst == src else _move_table(
                    fragment, lambda t, dst=dst: ops.shard_exchange(t, src, dst)))
            scattered.append(fragments)
        return scattered

    by_source = run_partitions(scheme, scatter, label)
    return [PartitionedTable(scheme, [
        (lambda dst=dst, side=side: concat_rows(
            [fragments[side][dst] for fragments in by_source]))
        for dst in range(scheme.n)])
        for side in range(len(sides))]
