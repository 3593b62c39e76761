"""Partitioned execution: partitioning as a property of an operator's output.

There is one operator family.  What differs between a serial, a
morsel-parallel and a multi-device plan is the :class:`Partitioning` the
planner placed each operator under:

* ``none`` — one table, one execution lane;
* ``lanes(n)`` — the classic Hyper-style morsel model: the input is cut into
  morsels that ``n`` worker lanes of one device work through;
* ``shards(n, hash|range)`` — the table lives on ``n`` simulated devices,
  placed at load time (:mod:`repro.distributed.sharding`).

A partitioned operator hands its parent a :class:`PartitionedTable` and every
per-partition body runs through :func:`run_partitions`.  Where a child's
property is not what its parent needs, an **enforcer** from this module sits
on the edge: :func:`slice_table` (none → lanes), :func:`repartition`
(shards → shards by join-key hash), :func:`broadcast` (none → shards,
replicated) and :func:`gather` (anything → none).

Results are always computed with real kernels, one partition after another
(deterministic, trace- and profile-friendly); like the simulated devices,
only *time* is simulated.  Each partition runs under one
:class:`~repro.tensor.profiler.stamped` frame — the operator's label plus the
worker lane or device shard, on every event and every traced node — a lane
hand-off is one ``morsel_dispatch`` op, and data movement between devices is
explicit — one ``shard_exchange`` / ``shard_broadcast`` / ``shard_gather``
identity op per column tensor (plus one per validity mask), so the bytes a
cost model charges are exactly the bytes the plan moves.  The device cost
models replay those annotations into concurrent timelines: reported time
charges the *slowest* lane or device, a fixed cost per dispatch, and every
exchange as an interconnect transfer.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Union

from repro.core.columnar import (
    DEFAULT_MORSEL_ROWS,
    LogicalType,
    TensorColumn,
    TensorTable,
    concat_columns,
    morsel_bounds,
)
from repro.core.expressions import ExprValue, decode_value, evaluate
from repro.core.tuning import DEFAULT_TUNING
from repro.distributed.sharding import (
    HASH_MIX,
    STRING_HASH_BASE,
    string_hash_weights,
)
from repro.errors import ExecutionError
from repro.tensor import Tensor, current_stamp, ops, stamped

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
        morsel_rows: ``lanes`` only — the morsel size floor.
    """

    kind: str = "none"
    n: int = 1
    placement: str = ""
    morsel_rows: int = DEFAULT_MORSEL_ROWS

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


def lanes(n: int, morsel_rows: int = DEFAULT_MORSEL_ROWS) -> Partitioning:
    return Partitioning("lanes", n, morsel_rows=morsel_rows)


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


# -- running partitions ---------------------------------------------------------


def run_partitions(scheme: Partitioning, fn: Callable[[int], object],
                   label: str = "", count: Optional[int] = None) -> list:
    """Run ``fn(index)`` for every partition, inside its slot's annotation.

    Partitions execute one after another, round-robin over the scheme's ``n``
    slots (``count`` defaults to one partition per slot); results come back
    in partition order.  Each runs stamped with its slot as worker lane or
    device shard — the cost models turn the stamps back into concurrent
    timelines — and with the scope ``<label>@w<lane>`` / ``<label>@d<shard>``.
    """
    field, tag = ("lane", "w") if scheme.kind == "lanes" else ("shard", "d")
    results = []
    for index in range(scheme.n if count is None else count):
        slot = index % scheme.n
        with stamped(scope=label and f"{label}@{tag}{slot}", **{field: slot}):
            results.append(fn(index))
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
    """One table per partition of a :class:`Partitioning`.

    Partitions are *producers*: zero-argument callables that
    :meth:`tables` runs inside the partition's annotation.  Under ``lanes``
    a :meth:`map` only composes producers, so a morsel cut by the scan is
    filtered, projected and pre-aggregated on the *same* worker lane with no
    materialization barrier between the stages; under ``shards`` every
    operator is a step all devices finish before the next one starts, so
    :meth:`map` settles its result at once.
    """

    def __init__(self, scheme: Partitioning,
                 producers: list[Callable[[], TensorTable]],
                 settled: Optional[list[TensorTable]] = None):
        self.scheme = scheme
        self._producers = producers
        self._settled = settled

    @classmethod
    def of(cls, scheme: Partitioning, tables: list[TensorTable]
           ) -> "PartitionedTable":
        """Partitions that are already computed."""
        return cls(scheme, [], settled=list(tables))

    @classmethod
    def run(cls, scheme: Partitioning, fn: Callable[[int], TensorTable],
            label: str = "") -> "PartitionedTable":
        """One partition per slot, computed now (see :func:`run_partitions`)."""
        return cls.of(scheme, run_partitions(scheme, fn, label))

    def __len__(self) -> int:
        return len(self._producers if self._settled is None else self._settled)

    def produce(self, index: int) -> TensorTable:
        """Partition ``index``; the caller is inside its annotation."""
        if self._settled is not None:
            return self._settled[index]
        return self._producers[index]()

    def tables(self, label: str = "") -> list[TensorTable]:
        """Every partition, in partition order (computed once)."""
        if self._settled is None:
            self._settled = run_partitions(self.scheme, self.produce, label,
                                           count=len(self))
        return self._settled

    def map(self, fn: Callable[[TensorTable], TensorTable], label: str = ""
            ) -> "PartitionedTable":
        mapped = PartitionedTable(
            self.scheme,
            [(lambda i=i: fn(self.produce(i))) for i in range(len(self))])
        if self.scheme.kind == "shards":
            mapped.tables(label)
        return mapped


# -- enforcers: none -> lanes ---------------------------------------------------

#: Morsels handed to each worker lane before the input is exhausted.  One per
#: lane when the input is large: round-robin assignment over uniform slices is
#: perfectly balanced anyway (the simulation has no work stealing to feed),
#: and larger morsels amortize the fixed per-kernel cost that would otherwise
#: drown cheap predicates in per-morsel overhead.  Inputs near the morsel
#: floor still split into many ``morsel_rows``-sized pieces.
_MORSELS_PER_LANE = 1


def effective_morsel_rows(num_rows: int, morsel_rows: int, parallelism: int) -> int:
    """Adaptive morsel size: at least ``morsel_rows``, at most what spreads the
    input over ``_MORSELS_PER_LANE`` morsels per worker lane."""
    target = -(-num_rows // max(1, parallelism * _MORSELS_PER_LANE))
    return max(morsel_rows, target)


def _dispatched(table: TensorTable, morsel: int) -> TensorTable:
    """Stamp a morsel hand-off: thread the first column through the
    ``morsel_dispatch`` identity op so both the profile and the traced graph
    record one dispatch per morsel per worker."""
    names = table.column_names
    if not names:
        return table
    first = table.column(names[0])
    tagged = TensorColumn(
        ops.morsel_dispatch(first.tensor, current_stamp().lane, morsel,
                            rows=first.num_rows),
        first.ltype, first.valid, first.encoding,
    )
    return table.with_column(names[0], tagged)


def slice_table(table: TensorTable, scheme: Partitioning) -> PartitionedTable:
    """Cut a materialized table into dispatch-stamped morsels, one zero-copy
    ``narrow`` view each (one empty morsel for an empty input, so downstream
    consumers still see the schema)."""
    if scheme.kind != "lanes":
        raise ExecutionError(f"cannot slice a table into {scheme.kind}")
    rows = effective_morsel_rows(table.num_rows, scheme.morsel_rows, scheme.n)
    bounds = morsel_bounds(table.num_rows, rows) or [(0, 0)]
    return PartitionedTable(scheme, [
        (lambda i=i, start=start, length=length:
         _dispatched(table.slice(start, length), i))
        for i, (start, length) in enumerate(bounds)])


def input_of(child, scheme: Partitioning, ctx, closed: bool
             ) -> Union[TensorTable, PartitionedTable]:
    """``child``'s output in the form an operator running under ``scheme``
    consumes.

    A child partitioned the same way streams its partitions.  Otherwise the
    child's table is materialized and, under ``lanes``, sliced — except that
    an operator asked for its ``closed`` (one-table) output whose input turns
    out below the parallel threshold runs its serial body on the whole table:
    per-morsel dispatch would outweigh any lane parallelism.
    """
    if scheme.kind != "none" and child.partitioning.kind == scheme.kind:
        return child.partitions(ctx)
    table = child.execute(ctx)
    if scheme.kind == "none" or (
            closed and table.num_rows < DEFAULT_TUNING.parallel_threshold_rows):
        return table
    return slice_table(table, scheme)


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


def gather(parts: PartitionedTable, label: str = "") -> TensorTable:
    """Close a partitioned region: one table, concatenated in partition order
    (so partitioned plans are deterministic).  Shard results return to the
    host through ``shard_gather``; lanes share their device's memory."""
    tables = parts.tables(label)
    if parts.scheme.kind == "shards":
        tables = [_move_table(table, lambda t, src=src: ops.shard_gather(t, src))
                  for src, table in enumerate(tables)]
    return concat_rows(tables)


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
