"""Sharded tables: spreading a :class:`TensorTable` across simulated devices.

A :class:`ShardedTable` is the multi-device form of a converted input table:
one :class:`~repro.core.columnar.TensorTable` per simulated device, plus the
:class:`ShardSpec` describing how rows were placed.  Sharding happens at
load time (input preparation), outside any trace or profiler — the placement
itself is data layout, not query work — so a traced program simply receives
each shard's columns as separate named inputs.

Two placement strategies, mirroring the options on
:class:`~repro.core.options.ExecutionOptions`:

* ``hash`` — rows are spread by a multiplicative hash of the table's first
  scanned column, so equal keys land on the same device (the layout a
  distributed engine keeps its fact tables in);
* ``range`` — contiguous row ranges, one zero-copy slice per device (the
  layout of time-partitioned append-only data).

Query-time repartitioning (the shuffle) never relies on the load-time
placement: the shuffle enforcer re-hashes by the *join* keys (see
:func:`repro.core.operators.partition.repartition`), so both placements
produce identical results for every plan.  Both hash with the same
:func:`key_hash` and :func:`destinations`; placement runs them
:func:`~repro.tensor.profiler.unprofiled`.
"""

from __future__ import annotations

import dataclasses

from repro.core.columnar import LogicalType, TensorTable
from repro.core.expressions import ExprValue, column_value, decode_value
from repro.core.tuning import DEFAULT_TUNING
from repro.errors import ExecutionError
from repro.tensor import Tensor, ops
from repro.tensor.profiler import unprofiled

#: Minimum base-table cardinality for the planner to shard its scan — below
#: this, per-shard kernel overhead and the final gather outweigh any
#: multi-device parallelism (the same reasoning as the morsel threshold).
#: Canonical home: :class:`repro.core.tuning.Tuning`; re-exported here for
#: existing importers.
SHARD_MIN_ROWS = DEFAULT_TUNING.shard_min_rows

#: 64-bit multiplicative-hash constant (2^64 / golden ratio), wrapped to a
#: signed int64 so numpy's wrapping multiply reproduces the unsigned mix.
HASH_MIX = 0x9E3779B97F4A7C15 - (1 << 64)

#: Polynomial base for hashing string code-point matrices column by column.
STRING_HASH_BASE = 1000003


def _wrap64(value: int) -> int:
    """A python int reduced to the signed-int64 value numpy would wrap it to."""
    value &= (1 << 64) - 1
    return value - (1 << 64) if value >= (1 << 63) else value


def string_hash_weights(width: int) -> list[int]:
    """Per-character-position polynomial weights, pre-wrapped to int64.

    Position ``j`` weighs ``STRING_HASH_BASE ** j (mod 2^64)``; padding
    code points are 0, so equal strings stored at different widths hash
    equal (pad-invariance is what lets the two sides of a join hash their
    keys independently).
    """
    return [_wrap64(pow(STRING_HASH_BASE, j, 1 << 64)) for j in range(width)]


def key_hash(value: ExprValue) -> Tensor:
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


def destinations(hashed: Tensor, devices: int) -> Tensor:
    """Destination device per row of a :func:`key_hash`: multiplicative mix,
    then the *high* bits modulo ``devices`` (``hash * K mod N`` alone would
    leave power-of-two device counts keyed by the raw low bits)."""
    return ops.mod(ops.floordiv(ops.mul(hashed, HASH_MIX), 1 << 32), devices)


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """How a table's rows are placed across simulated devices."""

    mode: str
    devices: int

    def __post_init__(self) -> None:
        if self.mode not in ("hash", "range"):
            raise ExecutionError(f"unknown shard mode {self.mode!r}")
        if self.devices < 1:
            raise ExecutionError("shard spec needs devices >= 1")


class ShardedTable:
    """One :class:`TensorTable` per simulated device, plus the placement spec.

    The executor's input plumbing only moves it (``to``); everything per-row
    lives on the individual shards, which a sharded scan addresses directly.
    """

    def __init__(self, shards: list[TensorTable], spec: ShardSpec):
        if len(shards) != spec.devices:
            raise ExecutionError(
                f"shard spec expects {spec.devices} shards, got {len(shards)}")
        self.shards = list(shards)
        self.spec = spec

    @property
    def num_rows(self) -> int:
        return sum(shard.num_rows for shard in self.shards)

    def to(self, device) -> "ShardedTable":
        return ShardedTable([shard.to(device) for shard in self.shards],
                            self.spec)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        rows = ", ".join(str(shard.num_rows) for shard in self.shards)
        return f"ShardedTable({self.spec.mode}, rows=[{rows}])"


def shard_bounds(num_rows: int, devices: int) -> list[tuple[int, int]]:
    """Contiguous (start, length) ranges splitting ``num_rows`` evenly."""
    base, extra = divmod(num_rows, devices)
    bounds = []
    start = 0
    for index in range(devices):
        length = base + (1 if index < extra else 0)
        bounds.append((start, length))
        start += length
    return bounds


def shard_table(table: TensorTable, devices: int, mode: str = "hash",
                key_column: str | None = None) -> ShardedTable:
    """Place a converted table's rows across ``devices`` simulated devices.

    ``hash`` spreads rows by a multiplicative hash of ``key_column`` (default:
    the table's first column); ``range`` cuts contiguous zero-copy slices.
    Dictionary-encoded columns keep their dictionary *shared* across shards —
    the dictionary is replicated to every device at load time, so query-time
    exchanges only ever move the codes.
    """
    spec = ShardSpec(mode, devices)
    if devices == 1:
        return ShardedTable([table], spec)
    if mode == "range":
        shards = [table.slice(start, length)
                  for start, length in shard_bounds(table.num_rows, devices)]
        return ShardedTable(shards, spec)
    key = key_column or table.column_names[0]
    # Placement is no query's work: it records no profile events.
    with unprofiled():
        assignment = destinations(
            key_hash(column_value(table.column(key))), devices)
        shards = [table.mask(ops.eq(assignment, index))
                  for index in range(devices)]
    return ShardedTable(shards, spec)
