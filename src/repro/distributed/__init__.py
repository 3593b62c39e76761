"""``repro.distributed`` — load-time placement of tables across simulated devices.

Tables shard across N simulated devices at input preparation
(:mod:`repro.distributed.sharding`: hash or range placement, outside any
trace or profiler).  Everything that happens at query time lives with the
other operators: a sharded plan is the ordinary operator family placed under
the ``shards(n)`` partitioning, with its exchanges as enforcers
(:mod:`repro.core.operators.partition`), and the backend cost models replay
the shard annotations into concurrent per-device timelines, charging every
exchange as an interconnect transfer.  Enabled with
``ExecutionOptions(devices=N, shard="hash"|"range")``.
"""

from repro.distributed.sharding import (
    SHARD_MIN_ROWS,
    ShardedTable,
    ShardSpec,
    shard_bounds,
    shard_table,
)

__all__ = [
    "SHARD_MIN_ROWS",
    "ShardSpec",
    "ShardedTable",
    "shard_bounds",
    "shard_table",
]
