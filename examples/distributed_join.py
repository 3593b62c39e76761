"""Distributed execution: a sharded join+aggregate across simulated devices.

Shards the two largest TPC-H tables across N simulated devices, runs a
shuffle-heavy join+aggregate, and shows what the distributed runtime
guarantees: the *answer* is bit-identical to the single-device run (every
shard computes with real kernels), only the *time* changes — the cost model
overlaps the per-shard timelines (a distributed region costs its slowest
device) and charges each explicit exchange op's payload bytes against its
interconnect tier.

The scaling curve uses the CPU kernel-time model, the same one
``benchmarks/bench_distributed_scaling.py`` gates on.  The exchange-traffic
exhibit uses *range* sharding on purpose: hash placement happens to
co-partition these tables on the join key (first column), so the shuffle
fragments it exchanges are empty — range placement puts entirely different
rows on each device, makes the shuffle move real bytes, and still returns
the identical answer.

Run with:  PYTHONPATH=src python examples/distributed_join.py
"""

import numpy as np

from repro import ExecutionOptions, TQPSession
from repro.backends.base import TRANSFER_OPS, split_partitions
from repro.datasets import tpch

SCALE_FACTOR = 0.02

QUERY = """
SELECT o_orderpriority, COUNT(*) AS orders, SUM(l_quantity) AS quantity
FROM lineitem JOIN orders ON l_orderkey = o_orderkey
GROUP BY o_orderpriority ORDER BY o_orderpriority
"""


def run(session: TQPSession, devices: int, shard: str = "hash"):
    options = ExecutionOptions(backend="pytorch", device="cpu",
                               devices=devices, shard=shard)
    query = session.compile(QUERY, options=options)
    inputs = session.prepare_inputs(query.executor)
    query.executor.execute(inputs, profile=True)          # warm-up
    outcome = query.executor.execute(inputs, profile=True)
    return query, outcome


def main() -> None:
    session = TQPSession()
    for name, frame in tpch.generate_tables(scale_factor=SCALE_FACTOR).items():
        session.register(name, frame)

    query, baseline = run(session, devices=1)
    reference = baseline.to_dataframe()
    print(f"single device: {baseline.reported_s * 1e3:8.3f} ms (simulated)")

    for devices in (2, 4):
        query, outcome = run(session, devices)
        frame = outcome.to_dataframe()
        for name in reference.columns:
            assert np.array_equal(np.asarray(reference[name]),
                                  np.asarray(frame[name])), name
        speedup = baseline.reported_s / outcome.reported_s
        print(f"{devices} devices:     {outcome.reported_s * 1e3:8.3f} ms "
              f"(simulated, {speedup:.2f}x, bit-identical)")

    # Range sharding places entirely different rows on each device — the
    # shuffle re-partitions by key *value*, so the answer cannot change, but
    # now the exchanged fragments actually carry rows.
    query, ranged = run(session, devices=2, shard="range")
    assert np.array_equal(np.asarray(reference["quantity"]),
                          np.asarray(ranged.to_dataframe()["quantity"]))
    _, kernels = ranged.profile.partition(TRANSFER_OPS)
    host, shards, exchanges = split_partitions(kernels)
    print("\nrange-sharded @ 2 devices (bit-identical as well):")
    for shard_id, region in sorted(shards.items()):
        events = list(region.events())
        print(f"  device {shard_id}: {len(events):4d} kernel events, "
              f"{sum(e.elapsed_s for e in events) * 1e3:8.3f} ms measured")
    moved = sum(e.output_bytes for e in exchanges)
    print(f"  exchanges: {len(exchanges)} ops moving {moved / 1e6:.2f} MB "
          f"across the interconnect")
    print(f"  host tail: {len(list(host.events()))} events "
          f"(partial-merge + sort)")

    print("\nOperator plan at 2 devices:")
    print(query.explain().split("== Operator plan ==")[1].strip())


if __name__ == "__main__":
    main()
