"""Multi-device scaling: a shuffle-heavy join+aggregate vs. device count.

Runs one query whose distributed plan exercises every exchange flavour —
two ``DistributedScan``s feeding a ``ShuffleJoin`` (all-to-all repartition on
the join key), a two-phase ``ShardedAggregate`` (per-device partials gathered
and merged on the host), and the final ``Gather`` — at ``devices`` ∈ {1, 2, 4}
and prints the simulated scaling curve.

Two gates, per the reproduction roadmap:

* **Bit-identity** — every multi-device configuration (2 and 4 devices, hash
  *and* range sharding) must return byte-for-byte the single-device answer.
  Distribution only reorders *where* kernels run; it must never change what
  they compute.
* **Scaling** — the CPU cost model (slowest-shard + interconnect charges)
  must report ≥1.6× at 2 devices and ≥2.8× at 4.  Sub-linear at 2 devices is
  expected: the shuffle pays hash/mask/concat repartition work per shard and
  the host still merges aggregate partials serially.

Measurement protocol: like ``bench_parallel_scaling.py`` the curve uses the
eager ``pytorch`` backend (the scaling story is about *where* kernels run,
not trace replay), and the device counts are interleaved round-robin — each
round executes every configuration once, and each configuration reports its
best round.  Ambient load shifts on a shared runner then hit all points of
the curve equally instead of skewing whichever configuration was being
measured when the machine got busy.

The scale factor is pinned (rather than taking ``--tpch-sf``) because the
gate is only meaningful when per-shard kernel time dominates the fixed
per-exchange costs; at tiny scale the curve flattens and the numbers stop
saying anything about the sharding design.

With ``--json-out DIR`` the measured curve is also written to
``DIR/BENCH_distributed.json`` for CI artifact collection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import write_bench_json
from repro.bench.harness import tpch_session
from repro.core.options import ExecutionOptions

#: Pinned scale factor: ~300k lineitem rows, enough for shard kernels to
#: dominate exchange latency.
DIST_SF = 0.05

DEVICES = (1, 2, 4)

#: Scaling gates from the roadmap: simulated speedup over one device.
MIN_SPEEDUP = {2: 1.6, 4: 2.8}

#: Warm-up executions per configuration and measured rounds (best-of).
WARMUP = 2
ROUNDS = 7

#: Shuffle-heavy by construction: the join repartitions both tables on
#: l_orderkey/o_orderkey, then the aggregation merges per-device partials.
QUERY = (
    "SELECT o_orderpriority, COUNT(*) AS n, SUM(l_quantity) AS qty "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey "
    "GROUP BY o_orderpriority ORDER BY o_orderpriority"
)

BACKEND = "pytorch"


def _columns(frame) -> dict[str, np.ndarray]:
    return {name: np.asarray(frame.column(name)) for name in frame.columns}


def _assert_bit_identical(reference, candidate, label: str) -> None:
    ref, got = _columns(reference), _columns(candidate)
    assert list(ref) == list(got), f"{label}: column set differs"
    for name, expected in ref.items():
        actual = got[name]
        assert expected.dtype == actual.dtype, f"{label}: {name!r} dtype"
        assert np.array_equal(expected, actual), (
            f"{label}: column {name!r} differs from the single-device answer")


def _prepared(session, devices: int, shard: str = "hash"):
    """Compiled executor + bound inputs, warmed outside the clock."""
    query = session.compile(QUERY, options=ExecutionOptions(
        backend=BACKEND, device="cpu", devices=devices, shard=shard))
    inputs = session.prepare_inputs(query.executor)
    outcome = None
    for _ in range(WARMUP):
        outcome = query.executor.execute(inputs, profile=True)
    return query, inputs, outcome.to_dataframe()


@pytest.fixture(scope="module")
def dist_session():
    session, _ = tpch_session(DIST_SF)
    return session


def test_distributed_scaling(dist_session, json_out, capsys):
    configs = {devices: _prepared(dist_session, devices)
               for devices in DEVICES}

    reference = configs[1][2]
    for devices in DEVICES[1:]:
        _assert_bit_identical(reference, configs[devices][2],
                              f"hash @ {devices} devices")
    # Placement independence: range sharding puts entirely different rows on
    # each device yet must still produce the identical (sorted) answer.
    _, _, ranged = _prepared(dist_session, devices=2, shard="range")
    _assert_bit_identical(reference, ranged, "range @ 2 devices")

    curve = {devices: float("inf") for devices in DEVICES}
    for _ in range(ROUNDS):
        for devices in DEVICES:
            query, inputs, _ = configs[devices]
            outcome = query.executor.execute(inputs, profile=True)
            curve[devices] = min(curve[devices], outcome.reported_s)

    speedups = {d: curve[1] / curve[d] for d in DEVICES if d > 1}
    lines = [f"distributed scaling @ SF {DIST_SF} ({BACKEND}, CPU cost model)"]
    for devices in DEVICES:
        note = (f"  ({speedups[devices]:.2f}x)" if devices in speedups else "")
        lines.append(f"  {devices} device(s): "
                     f"{curve[devices] * 1e3:8.3f} ms{note}")
    with capsys.disabled():
        print("\n" + "\n".join(lines))

    if json_out is not None:
        path = write_bench_json(json_out / "BENCH_distributed.json", {
            "benchmark": "distributed_scaling",
            "scale_factor": DIST_SF,
            "backend": BACKEND,
            "query": QUERY,
            "reported_s": {str(d): curve[d] for d in DEVICES},
            "speedup": {str(d): speedups[d] for d in sorted(speedups)},
            "gates": {str(d): MIN_SPEEDUP[d] for d in sorted(MIN_SPEEDUP)},
        })
        with capsys.disabled():
            print(f"  wrote {path}")

    for devices, floor in MIN_SPEEDUP.items():
        assert speedups[devices] >= floor, (
            f"expected >={floor}x simulated speedup at {devices} devices, "
            f"got {speedups[devices]:.2f}x")
    # The distributed plans must actually be distributed (not silently serial).
    assert curve[2] != curve[1]
