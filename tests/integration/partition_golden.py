"""Golden plan shapes and profile structure of partitioned execution.

``collect()`` compiles all 22 TPC-H queries plus the parameterized serving
shapes serially and under every ``shards`` placement, and profiles Q1/Q3/Q6
under ``shards(4)``.  ``tests/fixtures/partition_golden.json``
holds its output at the commit *before* the operator families were collapsed
into one (PR 14), plus the one ``slice`` event per ``column = 'literal'`` that
PR 15 added when the compare narrowed to the literal's decisive columns, minus
the two ``repeat`` decodes Q3's scans paid under ``lanes`` while run-length
encoding existed (ISSUE 19).  ISSUE 21 regenerated it on purpose: plans,
dispatches and exchange bytes byte-identical, the graph backends' ``events``
trading every ``boolean_mask`` for ``nonzero`` + ``take`` (late
materialization).  ``test_partition_golden.py`` compares today's against it.
Regenerated once more when a join's keys became one ``join_ids`` op: plans,
dispatches and exchange bytes byte-identical, each join's ``concat`` /
``unique`` / ``split_rows`` events becoming one ``join_ids`` event.  When
lanes became a cost model (a ``lanes`` plan runs the serial program) its
``lanes4`` entries and the always-zero shards ``morsel_dispatch`` counts were
deleted, the shards entries left as they were.  When the lanes width left the
stamp, each profile row lost its always-``null`` lanes column (an edit of the
rows, not a regeneration).  When a width became a price over one width-free
plan, ``lanes4`` came back as the statement's rendered operator plan at
``parallelism=4`` (``OperatorPlan.pretty()``, labels from its lanes map),
generated at the commit before, where the planner still placed lanes; the
serial and shards entries stayed byte-identical.  When a NULL sort key
began to sort last (a key with validity leads with a ``not valid``
sub-key), Q3's sharded ``pytorch`` profile gained one ``logical_not``,
``cast`` and ``where``: its merged ``sum`` carries validity.  Plans, exchange
bytes and every other profile stayed byte-identical.

Regenerate (only when a plan-shape change is intended), from the repo root::

    PYTHONPATH=src python tests/integration/partition_golden.py
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter

from repro import ExecutionOptions, TQPSession
from repro.datasets import tpch
from repro.serve.simulator import build_shapes, register_prediction_model
from repro.tensor.op_semantics import EXCHANGE_OPS

SCALE_FACTOR = 0.01
FIXTURE = (pathlib.Path(__file__).resolve().parent.parent
           / "fixtures" / "partition_golden.json")

#: Every partitioning whose plan shape is pinned, as the options that select
#: it (a ``lanes`` plan's kernels are the serial plan's).
CONFIGS = {
    "serial": {},
    "lanes4": {"parallelism": 4},
    "shards2-hash": {"devices": 2, "shard": "hash"},
    "shards4-hash": {"devices": 4, "shard": "hash"},
    "shards4-range": {"devices": 4, "shard": "range"},
}
PROFILED_QUERIES = (1, 3, 6)
PROFILED_CONFIGS = ("shards4-hash",)
BACKENDS = ("pytorch", "torchscript")


def make_session() -> TQPSession:
    session = TQPSession()
    for name, frame in tpch.generate_tables(scale_factor=SCALE_FACTOR).items():
        session.register(name, frame)
    register_prediction_model(session)
    return session


def statements() -> dict[str, str]:
    """The 22 TPC-H queries plus the four parameterized serving shapes."""
    named = {f"q{number}": tpch.query(number, SCALE_FACTOR)
             for number in tpch.ALL_QUERY_IDS}
    for shape in build_shapes(SCALE_FACTOR, tail_queries=0):
        named[shape.name] = shape.sql
    return named


def plan_shapes(session: TQPSession) -> dict[str, str]:
    """``<statement>/<config>`` → the statement's rendered operator plan."""
    return {
        f"{name}/{config}": session.compile(
            sql, options=ExecutionOptions(**options)
        ).operator_plan.pretty()
        for name, sql in statements().items()
        for config, options in CONFIGS.items()
    }


def profile_structure(session: TQPSession) -> dict[str, dict]:
    """``q<N>/<config>/<backend>`` → the structure the cost models charge:
    the multiset of ``(op, shard)`` events and the bytes crossing the
    interconnect."""
    structure = {}
    for number in PROFILED_QUERIES:
        for config in PROFILED_CONFIGS:
            for backend in BACKENDS:
                options = ExecutionOptions(backend=backend, **CONFIGS[config])
                events = session.compile(
                    tpch.query(number, SCALE_FACTOR), options=options
                ).execute(profile=True).profile.events
                counts = Counter((e.op, e.shard) for e in events)
                structure[f"q{number}/{config}/{backend}"] = {
                    "events": sorted(([op, shard, n] for (op, shard), n
                                      in counts.items()), key=repr),
                    "exchange_bytes": sum(e.output_bytes for e in events
                                          if e.op in EXCHANGE_OPS),
                }
    return structure


def collect() -> dict:
    session = make_session()
    return {"plans": plan_shapes(session),
            "profiles": profile_structure(session)}


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
