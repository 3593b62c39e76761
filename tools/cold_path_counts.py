#!/usr/bin/env python
"""CI size line: what the first executions of Q1 + Q3 + Q6 convert and generate.

Counts that repeat exactly on an unchanged tree, printed beside the ``src/``
line count they belong with: ``encode_column`` calls (one per distinct scanned
column when conversion is shared), generated source lines registered with
``linecache`` after the first executions (0: each returns its trace's result)
and after the second (the plain bodies only, while nothing profiles), the
gather nodes of the three optimized programs (``take`` / ``nonzero`` /
``boolean_mask``: what late materialization left to run), their reduction
and key-id nodes (``scatter_add`` / ``scatter_min`` / ``scatter_max`` /
``bincount`` / ``unique``: what grouping and the aggregate state table emit —
a rewrite of either that changes no program repeats these exactly — and
``join_ids``, one per join key column), and the join's index
arithmetic (``repeat`` / ``argsort`` / ``cumsum`` / ``arange_until``: one
``argsort`` per key-probe join, nothing else while every join has a key
side).  A second line
profiles the three programs once and counts the events no relational operator
claims (0: every traced node carries the operator it was traced under) and the
distinct operator families the profile breaks down into.  A third line
compiles the three statements serial, at ``parallelism=4`` and adaptively
(``parallelism=4``) on a fresh session, executes each once, and counts the
executors built, the programs traced and the planner walks (3 / 3 / 3: a
width is a price over the statement's one plan and program).  A fourth runs
the adaptive statements 10 times each and counts the executions of a
statement that did not report the cheapest candidate of their own prices
(0: each execution, the first included, prices every candidate on its own
profile), counted from the results.

Run from the repository root: ``python tools/cold_path_counts.py``
(``PYTHONPATH=src``, as in CI).
"""

from __future__ import annotations

import collections
import linecache
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.adaptive as adaptive  # noqa: E402
from repro import ExecutionOptions, TQPSession  # noqa: E402
from repro.core.executor import Executor  # noqa: E402
from repro.core.planner import Planner, scope_family  # noqa: E402
from repro.datasets import tpch  # noqa: E402
from repro.storage import encodings  # noqa: E402

SCALE_FACTOR = 0.002
QUERIES = (1, 3, 6)
GATHERS = ("take", "nonzero", "boolean_mask")
REDUCTIONS = ("scatter_add", "scatter_min", "scatter_max", "bincount", "unique",
              "join_ids")
JOIN_ARITHMETIC = ("repeat", "argsort", "cumsum", "arange_until")
ADAPTIVE_EXECUTIONS = 10


#: The options a statement is compiled under: serial, a width, adaptive.
WIDTHS = (ExecutionOptions(), ExecutionOptions(parallelism=4),
          ExecutionOptions(parallelism=4, adaptive=True))


def width_counts(tables: dict) -> tuple[int, int, int]:
    """``(executors, traces, planner walks)`` of the statements compiled
    under every one of :data:`WIDTHS` on a fresh session, each executed
    once."""
    counts = collections.Counter()

    def counted(name, function):
        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return spy

    Executor.__init__ = counted("executor", Executor.__init__)
    Executor._trace_locked = counted("trace", Executor._trace_locked)
    Planner.plan = counted("walk", Planner.plan)
    session = TQPSession(
        default_options=ExecutionOptions(backend="torchscript"))
    for name, frame in tables.items():
        session.register(name, frame)
    for q in QUERIES:
        for options in WIDTHS:
            session.compile(tpch.query(q, SCALE_FACTOR),
                            options=options).execute()
    return counts["executor"], counts["trace"], counts["walk"]


def unpriced_executions(session) -> int:
    """The most executions of one adaptive statement that did not report
    the cheapest candidate of their own prices, or after which the
    statement does not name that candidate."""
    unpriced = 0
    for q in QUERIES:
        compiled = session.compile(tpch.query(q, SCALE_FACTOR),
                                   options=WIDTHS[2])
        missed = 0
        for _ in range(ADAPTIVE_EXECUTIONS):
            result = compiled.execute()
            prices = adaptive.price(compiled.candidates, result,
                                    compiled.executor.cost_model)
            cheapest = min(prices, key=prices.__getitem__)
            missed += (result.reported_s != prices[cheapest]
                       or compiled.strategy != cheapest)
        unpriced = max(unpriced, missed)
    return unpriced


def main() -> None:
    calls = []
    convert = encodings.encode_column

    def counted(*args, **kwargs):
        calls.append(1)
        return convert(*args, **kwargs)

    encodings.encode_column = counted
    tables = tpch.generate_tables(SCALE_FACTOR)
    session = TQPSession(
        default_options=ExecutionOptions(backend="torchscript"))
    for name, frame in tables.items():
        session.register(name, frame)
    held = [session.compile(tpch.query(q, SCALE_FACTOR)) for q in QUERIES]
    lines = []
    for _ in range(2):
        for compiled in held:
            compiled.run()
        lines.append(sum(len(entry[2])
                         for name, entry in linecache.cache.items()
                         if name.startswith("<tqp-codegen")))
    ops = collections.Counter()
    for compiled in held:
        ops.update(compiled.executor_graph().op_counts())
    def nodes(names: tuple) -> str:
        return " / ".join(f"{ops[name]} {name}" for name in names)

    print(f"{len(calls)} encode_column calls, {lines[0]} / {lines[1]} "
          f"generated source lines after the first / second executions, "
          f"{nodes(GATHERS)} nodes, {nodes(REDUCTIONS)} nodes, "
          f"{nodes(JOIN_ARITHMETIC)} nodes "
          f"(first executions of Q{', Q'.join(map(str, QUERIES))} at "
          f"SF {SCALE_FACTOR})")
    # After the line count: profiling builds the profiled bodies.
    events = [event for compiled in held
              for event in compiled.execute(profile=True).profile.events]
    families = {scope_family(event.scope) for event in events if event.scope}
    print(f"{sum(not event.scope for event in events)} events outside any "
          f"operator, {len(families)} operator families (the same statements "
          f"profiled once on torchscript)")

    statements = f"Q{' + Q'.join(map(str, QUERIES))}"
    executors, traces, walks = width_counts(tables)
    print(f"{executors} executors, {traces} traces, {walks} planner walks "
          f"({statements}, each compiled serial, at parallelism=4 and "
          f"adaptive, then executed)")
    print(f"{unpriced_executions(session)} executions per statement before "
          f"the priced choice (adaptive {statements}, parallelism=4, "
          f"{ADAPTIVE_EXECUTIONS} executions each)")


if __name__ == "__main__":
    main()
