#!/usr/bin/env python
"""CI size line: what the first executions of Q1 + Q3 + Q6 convert and generate.

Counts that repeat exactly on an unchanged tree, printed beside the ``src/``
line count they belong with: ``encode_column`` calls (one per distinct scanned
column when conversion is shared), generated source lines registered with
``linecache`` (the plain bodies only, while nothing profiles), the gather
nodes of the three optimized programs (``take`` / ``nonzero`` /
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
compiles the three statements at ``parallelism=4`` and counts the programs
whose generated plain source has the serial program's sha1 (3: a lanes plan
runs the serial program), and a fourth counts those whose profiled source
does (3: the width lives on the plan, not in the program's stamps).  A fifth
runs the three statements adaptively (``parallelism=4``, 10 executions each)
and counts the programs traced (3: the candidates share one), the
``plan_ir`` calls after compile (0: a switch repoints the statement at a
candidate planned at compile) and the executions of a statement that did not
report the cheapest candidate of their own prices (0: each execution, the
first included, prices every candidate on its own profile), counted from the
results.

Run from the repository root: ``python tools/cold_path_counts.py``
(``PYTHONPATH=src``, as in CI).
"""

from __future__ import annotations

import collections
import hashlib
import linecache
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro.adaptive as adaptive  # noqa: E402
import repro.core.session as session_module  # noqa: E402
from repro import ExecutionOptions, TQPSession  # noqa: E402
from repro.core.executor import Executor  # noqa: E402
from repro.core.planner import scope_family  # noqa: E402
from repro.datasets import tpch  # noqa: E402
from repro.storage import encodings  # noqa: E402

SCALE_FACTOR = 0.002
QUERIES = (1, 3, 6)
GATHERS = ("take", "nonzero", "boolean_mask")
REDUCTIONS = ("scatter_add", "scatter_min", "scatter_max", "bincount", "unique",
              "join_ids")
JOIN_ARITHMETIC = ("repeat", "argsort", "cumsum", "arange_until")
ADAPTIVE_EXECUTIONS = 10


def adaptive_counts(session) -> tuple[int, int, int]:
    """``(traces, plan_ir calls after compile, executions before the priced
    choice)`` of the adaptive statements, the last the most of any one: an
    execution counts when its ``reported_s`` is not the cheapest of its own
    prices or the statement does not name that candidate after it."""
    counts = collections.Counter()

    def counted(name, function):
        def spy(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return spy

    for module in (adaptive, session_module):
        module.plan_ir = counted("plan_ir", module.plan_ir)
    Executor._compile_locked = counted("trace", Executor._compile_locked)
    options = ExecutionOptions(parallelism=4, adaptive=True)
    held = [session.compile(tpch.query(q, SCALE_FACTOR), options=options)
            for q in QUERIES]
    planned = counts["plan_ir"]
    unpriced = 0
    for compiled in held:
        missed = 0
        for _ in range(ADAPTIVE_EXECUTIONS):
            result = compiled.execute()
            prices = adaptive.price(compiled.candidates, result,
                                    compiled.executor.cost_model)
            cheapest = min(prices, key=prices.__getitem__)
            missed += (result.reported_s != prices[cheapest]
                       or compiled.strategy != cheapest)
        unpriced = max(unpriced, missed)
    return counts["trace"], counts["plan_ir"] - planned, unpriced


def main() -> None:
    calls = []
    convert = encodings.encode_column

    def counted(*args, **kwargs):
        calls.append(1)
        return convert(*args, **kwargs)

    encodings.encode_column = counted
    session = TQPSession(
        default_options=ExecutionOptions(backend="torchscript"))
    for name, frame in tpch.generate_tables(SCALE_FACTOR).items():
        session.register(name, frame)
    held = [session.compile(tpch.query(q, SCALE_FACTOR)) for q in QUERIES]
    for compiled in held:
        compiled.run()
    lines = sum(len(entry[2]) for name, entry in linecache.cache.items()
                if name.startswith("<tqp-codegen"))
    ops = collections.Counter()
    for compiled in held:
        ops.update(compiled.executor_graph().op_counts())
    def nodes(names: tuple) -> str:
        return " / ".join(f"{ops[name]} {name}" for name in names)

    print(f"{len(calls)} encode_column calls, {lines} generated source lines, "
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

    def source_sha1(compiled, body: str) -> str:
        compiled.execute(profile=body == "profiled")
        scripted = compiled.executor._program.scripted
        source = (scripted.compiled_profiled_source if body == "profiled"
                  else scripted.compiled_source)
        return hashlib.sha1(source.encode()).hexdigest()

    lanes = [session.compile(tpch.query(q, SCALE_FACTOR),
                             options=ExecutionOptions(parallelism=4))
             for q in QUERIES]
    for body in ("plain", "profiled"):
        same = sum(source_sha1(serial, body) == source_sha1(spread, body)
                   for serial, spread in zip(held, lanes))
        label = "" if body == "plain" else "profiled "
        print(f"{same} / {len(QUERIES)} parallelism=4 {label}programs "
              f"identical to serial (sha1 of the generated {body} source, "
              f"Q{' + Q'.join(map(str, QUERIES))})")
    traces, replans, unpriced = adaptive_counts(session)
    print(f"{traces} traces, {replans} plan_ir calls after compile, "
          f"{unpriced} executions per statement before the priced choice "
          f"(adaptive Q{' + Q'.join(map(str, QUERIES))}, parallelism=4, "
          f"{ADAPTIVE_EXECUTIONS} executions each)")


if __name__ == "__main__":
    main()
