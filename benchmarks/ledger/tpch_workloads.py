"""The three TPC-H workloads: ``tpch_warm``, ``tpch_cold``, ``tpch_strategies``.

An *operation* is one statement execution; a *sweep* runs every statement of
the workload once in seed-shuffled order.  Each operation is timed on its own
with ``perf_counter``; its result is signed between operations (outside the
clock) and every distinct signature is compared with the reference after the
timed phase.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import random
import time
from typing import Callable, Optional

from common import (
    ADAPTIVE_SETTLE,
    FIGURE4_SQL,
    STRATEGY_QUERIES,
    Sizes,
    budget_allows,
    chunked,
    frame_signature,
    geomean,
    iqr_share,
    load_expected,
    median,
    normalized_rows,
    peak_rss_mb,
    rows_mismatch,
)
from layers import (
    COLD_OPERATION_SPANS,
    ProbeCounts,
    Statement,
    kernel_split,
    probe_children,
    probe_metrics,
    probe_operation,
    register_all,
)
from reference import (
    row_engine_rows,
    sentiment_corpus,
    statement_name,
    tpch_tables,
)
from spans import Tracer

#: Families a plan must contain to count as really parallel / distributed.
PARALLEL_MARKERS = ("Morsel", "Partitioned")
DISTRIBUTED_MARKERS = ("Distributed", "Shuffle", "Broadcast", "Sharded")


@dataclasses.dataclass
class Data:
    """Everything a set-up generates before a session exists."""

    frames: dict
    model: object
    scale_factor: float


@dataclasses.dataclass
class Outcome:
    """What one run hands back to ``run.py``."""

    metrics: dict
    attempted: int
    failed: int
    problems: list
    #: Within-run spread per metric (share of the median), for compare.py.
    spread: dict
    stream_hash: str
    #: Seconds the reference check took (outside every clock).
    oracle_s: float
    tracer: Optional[Tracer] = None


class Checker:
    """Signs every operation's result; checks each distinct one once."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._seen: dict[tuple[str, str], list] = {}

    def result(self, statement: Statement, frame) -> None:
        self.attempted += 1
        key = (statement.reference, frame_signature(frame))
        entry = self._seen.get(key)
        if entry is None:
            self._seen[key] = [statement.name, frame, 1]
        else:
            entry[2] += 1

    def error(self, statement: Statement, error: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{statement.name}: raised {error!r}")

    def verify(self, references: dict[str, list]) -> float:
        """Compare every distinct result; returns the seconds it took."""
        start = time.perf_counter()
        for (reference, _), (name, frame, count) in self._seen.items():
            problem = rows_mismatch(normalized_rows(frame),
                                    references[reference])
            if problem:
                self.failed += count
                self.problems.append(f"{name}: {problem} ({count} operations)")
        return time.perf_counter() - start


def make_data(scale_factor: float) -> Data:
    frames = dict(tpch_tables(scale_factor))
    reviews, model = sentiment_corpus(num_reviews=3000, epochs=150)
    frames["amazon_reviews"] = reviews
    return Data(frames, model, scale_factor)


def statements_for(workload: str, scale_factor: float, adaptive: bool = False
                   ) -> list[Statement]:
    from repro import ExecutionOptions
    from repro.datasets import tpch

    base = ExecutionOptions(backend="torchscript", device="cpu")
    if workload in ("tpch_warm", "tpch_cold"):
        statements = [Statement(statement_name(q), tpch.query(q, scale_factor),
                                base, statement_name(q))
                      for q in tpch.ALL_QUERY_IDS]
        statements.append(Statement("predict", FIGURE4_SQL, base, "predict"))
        return statements
    variants = [("serial", base, False),
                ("par4", base.replace(parallelism=4), False),
                ("dev4", base.replace(devices=4), False),
                ("profiled", base, True)]
    if adaptive:
        variants.append(
            ("adaptive", base.replace(adaptive=True, parallelism=4), False))
    return [Statement(f"{statement_name(q)}/{variant}",
                      tpch.query(q, scale_factor), options,
                      statement_name(q), profile=profile)
            for variant, options, profile in variants
            for q in STRATEGY_QUERIES]


def references_for(data: Data) -> dict[str, list]:
    references = dict(load_expected(data.scale_factor))
    references["predict"] = row_engine_rows(
        FIGURE4_SQL, {"amazon_reviews": data.frames["amazon_reviews"]},
        data.model)
    return references


def open_session(data: Data, tracer: Optional[Tracer] = None):
    from repro import TQPSession

    session = TQPSession()
    register_all(session, data, tracer)
    return session


def warm_operation(compiled, statement: Statement) -> Callable[[], object]:
    """``CompiledQuery.run()`` (replay + ``to_dataframe``); the profiled
    variant passes ``profile=True`` through ``execute``."""
    if statement.profile:
        return lambda: compiled.execute(profile=True).to_dataframe()
    return compiled.run


def compile_warm(session, statements: list[Statement]) -> list:
    """Compile every statement and run it twice: the first execution
    converts inputs, traces and generates code, the second settles."""
    operations = []
    for statement in statements:
        compiled = session.compile(statement.sql, options=statement.options)
        operation = warm_operation(compiled, statement)
        operation()
        operation()
        operations.append(operation)
    return operations


def timed_setups(repeats: int, build: Callable[[], object],
                 dispose: Optional[Callable[[object], None]] = None):
    """Run the whole set-up ``repeats`` times; keep the last product.
    Earlier products are disposed of and collected outside the clock."""
    seconds, product = [], None
    for _ in range(repeats):
        if dispose is not None and product is not None:
            dispose(product)
        product = None
        gc.collect()
        start = time.perf_counter()
        product = build()
        seconds.append(time.perf_counter() - start)
    return seconds, product


class SweepClock:
    """Per-operation and per-sweep wall times of the timed phase."""

    def __init__(self, statements: list[Statement], seed: int):
        self.statements = statements
        self.rng = random.Random(seed)
        self.order_digest = hashlib.sha1()
        self._hashed = 0
        self.per_statement: list[list[float]] = [[] for _ in statements]
        self.sweeps: list[float] = []

    def order(self) -> list[int]:
        order = list(range(len(self.statements)))
        self.rng.shuffle(order)
        # The stream hash covers the orders every run reaches, so it depends
        # on the seed and not on how many sweeps the time budget allowed.
        if self._hashed < 2:
            self._hashed += 1
            self.order_digest.update(bytes(order))
        return order

    def sweep(self, operations: list[Callable[[], object]], checker: Checker,
              keep: bool) -> float:
        """Run one sweep; returns its wall time including the untimed
        signing between operations (for budgeting only)."""
        began = time.perf_counter()
        total = 0.0
        for index in self.order():
            statement = self.statements[index]
            start = time.perf_counter()
            try:
                frame = operations[index]()
            except Exception as error:  # noqa: BLE001 - counted as a failure
                checker.error(statement, error)
                continue
            elapsed = time.perf_counter() - start
            checker.result(statement, frame)
            total += elapsed
            if keep:
                self.per_statement[index].append(elapsed)
        if keep:
            self.sweeps.append(total)
        return time.perf_counter() - began


def run_sweeps(sizes: Sizes, seconds: float, clock: SweepClock,
               checker: Checker, operations_for_sweep) -> None:
    """Discard ``warmup`` sweeps, then time sweeps while the budget lasts."""
    deadline = time.perf_counter() + seconds
    done, last = 0, 0.0
    while budget_allows(done - sizes.warmup, sizes.min_sweeps,
                        sizes.max_sweeps, deadline, last):
        operations = operations_for_sweep()
        gc.collect()
        last = clock.sweep(operations, checker, keep=done >= sizes.warmup)
        done += 1


def _interpolated(ordered: list[float], share: float) -> float:
    rank = (len(ordered) - 1) * share
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _heavy_statement_ms(best: list[float]) -> float:
    """95th percentile (linear interpolation) over the statements' times, in
    ms: what the heaviest statements of the mix cost."""
    return _interpolated(sorted(best), 0.95) * 1e3


def end_to_end(clock: SweepClock, setup_seconds: list[float]) -> tuple:
    """The end-to-end metrics of a TPC-H workload and their spreads.

    Every statement is priced at the **fastest** of its timed executions.
    Timing noise on a shared machine only ever adds time, and here it comes
    in episodes of seconds to minutes that slow everything by a quarter or
    more: a median over 11-30 sweeps moves with the episodes (ten-run spreads
    of 20-27% were measured), the minimum only when an episode covers the
    whole run.  Parent and change are priced the same way.
    """
    timed = [times for times in clock.per_statement if times]
    best = [min(times) for times in timed]
    sweep_s = sum(best)
    metrics = {
        "sweep_s": sweep_s,
        "geomean_ms": geomean(best) * 1e3,
        # Closed loop, one client: statements completed per second.
        "saturation_qps": len(best) / sweep_s,
        # No pacing here: the tail of the statement latencies (see README,
        # "End-to-end metrics").
        "paced_p95_ms": _heavy_statement_ms(best),
        "setup_s": median(setup_seconds),
        "peak_rss_mb": peak_rss_mb(),
    }
    # Within-run spread, for looking at a single pair of runs: between the
    # sweeps' totals, and for the percentile between four contiguous groups
    # of sweeps.
    sweep_spread = iqr_share(clock.sweeps)
    groups = [_heavy_statement_ms([min(times) for times in zip(*part)])
              for part in chunked(list(zip(*timed)), 4)]
    spread = {
        "sweep_s": sweep_spread,
        "geomean_ms": sweep_spread,
        "saturation_qps": sweep_spread,
        "paced_p95_ms": iqr_share(groups),
        "setup_s": iqr_share(setup_seconds),
        "peak_rss_mb": 0.0,
    }
    return metrics, spread


# -- untraced runs --------------------------------------------------------------


def run_untraced(workload: str, sizes: Sizes, seed: int, seconds: float
                 ) -> Outcome:
    scale_factor = sizes.scale_factor[workload]
    statements = statements_for(workload, scale_factor)
    checker = Checker()
    clock = SweepClock(statements, seed)

    if workload == "tpch_cold":
        setup_seconds, data = timed_setups(
            sizes.setup_reps, lambda: make_data(scale_factor))

        def fresh_operations():
            # A new session per sweep: empty plan cache, empty conversion
            # cache, nothing traced.  Registration is outside the clock.
            session = open_session(data)
            return [lambda s=s: session.sql(s.sql, options=s.options)
                    for s in statements]

        run_sweeps(sizes, seconds, clock, checker, fresh_operations)
    else:
        def build():
            data = make_data(scale_factor)
            session = open_session(data)
            return data, compile_warm(session, statements)

        setup_seconds, (data, operations) = timed_setups(
            sizes.setup_reps, build)
        run_sweeps(sizes, seconds, clock, checker, lambda: operations)

    metrics, spread = end_to_end(clock, setup_seconds)
    oracle_s = checker.verify(references_for(data))
    return Outcome(metrics, checker.attempted, checker.failed,
                   checker.problems, spread, clock.order_digest.hexdigest(),
                   oracle_s)


# -- traced runs ------------------------------------------------------------------


def _traced_warm_sweep(tracer: Tracer, clock: SweepClock, compiled: list,
                       checker: Checker) -> float:
    """One sweep with a span per operation and per layer under it."""
    total = 0.0
    for index in clock.order():
        statement = clock.statements[index]
        try:
            with tracer.span("operation", operation=statement.name) as span:
                with tracer.span("replay.execute"):
                    result = compiled[index].execute(profile=statement.profile)
                with tracer.span("materialize.to_dataframe"):
                    frame = result.to_dataframe()
        except Exception as error:  # noqa: BLE001 - counted as a failure
            checker.error(statement, error)
            continue
        checker.result(statement, frame)
        total += span.duration
    return total


def _probe_sweep(tracer: Tracer, data: Data, statements: list[Statement],
                 order: list[int], checker: Checker):
    """One cold sweep under spans on a fresh session.

    Returns ``(metrics, operation seconds, compiled per statement)``.  An
    operation that raises ends the traced run: its layers cannot be timed.
    """
    since = tracer.mark()
    counts = ProbeCounts()
    session = open_session(data, tracer)
    compiled: list = [None] * len(statements)
    for index in order:
        compiled[index], frame = probe_operation(
            session, statements[index], tracer, counts)
        checker.result(statements[index], frame)
    for statement, query in zip(statements, compiled):
        probe_children(session, statement, query, tracer, counts)
    metrics = probe_metrics(tracer, since, counts, session.plan_cache.stats())
    return metrics, tracer.totals(since)["operation"], compiled


def _replay_metrics(statements: list[Statement], clock: SweepClock) -> dict:
    """``replay.<statement>_ms``: untraced per-statement medians (serial,
    unprofiled statements only)."""
    metrics = {}
    for statement, times in zip(statements, clock.per_statement):
        if times and statement.name.split("/")[-1] in (statement.reference,
                                                       "serial"):
            metrics[f"replay.{statement.reference}_ms"] = median(times) * 1e3
    return metrics


def _strategy_metrics(statements: list[Statement], compiled: list,
                      clock: SweepClock) -> dict:
    """Wall and modelled time per variant, plan shapes, exchange traffic."""
    from repro.tensor.op_semantics import EXCHANGE_OPS

    by_variant: dict[str, list[int]] = {}
    for index, statement in enumerate(statements):
        by_variant.setdefault(statement.name.split("/")[1], []).append(index)

    metrics = {}
    for variant, indexes in by_variant.items():
        metrics[f"strategies.{variant}_ms"] = sum(
            median(clock.per_statement[i]) for i in indexes) * 1e3
    # Modelled time (ExecutionResult.reported_s under the profiler: host +
    # slowest lane or shard), beside the wall time of the same variant.
    exchange_events = exchange_bytes = 0
    for variant in ("par4", "dev4", "adaptive"):
        modelled = 0.0
        for index in by_variant[variant]:
            result = compiled[index].execute(profile=True)
            modelled += result.reported_s
            if variant == "dev4":
                for event in result.profile.events:
                    if event.op in EXCHANGE_OPS:
                        exchange_events += 1
                        exchange_bytes += event.output_bytes
        metrics[f"strategies.{variant}_modelled_ms"] = modelled * 1e3
    metrics["distributed.exchange_events"] = exchange_events
    metrics["distributed.exchange_bytes"] = exchange_bytes

    def plans_with(variant: str, markers: tuple) -> int:
        return sum(any(marker in compiled[i].explain() for marker in markers)
                   for i in by_variant[variant])

    metrics["strategies.par4_plans_parallel"] = plans_with(
        "par4", PARALLEL_MARKERS)
    metrics["strategies.dev4_plans_distributed"] = plans_with(
        "dev4", DISTRIBUTED_MARKERS)
    settled = [compiled[i].strategy for i in by_variant["adaptive"]]
    for strategy in ("serial", "auto", "parallel"):
        metrics[f"strategies.adaptive_settled_{strategy}"] = \
            settled.count(strategy)
    return metrics


@dataclasses.dataclass
class Traced:
    """What the workload-specific half of a traced run produces."""

    metrics: dict
    #: Σ operation span per traced sweep, paired with ``clock.sweeps``.
    traced_sweeps: list
    compiled: list
    #: The clock whose per-statement times are warm replays.
    replay_clock: SweepClock


def _traced_cold(seed: int, more, tracer: Tracer, data: Data,
                 statements: list[Statement], clock: SweepClock,
                 checker: Checker) -> Traced:
    """Pairs of (untraced cold sweep, probe sweep), each on its own fresh
    session; then replays of the last probe's now-warm statements."""
    probes, traced_sweeps, compiled = [], [], []
    pairs, last = 0, 0.0
    while more(pairs, last):
        began = time.perf_counter()
        session = open_session(data)
        operations = [lambda s=s: session.sql(s.sql, options=s.options)
                      for s in statements]
        gc.collect()
        clock.sweep(operations, checker, keep=True)
        gc.collect()
        metrics, operation_s, compiled = _probe_sweep(
            tracer, data, statements, clock.order(), checker)
        probes.append(metrics)
        traced_sweeps.append(operation_s)
        pairs += 1
        last = time.perf_counter() - began
    replay_clock = SweepClock(statements, seed)
    operations = [warm_operation(c, s) for c, s in zip(compiled, statements)]
    for _ in range(3):
        replay_clock.sweep(operations, checker, keep=True)
    # Times: median over the probe sweeps.  Counts repeat exactly.
    metrics = {name: (value if isinstance(value, int)
                      else median([probe[name] for probe in probes]))
               for name, value in probes[0].items()}
    covered_s = sum(metrics[f"{name}_ms"] for name in COLD_OPERATION_SPANS) / 1e3
    metrics["bench.span_coverage_share"] = covered_s / median(clock.sweeps)
    return Traced(metrics, traced_sweeps, compiled, replay_clock)


def _traced_warm(sizes: Sizes, more, tracer: Tracer, data: Data,
                 statements: list[Statement], clock: SweepClock,
                 checker: Checker) -> Traced:
    """One probe sweep as the instrumented set-up, then pairs of (untraced
    sweep, traced sweep) over the warm statements."""
    metrics, _, compiled = _probe_sweep(
        tracer, data, statements, list(range(len(statements))), checker)
    operations = [warm_operation(c, s) for c, s in zip(compiled, statements)]
    # Adaptive statements explore strategies on their first executions;
    # read them only after they had time to settle.
    for statement, operation in zip(statements, operations):
        if statement.options.adaptive:
            for _ in range(ADAPTIVE_SETTLE):
                operation()
    for _ in range(sizes.warmup):
        clock.sweep(operations, checker, keep=False)
    traced_sweeps, layer_totals = [], []
    pairs, last = 0, 0.0
    while more(pairs, last):
        began = time.perf_counter()
        gc.collect()
        clock.sweep(operations, checker, keep=True)
        gc.collect()
        since = tracer.mark()
        traced_sweeps.append(
            _traced_warm_sweep(tracer, clock, compiled, checker))
        layer_totals.append(tracer.totals(since))
        pairs += 1
        last = time.perf_counter() - began
    # Warm operations materialize on every execution: report the per-sweep
    # cost of the timed sweeps, not the probe's first materialization.
    materialize_s = median([totals["materialize.to_dataframe"]
                            for totals in layer_totals])
    metrics["materialize.to_dataframe_ms"] = materialize_s * 1e3
    metrics["bench.span_coverage_share"] = median([
        (totals["replay.execute"] + totals["materialize.to_dataframe"])
        / totals["operation"] for totals in layer_totals])
    return Traced(metrics, traced_sweeps, compiled, clock)


def run_traced(workload: str, sizes: Sizes, seed: int, seconds: float
               ) -> Outcome:
    scale_factor = sizes.scale_factor[workload]
    statements = statements_for(workload, scale_factor,
                                adaptive=workload == "tpch_strategies")
    checker = Checker()
    clock = SweepClock(statements, seed)
    tracer = Tracer()
    data = make_data(scale_factor)
    deadline = time.perf_counter() + seconds

    def more(pairs: int, last: float) -> bool:
        return budget_allows(pairs, sizes.min_traced, sizes.max_traced,
                             deadline, last)

    if workload == "tpch_cold":
        traced = _traced_cold(seed, more, tracer, data, statements, clock,
                              checker)
    else:
        traced = _traced_warm(sizes, more, tracer, data, statements, clock,
                              checker)
    metrics, compiled = traced.metrics, traced.compiled
    metrics.update(_replay_metrics(statements, traced.replay_clock))
    metrics.update(kernel_split(
        [(s, c) for s, c in zip(statements, compiled)
         if not s.profile and not s.options.adaptive]))
    if workload == "tpch_strategies":
        metrics.update(_strategy_metrics(statements, compiled, clock))
    # Each traced sweep against the untraced sweep run just before it: the
    # pair shares whatever speed the machine had at that moment.
    metrics["bench.trace_overhead_share"] = median([
        with_spans / without for with_spans, without
        in zip(traced.traced_sweeps, clock.sweeps)]) - 1.0
    metrics["bench.samples"] = len(clock.sweeps)
    metrics["bench.oracle_s"] = checker.verify(references_for(data))
    metrics["bench.ops"] = checker.attempted
    metrics["failed_share"] = checker.failed / max(1, checker.attempted)
    return Outcome(metrics, checker.attempted, checker.failed,
                   checker.problems, {}, clock.order_digest.hexdigest(),
                   metrics["bench.oracle_s"], tracer)
