"""The ``serve_zipf`` workload: a Zipfian request stream through
``ServingRuntime``.

Phase A, saturation (closed): a burst of requests is submitted back to back
and awaited; the statistic is the median over bursts.  Phase B, paced (open
loop, one generator thread, non-blocking ``submit``): requests are sent on a
fixed schedule and each is timed **from when it was due**, so a stall shows
as latency on every request behind it; how late the generator itself ran is
reported.

Every request's result must be bit-identical to the single-thread prepared
path for the same binding (so batching and dedupe cannot serve a neighbour's
answer), and one binding per shape is checked against the row engine.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import time
from typing import Optional

from common import (
    BATCH_WINDOW,
    PACED_P95_LIMIT_MS,
    PACED_RATES,
    SERVE_WORKERS,
    TAIL_QUERIES,
    ZIPF_S,
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
    percentile,
    rows_mismatch,
)
from layers import (
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
from tpch_workloads import Data, Outcome, timed_setups

#: How long before a paced request is due the generator stops sleeping.
GENERATOR_SPIN_S = 0.0002

#: Serving shapes reported on their own rows (``serve.shape_<key>_ms``).
HEAD_SHAPES = {"q6_discount": "q6", "q1_cutoff": "q1",
               "orders_window": "orders", "predict_sentiment": "predict"}


def tail_statements() -> dict[str, str]:
    """Tail shape name -> TPC-H statement name (``tpch_q3`` -> ``q03``)."""
    from repro.datasets import tpch

    return {f"tpch_q{number}": statement_name(number)
            for number in tpch.ALL_QUERY_IDS[:TAIL_QUERIES]}


def _options():
    from repro import ExecutionOptions

    return ExecutionOptions(backend="torchscript", device="cpu")


def make_data(scale_factor: float) -> Data:
    frames = dict(tpch_tables(scale_factor))
    # The serving simulator's corpus (repro.serve.register_prediction_model).
    reviews, model = sentiment_corpus(num_reviews=400, epochs=40)
    frames["amazon_reviews"] = reviews
    return Data(frames, model, scale_factor)


def make_stream(shapes, requests: int, seed: int):
    """A Zipf(s) request stream over the rank-ordered ``shapes``.

    The mix is fixed — each shape gets its expected Zipf share of the
    requests, by largest remainder — and the seed decides the order and
    every binding.  ``repro.serve.zipfian_workload`` draws the mix as well,
    which at 1000 requests moves the PREDICT shape's count by +-25% between
    seeds, and with it p95 and the burst time: composition noise, not the
    system's.
    """
    import numpy as np
    from repro.serve import SimulatedRequest

    weights = np.arange(1, len(shapes) + 1, dtype=np.float64) ** -ZIPF_S
    exact = weights / weights.sum() * requests
    counts = np.floor(exact).astype(int)
    for index in np.argsort(exact - counts)[::-1][:requests - counts.sum()]:
        counts[index] += 1
    rng = np.random.RandomState(seed)
    ranks = rng.permutation(np.repeat(np.arange(len(shapes)), counts))
    stream = []
    for rank in ranks:
        shape = shapes[int(rank)]
        params = shape.binder(rng) if shape.binder is not None else None
        stream.append(SimulatedRequest(shape=shape, params=params))
    return stream


def stream_digest(stream) -> str:
    digest = hashlib.sha1()
    for request in stream:
        digest.update(request.shape.name.encode())
        digest.update(json.dumps(request.params, sort_keys=True).encode())
    return digest.hexdigest()


def binding_key(request) -> tuple:
    return (request.shape.name,
            json.dumps(request.params, sort_keys=True))


@dataclasses.dataclass
class Serving:
    """A warmed runtime over one session, with its prepared shapes."""

    data: Data
    session: object
    runtime: object
    shapes: list
    statements: dict

    def close(self) -> None:
        self.runtime.close()


def open_serving(data: Data, session, queue_depth: int) -> Serving:
    """Prepare and warm every shape on ``session`` behind a new runtime."""
    import numpy as np
    from repro.serve import ServingRuntime, build_shapes

    shapes = build_shapes(data.scale_factor, tail_queries=TAIL_QUERIES)
    runtime = ServingRuntime(session, workers=SERVE_WORKERS,
                             batch_window=BATCH_WINDOW,
                             max_queue_depth=queue_depth,
                             default_options=_options())
    statements = {shape.name: runtime.prepare(shape.sql) for shape in shapes}
    rng = np.random.RandomState(0)
    for shape in shapes:
        params = shape.binder(rng) if shape.binder is not None else None
        runtime.submit(statements[shape.name], params=params).result(120)
    return Serving(data, session, runtime, shapes, statements)


def build_serving(scale_factor: float, queue_depth: int) -> Serving:
    """The whole set-up: data, model, session, runtime, warm shapes."""
    from repro import TQPSession

    data = make_data(scale_factor)
    session = TQPSession()
    register_all(session, data)
    return open_serving(data, session, queue_depth)


@dataclasses.dataclass
class Served:
    """One request as the benchmark saw it."""

    request: object
    ticket: object
    #: When the request was due (paced) or submitted (burst).
    due: float
    error: Optional[BaseException] = None

    @property
    def latency_ms(self) -> float:
        return (self.ticket.completed_at - self.due) * 1e3


def _submit(serving: Serving, request, due: float) -> Served:
    try:
        ticket = serving.runtime.submit(serving.statements[request.shape.name],
                                        params=request.params)
    except Exception as error:  # noqa: BLE001 - refused: counted as a failure
        return Served(request, None, due, error)
    return Served(request, ticket, due)


def _await(served: list[Served]) -> None:
    for item in served:
        if item.ticket is None:
            continue
        try:
            item.ticket.result(300)
        except Exception as error:  # noqa: BLE001 - counted as a failure
            item.error = error


def burst(serving: Serving, stream, submit_seconds: Optional[list] = None
          ) -> tuple[float, list[Served]]:
    """Submit ``stream`` back to back and wait for all of it.

    With ``submit_seconds`` each ``submit`` call is timed into it (the
    traced variant; the difference to an untimed burst is the overhead).
    """
    gc.collect()
    start = time.perf_counter()
    if submit_seconds is None:
        served = [_submit(serving, request, start) for request in stream]
    else:
        served = []
        for request in stream:
            before = time.perf_counter()
            served.append(_submit(serving, request, start))
            submit_seconds.append(time.perf_counter() - before)
    _await(served)
    return time.perf_counter() - start, served


def paced(serving: Serving, stream, rate: float
          ) -> tuple[list[Served], list[float], int]:
    """Open loop at ``rate`` requests/s.  Returns the served requests, how
    late each was sent (seconds), and the queue depth after the last send."""
    gc.collect()
    start = time.perf_counter() + 0.05
    served, late = [], []
    for index, request in enumerate(stream):
        due = start + index / rate
        # Sleep to just before the request is due, then spin the last
        # fraction of a millisecond: the generator's own wake-up jitter would
        # otherwise be charged to the system as latency.  The spin holds the
        # interpreter lock for about 2% of the time at 100 requests/s.
        wait = due - time.perf_counter() - GENERATOR_SPIN_S
        if wait > 0:
            time.sleep(wait)
        while time.perf_counter() < due:
            pass
        late.append(time.perf_counter() - due)
        served.append(_submit(serving, request, due))
    depth = serving.runtime.queue_depth
    _await(served)
    return served, late, depth


class ServeChecker:
    """Bit-identity with the prepared path, and the row-engine reference."""

    def __init__(self, serving: Serving):
        self.serving = serving
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        #: (shape, binding) -> [a request with it, {signature: count}].
        self._served: dict[tuple, list] = {}

    def add(self, served: list[Served]) -> None:
        # Deduped requests share one result object; sign it once.  The cache
        # lives only while ``served`` keeps those objects (and their ids)
        # alive.
        signatures: dict[int, str] = {}
        for item in served:
            self.attempted += 1
            if item.error is not None:
                self.failed += 1
                self.problems.append(
                    f"{item.request.shape.name}: {item.error!r}")
                continue
            result = item.ticket.result(0)
            signature = signatures.get(id(result))
            if signature is None:
                signature = frame_signature(result.to_dataframe())
                signatures[id(result)] = signature
            counts = self._served.setdefault(
                binding_key(item.request), [item.request, {}])[1]
            counts[signature] = counts.get(signature, 0) + 1

    def verify(self) -> float:
        start = time.perf_counter()
        options = _options()
        session, data = self.serving.session, self.serving.data
        tail = load_expected(data.scale_factor)
        tail_names = tail_statements()
        checked_shapes: set[str] = set()
        for request, counts in self._served.values():
            shape = request.shape
            prepared = session.prepare(shape.sql, options=options)
            frame = prepared.bind(**(request.params or {})).run()
            signature = frame_signature(frame)
            for served_signature, count in counts.items():
                if served_signature != signature:
                    self.failed += count
                    self.problems.append(
                        f"{shape.name} {request.params}: {count} results "
                        f"differ from the single-thread prepared path")
            if shape.name in checked_shapes:
                continue
            checked_shapes.add(shape.name)
            if shape.name in tail_names:
                reference = tail[tail_names[shape.name]]
            else:
                model = (data.model if "predict" in shape.name else None)
                reference = row_engine_rows(shape.sql, data.frames, model,
                                            request.params)
            problem = rows_mismatch(normalized_rows(frame), reference)
            if problem:
                self.failed += sum(counts.values())
                self.problems.append(
                    f"{shape.name} {request.params}: prepared path differs "
                    f"from the row engine: {problem}")
        return time.perf_counter() - start


def _paced_requests(sizes: Sizes, seconds: float, rate: float,
                    share: float) -> int:
    if sizes.paced_requests is not None:
        return sizes.paced_requests
    return max(100, int(rate * seconds * share))


def _shape_geomean(served: list[Served]) -> float:
    """Geometric mean over shapes of each shape's fastest execution inside
    the runtime (``ExecutionResult.measured_s``), in ms: what a shape costs
    once a worker has it, so the head shapes cannot hide the tail.
    Execution rather than latency, because the 0.5-1 ms shapes' latency is
    mostly thread wake-up, which on this VM swings by a third with the host's
    load; the fastest rather than the median for the reason given at
    ``tpch_workloads.end_to_end``."""
    per_shape: dict[str, list[float]] = {}
    for item in served:
        if item.error is None:
            per_shape.setdefault(item.request.shape.name, []).append(
                item.ticket.result(0).measured_s * 1e3)
    return geomean(min(values) for values in per_shape.values())


# -- untraced run ----------------------------------------------------------------


def run_untraced(sizes: Sizes, seed: int, seconds: float) -> Outcome:
    scale_factor = sizes.scale_factor["serve_zipf"]
    queue_depth = sizes.burst_requests + 64
    setup_seconds, serving = timed_setups(
        sizes.setup_reps, lambda: build_serving(scale_factor, queue_depth),
        dispose=Serving.close)
    try:
        checker = ServeChecker(serving)
        burst_stream = make_stream(serving.shapes, sizes.burst_requests, seed)
        paced_stream = make_stream(
            serving.shapes,
            _paced_requests(sizes, seconds, PACED_RATES[0], 2 / 3), seed + 1)

        # Phase A: a third of the budget, at least ``min_bursts`` bursts.
        deadline = time.perf_counter() + seconds / 3
        bursts: list[float] = []
        done, last = 0, 0.0
        while budget_allows(done - sizes.warmup_bursts, sizes.min_bursts,
                            sizes.max_bursts, deadline, last):
            last, served = burst(serving, burst_stream)
            checker.add(served)
            if done >= sizes.warmup_bursts:
                bursts.append(last)
            done += 1

        # Phase B: the first paced rate only; the others are per-layer.
        served, _, _ = paced(serving, paced_stream, PACED_RATES[0])
        checker.add(served)
        latencies = [item.latency_ms for item in served if item.error is None]

        # The fastest burst: see ``tpch_workloads.end_to_end`` for why not
        # the median.
        burst_s = min(bursts)
        metrics = {
            "sweep_s": burst_s,
            "saturation_qps": sizes.burst_requests / burst_s,
            "paced_p95_ms": percentile(latencies, 0.95),
            "geomean_ms": _shape_geomean(served),
            "setup_s": median(setup_seconds),
            "peak_rss_mb": peak_rss_mb(),
        }
        parts = chunked(latencies, 4)
        spread = {
            "sweep_s": iqr_share(bursts),
            "saturation_qps": iqr_share(bursts),
            "paced_p95_ms": iqr_share([percentile(p, 0.95) for p in parts]),
            "geomean_ms": iqr_share([
                _shape_geomean(part) for part in chunked(served, 4)]),
            "setup_s": iqr_share(setup_seconds),
            "peak_rss_mb": 0.0,
        }
        oracle_s = checker.verify()
    finally:
        serving.close()
    digest = stream_digest(burst_stream) + stream_digest(paced_stream)
    return Outcome(metrics, checker.attempted, checker.failed,
                   checker.problems, spread,
                   hashlib.sha1(digest.encode()).hexdigest(), oracle_s)


# -- traced run ------------------------------------------------------------------


def _ticket_spans(tracer: Tracer, served: list[Served], phase: str) -> None:
    """Queue/batch wait and execute spans from the tickets' own stamps,
    packed onto tracks so overlapping requests stay readable."""
    track_free: list[float] = []
    for item in served:
        if item.error is not None:
            continue
        ticket = item.ticket
        start, end = ticket.submitted_at, ticket.completed_at
        for track, free_at in enumerate(track_free):
            if free_at <= start:
                break
        else:
            track = len(track_free)
            track_free.append(0.0)
        track_free[track] = end
        executed = end - ticket.result(0).measured_s
        name = item.request.shape.name
        tracer.add(f"{phase}.wait", start, max(start, executed), name,
                   track + 1)
        tracer.add(f"{phase}.execute", max(start, executed), end, name,
                   track + 1)


def _naive_loop(serving: Serving, stream) -> tuple[float, dict]:
    """Single-thread ``prepared.bind().execute()`` over the stream: the base
    of the burst ratio, and per-shape replay times."""
    options = _options()
    prepared = {shape.name: serving.session.prepare(shape.sql, options=options)
                for shape in serving.shapes}
    per_shape: dict[str, list[float]] = {}
    gc.collect()
    start = time.perf_counter()
    for request in stream:
        before = time.perf_counter()
        prepared[request.shape.name].bind(**(request.params or {})).execute()
        per_shape.setdefault(request.shape.name, []).append(
            time.perf_counter() - before)
    return time.perf_counter() - start, per_shape


def run_traced(sizes: Sizes, seed: int, seconds: float) -> Outcome:
    import numpy as np
    from repro import TQPSession
    from repro.serve import build_shapes

    scale_factor = sizes.scale_factor["serve_zipf"]
    tracer = Tracer()
    data = make_data(scale_factor)
    session = TQPSession()
    since = tracer.mark()
    register_all(session, data, tracer)

    # Probe sweep over the shapes: the generic per-layer metrics.
    rng = np.random.RandomState(0)
    counts = ProbeCounts()
    probed = []
    for shape in build_shapes(scale_factor, tail_queries=TAIL_QUERIES):
        params = shape.binder(rng) if shape.binder is not None else None
        statement = Statement(shape.name, shape.sql, _options(), shape.name,
                              params=params)
        compiled, _ = probe_operation(session, statement, tracer, counts)
        probed.append((statement, compiled))
    for statement, compiled in probed:
        probe_children(session, statement, compiled, tracer, counts)
    metrics = probe_metrics(tracer, since, counts, session.plan_cache.stats())
    metrics.update(kernel_split(probed))

    serving = open_serving(data, session, sizes.burst_requests + 64)
    try:
        checker = ServeChecker(serving)
        burst_stream = make_stream(serving.shapes, sizes.burst_requests, seed)

        naive_s, per_shape = _naive_loop(serving, burst_stream)
        metrics["serve.naive_qps"] = len(burst_stream) / naive_s
        tail_names = tail_statements()
        for name, times in per_shape.items():
            row = (f"serve.shape_{HEAD_SHAPES[name]}_ms" if name in HEAD_SHAPES
                   else f"replay.{tail_names[name]}_ms")
            metrics[row] = median(times) * 1e3

        # Pairs of (plain burst, burst with every submit timed).
        for _ in range(sizes.warmup_bursts):
            checker.add(burst(serving, burst_stream)[1])
        before = serving.runtime.stats()
        plain, timed, submit_seconds = [], [], []
        for pair in range(sizes.min_bursts):
            seconds_plain, served = burst(serving, burst_stream)
            checker.add(served)
            plain.append(seconds_plain)
            seconds_timed, served = burst(serving, burst_stream,
                                          submit_seconds)
            checker.add(served)
            timed.append(seconds_timed)
            if pair == 0:
                _ticket_spans(tracer, served, "burst")
        after = serving.runtime.stats()
        batches = after["batches"] - before["batches"]
        batched = after["batched_requests"] - before["batched_requests"]
        deduped = after["deduped_requests"] - before["deduped_requests"]
        metrics.update({
            "serve.submit_us": median(submit_seconds) * 1e6,
            "serve.batches": batches,
            "serve.mean_batch": batched / batches if batches else 0.0,
            "serve.max_batch": after["max_batch"],
            "serve.dedup_share": deduped / batched if batched else 0.0,
            # Each timed burst against the plain burst just before it.
            "bench.trace_overhead_share": median([
                with_stamps / without
                for with_stamps, without in zip(timed, plain)]) - 1.0,
            "bench.samples": len(plain),
        })

        # The three paced rates, the budget split so each lasts about as long.
        max_rate_ok = 0
        for rate in PACED_RATES:
            stream = make_stream(
                serving.shapes,
                _paced_requests(sizes, seconds, rate, 0.25), seed + rate)
            served, late, depth = paced(serving, stream, rate)
            checker.add(served)
            good = [item for item in served if item.error is None]
            latencies = [item.latency_ms for item in good]
            waits = [(item.ticket.latency_s
                      - item.ticket.result(0).measured_s) * 1e3
                     for item in good]
            key = f"serve.r{rate}"
            metrics[f"{key}_p50_ms"] = percentile(latencies, 0.50)
            metrics[f"{key}_p95_ms"] = percentile(latencies, 0.95)
            metrics[f"{key}_p99_ms"] = percentile(latencies, 0.99)
            metrics[f"{key}_wait_p50_ms"] = percentile(waits, 0.50)
            metrics[f"{key}_gen_late_p99_ms"] = percentile(late, 0.99) * 1e3
            if rate == PACED_RATES[0]:
                metrics["serve.execute_p50_ms"] = percentile(
                    [item.ticket.result(0).measured_s * 1e3 for item in good],
                    0.50)
                _ticket_spans(tracer, served, f"paced{rate}")
            if metrics[f"{key}_p95_ms"] <= PACED_P95_LIMIT_MS and depth <= 1:
                max_rate_ok = rate
        metrics["serve.max_rate_ok"] = max_rate_ok

        stats = serving.runtime.stats()
        metrics["serve.rejected"] = stats["rejected"]
        metrics["serve.timed_out"] = stats["timed_out"]
        metrics["serve.failed"] = stats["failed"]
        metrics["bench.oracle_s"] = checker.verify()
    finally:
        serving.close()
    metrics["bench.ops"] = checker.attempted
    metrics["failed_share"] = checker.failed / max(1, checker.attempted)
    return Outcome(metrics, checker.attempted, checker.failed,
                   checker.problems, {}, stream_digest(burst_stream),
                   metrics["bench.oracle_s"], tracer)
