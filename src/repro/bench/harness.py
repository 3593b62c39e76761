"""Shared benchmark harness.

Implements the paper's measurement protocol: compile once, run several warm-up
iterations, then report the **median** execution time of the measured runs
(paper §2.3 uses the median of 5 runs after 5 warm-ups).  For the simulated
devices (cuda / wasm) the reported time comes from the documented cost models;
the result tables always say which numbers are measured and which simulated.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import statistics
import time
from typing import Callable, Optional

from repro.baselines import RowEngine
from repro.core.options import ExecutionOptions
from repro.core.session import TQPSession
from repro.dataframe import DataFrame
from repro.datasets import tpch
from repro.frontend import sql_to_physical

#: Session/table cache so several benchmarks can share one generated dataset.
_TPCH_CACHE: dict[tuple[float, int], tuple[TQPSession, dict[str, DataFrame]]] = {}


def tpch_session(scale_factor: float = 0.01, seed: int = 19920101
                 ) -> tuple[TQPSession, dict[str, DataFrame]]:
    """A TQP session with the TPC-H tables registered (cached per SF/seed).

    Tables come from :func:`repro.datasets.tpch.generate_tables`, once per
    ``(scale factor, seed)`` pair in a process.
    """
    key = (scale_factor, seed)
    if key not in _TPCH_CACHE:
        tables = tpch.generate_tables(scale_factor=scale_factor, seed=seed)
        session = TQPSession()
        for name, frame in tables.items():
            session.register(name, frame)
        _TPCH_CACHE[key] = (session, tables)
    return _TPCH_CACHE[key]


@dataclasses.dataclass
class BenchResult:
    """Timing of one (system, query) cell."""

    system: str
    backend: str
    device: str
    simulated: bool
    times_s: list[float]
    result: DataFrame
    #: Host wall-clock (``perf_counter``) per run.  ``times_s`` holds the
    #: *reported* time, which on the simulated devices comes from a cost
    #: model; this column is always real elapsed time, so executor-level
    #: wins (e.g. compiled vs interpreted replay) stay visible even when
    #: the simulated numbers are identical by construction.
    wall_times_s: list[float] = dataclasses.field(default_factory=list)

    @property
    def median_s(self) -> float:
        return statistics.median(self.times_s)

    @property
    def median_ms(self) -> float:
        return self.median_s * 1e3

    @property
    def median_wall_s(self) -> float:
        return statistics.median(self.wall_times_s or self.times_s)

    @property
    def median_wall_ms(self) -> float:
        return self.median_wall_s * 1e3


def time_tqp(session: TQPSession, sql: str, options: ExecutionOptions,
             runs: int = 5, warmup: int = 2,
             profile: bool = False) -> BenchResult:
    """Compile ``sql`` once and measure ``runs`` executions after ``warmup``.

    Pass ``profile=True`` for every point of a lanes / shard scaling curve, so
    the device cost models see the events whose scopes the plan's lanes map
    widens and the shard timelines, and every point reports on the same
    basis (the CPU device reports kernel time for profiled runs, wall time
    otherwise; mixing the two would make speedups incomparable).
    """
    query = session.compile(sql, options=options)
    for _ in range(warmup):
        query.execute(profile=profile)
    times, walls, last = [], [], None
    for _ in range(runs):
        outcome = query.execute(profile=profile)
        times.append(outcome.reported_s)
        walls.append(outcome.measured_s)
        last = outcome
    device = query.executor.device
    return BenchResult(
        system=f"TQP-{device.kind.upper()}",
        backend=query.executor.backend.name, device=device.kind,
        simulated=device.is_simulated,
        times_s=times, result=last.to_dataframe(), wall_times_s=walls,
    )


def write_bench_json(path: "str | pathlib.Path", payload: dict) -> pathlib.Path:
    """Write one benchmark's machine-readable artifact (``--json-out``).

    The payload is augmented with a schema tag and a wall-clock stamp so CI
    artifacts from different runs can be told apart; parent directories are
    created as needed.  Returns the resolved path.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"schema": "tqp-bench/v1",
              "generated_unix_s": round(time.time(), 3)}
    record.update(payload)
    path.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n",
                    encoding="utf-8")
    return path


def time_rowengine(session: TQPSession, tables: dict[str, DataFrame], sql: str,
                   runs: int = 1, warmup: int = 0,
                   models: Optional[dict[str, Callable]] = None,
                   label: str = "RowEngine (Spark-CPU stand-in)") -> BenchResult:
    """Measure the row-at-a-time baseline on the plan TQP compiles."""
    plan = sql_to_physical(sql, session.catalog)
    engine = RowEngine(tables, models=models)
    for _ in range(warmup):
        engine.execute(plan)
    times, frame = [], None
    for _ in range(runs):
        start = time.perf_counter()
        frame = engine.execute_to_dataframe(plan)
        times.append(time.perf_counter() - start)
    return BenchResult(system=label, backend="row-interpreter", device="cpu",
                       simulated=False, times_s=times, result=frame,
                       wall_times_s=list(times))
