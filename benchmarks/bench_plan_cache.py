"""Compile-amortization under repeated-query traffic (the plan-cache benchmark).

The serving regime the ROADMAP targets sends the *same* queries over and over
(dashboards, per-user parameter-free templates).  This benchmark measures what
the session-level compiled-plan cache buys there:

* ``cold``  — every request pays parse → analyze → optimize → plan
  (the cache cleared before it),
* ``hit``   — requests after the first are served from the LRU cache and the
  already-traced program is reused.

The cache-hit path must be at least 5× cheaper per query than a cold compile,
and the hit/miss/compile counters must prove that parsing and tracing were
actually skipped rather than merely fast.
"""

from __future__ import annotations

import time

import pytest

from repro.datasets import tpch
from repro import ExecutionOptions

QUERY_ID = 6
HIT_REPEATS = 25


def _compile_seconds(session, sql, cold: bool) -> float:
    if cold:
        session.plan_cache.clear()
    start = time.perf_counter()
    session.compile(sql, options=ExecutionOptions(backend="torchscript", device="cpu"))
    return time.perf_counter() - start


def test_plan_cache_hits_are_5x_cheaper_than_cold_compiles(tpch_env, scale_factor):
    session, _ = tpch_env
    sql = tpch.query(QUERY_ID, scale_factor)
    session.plan_cache.clear()

    cold_s = min(_compile_seconds(session, sql, cold=True) for _ in range(5))

    session.compile(sql, options=ExecutionOptions(backend="torchscript", device="cpu"))  # prime: one miss
    hits_before = session.plan_cache.hits
    hit_s = min(_compile_seconds(session, sql, cold=False)
                for _ in range(HIT_REPEATS))

    stats = session.plan_cache.stats()
    assert session.plan_cache.hits - hits_before == HIT_REPEATS
    assert stats["misses"] >= 1
    assert cold_s >= 5 * hit_s, (
        f"cache hit ({hit_s * 1e6:.1f}us) must be >=5x cheaper than a cold "
        f"compile ({cold_s * 1e6:.1f}us)")


def test_plan_cache_hits_skip_parse_and_trace(tpch_env, scale_factor):
    session, _ = tpch_env
    sql = tpch.query(QUERY_ID, scale_factor)
    session.plan_cache.clear()

    compiled = session.compile(sql, options=ExecutionOptions(backend="torchscript", device="cpu"))
    compiled.run()
    assert compiled.executor.compile_count == 1

    for _ in range(HIT_REPEATS):
        again = session.compile(sql, options=ExecutionOptions(backend="torchscript", device="cpu"))
        again.run()
        assert again is compiled                      # parse/plan skipped
    assert compiled.executor.compile_count == 1       # trace never redone


def test_plan_cache_end_to_end_query_latency(benchmark, tpch_env, scale_factor):
    """Per-request latency of compile+execute with the cache active (the
    serving steady state: every request after the first is a hit)."""
    session, _ = tpch_env
    sql = tpch.query(QUERY_ID, scale_factor)
    session.plan_cache.clear()
    session.sql(sql)  # prime cache and traced program

    outcome = benchmark.pedantic(lambda: session.sql(sql),
                                 rounds=10, iterations=1, warmup_rounds=2)
    stats = session.plan_cache.stats()
    benchmark.extra_info["plan_cache_hits"] = stats["hits"]
    benchmark.extra_info["plan_cache_misses"] = stats["misses"]
    benchmark.extra_info["plan_cache_hit_rate"] = round(stats["hit_rate"], 3)
    assert outcome.num_rows >= 1
    assert stats["hits"] >= 10


@pytest.mark.parametrize("cold,label", [(True, "cold-compile"),
                                        (False, "cache-hit")])
def test_plan_cache_compile_latency(benchmark, tpch_env, scale_factor, cold,
                                    label):
    """The two compile paths side by side (compare the two rows' medians)."""
    session, _ = tpch_env
    sql = tpch.query(QUERY_ID, scale_factor)
    session.plan_cache.clear()
    if not cold:
        session.compile(sql, options=ExecutionOptions(backend="torchscript", device="cpu"))  # prime

    def clear():  # untimed, before each cold round
        session.plan_cache.clear()

    benchmark.pedantic(
        lambda: session.compile(sql, options=ExecutionOptions(backend="torchscript", device="cpu")),
        setup=clear if cold else None,
        rounds=10, iterations=1, warmup_rounds=1)
    benchmark.extra_info["variant"] = label
    benchmark.extra_info.update(session.plan_cache.stats())
