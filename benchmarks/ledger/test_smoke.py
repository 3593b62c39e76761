"""Smoke test of the ledger harness (not of the engine's speed).

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_smoke.py -q

Runs every workload at ``--smoke`` size in a fresh interpreter, the way the
driver does, and checks the contract of ``BENCHMARK.json``: every metric is
emitted by name with its unit, the seed alone decides the generated stream,
and a wrong reference row is noticed.
"""

from __future__ import annotations

import functools
import json
import re
import subprocess
import sys

import pytest

import common
import run as ledger_run

CONTRACT = ledger_run.load_contract()
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@functools.lru_cache(maxsize=None)
def smoke_run(workload: str, trace: int, seed: int, attempt: int = 0,
              trace_out: str = "") -> tuple:
    """``(exit code, stdout lines)`` of one smoke run; ``attempt`` only
    distinguishes deliberate repeats of the same command."""
    command = [sys.executable, str(common.LEDGER_DIR / "run.py"),
               "--workload", workload, "--seed", str(seed), "--smoke",
               "--trace", str(trace)]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=180, cwd=common.REPO_ROOT)
    return done.returncode, tuple(done.stdout.splitlines()), done.stderr


def stream_hash(lines: tuple) -> str:
    header = next(line for line in lines if line.startswith("# "))
    return header.rsplit(" ", 1)[1]


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", common.WORKLOADS)
def test_every_contract_metric_is_emitted(workload, trace, tmp_path):
    trace_out = str(tmp_path / "trace.json") if trace else ""
    code, lines, stderr = smoke_run(workload, trace, 1, trace_out=trace_out)
    assert code == 0, stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]
    # Every metric is also printed by name with its unit.
    printed = {line.split(" ")[0]: line.split(" ")[2]
               for line in lines[:-1] if not line.startswith("#")}
    for name, unit in printed.items():
        if name in result["metrics"]:
            assert unit == result["metrics"][name]["unit"]
    if not trace:
        assert set(result["metrics"]) <= set(printed)

    if trace:
        with open(trace_out, encoding="utf-8") as handle:
            events = json.load(handle)["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)


@pytest.mark.parametrize("workload", ("tpch_strategies", "serve_zipf"))
def test_seed_alone_decides_the_stream(workload):
    first = stream_hash(smoke_run(workload, 0, 1)[1])
    again = stream_hash(smoke_run(workload, 0, 1, attempt=1)[1])
    other = stream_hash(smoke_run(workload, 0, 2)[1])
    assert first == again
    assert first != other


def test_corrupted_reference_row_fails_the_run(monkeypatch, capsys):
    import tpch_workloads

    real = common.load_expected

    def corrupted(scale_factor):
        statements = json.loads(json.dumps(real(scale_factor)))
        row = statements["q06"][0]
        row[0] = row[0] * 1.001
        return statements

    monkeypatch.setattr(tpch_workloads, "load_expected", corrupted)
    monkeypatch.setattr(sys, "argv", [
        "run.py", "--workload", "tpch_warm", "--seed", "1", "--smoke"])
    assert ledger_run.main() != 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    # q06 runs once per sweep: exactly those operations fail.
    assert 0 < result["failed"] < result["attempted"]
