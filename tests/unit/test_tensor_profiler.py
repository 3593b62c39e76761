"""Unit tests for the op-level profiler."""

import json

from repro.tensor import Profiler, current_profiler, ops, stamped
from repro.tensor.profiler import merge_profiles


def test_profiler_records_ops_and_bytes():
    with Profiler() as profiler:
        a = ops.tensor([1.0, 2.0, 3.0])
        ops.sum_(ops.mul(a, a))
    ops.mul(ops.tensor([1.0]), 2.0)  # outside the context: not recorded
    names = [event.op for event in profiler.events]
    assert "mul" in names and "sum" in names
    assert all(event.elapsed_s >= 0 for event in profiler.events)
    assert any(event.input_bytes > 0 for event in profiler.events)
    assert profiler.total_time_s() > 0
    assert profiler.total_bytes() > 0


def test_profiler_scopes_attribute_ops_to_operators():
    with Profiler() as profiler:
        with stamped(scope="Filter"):
            ops.gt(ops.tensor([1.0, 5.0]), 2.0)
        with stamped(scope="Project"):
            ops.mul(ops.tensor([1.0]), 3.0)
    scopes = {event.scope for event in profiler.events}
    assert scopes == {"Filter", "Project"}
    by_scope = {row.key: row.calls for row in profiler.by_scope()}
    assert by_scope["Filter"] >= 1 and by_scope["Project"] >= 1


def test_profiler_aggregation_sorted_by_time():
    with Profiler() as profiler:
        ops.matmul(ops.tensor([[1.0] * 64] * 64), ops.tensor([[1.0] * 64] * 64))
        ops.add(ops.tensor([1.0]), 1.0)
    rows = profiler.by_op()
    assert rows[0].total_s >= rows[-1].total_s
    assert {row.key for row in rows} == {"matmul", "add"}


def test_nested_profilers_use_innermost():
    with Profiler() as outer:
        with Profiler() as inner:
            assert current_profiler() is inner
            ops.add(ops.tensor([1.0]), 1.0)
        assert current_profiler() is outer
    assert len(inner.events) == 1
    assert len(outer.events) == 0
    assert current_profiler() is None


def test_chrome_trace_export(tmp_path):
    with Profiler() as profiler:
        ops.add(ops.tensor([1.0]), 1.0)
    path = tmp_path / "trace.json"
    profiler.save_chrome_trace(str(path))
    payload = json.loads(path.read_text())
    assert payload["traceEvents"]
    event = payload["traceEvents"][0]
    assert event["ph"] == "X" and event["name"] == "add"
    assert "device" in event["args"]


def test_merge_profiles():
    with Profiler() as first:
        ops.add(ops.tensor([1.0]), 1.0)
    with Profiler() as second:
        ops.mul(ops.tensor([1.0]), 2.0)
    merged = merge_profiles([first, second])
    assert len(merged.events) == 2
