"""Unit tests for the scripted target and the ONNX-like portable format."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.tensor import GraphInterpreter, ScriptedProgram, onnxlike, ops, script_trace, trace


def _example_graph():
    def fn(x, y):
        return ops.sum_(ops.mul(x, y) + 0.5)

    return trace(fn, [ops.tensor([1.0, 2.0]), ops.tensor([3.0, 4.0])])


def test_script_trace_replays_correctly():
    program = script_trace(lambda x: ops.cumsum(x * 2), [ops.tensor([1, 2, 3])])
    assert isinstance(program, ScriptedProgram)
    out = program(ops.tensor([1, 1, 1]))
    np.testing.assert_array_equal(out[0].numpy(), [2, 4, 6])
    assert program.num_nodes >= 2
    assert "cumsum" in program.op_counts()


def test_script_trace_optimization_flag():
    def fn(x):
        return ops.add(ops.mul(x, 2.0), ops.mul(x, 2.0))

    optimized = script_trace(fn, [ops.tensor([1.0])], optimize=True)
    unoptimized = script_trace(fn, [ops.tensor([1.0])], optimize=False)
    assert optimized.num_nodes < unoptimized.num_nodes
    a, b = optimized(ops.tensor([2.0])), unoptimized(ops.tensor([2.0]))
    np.testing.assert_allclose(a[0].numpy(), b[0].numpy())


def test_onnx_export_import_round_trip():
    graph = _example_graph()
    model = onnxlike.export_graph(graph)
    assert model["format"] == onnxlike.FORMAT_NAME
    assert model["version"] == onnxlike.FORMAT_VERSION
    restored = onnxlike.import_graph(model)
    inputs = [ops.tensor([2.0, 3.0]), ops.tensor([4.0, 5.0])]
    original = GraphInterpreter(graph).run(inputs)[0].item()
    round_tripped = GraphInterpreter(restored).run(inputs)[0].item()
    assert original == round_tripped


def test_onnx_text_and_file_round_trip(tmp_path):
    graph = _example_graph()
    text = onnxlike.dumps(graph)
    assert onnxlike.loads(text).op_counts() == graph.op_counts()
    path = tmp_path / "model.json"
    onnxlike.save(graph, str(path))
    assert onnxlike.load(str(path)).op_counts() == graph.op_counts()


def test_onnx_rejects_wrong_format_or_version():
    graph = _example_graph()
    model = onnxlike.export_graph(graph)
    with pytest.raises(GraphError):
        onnxlike.import_graph({**model, "format": "onnx"})
    with pytest.raises(GraphError):
        onnxlike.import_graph({**model, "version": 99})


def test_onnx_preserves_initializer_dtypes():
    def fn(x):
        return ops.take(x, ops.tensor([1, 0], dtype="int64"))

    graph = trace(fn, [ops.tensor([10.0, 20.0])])
    restored = onnxlike.loads(onnxlike.dumps(graph))
    out = GraphInterpreter(restored).run([ops.tensor([10.0, 20.0])])
    np.testing.assert_array_equal(out[0].numpy(), [20.0, 10.0])
