"""Unit tests for ExecutionOptions and the session entry-point signatures."""

import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.core.planner import plan_ir
from repro.errors import ExecutionError

import numpy as np


@pytest.fixture
def session():
    s = TQPSession()
    s.register("t", DataFrame({"a": np.array([1.0, 2.0, 3.0])}))
    return s


def test_resolved_fills_session_defaults():
    options = ExecutionOptions().resolved("torchscript", "cuda", 4)
    assert options.backend == "torchscript"
    assert options.device.kind == "cuda"
    assert options.parallelism == 4
    assert options.optimize and options.use_cache
    assert not options.auto_parameterize


def test_resolved_keeps_explicit_fields():
    options = ExecutionOptions(backend="onnx", device="wasm", parallelism=2)
    resolved = options.resolved("pytorch", "cpu", 1)
    assert resolved.backend == "onnx"
    assert resolved.device.kind == "wasm"
    assert resolved.parallelism == 2


def test_cache_key_covers_the_compile_knobs():
    a = ExecutionOptions(backend="torchscript").resolved("pytorch", "cpu")
    b = a.replace(optimize=False)
    c = a.replace(parallelism=4)
    d = a.replace(executor="interpret")
    assert len({a.cache_key(), b.cache_key(), c.cache_key(), d.cache_key()}) == 4


def test_executor_mode_is_validated():
    with pytest.raises(ValueError):
        ExecutionOptions(executor="jit")
    assert ExecutionOptions(executor="compiled").executor == "compiled"
    assert ExecutionOptions().executor == "auto"


def test_legacy_kwargs_are_gone(session):
    # The PR-3 deprecation shim was removed: the old spellings now fail
    # loudly instead of warning.
    with pytest.raises(TypeError):
        session.compile("select sum(a) as s from t", **{"backend": "torchscript"})
    with pytest.raises(TypeError):
        session.sql("select sum(a) as s from t", **{"device": "cuda"})
    with pytest.raises(TypeError):
        session.prepare("select sum(a) as s from t", **{"parallelism": 2})
    # So is the thread-pool knob (nothing but two tests ever set it, and it
    # did nothing under a trace or a profiler).
    with pytest.raises(TypeError):
        TQPSession(**{"parallel_mode": "threads"})
    with pytest.raises(TypeError):
        plan_ir(session.compile("select sum(a) as s from t").ir,
                **{"use_threads": True})


def test_session_compile_accepts_options_object(session):
    compiled = session.compile("select sum(a) as s from t",
                               options=ExecutionOptions(backend="torchscript"))
    assert compiled.executor.backend.name == "torchscript"
    assert compiled.options.backend == "torchscript"
    assert compiled.run().to_dict() == {"s": [6.0]}


def test_equal_options_share_one_cache_entry(session):
    a = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript"))
    b = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript"))
    assert a is b


def test_executor_mode_splits_the_cache_entry(session):
    a = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript",
                                                 executor="interpret"))
    b = session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="torchscript",
                                                 executor="compiled"))
    assert a is not b


def test_session_default_options():
    s = TQPSession(default_options=ExecutionOptions(backend="torchscript",
                                                    device="cuda",
                                                    parallelism=2))
    assert s.default_backend == "torchscript"
    assert s.default_device.kind == "cuda"
    assert s.default_parallelism == 2


def test_unknown_backend_still_rejected(session):
    with pytest.raises(ExecutionError):
        session.compile("select sum(a) as s from t",
                        options=ExecutionOptions(backend="nope"))
