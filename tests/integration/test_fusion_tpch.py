"""Integration tests: kernel fusion over the full TPC-H suite.

Fused and unfused graphs must produce bit-identical results on all 22
queries, and fusion must strictly reduce the number of profiler events
(i.e. simulated kernel launches) on every query — the property that makes
the GPU cost model's launch-overhead accounting physical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import tpch
from repro.tensor import GraphInterpreter, Profiler, passes
from repro import ExecutionOptions

SCALE_FACTOR = 0.002

#: The optimization pipeline with fusion ablated away.
_NO_FUSION = tuple(p for p in passes.DEFAULT_PASSES if p is not passes.fuse_elementwise)


def _trace_query(session, query_id):
    sql = tpch.query(query_id, SCALE_FACTOR)
    compiled = session.compile(sql, options=ExecutionOptions(backend="torchscript-noopt"))
    inputs = session.prepare_inputs(compiled.executor)
    raw_graph = compiled.executor.compile_program(inputs).graph
    tensors, _ = compiled.executor._flatten_inputs(inputs)
    return raw_graph, tensors


@pytest.mark.parametrize("query_id", tpch.ALL_QUERY_IDS)
def test_fused_graph_matches_unfused_and_launches_fewer_kernels(tpch_tiny, query_id):
    session, _ = tpch_tiny
    raw_graph, tensors = _trace_query(session, query_id)

    unfused = passes.optimize(raw_graph.clone(), passes=_NO_FUSION)
    fused = passes.optimize(raw_graph.clone())
    fused.validate()
    assert any(node.op == "fused_kernel" for node in fused.nodes)

    with Profiler() as unfused_profile:
        unfused_out = GraphInterpreter(unfused).run(tensors)
    with Profiler() as fused_profile:
        fused_out = GraphInterpreter(fused).run(tensors)

    assert len(fused_out) == len(unfused_out)
    for expected, got in zip(unfused_out, fused_out):
        np.testing.assert_array_equal(expected.numpy(), got.numpy())
    assert len(fused_profile.events) < len(unfused_profile.events), (
        f"Q{query_id}: fusion must strictly reduce kernel launches")


def test_fusion_shrinks_q6_to_a_handful_of_kernels(tpch_tiny):
    """Q6 is the paper's scan-heavy poster child: its long elementwise filter
    chain must collapse into a handful of launches."""
    session, _ = tpch_tiny
    raw_graph, tensors = _trace_query(session, 6)
    fused = passes.optimize(raw_graph.clone())
    with Profiler() as profile:
        GraphInterpreter(fused).run(tensors)
    assert len(profile.events) <= 6


def test_fused_event_bytes_match_unfused_output_bytes(tpch_tiny):
    """The fused kernel's profile event carries the group's external bytes, so
    bandwidth-bound cost modeling still sees the data volume."""
    session, _ = tpch_tiny
    raw_graph, tensors = _trace_query(session, 6)
    fused = passes.optimize(raw_graph.clone())
    with Profiler() as profile:
        GraphInterpreter(fused).run(tensors)
    fused_events = [e for e in profile.events if e.op == "fused_kernel"]
    assert fused_events and all(e.total_bytes > 0 for e in fused_events)


@pytest.mark.parametrize("query_id", (11, 15, 22))
def test_no_and_with_a_folded_scalar_subquery_validity(tpch_tiny, query_id):
    """An uncorrelated scalar subquery's validity folds to an all-true
    constant at trace time; constant folding drops the ``logical_and`` a
    filter on it would replay."""
    session, _ = tpch_tiny
    raw_graph, tensors = _trace_query(session, query_id)
    folded = passes.optimize(raw_graph.clone(), passes=_NO_FUSION)
    assert not [node for node in folded.nodes
                if node.op == "logical_and" and any(
                    vid in folded.initializers
                    and np.all(folded.initializers[vid])
                    for vid in node.inputs)]
    expected = GraphInterpreter(raw_graph).run(tensors)
    for want, got in zip(expected, GraphInterpreter(folded).run(tensors)):
        np.testing.assert_array_equal(want.numpy(), got.numpy())
