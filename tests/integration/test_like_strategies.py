"""The statements whose hot spot is substring search, under every strategy.

Q9 (``%green%``), Q13 (``%special%requests%``), Q16 (``%Customer%Complaints%``)
and the Figure-4 PREDICT query (20 ``contains`` sub-programs) run the ``find``
kernel; a width (lanes or devices) must not change a verdict.  Q2's
``p_type like '%BRASS'`` takes the dictionary probe: the pattern kernels see
the ``k`` dictionary entries, never the ``n`` rows.
"""

from __future__ import annotations

import pytest

from repro import ExecutionOptions, TQPSession
from repro.bench.harness import tpch_session
from repro.datasets import tpch
from repro.serve.simulator import PREDICTION_SHAPE, register_prediction_model

# The golden partition plans' scale factor: large enough that the planner
# partitions these statements under its default thresholds.
SCALE_FACTOR = 0.01

# The serving workload's PREDICT shape with its rating cut bound as a literal
# (the Figure-4 query): parameterized plans are not partitioned.
PREDICT_SQL = PREDICTION_SHAPE.replace(":cut", "3")

STATEMENTS = {
    "q9": tpch.query(9, SCALE_FACTOR),
    "q13": tpch.query(13, SCALE_FACTOR),
    "q16": tpch.query(16, SCALE_FACTOR),
    "predict": PREDICT_SQL,
}


@pytest.fixture(scope="module")
def tables():
    return tpch_session(scale_factor=SCALE_FACTOR)[1]


@pytest.fixture(scope="module")
def session(tables):
    # A session of its own: the cached one is shared with other modules.
    sess = TQPSession()
    for table_name, frame in tables.items():
        sess.register(table_name, frame)
    register_prediction_model(sess, num_reviews=3000)
    return sess


@pytest.mark.parametrize("options", [{"parallelism": 4}, {"devices": 4}],
                         ids=["lanes4", "devices4"])
@pytest.mark.parametrize("name", STATEMENTS)
def test_substring_statements_agree_across_strategies(session, frames_match,
                                                      name, options):
    sql = STATEMENTS[name]
    serial = session.sql(sql, options=ExecutionOptions(backend="torchscript"))
    partitioned = session.sql(sql, options=ExecutionOptions(
        backend="torchscript", **options))
    # A width is a price over the serial program: the same rows, in order.
    frames_match(partitioned, serial, f"{name} {options}", ordered=True)


@pytest.mark.parametrize("name", STATEMENTS)
def test_substring_statements_run_the_find_kernel(session, name):
    compiled = session.compile(STATEMENTS[name],
                               options=ExecutionOptions(backend="torchscript"))
    assert compiled.executor_graph().op_counts().get("find", 0) >= 1


def test_dictionary_like_probes_one_row_per_dictionary_entry(session, tables):
    part = tables["part"]
    distinct_types = len(set(part["p_type"]))
    assert distinct_types < part.num_rows
    compiled = session.compile(tpch.query(2, SCALE_FACTOR),
                               options=ExecutionOptions(backend="torchscript"))
    graph = compiled.executor_graph()
    finds = [node for node in graph.nodes if node.op == "find"]
    assert finds
    for node in finds:
        assert graph.values[node.inputs[0]].shape[0] == distinct_types
