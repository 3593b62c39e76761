"""Seeded random gather DAGs through ``passes.late_materialization``.

The pass rewrites ``boolean_mask`` into ``nonzero`` + ``take``, composes
chained row gathers into one, and moves row-wise ops below the gather they
read.  Every rewrite claims to be exact, so a generated program must return
the same bytes before and after — under the interpreter, the generated code
and an ONNX-like round trip — on the shapes the rewrites could get wrong:
1-d, ``(n, w)`` and validity columns under one selection, fan-out, a
non-gather reader in the middle of a chain, an intermediate that is also an
output, negative and repeated indices, empty selections, all-true and
all-false masks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import GraphInterpreter, codegen, onnxlike, ops, passes, trace

SEED = 20221021
ROWS, WIDTH = 23, 6


def _inputs(rng):
    return [ops.tensor(rng.normal(size=ROWS).round(2)),
            ops.tensor(rng.integers(0, 3, size=(ROWS, WIDTH)).astype(np.int32)),
            ops.tensor(rng.random(ROWS) < 0.8)]


def _selection(rng, table):
    """``column -> selected column`` for one random row selection of ``table``."""
    rows = table[0].shape[0]
    kind = rng.choice(["mask", "mask", "index", "order", "all", "none", "empty"])
    if kind == "mask":      # data-dependent filter
        mask = ops.gt(table[0], float(rng.normal()))
    elif kind == "all":
        mask = ops.tensor(np.ones(rows, dtype=bool))
    elif kind == "none":
        mask = ops.tensor(np.zeros(rows, dtype=bool))
    elif kind == "order":   # a permutation computed from the data
        order = ops.argsort(table[0])
        return lambda column: ops.take(column, order, axis=0)
    else:                   # constant row ids: negative, repeated, or none at all
        size = 0 if kind == "empty" or rows == 0 else int(rng.integers(1, 2 * rows))
        index = ops.tensor(rng.integers(-rows, max(rows, 1), size=size))
        return lambda column: ops.take(column, index, axis=0)
    return lambda column: ops.boolean_mask(column, mask)


def _program(seed):
    """A random gather DAG over ``(floats, codes, valid)``; its choices are
    redrawn from ``seed`` on every call, so eager and traced runs agree."""
    def fn(floats, codes, valid):
        rng = np.random.default_rng([SEED, seed])
        table, outputs = [floats, codes, valid], []
        for _ in range(int(rng.integers(3, 9))):
            step = rng.choice(["select", "select", "select", "fork", "whole",
                               "row-wise", "output", "columns", "cells"])
            if step == "select":        # every column through one selection
                select = _selection(rng, table)
                table = [select(column) for column in table]
            elif step == "fork":        # a second selection of one column only
                outputs.append(_selection(rng, table)(table[int(rng.integers(3))]))
            elif step == "whole":       # a reader that needs the column whole
                outputs.append(ops.cumsum(table[0]))
            elif step == "row-wise":    # readers that can run below the gather
                literal = ops.tensor(rng.integers(0, 3, size=2).astype(np.int32))
                outputs.append(ops.all_(ops.eq(ops.narrow(table[1], 1, 1, 2),
                                               literal), axis=1))
                outputs.append(ops.find(table[1], 0, [int(rng.integers(0, 3))]))
                outputs.append(ops.where(table[2], ops.mul(table[0], 2.0), 0.0))
                # ... and one that cannot: a constant aligned with the gathered rows
                outputs.append(ops.sub(table[0], ops.tensor(
                    rng.normal(size=table[0].shape[0]).round(2))))
                table[0] = ops.add(table[0], ops.cast(table[2], "float64"))
            elif step == "output":      # an intermediate the caller also wants
                outputs.append(table[int(rng.integers(3))])
            elif step == "columns":     # not a row gather: axis 1
                outputs.append(ops.take(table[1], ops.tensor([0, 2, 2]), axis=1))
            else:                       # not a row gather: a rank-2 mask
                outputs.append(ops.boolean_mask(table[1], ops.gt(table[1], 0)))
        return outputs + table
    return fn


def _bytes(tensors):
    return [(t.numpy().dtype.str, t.shape, t.numpy().tobytes()) for t in tensors]


@pytest.mark.parametrize("seed", range(60))
def test_random_gather_dags_return_the_same_bytes(seed):
    example = _inputs(np.random.default_rng([SEED, seed, 1]))
    fn = _program(seed)
    expected = _bytes(fn(*example))
    graph = trace(fn, example)
    assert _bytes(GraphInterpreter(graph.clone()).run(example)) == expected

    rewritten = passes.late_materialization(
        passes.dead_code_elimination(graph.clone()))
    rewritten.validate()
    assert all(node.op != "boolean_mask" or len(rewritten.values[node.inputs[1]].shape) == 2
               for node in rewritten.nodes)
    assert _bytes(GraphInterpreter(rewritten).run(example)) == expected

    optimized = passes.optimize(graph)
    assert _bytes(GraphInterpreter(optimized).run(example)) == expected
    assert _bytes(codegen.compile_graph(optimized).run(example)) == expected
    reloaded = onnxlike.loads(onnxlike.dumps(optimized))
    assert _bytes(GraphInterpreter(reloaded).run(example)) == expected
