"""Partitioning as a property: every partitionable operator, mapped over a
partitioned table, must equal the same operator run serially.

One parameterized set over ``none`` and ``shards(2|4)`` × ``hash|range`` —
the operators are the same classes under every scheme, so one test body
covers what used to need one test per operator family.  (``lanes`` is a cost
model: a lanes operator runs its serial body, see ``test_parallel.py``.)
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import DataFrame, TQPSession
from repro.core.operators import (
    NONE,
    ExecutionContext,
    FilterOperator,
    HashAggregateOperator,
    PartitionedTable,
    ProjectOperator,
    RenameOperator,
    TensorOperator,
    shards,
)
from repro.distributed import shard_table

SCHEMES = [NONE, shards(2, "hash"), shards(4, "hash"),
           shards(2, "range"), shards(4, "range")]

#: Filter → Project → Rename → HashAggregate over one scan, with a group key
#: that is NULL on every row (``nk``), a dictionary-encoded one (``tag``) and
#: an aggregate input with NULLs (``w``).
SQL = ("select tag, nk, k2, count(*) as c, count(w) as cw, sum(w) as s, "
       "avg(w) as a, min(w) as lo, max(w) as hi from "
       "(select tag, case when v < -1 then k end as nk, k * 2 as k2, "
       "case when v > 0.5 then v end as w from t where v > 0.1 or k < 3) f "
       "group by tag, nk, k2")


def random_frame(rows: int, seed: int) -> DataFrame:
    rng = np.random.default_rng(seed)
    return DataFrame({
        "k": rng.integers(0, 7, rows).astype(np.int64),
        "v": rng.uniform(0.0, 1.0, rows),
        "tag": rng.choice(["a", "b", "c"], rows).astype(object),
    })


class Source(TensorOperator):
    """A child handing a prepared table over whole or in prepared partitions."""

    def __init__(self, table, parts: PartitionedTable = None):
        super().__init__([], parts.scheme if parts is not None else NONE)
        self.table, self.parts = table, parts

    def _execute(self, ctx):
        return self.table

    def _partitions(self, ctx):
        return self.parts


def split(table, scheme) -> PartitionedTable:
    """``table`` under ``scheme``: shards by their load-time placement."""
    return PartitionedTable.of(
        scheme, shard_table(table, scheme.n, scheme.placement).shards)


def under(operator, scheme, child):
    """``operator`` re-planned onto ``child`` under ``scheme``."""
    clone = copy.copy(operator)
    clone.children = [child]
    if isinstance(clone, HashAggregateOperator):
        clone.input_partitioning = scheme
    else:
        clone.partitioning = scheme
    return clone


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: (
    f"{s.kind}{s.n if s.kind != 'none' else ''}{s.placement and '-' + s.placement}"))
@pytest.mark.parametrize("rows", [0, 1, 1000], ids=lambda n: f"{n}rows")
def test_operators_over_partitions_equal_serial(scheme, rows, frames_match):
    session = TQPSession()
    session.register("t", random_frame(rows, seed=rows + 17))
    compiled = session.compile(SQL)
    table = session.prepare_inputs(compiled.executor)["t"]
    if rows == 1000:  # tiny tables are not worth encoding
        assert table.column("t.tag").encoding is not None
    ctx = ExecutionContext({})

    # The serial plan, bottom-up: each operator is checked on its own, fed
    # the serial output of the one below it.
    chain = list(compiled.operator_plan.root.walk())[::-1]
    assert [type(op) for op in chain[1:5]] == [
        FilterOperator, ProjectOperator, RenameOperator, HashAggregateOperator]
    for operator in chain[1:5]:
        serial = under(operator, NONE, Source(table)).execute(ctx)
        source = (Source(table) if scheme.kind == "none"
                  else Source(table, split(table, scheme)))
        replanned = under(operator, scheme, source)
        partitioned = replanned.execute(ctx)
        if scheme.kind != "none":
            assert scheme.suffix in replanned.describe()
        assert partitioned.column_names == serial.column_names
        # Partials merge in partition order: float sums re-associate and
        # hash placement reorders rows, so compare as row multisets.
        frames_match(partitioned.to_dataframe(), serial.to_dataframe(),
                     context=f"{operator.describe()} under {scheme}")
        if not isinstance(operator, HashAggregateOperator) \
                and scheme.placement != "hash":
            # Row-local operators keep rows in partition order, bit for bit.
            for name in serial.column_names:
                np.testing.assert_array_equal(
                    partitioned.column(name).decoded().tensor.numpy(),
                    serial.column(name).decoded().tensor.numpy())
        table = serial


def test_all_null_group_keys_form_one_group():
    # Sanity of the fixture above: ``nk`` really is NULL on every row, and
    # the merged aggregate keeps NULL keys together like the serial one.
    session = TQPSession()
    session.register("t", random_frame(1000, seed=3))
    frame = session.sql(SQL)
    assert set(frame["nk"]) == {None}
    assert frame.num_rows == len({(t, k) for t, k in zip(frame["tag"],
                                                          frame["k2"])})
