"""Unit tests for the morsel-driven parallel execution layer."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro import DataFrame, TQPSession
from repro.backends.base import split_partitions
from repro.backends.cpu import CPUDevice
from repro.backends.gpu_sim import SimulatedGPU
from repro.core.columnar import (
    DEFAULT_MORSEL_ROWS,
    TensorColumn,
    TensorTable,
    morsel_bounds,
)
from repro.core.operators import lanes, run_partitions
from repro.core.operators.partition import effective_morsel_rows
from repro.core.tuning import DEFAULT_TUNING, tuning_overrides
from repro.errors import (
    AnalysisError,
    CatalogError,
    ExecutionError,
    UnsupportedOperationError,
)
from repro.tensor import Profiler, current_stamp, ops, passes, stamped, tracing
from repro import ExecutionOptions

# comfortably above the parallel threshold
N_ROWS = 3 * DEFAULT_TUNING.parallel_threshold_rows


# -- data ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(4242)
    orders = DataFrame({
        "order_id": np.arange(N_ROWS, dtype=np.int64),
        "customer_id": rng.integers(0, 500, size=N_ROWS).astype(np.int64),
        "amount": np.round(rng.uniform(1.0, 500.0, size=N_ROWS), 2),
        "quantity": rng.integers(1, 50, size=N_ROWS).astype(np.int64),
        "segment": rng.choice(["web", "store", "phone"], size=N_ROWS).astype(object),
    })
    customers = DataFrame({
        "customer_id": np.arange(600, dtype=np.int64),
        "region": rng.choice(["EU", "US", "APAC"], size=600).astype(object),
    })
    return {"orders": orders, "customers": customers, "m": _matrix_frame()}


@pytest.fixture(scope="module")
def session(frames):
    sess = TQPSession()
    for name, frame in frames.items():
        sess.register(name, frame)
    return sess


# -- morsel partitioning (columnar layer) -------------------------------------


def test_morsel_bounds_cover_input_exactly():
    bounds = morsel_bounds(10_000, 4096)
    assert bounds == [(0, 4096), (4096, 4096), (8192, 1808)]
    assert morsel_bounds(0, 4096) == []
    assert morsel_bounds(1, 4096) == [(0, 1)]
    with pytest.raises(ExecutionError):
        morsel_bounds(10, 0)


def test_effective_morsel_rows_adapts_to_input():
    # Small inputs stay at the floor; large inputs split across the lanes.
    assert effective_morsel_rows(1_000, 2048, 4) == 2048
    assert effective_morsel_rows(1_000_000, 2048, 4) == 250_000


def test_table_slice_and_morsels_roundtrip(frames):
    table = TensorTable.from_dataframe(frames["orders"])
    piece = table.slice(100, 50)
    assert piece.num_rows == 50
    assert piece.column("order_id").tensor.numpy().tolist() == list(range(100, 150))
    # String columns keep their width; a full morsel sweep covers every row.
    total = sum(m.num_rows for m in table.morsels(DEFAULT_MORSEL_ROWS))
    assert total == table.num_rows


def test_slice_preserves_validity_mask(frames):
    table = TensorTable.from_dataframe(frames["orders"])
    column = table.column("amount")
    valid = ops.tensor([i % 2 == 0 for i in range(table.num_rows)], dtype="bool")
    masked = TensorColumn(column.tensor, column.ltype, valid)
    piece = masked.slice(0, 4)
    assert piece.valid is not None
    assert piece.valid.numpy().tolist() == [True, False, True, False]


# -- lane scheduling and annotations ------------------------------------------


def test_partitions_are_assigned_to_lanes_round_robin():
    # Each partition observes its lane via the thread-local annotation, and
    # results come back in partition order.
    seen = run_partitions(lanes(3), lambda i: (i, current_stamp().lane), count=7)
    assert seen == [(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2), (6, 0)]
    assert current_stamp().lane is None


def test_profiler_records_lanes_and_dispatch():
    with Profiler() as prof:
        with stamped(lane=2):
            ops.add(ops.tensor([1.0, 2.0]), 1.0)
            ops.morsel_dispatch(ops.tensor([1.0]), lane=2, morsel=0)
        ops.add(ops.tensor([1.0]), 1.0)
    host, shards, exchanges = split_partitions(prof.events)
    assert not shards and not exchanges
    assert len(host.serial) == 1 and set(host.lanes) == {2}
    assert len(host.dispatches) == 1
    assert host.lanes[2][0].lane == 2


def test_lane_annotation_survives_trace_and_replay():
    def fn(t):
        with stamped(lane=1):
            t = ops.morsel_dispatch(t, lane=1, morsel=0)
            t = ops.mul(t, 2.0)
        return ops.add(t, 1.0)

    example = ops.tensor([1.0, 2.0])
    graph = tracing.trace(fn, [example])
    lanes_in_graph = [n.attrs.get("lane") for n in graph.nodes]
    assert lanes_in_graph == [1, 1, None]
    # DCE keeps dispatch nodes alive; fusion never crosses a lane boundary.
    optimized = passes.optimize(graph.clone())
    assert "morsel_dispatch" in optimized.op_counts()

    from repro.tensor import GraphInterpreter

    with Profiler() as prof:
        out = GraphInterpreter(graph).run([ops.tensor([3.0, 4.0])])
    assert out[0].numpy().tolist() == [7.0, 9.0]
    host, _, _ = split_partitions(prof.events)
    assert set(host.lanes) == {1} and len(host.dispatches) == 1


# -- parallel operators match serial execution --------------------------------


PARALLEL_QUERIES = [
    "select order_id, amount * quantity as total from orders where amount > 250",
    "select segment, count(*) as n, sum(amount) as s, avg(amount) as m, "
    "min(quantity) as lo, max(quantity) as hi from orders group by segment",
    "select count(*) as n, sum(amount) as s, avg(quantity) as q from orders",
    "select region, sum(amount) as revenue from orders, customers "
    "where orders.customer_id = customers.customer_id group by region",
    "select order_id from orders where exists (select * from customers "
    "where customers.customer_id = orders.customer_id and region = 'EU') "
    "and amount > 400",
]


@pytest.mark.parametrize("sql", PARALLEL_QUERIES)
def test_parallel_matches_serial(session, frames_match, sql):
    serial = session.sql(sql, options=ExecutionOptions(parallelism=1))
    for parallelism in (2, 4, 7):
        frames_match(session.sql(sql, options=ExecutionOptions(parallelism=parallelism)), serial,
                     f"{sql} @ parallelism={parallelism}")


# -- the aggregate matrix ------------------------------------------------------
#
# Every aggregate function is one row of ``aggregate.AGGREGATE_STATE``; serial,
# lanes and shards run the same state -> combine -> finalize.  A seeded
# generator (plain ``random``, the style of ``test_expr_differential.py``)
# spreads {count(*), count(x), sum, avg, min, max} x {int, float, date, bool}
# over the NULL shapes below; every case runs at every option point.

MATRIX_ROWS = DEFAULT_TUNING.parallel_threshold_rows + 808  # lanes / shards really run
MATRIX_SEED = 20221022
OPTION_POINTS = [
    dict(backend=backend, **partitioning)
    for partitioning in ({}, {"parallelism": 4}, {"devices": 4})
    for backend in ("pytorch", "torchscript")
]
#: input column -> the functions defined over its type (``sum`` / ``avg`` of a
#: date is epoch arithmetic nobody means).
MATRIX_FUNCTIONS = {
    "i": ("count", "sum", "avg", "min", "max"),
    "f": ("count", "sum", "avg", "min", "max"),
    "d": ("count", "min", "max"),
    "b": ("count", "sum", "avg", "min", "max"),
}
#: NULLs enter through CASE without ELSE: ``some`` spares rows of every group,
#: ``gone`` is set on every row of group 'c', ``id < 0`` holds nowhere.
NULL_SHAPES = {
    "no_nulls": "{x}",
    "some_nulls": "case when some = 0 then {x} end",
    "all_null_group": "case when gone = 0 then {x} end",
    "all_null": "case when id < 0 then {x} end",
}


def _matrix_frame() -> DataFrame:
    rng = np.random.default_rng(MATRIX_SEED)
    g = rng.choice(["a", "b", "c", "d"], size=MATRIX_ROWS).astype(object)
    s = rng.choice(["x", "yy", "zzz"], size=MATRIX_ROWS).astype(object)
    s[(g == "a") & (s == "zzz")] = "x"  # a dictionary combination no row has
    return DataFrame({
        "id": np.arange(MATRIX_ROWS, dtype=np.int64),
        "g": g,
        "i": rng.integers(-50, 50, size=MATRIX_ROWS).astype(np.int64),
        # Multiples of 1/4: every partial sum is exact, so re-associating them
        # across partitions cannot move a bit.
        "f": rng.integers(-400, 400, size=MATRIX_ROWS) / 4.0,
        "d": (np.datetime64("1995-01-01")
              + rng.integers(0, 900, size=MATRIX_ROWS)).astype("datetime64[D]"),
        "b": rng.integers(0, 2, size=MATRIX_ROWS).astype(bool),
        "s": s,
        # Too many distinct values to dictionary-encode: a plain string column.
        "p": np.array([f"p{k % 3000:04d}" for k in range(MATRIX_ROWS)],
                      dtype=object),
        "some": rng.integers(0, 2, size=MATRIX_ROWS).astype(np.int64),
        "gone": np.where(g == "c", 1, rng.integers(0, 2, size=MATRIX_ROWS)
                         ).astype(np.int64),
    })


BOTH = ("parallelism", "devices")


@dataclasses.dataclass(frozen=True)
class AggregateCase:
    name: str
    sql: str
    #: Parameter dicts run in order through one prepared statement.
    bindings: tuple = ({},)
    #: The options under which the plan must hold a partitioned aggregate.
    partitioned: tuple = BOTH
    #: Sums are exact (the matrix's are): not a bit may move between points.
    exact: bool = True
    #: Behind a filter the estimate alone would plan the aggregate serial.
    force_lanes: bool = False
    raises: "type | None" = None


def _aggregate_cases() -> list[AggregateCase]:
    rng = random.Random(MATRIX_SEED)
    pairs = [(fn, col) for col, fns in MATRIX_FUNCTIONS.items() for fn in fns]

    def select(shape: str, count: int) -> str:
        chosen = rng.sample(pairs, count)
        items = ["count(*) as n"] + [
            f"{fn}({NULL_SHAPES[shape].format(x=col)}) as {fn}_{col}"
            for fn, col in chosen]
        return ", ".join(items)

    cases = []
    for shape in ("no_nulls", "some_nulls", "all_null_group"):
        cases.append(AggregateCase(
            f"grouped-{shape}",
            f"select g, {select(shape, len(pairs))} from m group by g order by g"))
        cases.append(AggregateCase(
            f"global-{shape}", f"select {select(shape, 6)} from m"))
    cases.append(AggregateCase(
        "global-all_null", f"select {select('all_null', 6)} from m"))
    # Empty input, statically and by a rebind of one prepared statement
    # (parameterized plans fall back to one device).
    for kind, head, tail in (("grouped", "select g, ", " group by g order by g"),
                             ("global", "select ", "")):
        cases.append(AggregateCase(
            f"{kind}-empty",
            f"{head}{select('some_nulls', 6)} from m where id < 0{tail}",
            force_lanes=True))
        cases.append(AggregateCase(
            f"{kind}-rebind-to-empty",
            f"{head}{select('some_nulls', 6)} from m where id < :cut{tail}",
            bindings=({"cut": MATRIX_ROWS}, {"cut": 0}, {"cut": 4000}),
            partitioned=("parallelism",), force_lanes=True))
    # DISTINCT is the same grouping (its child here is a projection, which
    # decodes: the static-radix path has an operator-level test).
    for columns in ("g", "g, s", "p", "g, p", "s, i, g"):
        cases.append(AggregateCase(
            f"distinct-{columns.replace(', ', '-')}",
            f"select distinct {columns} from m", partitioned=()))
    # One typed error, whatever the partitioning: strings have no sum / order.
    for fn in ("sum", "avg", "min", "max"):
        cases.append(AggregateCase(
            f"string-{fn}", f"select g, {fn}(s) as v from m group by g",
            raises=UnsupportedOperationError))
    return cases


AGGREGATE_CASES = [
    AggregateCase(
        "orders-case-nulls",
        "select segment, avg(case when amount > 250 then amount end) as a, "
        "min(case when amount > 450 then amount end) as lo, "
        "max(case when amount > 450 then amount end) as hi, "
        "sum(case when amount > 250 then amount end) as s, "
        "count(case when amount > 250 then amount end) as c "
        "from orders group by segment order by segment", exact=False),
    # A group where nothing contributes must be NULL, at every parallelism.
    AggregateCase(
        "orders-nothing-contributes",
        "select min(case when amount > 1e9 then amount end) as lo from orders",
        exact=False),
] + _aggregate_cases()


@pytest.mark.parametrize("case", AGGREGATE_CASES,
                         ids=[case.name for case in AGGREGATE_CASES])
def test_parallel_nullable_aggregates_match_serial_and_oracle(
        session, frames, frames_match, case):
    """State -> combine -> finalize must skip NULL inputs exactly like the
    row-engine oracle (per-group valid counts, masked min/max), and answer
    bit-identically whether it ran on one table, on lanes or on shards, eager
    or traced — errors included."""
    from repro.baselines import RowEngine
    from repro.frontend import sql_to_physical

    reference = None
    for point in OPTION_POINTS:
        options = ExecutionOptions(use_cache=False, **point)
        with tuning_overrides(**({"parallel_threshold_rows": 0}
                                 if case.force_lanes else {})):
            statement = session.prepare(case.sql, options=options)
        if set(point) & set(case.partitioned):
            plan = statement.compiled.operator_plan.root.pretty()
            assert ("ParallelHashAggregate" in plan
                    or "ShardedAggregate" in plan), (point, plan)
        if case.raises is not None:
            with pytest.raises(case.raises,
                               match="sum/avg/min/max over string columns"):
                statement.run()
            continue
        results = [statement.run(**binding).to_dict()
                   for binding in case.bindings]
        if reference is None:
            reference = results
            for binding, frame in zip(case.bindings, results):
                bound = case.sql
                for key, value in binding.items():
                    bound = bound.replace(f":{key}", str(value))
                oracle = RowEngine(frames).execute_to_dataframe(
                    sql_to_physical(bound, session.catalog))
                frames_match(DataFrame(frame), oracle, f"{case.name}: {bound}")
        elif case.exact:
            assert results == reference, (case.name, point)
        else:
            for frame, expected in zip(results, reference):
                frames_match(DataFrame(frame), DataFrame(expected),
                             f"{case.name} @ {point}")


def test_partitioned_join_kinds_match_serial(session, frames_match):
    joins = [
        "select order_id, region from orders left outer join customers "
        "on orders.customer_id = customers.customer_id where amount > 450",
        "select order_id from orders where customer_id in "
        "(select customer_id from customers where region = 'US')",
    ]
    for sql in joins:
        frames_match(session.sql(sql, options=ExecutionOptions(parallelism=4)),
                     session.sql(sql, options=ExecutionOptions(parallelism=1)), sql)


# -- planner choices ----------------------------------------------------------


def test_planner_parallelizes_above_threshold_only(session):
    big = session.compile("select * from orders where amount > 10", options=ExecutionOptions(parallelism=4, use_cache=False))
    assert "MorselFilter(workers=4)" in big.operator_plan.root.pretty()
    small = session.compile("select * from customers where region = 'EU'", options=ExecutionOptions(parallelism=4, use_cache=False))
    plan = small.operator_plan.root.pretty()
    assert "Morsel" not in plan  # 600 rows is below the threshold
    serial = session.compile("select * from orders where amount > 10", options=ExecutionOptions(parallelism=1, use_cache=False))
    assert "Morsel" not in serial.operator_plan.root.pretty()


def test_planner_keeps_subqueries_and_distinct_serial(session):
    sql = ("select count(distinct customer_id) as n from orders "
           "where amount > 10")
    compiled = session.compile(sql, options=ExecutionOptions(parallelism=4, use_cache=False))
    plan = compiled.operator_plan.root.pretty()
    assert "ParallelHashAggregate" not in plan  # COUNT DISTINCT cannot merge
    assert "MorselFilter" in plan               # the filter still parallelizes
    sql = ("select order_id from orders where amount > "
           "(select avg(amount) from orders)")
    compiled = session.compile(sql, options=ExecutionOptions(parallelism=4, use_cache=False))
    assert "MorselFilter" not in compiled.operator_plan.root.pretty()


def test_plan_cache_keys_include_parallelism(session):
    sql = "select sum(amount) as s from orders"
    p1 = session.compile(sql, options=ExecutionOptions(parallelism=1))
    p4 = session.compile(sql, options=ExecutionOptions(parallelism=4))
    assert p1 is not p4
    assert session.compile(sql, options=ExecutionOptions(parallelism=4)) is p4
    assert p1.executor.options.parallelism == 1
    assert p4.executor.options.parallelism == 4


# -- executor input validation ------------------------------------------------


def test_prepare_inputs_validates_tables_and_columns(session, frames):
    compiled = session.compile("select sum(amount) as s from ORDERS", options=ExecutionOptions(use_cache=False))
    # Case-insensitive table matching, like the session catalog.
    assert "orders" in session.prepare_inputs(compiled.executor)
    # A plan over a table this session never registered names it.
    with pytest.raises(CatalogError, match="'orders'"):
        TQPSession().prepare_inputs(compiled.executor)
    # A missing column cannot reach conversion through a session: the held
    # handle re-plans against the new generation first, and the analyzer
    # rejects the statement with its typed error.
    own = TQPSession()
    own.register("orders", frames["orders"])
    held = own.prepare("select sum(amount) as s from orders")
    held.run()
    own.register("orders", DataFrame({"order_id": np.arange(3, dtype=np.int64)}))
    with pytest.raises(AnalysisError, match="amount"):
        held.run()


# -- cost models --------------------------------------------------------------


def _synthetic_profile(lanes: int, events_per_lane: int, bytes_per_event: int,
                       elapsed_s: float = 1e-4) -> Profiler:
    prof = Profiler()
    device = ops.tensor([1.0]).device
    for lane in range(lanes):
        with stamped(lane=lane):
            prof.record("morsel_dispatch", 0.0, 0, 0, device)
            for _ in range(events_per_lane):
                prof.record("mul", elapsed_s, bytes_per_event, bytes_per_event,
                            device)
    return prof


def test_gpu_model_charges_slowest_lane_plus_dispatch():
    model = SimulatedGPU()
    serial = Profiler()
    device = ops.tensor([1.0]).device
    for _ in range(4 * 3):
        serial.record("mul", 1e-4, 10_000_000, 10_000_000, device)
    parallel = _synthetic_profile(lanes=4, events_per_lane=3,
                                  bytes_per_event=10_000_000)
    t_serial = model.report_time(1.0, serial)
    t_parallel = model.report_time(1.0, parallel)
    # 4 concurrent lanes: ~4x faster, minus the per-morsel dispatch charge.
    assert t_parallel < t_serial / 3
    assert t_parallel >= t_serial / 4
    expected_lane = 3 * max(model.kernel_launch_overhead_s,
                            20_000_000 / (model.hbm_bandwidth_gbs * 1e9))
    assert t_parallel == pytest.approx(
        expected_lane + 4 * model.morsel_dispatch_overhead_s)


def test_cpu_model_reports_kernel_time_and_lanes():
    model = CPUDevice()
    assert model.report_time(0.5, None) == 0.5
    parallel = _synthetic_profile(lanes=4, events_per_lane=2,
                                  bytes_per_event=1000, elapsed_s=1e-3)
    reported = model.report_time(1.0, parallel)
    assert reported == pytest.approx(
        2e-3 + 4 * model.morsel_dispatch_overhead_s)


def test_dispatch_event_bytes_are_ignored():
    model = SimulatedGPU()
    prof = Profiler()
    device = ops.tensor([1.0]).device
    # A dispatch is an identity pass-through: huge byte counts, zero charge
    # beyond the fixed scheduling cost.
    prof.record("morsel_dispatch", 0.0, 10**12, 10**12, device)
    assert model.report_time(0.0, prof) == pytest.approx(
        model.morsel_dispatch_overhead_s)
