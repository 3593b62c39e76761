"""Unit tests for morsel-parallel plans: lanes are a cost model.

A ``parallelism=N`` plan runs the serial program; the plan's ``lanes`` map
names the operators the planner put on N lanes, by scope, and the device cost
models spread their events (one lane's share of each, over one lane per whole
morsel of its rows and at most N, plus N morsel dispatches per lanes
operator)."""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro import DataFrame, TQPSession
from repro.backends.base import morsel_lanes, split_partitions
from repro.backends.cpu import CPUDevice
from repro.backends.gpu_sim import SimulatedGPU
from repro.backends.wasm_sim import SimulatedWASM
from repro.core.columnar import (
    DEFAULT_MORSEL_ROWS,
    LogicalType,
    TensorColumn,
    TensorTable,
    morsel_bounds,
)
from repro.core.operators import (
    ExecutionContext,
    MapOperator,
    TensorOperator,
    lanes,
    run_partitions,
    shards,
)
from repro.core.tuning import DEFAULT_TUNING, tuning_overrides
from repro.errors import (
    AnalysisError,
    CatalogError,
    ExecutionError,
    UnsupportedOperationError,
)
from repro.tensor import (
    GraphInterpreter,
    Profiler,
    codegen,
    current_stamp,
    ops,
    stamped,
    tracing,
)
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


def test_table_slice_roundtrip(frames):
    table = TensorTable.from_dataframe(frames["orders"])
    piece = table.slice(100, 50)
    assert piece.num_rows == 50
    assert piece.column("order_id").tensor.numpy().tolist() == list(range(100, 150))


def test_slice_preserves_validity_mask(frames):
    table = TensorTable.from_dataframe(frames["orders"])
    column = table.column("amount")
    valid = ops.tensor([i % 2 == 0 for i in range(table.num_rows)], dtype="bool")
    masked = TensorColumn(column.tensor, column.ltype, valid)
    piece = masked.slice(0, 4)
    assert piece.valid is not None
    assert piece.valid.numpy().tolist() == [True, False, True, False]


# -- stamps -------------------------------------------------------------------


def test_shards_run_in_order_each_stamped_with_its_shard():
    seen = run_partitions(shards(3), lambda i: (i, current_stamp().shard))
    assert seen == [(0, 0), (1, 1), (2, 2)]
    assert current_stamp().shard is None


def test_the_scope_survives_trace_and_replay_and_keys_the_lanes_width():
    """A traced node carries its operator's scope and no width; a replay
    (interpreted or generated) hands the scope back on the events, and the
    plan's lanes map gives it its width."""
    def fn(t):
        with stamped(scope="Filter#1"):
            t = ops.mul(ops.add(t, 1.0), 2.0)
        return ops.sub(t, 1.0)

    graph = tracing.trace(fn, [ops.tensor([1.0, 2.0])])
    assert [n.attrs for n in graph.nodes] == [{"scope": "Filter#1"}] * 2 + [{}]
    for replay in (GraphInterpreter(graph).run,
                   codegen.compile_graph(graph).run):
        with Profiler() as prof:
            out = replay([ops.tensor([3.0, 4.0])])
        assert out[0].numpy().tolist() == [7.0, 9.0]
        assert [e.scope for e in prof.events] == ["Filter#1"] * 2 + [""]
        host, _, _ = split_partitions(prof.events, {"Filter#1": 4})
        assert host.operators == {("Filter#1", 4)}


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
        options = ExecutionOptions(**point)
        session.plan_cache.clear()
        with tuning_overrides(**({"parallel_threshold_rows": 0}
                                 if case.force_lanes else {})):
            statement = session.prepare(case.sql, options=options)
        if set(point) & set(case.partitioned):
            plan = statement.compiled.operator_plan.pretty()
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
    big = session.compile("select * from orders where amount > 10", options=ExecutionOptions(parallelism=4))
    assert "MorselFilter(workers=4)" in big.operator_plan.pretty()
    small = session.compile("select * from customers where region = 'EU'", options=ExecutionOptions(parallelism=4))
    plan = small.operator_plan.pretty()
    assert "Morsel" not in plan  # 600 rows is below the threshold
    serial = session.compile("select * from orders where amount > 10", options=ExecutionOptions(parallelism=1))
    assert "Morsel" not in serial.operator_plan.pretty()


def test_planner_keeps_subqueries_and_distinct_serial(session):
    sql = ("select count(distinct customer_id) as n from orders "
           "where amount > 10")
    compiled = session.compile(sql, options=ExecutionOptions(parallelism=4))
    plan = compiled.operator_plan.pretty()
    assert "ParallelHashAggregate" not in plan  # COUNT DISTINCT cannot merge
    assert "MorselFilter" in plan               # the filter still parallelizes
    sql = ("select order_id from orders where amount > "
           "(select avg(amount) from orders)")
    compiled = session.compile(sql, options=ExecutionOptions(parallelism=4))
    assert "MorselFilter" not in compiled.operator_plan.pretty()


def test_plan_cache_keys_include_parallelism(session):
    sql = "select sum(amount) as s from orders"
    p1 = session.compile(sql, options=ExecutionOptions(parallelism=1))
    p4 = session.compile(sql, options=ExecutionOptions(parallelism=4))
    assert p1 is not p4
    assert session.compile(sql, options=ExecutionOptions(parallelism=4)) is p4
    assert p4.options.parallelism == 4
    # A width is a price: both entries run one executor.
    assert p4.executor is p1.executor


def test_plan_cache_keys_include_the_ambient_tuning(session):
    """A compile inside ``tuning_overrides`` is priced under that tuning: a
    cache entry built under another tuning is not served."""
    sql = "select region, count(*) as n from customers group by region"
    options = ExecutionOptions(parallelism=4)
    default = session.compile(sql, options=options)
    with tuning_overrides(parallel_threshold_rows=0):
        forced = session.compile(sql, options=options)
        assert session.compile(sql, options=options) is forced
    assert forced is not default
    # 600 rows: lanes only under the forced threshold.
    assert forced.operator_plan.lanes and not default.operator_plan.lanes
    assert session.compile(sql, options=options) is default


# -- executor input validation ------------------------------------------------


def test_prepare_inputs_validates_tables_and_columns(session, frames):
    compiled = session.compile("select sum(amount) as s from ORDERS")
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
#
# The plan's lanes map gives an operator's events its width n; each model
# prices such an event as one lane's share at its own price — over one lane
# per whole morsel of the event's rows, at most n — and charges n morsel
# dispatches per lanes operator: per scope in the map, wherever its events
# fall.

DEVICE = ops.tensor([1.0]).device
#: Rows of a synthetic event: enough whole morsels for four lanes.
BIG = 4 * DEFAULT_MORSEL_ROWS


#: A plan's lanes map: its ``Filter#1`` runs on four lanes.
WIDE = {"Filter#1": 4}


def _profile(*events) -> Profiler:
    """``(op, elapsed_s, bytes, scope, shard[, rows])`` rows as a profile;
    each event reads and writes ``bytes`` and runs over ``rows`` (default
    :data:`BIG`)."""
    prof = Profiler()
    for op, elapsed_s, nbytes, scope, shard, *rows in events:
        with stamped(scope=scope, shard=shard):
            prof.record(op, elapsed_s, nbytes, nbytes, DEVICE, *rows or [BIG])
    return prof


def test_cpu_prices_a_lanes_event_as_one_lanes_share():
    model = CPUDevice()
    assert model.report_time(0.5, None) == 0.5
    prof = _profile(("mul", 4e-3, 100, "Filter#1", None))
    assert model.report_time(1.0, prof) == pytest.approx(4e-3)
    # Only the operator the map names is spread, not one sharing its label.
    assert model.report_time(1.0, prof, {"Filter#2": 4}) == pytest.approx(4e-3)
    assert model.report_time(1.0, prof, WIDE) == pytest.approx(
        4e-3 / 4 + 4 * model.morsel_dispatch_overhead_s)


def test_gpu_prices_a_lanes_event_at_its_share_of_the_bandwidth():
    model = SimulatedGPU()
    hbm = model.hbm_bandwidth_gbs * 1e9
    big = _profile(("mul", 1e-4, 10_000_000, "Filter#1", None))
    assert model.report_time(1.0, big, WIDE) == pytest.approx(
        20_000_000 / (4 * hbm) + 4 * model.morsel_dispatch_overhead_s)
    # A lane still pays a whole launch: a small kernel does not get cheaper.
    small = _profile(("mul", 1e-4, 1_000, "Filter#1", None))
    assert model.report_time(1.0, small, WIDE) == pytest.approx(
        model.kernel_launch_overhead_s + 4 * model.morsel_dispatch_overhead_s)


def test_wasm_spreads_lanes_time_before_the_slowdown():
    model = SimulatedWASM()
    prof = _profile(("mul", 4e-3, 100, "Filter#1", None),
                    ("add", 1e-3, 100, "Sort#2", None))
    measured = 6e-3  # 1 ms of it outside any kernel
    assert model.report_time(measured, prof, WIDE) == pytest.approx(
        (measured - 4e-3 + 4e-3 / 4) * model.slowdown
        + 2 * model.per_op_overhead_s + 4 * model.morsel_dispatch_overhead_s)


@pytest.mark.parametrize("rows, spread", [
    (BIG, 4), (3 * DEFAULT_MORSEL_ROWS + 5, 3), (2 * DEFAULT_MORSEL_ROWS, 2),
    (2 * DEFAULT_MORSEL_ROWS - 1, 1), (0, 1)])
def test_a_lanes_event_spreads_over_one_lane_per_whole_morsel(rows, spread):
    """Under two whole morsels a kernel is priced whole — what the planner's
    ``parallel_threshold_rows`` keeps serial — but its operator still runs on
    its lanes and pays their dispatches."""
    prof = _profile(("mul", 4e-3, 100, "Filter#1", None, rows))
    (event,) = prof.events
    assert event.rows == rows and morsel_lanes(event, 4) == spread
    host, _, _ = split_partitions(prof.events, WIDE)
    assert [n for _, n in host.spread] == ([spread] if spread > 1 else [])
    assert host.dispatches == 4
    model = CPUDevice()
    assert model.report_time(1.0, prof, WIDE) == pytest.approx(
        4e-3 / spread + 4 * model.morsel_dispatch_overhead_s)


def test_an_event_runs_over_its_longest_input_or_what_a_gather_writes():
    with Profiler() as prof:
        column = ops.tensor(np.arange(10.0))
        ops.add(column, 1.0)
        ops.take(column, ops.tensor(np.array([1, 2, 3])))
    add, take = (e for e in prof.events if e.op in ("add", "take"))
    assert (add.rows, take.rows) == (10, 3)


@pytest.mark.parametrize("model", [CPUDevice, SimulatedGPU, SimulatedWASM])
def test_dispatches_are_charged_once_per_lanes_operator(model):
    events = [("mul", 1e-3, 8, "TableScan(t)#1", None),
              ("add", 1e-3, 8, "Filter#2", None),
              ("mul", 1e-3, 8, "Filter#2", None),
              ("sum", 1e-3, 8, "Sort#4", None),
              ("mul", 1e-3, 8, "Filter#2", None),
              ("mul", 1e-3, 8, "Project(1 cols)#3", None)]
    widths = {"TableScan(t)#1": 4, "Filter#2": 4, "Project(1 cols)#3": 2,
              "Filter#5": 4}  # Filter#5 ran no kernel: no dispatch
    prof = _profile(*events)
    host, shards_, exchanges = split_partitions(prof.events, widths)
    assert not shards_ and not exchanges
    # TableScan | Filter (both of its runs) | Project
    assert host.dispatches == 4 + 4 + 2
    assert [n for _, n in host.spread] == [4, 4, 4, 4, 2]
    # The order of the events (a graph pass may move a kernel) is no matter.
    assert split_partitions(prof.events[::-1], widths)[0].dispatches == 10
    # Each device charges them at its own per-dispatch price.
    charged = (model().report_time(1.0, prof, widths)
               - model(morsel_dispatch_overhead_s=0.0).report_time(
                   1.0, prof, widths))
    assert charged == pytest.approx(10 * model().morsel_dispatch_overhead_s)
    if model is CPUDevice:
        assert model().report_time(1.0, prof, widths) == pytest.approx(
            1e-3 * (1 + 4 / 4 + 1 / 2) + charged)


@pytest.mark.parametrize("model", [CPUDevice, SimulatedGPU, SimulatedWASM])
def test_two_lanes_operators_of_one_label_pay_their_own_dispatches(session,
                                                                  model):
    """A self-join filters both of its sides on lanes: two operators that
    render the same ``MorselFilter(workers=4)`` label, each handing out its
    own four morsels."""
    compiled = session.compile(
        "select a.order_id from orders a, orders b "
        "where a.order_id = b.order_id and a.amount > 100 and b.amount < 400",
        options=ExecutionOptions(backend="torchscript", parallelism=4))
    assert compiled.explain().count("MorselFilter(workers=4)") == 2
    widths = compiled.operator_plan.lanes
    events = compiled.execute(profile=True).profile
    filters = {e.scope for e in events.events
               if e.scope in widths and e.scope.startswith("Filter#")}
    assert len(filters) == 2
    ran = {e.scope for e in events.events if e.scope in widths}
    charged = (model().report_time(1.0, events, widths)
               - model(morsel_dispatch_overhead_s=0.0).report_time(
                   1.0, events, widths))
    assert charged == pytest.approx(
        4 * len(ran) * model().morsel_dispatch_overhead_s)


def test_shards_pricing_is_unchanged():
    """Shards run concurrently: host work + the slowest shard + every
    exchange as an interconnect transfer; no dispatch is charged."""
    prof = _profile(("mul", 1e-3, 8, "Filter#1@d0", 0),
                    ("mul", 3e-3, 8, "Filter#1@d1", 1),
                    ("add", 2e-3, 8, "Filter#1@d1", 1),
                    ("shard_gather", 0.0, 1_000_000, "Gather(devices=2)#2", 1),
                    ("sum", 1e-3, 8, "Sort#3", None))
    host, by_shard, exchanges = split_partitions(prof.events)
    assert host.dispatches == 0 and sorted(by_shard) == [0, 1]
    cpu = CPUDevice()
    assert cpu.report_time(1.0, prof) == pytest.approx(
        1e-3 + 5e-3 + cpu.interconnect_latency_s
        + 1_000_000 / (cpu.interconnect_bandwidth_gbs * 1e9))
    gpu = SimulatedGPU()
    launch = gpu.kernel_launch_overhead_s
    assert gpu.report_time(1.0, prof) == pytest.approx(
        launch + 2 * launch + gpu.pcie_latency_s
        + 1_000_000 / (gpu.pcie_bandwidth_gbs * 1e9))
    wasm = SimulatedWASM()
    measured = 10e-3  # the shard kernels' 6 ms become the slowest shard's 5
    assert wasm.report_time(measured, prof) == pytest.approx(
        (measured - 6e-3 + 5e-3) * wasm.slowdown + 5 * wasm.per_op_overhead_s
        + wasm.message_latency_s
        + 1_000_000 / (wasm.message_bandwidth_gbs * 1e9))


def test_a_serial_child_under_a_lanes_parent_is_priced_serial():
    """Every event names its innermost operator: a lanes operator's width
    does not leak into the serial child it executes, which the models price
    whole."""

    class Serial(TensorOperator):
        def _execute(self, ctx):
            data = ops.add(ops.tensor(np.arange(1.0, BIG + 1.0)), 1.0)
            return TensorTable({"x": TensorColumn(data, LogicalType.FLOAT)})

    class Doubled(MapOperator):
        labels = ("Doubled", "MorselDoubled", "DistributedDoubled")

        def _apply(self, table, ctx):
            column = table.column("x")
            return TensorTable({"x": TensorColumn(
                ops.mul(column.tensor, 2.0), column.ltype)})

    child = Serial([])
    parent = Doubled(child, lanes(4))
    child.scope, parent.scope = "operator#1", "Doubled#2"
    with Profiler() as prof:
        out = parent.execute(ExecutionContext({}))
    assert out.column("x").tensor.numpy()[:3].tolist() == [4.0, 6.0, 8.0]
    below, own = (e for e in prof.events if e.op in ("add", "mul"))
    assert (below.scope, own.scope) == ("operator#1", "Doubled#2")
    model = CPUDevice()
    assert model.report_time(1.0, prof, {"Doubled#2": 4}) == pytest.approx(
        sum(e.elapsed_s for e in prof.events if e is not own)
        + own.elapsed_s / 4 + 4 * model.morsel_dispatch_overhead_s)


def test_a_lanes_plan_models_a_speedup_over_its_serial_program(session):
    """The modelled gain of a lanes plan comes only from the cost model: its
    kernels are the serial plan's, op for op."""
    sql = "select segment, sum(amount) as s from orders group by segment"
    runs = {}
    for parallelism in (1, 4):
        compiled = session.compile(sql, options=ExecutionOptions(
            backend="torchscript", parallelism=parallelism))
        runs[parallelism] = (compiled.execute(profile=True).profile,
                             compiled.operator_plan.lanes)
    (serial, serial_lanes), (spread, spread_lanes) = runs[1], runs[4]
    assert [(e.op, e.scope) for e in serial.events] == [
        (e.op, e.scope) for e in spread.events]
    assert serial_lanes == {} and 4 in spread_lanes.values()

    def bytes_moved(profile, widths) -> float:  # a deterministic kernel price
        host, _, _ = split_partitions(profile.events, widths)
        return host.time(lambda event: event.total_bytes, 0.0)

    assert bytes_moved(spread, spread_lanes) < bytes_moved(serial,
                                                           serial_lanes)
