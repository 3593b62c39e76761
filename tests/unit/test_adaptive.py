"""Unit tests for the adaptive execution subsystem.

Covers the feedback store (bounded history, LRU bucket cap, thread-safety
under a serving pool), binding-region bucketing, and pricing: every
execution prices all three candidates on its own profile, the first
execution runs ``auto`` and every later one the cheapest candidate of its
region's latest record, whether it ran alone, in ``execute_many`` or in a
serving batch.
"""

from __future__ import annotations

import datetime
import threading

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.adaptive import ExecutionFeedback, FeedbackStore, binding_region
from repro.core.planner import scope_family
from repro.serve import ServingRuntime

N_ROWS = 20000
CANDIDATES = ["auto", "serial", "parallel"]


def make_feedback(key="q", region=(), strategy="auto", price=1e-3):
    return ExecutionFeedback(
        statement_key=key, region=region, strategy=strategy,
        prices={name: price for name in CANDIDATES})


@pytest.fixture(scope="module")
def frames():
    rng = np.random.default_rng(20260808)
    return DataFrame({
        "k": np.arange(N_ROWS, dtype=np.int64),
        "grp": (np.arange(N_ROWS, dtype=np.int64) % 17),
        "v": np.round(rng.uniform(0.0, 100.0, size=N_ROWS), 2),
    })


@pytest.fixture()
def session(frames):
    sess = TQPSession()
    sess.register("t", frames)
    return sess


ADAPTIVE = ExecutionOptions(adaptive=True)
SQL = "select grp, sum(v) as sv from t where v < :cut group by grp"
#: Integer aggregation: exact under every strategy, so a switch cannot
#: produce float round-off differences between results.
EXACT_SQL = "select grp, sum(k) as sk from t where v < :cut group by grp"


def argmin(record: dict) -> str:
    """The candidate a record's prices favour, candidate order on a tie."""
    return min(CANDIDATES, key=record["prices"].__getitem__)


def sorted_rows(result):
    frame = result.to_dataframe()
    return sorted(zip(*[frame[c] for c in frame.columns]))


class WorkerGate:
    """Registered as a model; holds the executing worker until released, so
    everything queued behind it is picked up as one batch."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, args, num_rows):
        self.entered.set()
        assert self.release.wait(20), "test gate never released"
        return args[0]


def submit_behind_gate(serving, gate, statement, cuts):
    """Queue one request per cut while the only worker is held; release."""
    gate.entered.clear()
    gate.release.clear()
    blocker = serving.submit("select sum(predict('gate', k)) as s from t",
                             options=ExecutionOptions(backend="pytorch"))
    assert gate.entered.wait(10)
    tickets = [statement.submit(cut=cut) for cut in cuts]
    gate.release.set()
    blocker.result(20)
    return [ticket.result(20) for ticket in tickets]


# -- feedback store ------------------------------------------------------------


def test_store_bounds_history_per_bucket():
    store = FeedbackStore(history=4)
    for i in range(10):
        store.record(make_feedback(price=float(i)))
    rows = store.records("q", ())
    assert len(rows) == 4
    # Oldest evicted first: only the newest four survive.
    assert [fb.prices["auto"] for fb in rows] == [6.0, 7.0, 8.0, 9.0]
    assert store.total_recorded == 10


def test_store_bounds_bucket_count_lru():
    store = FeedbackStore(history=4, max_buckets=3)
    for name in ("a", "b", "c", "d"):
        store.record(make_feedback(key=name))
    # "a" was least recently used and fell off.
    assert store.records("a", ()) == []
    assert len(store.records("d", ())) == 1
    # Touching "b" protects it from the next eviction.
    store.record(make_feedback(key="b"))
    store.record(make_feedback(key="e"))
    assert len(store.records("b", ())) == 2
    assert store.records("c", ()) == []


def test_store_concurrent_recording_is_consistent():
    store = FeedbackStore(history=64)
    barrier = threading.Barrier(8)

    def hammer(worker):
        barrier.wait()
        for i in range(50):
            store.record(make_feedback(key=f"q{worker % 4}", price=float(i)))
            store.records(f"q{worker % 4}", ())

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.total_recorded == 400
    assert len(store) == 4 * 64  # each of the 4 buckets filled to history


# -- scope canonicalization ----------------------------------------------------


def test_scope_family_strips_the_operator_id_and_shard():
    assert scope_family("Filter") == "Filter"
    assert scope_family("Filter#7") == "Filter"
    assert scope_family("Filter#7@d2") == "Filter"
    assert scope_family("HashJoin[inner](key=right)#3") == "HashJoin"
    assert scope_family("HashJoin[inner](broadcast=right, key=left)#3@d1") \
        == "HashJoin"
    assert scope_family("HashJoin[inner](key=right)#3:shuffle@d0") \
        == "HashJoin"
    assert scope_family("HashAggregate(groups=1)#5@d2") == "HashAggregate"
    # Scans keep their table so two scans in one plan stay distinct.
    assert scope_family("TableScan(lineitem)#2") == "Scan(lineitem)"
    assert scope_family("TableScan(lineitem, pruned=2 conjuncts)#4@d0") \
        == "Scan(lineitem)"


# -- binding regions -----------------------------------------------------------


def test_binding_region_buckets_magnitudes_and_dates():
    assert binding_region(None) == ()
    assert binding_region({}) == ()
    # Same factor-of-two band -> same bucket; far apart -> different.
    assert binding_region({"q": 50.0}) == binding_region({"q": 60.0})
    assert binding_region({"q": 50.0}) != binding_region({"q": 0.05})
    assert binding_region({"q": -50.0}) != binding_region({"q": 50.0})
    # Dates bucket by year, including date-as-nanosecond-epoch integers.
    jan = datetime.date(1995, 1, 15)
    dec = datetime.date(1995, 12, 1)
    other = datetime.date(1998, 6, 1)
    assert binding_region({"d": jan}) == binding_region({"d": dec})
    assert binding_region({"d": jan}) != binding_region({"d": other})
    ns_1995 = int(datetime.datetime(1995, 6, 1).timestamp() * 1e9)
    ns_1998 = int(datetime.datetime(1998, 6, 1).timestamp() * 1e9)
    assert binding_region({"d": ns_1995}) != binding_region({"d": ns_1998})
    # Multi-parameter regions are order-insensitive.
    assert binding_region({"a": 1, "b": "x"}) \
        == binding_region({"b": "x", "a": 1})


def test_binding_region_buckets_numpy_scalars_like_python_values():
    # The binders accept numpy scalars; each must share its Python
    # counterpart's bucket instead of opening a region per distinct value.
    assert binding_region({"k": np.int64(100)}) == binding_region({"k": 101})
    assert binding_region({"k": np.int64(100)}) \
        == binding_region({"k": np.int32(120)})
    assert binding_region({"q": np.float64(50.0)}) \
        == binding_region({"q": 60.0})
    assert binding_region({"q": np.float32(-50.0)}) \
        == binding_region({"q": -50.0})
    assert binding_region({"d": np.datetime64("1995-03-01")}) \
        == binding_region({"d": datetime.date(1995, 11, 30)})
    assert binding_region({"d": np.datetime64("1995-03-01")}) \
        == binding_region({"d": np.datetime64("1995-12-31T23:00", "ns")})
    assert binding_region({"d": np.datetime64("1995-03-01")}) \
        != binding_region({"d": np.datetime64("1998-03-01")})
    assert binding_region({"b": np.bool_(True)}) \
        == binding_region({"b": True}) != binding_region({"b": False})


# -- pricing -------------------------------------------------------------------


def test_first_execution_runs_auto_and_then_the_priced_argmin(session):
    query = session.prepare(SQL, options=ADAPTIVE)
    ran = []
    for _ in range(6):
        query.bind(cut=50.0).execute()
        ran.append(query.compiled.strategy)
    records = session.adaptive.feedback.dump()
    assert ran[0] == "auto"
    # This is the measured path (kernel times off the wall clock): *which*
    # candidate is cheapest is the machine's business; that the cheapest
    # of the latest record runs next is ours.
    assert ran[1:] == [argmin(record) for record in records[:-1]]
    assert [record["strategy"] for record in records] == ran
    key = session.adaptive.statement_key(SQL)
    assert {record["statement_key"] for record in records} == {key}


def test_every_record_prices_every_candidate_under_its_lanes(session):
    query = session.prepare(SQL, options=ADAPTIVE)
    compiled = query.compiled
    price = compiled.executor.cost_model.report_time
    for _ in range(4):
        result = query.bind(cut=50.0).execute()
        record = session.adaptive.feedback.dump()[-1]
        assert list(record["prices"]) == CANDIDATES
        assert record["prices"] == {
            name: price(result.measured_s, result.profile, plan.lanes)
            for name, plan in compiled.candidates.items()}
        # The result reports the price of the candidate it ran.
        assert record["strategy"] == compiled.strategy
        assert result.reported_s == record["prices"][compiled.strategy]
    # The three candidates are three lanes maps over one set of operators.
    lanes = {name: plan.lanes for name, plan in compiled.candidates.items()}
    assert lanes["serial"] == {}
    assert lanes["auto"] and set(lanes["auto"]) <= set(lanes["parallel"])


def test_adaptive_keeps_independent_choices_per_region(session, bytes_priced):
    # Which shape wins a region is asserted below, so the cost must not be a
    # measurement: measured, serial and lanes are ~20% apart on 20k rows and
    # the winner flipped one run in eight.
    query = session.prepare(SQL, options=ADAPTIVE)
    runtime = session.adaptive
    for _ in range(3):
        query.bind(cut=99.0).execute()
    broad_choice = query.compiled.strategy
    broad_shape = query.compiled.operator_plan.root.pretty()
    # The first narrow execution has no record in its region, so it runs
    # the broad choice; its own prices decide the next one.
    query.bind(cut=0.02).execute()
    assert query.compiled.strategy == broad_choice
    for _ in range(2):
        query.bind(cut=0.02).execute()
    narrow_shape = query.compiled.operator_plan.root.pretty()
    # Flipping back reads the broad region's latest record: no exploration.
    query.bind(cut=99.0).execute()
    assert query.compiled.strategy == broad_choice
    regions = {r["region"] for r in runtime.feedback.dump()}
    assert len(regions) == 2
    # On 20k rows the broad regime profits from lanes ("auto" and
    # "parallel" plan identically there and tie, so "auto" wins); the
    # needle regime is cheapest serial.
    assert broad_choice == "auto"
    assert "Morsel" in broad_shape
    assert "Morsel" not in narrow_shape


def test_adaptive_results_match_static_execution(session, frames_match):
    adaptive = session.prepare(SQL, options=ADAPTIVE)
    static = session.prepare(
        "select grp, sum(v) as sv2 from t where v < :cut group by grp")
    reference = static.bind(cut=50.0).run()
    for _ in range(8):
        frames_match(adaptive.bind(cut=50.0).run(), reference,
                     context=f"strategy={adaptive.compiled.strategy}")


def test_adaptive_feedback_under_serving_pool(session):
    """Many workers over one adaptive statement: no lost or torn records,
    whether a request ran alone or inside a batch."""
    with ServingRuntime(session, workers=4, max_queue_depth=256) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        tickets = [serving.submit(statement, params={"cut": 50.0 + i % 6})
                   for i in range(24)]
        by_cut = {}
        for i, ticket in enumerate(tickets):
            rows = sorted_rows(ticket.result(timeout=60))
            assert by_cut.setdefault(i % 6, rows) == rows
        stats = serving.stats()
    store = session.adaptive.feedback
    # One record per distinct execution: deduped requests share a replay.
    assert stats["completed"] == 24
    assert store.total_recorded == 24 - stats["deduped_requests"]
    assert len(store) == store.total_recorded
    # All observations landed in the single broad-binding region.
    assert len({r["region"] for r in store.dump()}) == 1


def test_execute_many_records_one_feedback_row_per_binding(session):
    adaptive = session.prepare(EXACT_SQL, options=ADAPTIVE)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    cuts = [50.0 + i for i in range(10)]
    results = adaptive.execute_many([{"cut": cut} for cut in cuts])
    store = session.adaptive.feedback
    assert store.total_recorded == 10
    assert len({r["region"] for r in store.dump()}) == 1
    for cut, result in zip(cuts, results):
        assert result.profile is not None
        assert sorted_rows(result) == sorted_rows(static.bind(cut=cut).execute())
    # The whole batch ran one candidate; the next batch runs the cheapest
    # candidate of the batch's last record.
    assert {r["strategy"] for r in store.dump()} == {"auto"}
    adaptive.execute_many([{"cut": cut} for cut in cuts])
    assert adaptive.compiled.strategy == argmin(store.dump()[9])
    assert store.total_recorded == 20


def test_batched_serving_records_one_row_per_distinct_execution(session):
    gate = WorkerGate()
    session.register_model("gate", gate)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    # Distinct bindings of one region (one factor-of-two band), repeated.
    cuts = [50.0 + i % 5 for i in range(30)]
    with ServingRuntime(session, workers=1, max_queue_depth=64,
                        batch_window=8) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        results = submit_behind_gate(serving, gate, statement, cuts)
        stats = serving.stats()
    assert stats["batches"] == 4 and stats["batched_requests"] == 30
    assert stats["deduped_requests"] == 3 + 3 + 3 + 1
    store = session.adaptive.feedback
    # The blocker is the one completed request that is not adaptive.
    assert store.total_recorded \
        == stats["completed"] - 1 - stats["deduped_requests"]
    assert len({r["region"] for r in store.dump()}) == 1
    for cut, result in zip(cuts, results):
        assert sorted_rows(result) == sorted_rows(static.bind(cut=cut).execute())


def test_batch_only_traffic_is_priced_too(session):
    gate = WorkerGate()
    session.register_model("gate", gate)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    cuts = [50.0, 52.0, 54.0]
    expected = [sorted_rows(static.bind(cut=cut).execute()) for cut in cuts]
    ran = []
    with ServingRuntime(session, workers=1, batch_window=8) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        for _ in range(4):
            results = submit_behind_gate(serving, gate, statement, cuts)
            ran.append(statement.prepared.compiled.strategy)
            assert [sorted_rows(r) for r in results] == expected
        stats = serving.stats()
    # Every request of the statement ran inside a batch ...
    assert stats["batches"] == 4 and stats["batched_requests"] == 12
    # ... each priced every candidate, and each batch after the first ran
    # the cheapest candidate of the batch before's last record.
    records = session.adaptive.feedback.dump()
    assert len(records) == 12
    assert all(list(record["prices"]) == CANDIDATES for record in records)
    assert ran[0] == "auto"
    assert ran[1:] == [argmin(records[3 * i + 2]) for i in range(3)]


def test_inspection_calls_do_not_switch(session, tmp_path):
    query = session.prepare(
        SQL, options=ADAPTIVE.replace(backend="torchscript"))
    query.bind(cut=50.0).execute()
    # Prices that favour "parallel": the next *execution* switches to it;
    # looking at the graph or exporting it must not.
    key = session.adaptive.statement_key(SQL)
    region = binding_region({"cut": 50.0})
    session.adaptive.feedback.record(ExecutionFeedback(
        key, region, "auto", {"auto": 2.0, "serial": 3.0, "parallel": 1.0}))
    compiled = query.compiled
    before = (compiled.strategy, compiled.operator_plan, compiled.executor)
    compiled.executor_graph(params={"cut": 50.0})
    compiled.export_onnx(str(tmp_path / "q.onnx"), params={"cut": 50.0})
    assert (compiled.strategy, compiled.operator_plan,
            compiled.executor) == before
    query.bind(cut=50.0).execute()
    assert compiled.strategy == "parallel"
    assert compiled.operator_plan is compiled.candidates["parallel"]
    assert compiled.executor is before[2]


def test_non_adaptive_statements_record_nothing(session):
    compiled = session.prepare(SQL).compiled
    compiled.execute(params={"cut": 50.0})
    assert len(session.adaptive.feedback) == 0
    assert (compiled.strategy, compiled.candidates) == (None, {})
