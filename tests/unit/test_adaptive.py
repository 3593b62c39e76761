"""Unit tests for the adaptive execution subsystem.

Covers the feedback store (bounded history, LRU bucket cap, thread-safety
under a serving pool), binding-region bucketing and estimate-correction
isolation across rebinds, and the strategy exploration/settling loop: every
candidate is observed before the choice settles, and only the chosen one is
planned.
"""

from __future__ import annotations

import datetime
import threading

import numpy as np
import pytest

from repro import DataFrame, ExecutionOptions, TQPSession
import repro.adaptive.planner as adaptive_planner
from repro.adaptive import (
    EstimateCorrector,
    ExecutionFeedback,
    FeedbackStore,
    OperatorObservation,
    binding_region,
    scope_family,
)
from repro.backends.base import split_partitions
from repro.backends.cpu import CPUDevice
from repro.core.planner import plan_ir
from repro.serve import ServingRuntime

N_ROWS = 20000


def make_feedback(key="q", region=(), strategy="auto", reported_s=1e-3,
                  selectivity=None, operators=()):
    return ExecutionFeedback(
        statement_key=key, region=region, strategy=strategy,
        reported_s=reported_s, result_rows=10,
        filter_selectivity=selectivity, operators=tuple(operators))


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
#: Integer aggregation: exact under every strategy, so exploration cannot
#: produce float round-off differences between results.
EXACT_SQL = "select grp, sum(k) as sk from t where v < :cut group by grp"
STRATEGIES = {"auto", "serial", "parallel"}


def sorted_rows(result):
    frame = result.to_dataframe()
    return sorted(zip(*[frame[c] for c in frame.columns]))


def bytes_charge(self, measured_s, profile):
    """Deterministic stand-in for measured kernel times: the same concurrent
    structure (serial work + one lane's share of the lanes work + per-morsel
    dispatch), each kernel charged a fixed launch cost plus the bytes it
    wrote."""
    host, _, _ = split_partitions(profile.events)
    return host.time(lambda event: 1e-6 + event.output_bytes / 1e9,
                     self.morsel_dispatch_overhead_s)


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
        store.record(make_feedback(reported_s=float(i)))
    rows = store.records("q", ())
    assert len(rows) == 4
    # Oldest evicted first: only the newest four survive.
    assert [fb.reported_s for fb in rows] == [6.0, 7.0, 8.0, 9.0]
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


def test_store_forget_statement_drops_every_region():
    store = FeedbackStore()
    store.record(make_feedback(region=(("p", 1),)))
    store.record(make_feedback(region=(("p", 2),)))
    store.record(make_feedback(key="other"))
    assert store.forget_statement("q") == 2
    assert store.records("q") == []
    assert len(store.records("other", ())) == 1


def test_store_concurrent_recording_is_consistent():
    store = FeedbackStore(history=64)
    barrier = threading.Barrier(8)

    def hammer(worker):
        barrier.wait()
        for i in range(50):
            store.record(make_feedback(key=f"q{worker % 4}",
                                       reported_s=float(i)))
            store.records(f"q{worker % 4}", ())
            store.median_reported_s(f"q{worker % 4}", (), "auto")

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert store.total_recorded == 400
    assert len(store) == 4 * 64  # each of the 4 buckets filled to history


# -- scope canonicalization ----------------------------------------------------


def test_scope_family_canonicalizes_strategy_variants():
    assert scope_family("Filter") == "Filter"
    assert scope_family("MorselFilter(workers=4)") == "Filter"
    assert scope_family("DistributedFilter(devices=2)") == "Filter"
    assert scope_family("ShuffleJoin[inner](devices=2)") == "HashJoin"
    assert scope_family("PartitionedHashJoin[left](workers=4)") == "HashJoin"
    assert scope_family("ParallelHashAggregate(groups=1, workers=4)@w2") \
        == "HashAggregate"
    # Scans keep their table so two scans in one plan stay distinct.
    assert scope_family("TableScan(lineitem)") == "Scan(lineitem)"
    assert scope_family("MorselScan(lineitem, workers=4)") == "Scan(lineitem)"


# -- binding regions & estimate correction -------------------------------------


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


def test_correction_buckets_are_isolated_across_rebinds():
    store = FeedbackStore()
    broad = binding_region({"cut": 50.0})
    narrow = binding_region({"cut": 0.05})
    for _ in range(4):
        store.record(make_feedback(region=broad, selectivity=0.5))
        store.record(make_feedback(region=narrow, selectivity=0.001))
    corrector = EstimateCorrector(store)
    sel_broad, n_broad = corrector.observed_selectivity("q", broad)
    sel_narrow, n_narrow = corrector.observed_selectivity("q", narrow)
    assert sel_broad == pytest.approx(0.5)
    assert sel_narrow == pytest.approx(0.001)
    assert n_broad == n_narrow == 4
    # The corrections pull the same static estimate in opposite directions.
    correct_broad = corrector.correction_fn("q", broad)
    correct_narrow = corrector.correction_fn("q", narrow)
    assert correct_broad(0.1) > 0.3
    assert correct_narrow(0.1) < 0.05
    # A region with no history yields no correction at all.
    assert corrector.correction_fn("q", binding_region({"cut": 1e9})) is None


def test_correction_weight_grows_with_history():
    store = FeedbackStore()
    corrector = EstimateCorrector(store)
    store.record(make_feedback(selectivity=0.9))
    one = corrector.correction_fn("q", ())(0.1)
    for _ in range(15):
        store.record(make_feedback(selectivity=0.9))
    many = corrector.correction_fn("q", ())(0.1)
    assert 0.1 < one < many < 0.9
    assert many == pytest.approx(0.9, abs=0.11)


# -- end-to-end adaptive loop --------------------------------------------------


def test_adaptive_explores_then_settles_per_region(session):
    query = session.prepare(SQL, options=ADAPTIVE)
    runtime = session.adaptive
    seen = []
    for _ in range(3 * runtime.min_observations + 4):
        query.bind(cut=50.0).execute()
        seen.append(query.compiled.strategy)
    # Every candidate explored, then the choice settles (stops changing).
    assert set(seen) == {"auto", "serial", "parallel"}
    settle = 3 * runtime.min_observations
    assert len(set(seen[settle:])) == 1
    # This is the measured path (kernel times off the wall clock): *which*
    # strategy wins is the machine's business, that one does is ours.
    assert seen[-1] in STRATEGIES
    # Feedback was recorded under the statement's plan-cache key, with the
    # observed selectivity attached.
    records = runtime.feedback.dump()
    assert all(r["statement_key"] == query.compiled.sql.strip().lower()
               or r["statement_key"] for r in records)
    assert any(r["filter_selectivity"] is not None for r in records)


def test_history_of_other_statements_does_not_cut_exploration(session):
    runtime = session.adaptive
    others = [session.prepare(SQL.replace(":cut", str(cut)), options=ADAPTIVE)
              for cut in (10.0, 30.0, 70.0, 90.0)]
    for other in others:
        for _ in range(3):
            other.execute()
    assert runtime.feedback.total_recorded >= 12
    query = session.prepare(EXACT_SQL, options=ADAPTIVE)
    explore = 3 * runtime.min_observations
    seen = []
    for _ in range(explore + 3):
        query.bind(cut=50.0).execute()
        seen.append(query.compiled.strategy)
    # Every candidate runs min_observations times before the choice settles,
    # however much history the runtime holds on other statements.
    assert {name: seen[:explore].count(name) for name in STRATEGIES} \
        == {name: runtime.min_observations for name in STRATEGIES}
    assert len(set(seen[explore:])) == 1


def test_compile_and_replan_plan_only_the_chosen_candidate(session,
                                                           monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs["parallelism"])
        return plan_ir(*args, **kwargs)

    monkeypatch.setattr(adaptive_planner, "plan_ir", spy)
    query = session.prepare(SQL, options=ADAPTIVE)
    assert (query.compiled.strategy, len(calls)) == ("auto", 1)
    query.bind(cut=50.0).execute()
    assert len(calls) == 1
    # "serial" is now the least observed candidate: the next execution
    # re-plans to it, planning that candidate alone.
    query.bind(cut=50.0).execute()
    assert query.compiled.strategy == "serial"
    assert calls[1:] == [1]


def test_adaptive_keeps_independent_choices_per_region(session, monkeypatch):
    # Which shape wins a region is asserted below, so the cost must not be a
    # measurement: measured, serial and lanes are ~20% apart on 20k rows and
    # the winner flipped one run in eight.
    monkeypatch.setattr(CPUDevice, "report_time", bytes_charge)
    query = session.prepare(SQL, options=ADAPTIVE)
    runtime = session.adaptive
    rounds = 3 * runtime.min_observations + 4
    for _ in range(rounds):
        query.bind(cut=99.0).execute()
    broad_choice = query.compiled.strategy
    broad_shape = query.compiled.operator_plan.root.pretty()
    for _ in range(rounds):
        query.bind(cut=0.02).execute()
    narrow_shape = query.compiled.operator_plan.root.pretty()
    # Flipping back needs no re-exploration: the broad region's history is
    # intact, so the first broad execution re-plans straight to its winner.
    query.bind(cut=99.0).execute()
    assert query.compiled.strategy == broad_choice
    regions = {r["region"] for r in runtime.feedback.dump()}
    assert len(regions) == 2
    # On 20k rows the broad regime profits from lanes ("auto" and
    # "parallel" plan identically there, so either name may win the tie);
    # the needle regime settles on a serial shape — either the "serial"
    # strategy or "auto" whose corrected estimate fell under the threshold.
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
    # The batch noted its first binding's region, so a re-plan it triggers
    # compiles with that region's corrections (not the unparameterized one).
    key = session.adaptive.statement_key(adaptive.compiled.sql)
    assert session.adaptive._last_region[key] == binding_region({"cut": 50.0})
    # Batches explore too: the second one runs under the next candidate.
    first = adaptive.compiled.strategy
    adaptive.execute_many([{"cut": cut} for cut in cuts])
    assert adaptive.compiled.strategy != first
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


def test_batch_only_traffic_still_explores_and_settles(session):
    gate = WorkerGate()
    session.register_model("gate", gate)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    cuts = [50.0, 52.0, 54.0]
    expected = [sorted_rows(static.bind(cut=cut).execute()) for cut in cuts]
    seen = []
    with ServingRuntime(session, workers=1, batch_window=8) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        for _ in range(8):
            results = submit_behind_gate(serving, gate, statement, cuts)
            seen.append(statement.prepared.compiled.strategy)
            assert [sorted_rows(r) for r in results] == expected
        stats = serving.stats()
    # Every request of the statement ran inside a batch ...
    assert stats["batches"] == 8 and stats["batched_requests"] == 24
    # ... and each batch's three observations advance the rotation one
    # candidate (min_observations is 2), after which the choice holds.
    assert seen[:3] == ["auto", "serial", "parallel"]
    assert len(set(seen[3:])) == 1 and seen[-1] in STRATEGIES
    assert session.adaptive.feedback.total_recorded == 24


def test_inspection_calls_do_not_replan(session, tmp_path):
    query = session.prepare(
        SQL, options=ADAPTIVE.replace(backend="torchscript"))
    for _ in range(session.adaptive.min_observations):
        query.bind(cut=50.0).execute()
    # "auto" is now fully observed, so the next *execution* re-plans to the
    # next candidate; looking at the graph or exporting it must not.
    compiled = query.compiled
    before = (session.adaptive.replan_count, compiled.strategy,
              compiled.executor)
    compiled.executor_graph(params={"cut": 50.0})
    compiled.export_onnx(str(tmp_path / "q.onnx"), params={"cut": 50.0})
    assert (session.adaptive.replan_count, compiled.strategy,
            compiled.executor) == before
    query.bind(cut=50.0).execute()
    assert session.adaptive.replan_count == before[0] + 1
    assert compiled.strategy != before[1]


def test_non_adaptive_statements_record_nothing(session):
    session.prepare(SQL).bind(cut=50.0).execute()
    assert len(session.adaptive.feedback) == 0
    assert session.adaptive.replan_count == 0
