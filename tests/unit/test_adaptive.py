"""Unit tests for adaptive execution.

Every adaptive execution — the first included, alone, in ``execute_many``
or in a serving batch — prices all three candidates on its own profile and
reports the cheapest, and the statement then names that candidate.  Nothing
is stored between executions, so nothing lags behind a change of binding,
and a ``register()`` racing the pricing never lands one generation's choice
on another generation's plans.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.core.session as session_module
from repro import DataFrame, ExecutionOptions, TQPSession
from repro.adaptive import price
from repro.core.planner import scope_family
from repro.serve import ServingRuntime

N_ROWS = 20000
CANDIDATES = ["auto", "serial", "parallel"]


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


def cheapest(compiled, result) -> str:
    """Check that ``result`` reported the cheapest price of its own profile
    under ``compiled``'s candidates; return that candidate."""
    prices = price(compiled.candidates, result, compiled.executor.cost_model)
    assert list(prices) == CANDIDATES
    assert result.reported_s == min(prices.values())
    return min(prices, key=prices.__getitem__)


def assert_names(compiled, strategy: str) -> None:
    assert compiled.strategy == strategy
    assert compiled.operator_plan is compiled.candidates[strategy]


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


# -- pricing -------------------------------------------------------------------


def test_every_execution_reports_its_own_cheapest_candidate(session):
    # This is the measured path (kernel times off the wall clock): *which*
    # candidate is cheapest is the machine's business; that each execution,
    # the first included, reports the cheapest of its own prices is ours.
    query = session.prepare(SQL, options=ADAPTIVE)
    compiled = query.compiled
    assert compiled.strategy == "auto"  # the compiled plan, before any run
    for _ in range(6):
        result = query.bind(cut=50.0).execute()
        assert result.profile is not None
        assert_names(compiled, cheapest(compiled, result))


def test_price_reports_every_candidate_under_its_lanes(session):
    query = session.prepare(SQL, options=ADAPTIVE)
    compiled = query.compiled
    report = compiled.executor.cost_model.report_time
    for _ in range(4):
        result = query.bind(cut=50.0).execute()
        prices = price(compiled.candidates, result,
                       compiled.executor.cost_model)
        assert list(prices) == CANDIDATES
        assert prices == {
            name: report(result.measured_s, result.profile, plan.lanes)
            for name, plan in compiled.candidates.items()}
    # The three candidates are three lanes maps over one set of operators.
    lanes = {name: plan.lanes for name, plan in compiled.candidates.items()}
    assert lanes["serial"] == {}
    assert lanes["auto"] and set(lanes["auto"]) <= set(lanes["parallel"])


def test_a_binding_regime_change_is_priced_by_its_first_execution(
        session, bytes_priced):
    # Which shape wins a regime is asserted below, so the cost must not be a
    # measurement: measured, serial and lanes are ~20% apart on 20k rows and
    # the winner flipped one run in eight.
    query = session.prepare(SQL, options=ADAPTIVE)
    compiled = query.compiled
    # On 20k rows the broad regime profits from lanes ("auto" and
    # "parallel" plan identically there and tie, so "auto" wins); the
    # needle regime is cheapest serial, from its first execution on.
    for cut, strategy, morsel in ((99.0, "auto", True), (0.02, "serial", False),
                                  (0.02, "serial", False), (99.0, "auto", True)):
        result = query.bind(cut=cut).execute()
        assert cheapest(compiled, result) == strategy
        assert_names(compiled, strategy)
        assert ("Morsel" in compiled.operator_plan.pretty()) == morsel


def test_adaptive_results_match_static_execution(session, frames_match):
    adaptive = session.prepare(SQL, options=ADAPTIVE)
    static = session.prepare(
        "select grp, sum(v) as sv2 from t where v < :cut group by grp")
    reference = static.bind(cut=50.0).run()
    for _ in range(8):
        frames_match(adaptive.bind(cut=50.0).run(), reference,
                     context=f"strategy={adaptive.compiled.strategy}")


def test_execute_many_prices_every_binding(session):
    adaptive = session.prepare(EXACT_SQL, options=ADAPTIVE)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    compiled = adaptive.compiled
    cuts = [50.0 + i for i in range(10)]
    for _ in range(2):
        results = adaptive.execute_many([{"cut": cut} for cut in cuts])
        choices = [cheapest(compiled, result) for result in results]
        # The statement names the cheapest candidate of the batch's last
        # execution.
        assert_names(compiled, choices[-1])
        for cut, result in zip(cuts, results):
            assert sorted_rows(result) \
                == sorted_rows(static.bind(cut=cut).execute())


def test_served_executions_each_report_their_cheapest(session, bytes_priced):
    """Many workers over one adaptive statement: each result, whichever
    worker ran it, reports the cheapest price of its own profile."""
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    with ServingRuntime(session, workers=4, max_queue_depth=256) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        tickets = [serving.submit(statement, params={"cut": 50.0 + i % 6})
                   for i in range(24)]
        results = [ticket.result(timeout=60) for ticket in tickets]
        assert serving.stats()["completed"] == 24
    compiled = statement.prepared.compiled
    choices = {cheapest(compiled, result) for result in results}
    # Priced by bytes, every binding of this regime favours one candidate,
    # so whichever execution wrote last named it.
    assert len(choices) == 1
    assert_names(compiled, choices.pop())
    for i, result in enumerate(results):
        assert sorted_rows(result) \
            == sorted_rows(static.bind(cut=50.0 + i % 6).execute())


def test_concurrent_callers_leave_the_statement_on_a_priced_candidate(
        session, bytes_priced):
    """Caller threads executing one statement at once, half of them in the
    needle regime and half in the broad one: each result reports its own
    cheapest, and the statement ends on one of those candidates, never
    naming one candidate while pointing at another's plan."""
    query = session.prepare(EXACT_SQL, options=ADAPTIVE)
    compiled = query.compiled
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    cuts = {0.02: "serial", 99.0: "auto"}
    expected = {cut: sorted_rows(static.bind(cut=cut).execute())
                for cut in cuts}
    barrier = threading.Barrier(8)
    failures = []

    def hammer(worker):
        cut = list(cuts)[worker % 2]
        barrier.wait()
        try:
            for _ in range(6):
                result = query.bind(cut=cut).execute()
                assert cheapest(compiled, result) == cuts[cut]
                assert sorted_rows(result) == expected[cut]
        except AssertionError as error:  # pragma: no cover - reported below
            failures.append(error)

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert failures == []
    assert compiled.strategy in cuts.values()
    assert_names(compiled, compiled.strategy)


def test_batched_serving_prices_every_execution(session, bytes_priced):
    gate = WorkerGate()
    session.register_model("gate", gate)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    # Distinct bindings, repeated: duplicates share one replay.
    cuts = [50.0 + i % 5 for i in range(30)]
    with ServingRuntime(session, workers=1, max_queue_depth=64,
                        batch_window=8) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        compiled = statement.prepared.compiled
        results = submit_behind_gate(serving, gate, statement, cuts)
        stats = serving.stats()
    assert stats["batches"] == 4 and stats["batched_requests"] == 30
    assert stats["deduped_requests"] == 3 + 3 + 3 + 1
    # Every result reports its own cheapest; the last execution's names it.
    choices = {cheapest(compiled, result) for result in results}
    assert len(choices) == 1
    assert_names(compiled, choices.pop())
    for cut, result in zip(cuts, results):
        assert sorted_rows(result) == sorted_rows(static.bind(cut=cut).execute())


def test_batch_only_traffic_is_priced_too(session, bytes_priced):
    """A statement that only ever runs inside serving batches follows each
    batch's regime from that batch on: no execution outside a batch is
    needed to price it, and no batch runs on the choice of the one before."""
    gate = WorkerGate()
    session.register_model("gate", gate)
    static = session.prepare(EXACT_SQL.replace("sk", "sk2"))
    regimes = (([99.0, 98.0, 97.0], "auto"), ([0.01, 0.015, 0.02], "serial"),
               ([0.01, 0.015, 0.02], "serial"), ([99.0, 98.0, 97.0], "auto"))
    with ServingRuntime(session, workers=1, batch_window=8) as serving:
        statement = serving.prepare(EXACT_SQL, options=ADAPTIVE)
        compiled = statement.prepared.compiled
        for cuts, strategy in regimes:
            results = submit_behind_gate(serving, gate, statement, cuts)
            assert [cheapest(compiled, r) for r in results] == [strategy] * 3
            assert_names(compiled, strategy)
            assert [sorted_rows(r) for r in results] \
                == [sorted_rows(static.bind(cut=cut).execute()) for cut in cuts]
        stats = serving.stats()
    # Every request of the statement ran inside a batch.
    assert stats["batches"] == 4 and stats["batched_requests"] == 12


def test_inspection_calls_do_not_price_or_switch(session, tmp_path,
                                                 monkeypatch):
    query = session.prepare(
        SQL, options=ADAPTIVE.replace(backend="torchscript"))
    query.bind(cut=50.0).execute()
    priced = []
    monkeypatch.setattr(session_module, "price",
                        lambda *args: priced.append(args) or price(*args))
    compiled = query.compiled
    before = (compiled.strategy, compiled.operator_plan, compiled.executor)
    compiled.executor_graph(params={"cut": 50.0})
    compiled.export_onnx(str(tmp_path / "q.onnx"), params={"cut": 50.0})
    assert (compiled.strategy, compiled.operator_plan,
            compiled.executor) == before
    assert priced == []


def test_non_adaptive_statements_are_not_priced(session, monkeypatch):
    priced = []
    monkeypatch.setattr(session_module, "price",
                        lambda *args: priced.append(args) or price(*args))
    compiled = session.prepare(SQL).compiled
    result = compiled.execute(params={"cut": 50.0})
    assert result.profile is None and priced == []
    assert (compiled.strategy, compiled.candidates) == (None, {})


def test_a_register_during_pricing_keeps_the_current_generation(
        session, frames, monkeypatch):
    """A ``register()`` between an execution and its pricing, followed by an
    execution that refreshes the handle, leaves the handle on the new
    generation: the late choice of the old one is dropped, not written onto
    the new generation's plans."""
    query = session.prepare(EXACT_SQL, options=ADAPTIVE)
    compiled = query.compiled
    old = compiled.candidates
    injected = []

    def racing_price(candidates, result, cost_model):
        if not injected:
            injected.append(True)
            session.register("t", frames)
            query.bind(cut=50.0).execute()  # refreshes the handle
        return price(candidates, result, cost_model)

    monkeypatch.setattr(session_module, "price", racing_price)
    query.bind(cut=50.0).execute()
    assert injected
    assert compiled.candidates is not old
    assert session._plan_is_current(compiled)
    assert compiled.operator_plan is compiled.candidates[compiled.strategy]
