"""Figure 4 / Scenario 3: the sentiment prediction query and its executor graph.

Reproduces the paper's Figure-4 query (per-brand actual vs predicted positive
reviews over the Amazon corpus) end-to-end as a single tensor program, checks
the executor-graph artifact can be produced, and times execution on CPU and
the simulated GPU, against the row-engine + per-row model baseline (the
"separate runtimes" architecture the paper contrasts with).
"""

from __future__ import annotations

import pytest

from repro.baselines import RowEngine
from repro.bench.harness import time_rowengine, time_tqp
from repro.core.session import TQPSession
from repro.datasets import amazon_reviews
from repro.frontend import sql_to_physical
from repro.ml import compile_row_fn
from repro.ml.models import BagOfWordsVectorizer, LogisticRegression, Pipeline
from repro.viz import graph_summary
from repro import ExecutionOptions

FIGURE4_SQL = """
select brand,
       sum(case when rating >= 3 then 1 else 0 end) as actual_positive,
       sum(predict('sentiment_classifier', text)) as predicted_positive
from amazon_reviews
group by brand
order by brand
"""


@pytest.fixture(scope="module")
def sentiment_env():
    reviews = amazon_reviews.generate_reviews(num_reviews=3000)
    train_texts, train_labels, _, _ = amazon_reviews.training_split(reviews)
    model = Pipeline([
        ("vectorizer", BagOfWordsVectorizer(
            vocabulary=amazon_reviews.SENTIMENT_VOCABULARY)),
        ("classifier", LogisticRegression(epochs=150)),
    ]).fit(train_texts, train_labels)
    session = TQPSession()
    session.register("amazon_reviews", reviews)
    session.register_model("sentiment_classifier", model)
    return session, reviews, model


@pytest.mark.parametrize("backend,device", [
    ("pytorch", "cpu"),
    ("torchscript", "cpu"),
    ("torchscript", "cuda"),
])
def test_figure4_prediction_query_tqp(benchmark, sentiment_env, backend, device):
    session, _, _ = sentiment_env
    compiled = session.compile(FIGURE4_SQL, options=ExecutionOptions(backend=backend, device=device))
    inputs = session.prepare_inputs(compiled.executor)
    compiled.executor.execute(inputs)

    outcome = benchmark.pedantic(lambda: compiled.executor.execute(inputs),
                                 rounds=5, iterations=1, warmup_rounds=1)
    frame = outcome.to_dataframe()
    assert frame.columns == ["brand", "actual_positive", "predicted_positive"]
    assert frame.num_rows == len(amazon_reviews.BRANDS)
    benchmark.extra_info["reported_ms"] = outcome.reported_s * 1e3
    benchmark.extra_info["device"] = device


def test_figure4_executor_graph_artifact(sentiment_env):
    session, _, _ = sentiment_env
    compiled = session.compile(FIGURE4_SQL, options=ExecutionOptions(backend="torchscript", device="cpu"))
    graph = compiled.executor_graph()
    summary = graph_summary(graph)
    # The graph must contain both relational tensor ops (scatter/aggregation)
    # and the model's ops (matmul from the logistic layer, one substring
    # search per vocabulary word from the text featurizer) — i.e. it really
    # is one end-to-end tensor program.
    assert summary["op_counts"].get("matmul", 0) >= 1
    assert summary["op_counts"].get("find", 0) >= 1
    assert summary["op_counts"].get("scatter_add", 0) >= 1


def test_figure4_baseline_separate_runtimes(benchmark, sentiment_env):
    """Row engine + per-row model invocation (the architecture TQP replaces)."""
    session, reviews, model = sentiment_env
    plan = sql_to_physical(FIGURE4_SQL, session.catalog)
    engine = RowEngine({"amazon_reviews": reviews},
                       models={"sentiment_classifier": compile_row_fn(model)})

    frame = benchmark.pedantic(lambda: engine.execute_to_dataframe(plan),
                               rounds=1, iterations=1)
    assert frame.num_rows == len(amazon_reviews.BRANDS)


def test_figure4_tqp_beats_separate_runtimes_on_the_wall_clock(sentiment_env):
    """What the figure is about: one tensor program is faster than a row
    engine calling the model per row — on ``perf_counter``, same corpus."""
    session, reviews, model = sentiment_env
    tqp = time_tqp(session, FIGURE4_SQL,
                   ExecutionOptions(backend="torchscript", device="cpu"),
                   runs=9, warmup=2)
    baseline = time_rowengine(
        session, {"amazon_reviews": reviews}, FIGURE4_SQL, runs=5, warmup=1,
        models={"sentiment_classifier": compile_row_fn(model)},
        label="RowEngine + per-row model")
    cuda = time_tqp(session, FIGURE4_SQL,
                    ExecutionOptions(backend="torchscript", device="cuda"),
                    runs=5, warmup=1)
    print(f"\nFigure 4, {reviews.num_rows} reviews, median of runs:"
          f"\n  TQP torchscript/cpu   {tqp.median_wall_ms:8.2f} ms wall-clock"
          f"\n  separate runtimes     {baseline.median_wall_ms:8.2f} ms wall-clock"
          f"\n  TQP torchscript/cuda  {cuda.median_ms:8.2f} ms MODELLED "
          f"(cost model; {cuda.median_wall_ms:.2f} ms wall-clock on this host)")
    assert tqp.result.equals(cuda.result)
    assert tqp.median_wall_s < baseline.median_wall_s
