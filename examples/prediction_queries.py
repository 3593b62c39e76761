"""Scenario 3 (paper §3.3): prediction queries with the PREDICT keyword.

Task 1 — sentiment classification over the (synthetic) Amazon reviews corpus,
reproducing the Figure-4 query: per brand, compare the number of positive
ratings with the number of reviews the model predicts as positive.

Task 2 — regression on the (synthetic) Iris dataset with a traditional ML
model compiled to tensors via the Hummingbird-like GEMM strategy.

Run with:  python examples/prediction_queries.py
"""

import numpy as np

from repro import DataFrame, ExecutionOptions, TQPSession
from repro.datasets import amazon_reviews, iris
from repro.ml.models import (
    BagOfWordsVectorizer,
    GradientBoostingRegressor,
    LogisticRegression,
    Pipeline,
)
from repro.viz import format_outline


def sentiment_task(session: TQPSession) -> None:
    reviews = amazon_reviews.generate_reviews(num_reviews=2000)
    train_texts, train_labels, test_texts, test_labels = \
        amazon_reviews.training_split(reviews)

    model = Pipeline([
        ("vectorizer", BagOfWordsVectorizer(
            vocabulary=amazon_reviews.SENTIMENT_VOCABULARY)),
        ("classifier", LogisticRegression(epochs=200)),
    ]).fit(train_texts, train_labels)
    accuracy = float((model.predict(test_texts) == test_labels).mean())
    print(f"sentiment classifier accuracy on held-out reviews: {accuracy:.3f}")

    session.register("amazon_reviews", reviews)
    session.register_model("sentiment_classifier", model)

    # The Figure-4 query: relational operators and the ML model compile into a
    # single tensor program, executable end-to-end on any device.
    query = session.compile(
        """
        select brand,
               sum(case when rating >= 3 then 1 else 0 end) as actual_positive,
               sum(predict('sentiment_classifier', text)) as predicted_positive
        from amazon_reviews
        group by brand
        order by brand
        """,
        options=ExecutionOptions(backend="torchscript", device="cuda"),
    )
    result = query.execute()
    print(result.to_dataframe())
    print(f"simulated GPU execution time: {result.reported_s * 1e3:.2f} ms\n")

    print("executor graph (Figure-4 style outline):")
    print(format_outline(query.executor_graph(), max_nodes=15))
    print()


def iris_regression_task(session: TQPSession) -> None:
    table = iris.generate_iris()
    X, y = iris.regression_arrays(table)
    model = GradientBoostingRegressor(n_estimators=15, max_depth=2).fit(X, y)
    mae = float(np.abs(model.predict(X) - y).mean())
    print(f"iris petal-width regressor MAE: {mae:.3f}")

    session.register("iris", table)
    session.register_model("petal_width_regressor", model)

    result = session.sql(
        """
        select species,
               avg(petal_width) as actual_width,
               avg(predict('petal_width_regressor',
                           sepal_length, sepal_width, petal_length)) as predicted_width
        from iris
        group by species
        order by species
        """
    )
    print(result)


def main() -> None:
    session = TQPSession()
    sentiment_task(session)
    iris_regression_task(session)


if __name__ == "__main__":
    main()
