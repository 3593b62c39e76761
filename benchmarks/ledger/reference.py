"""Data, models, and the reference every timed result is checked against.

The reference never comes from the engine under test: TPC-H rows are
produced by ``repro.baselines.RowEngine`` (a row-at-a-time interpreter of
the same physical plan) and committed under ``expected/`` because the row
engine is too slow to run on every benchmark run; PREDICT statements and
parameterized serving shapes are checked against the row engine live.
"""

from __future__ import annotations

import json
import sys
import time

from common import (
    TPCH_SEED,
    expected_path,
    load_expected,
    normalized_rows,
    rows_mismatch,
)


def statement_name(query_id: int) -> str:
    return f"q{query_id:02d}"


def tpch_tables(scale_factor: float) -> dict:
    """Generated in memory on every set-up; never the on-disk ``.tpch_cache``."""
    from repro.datasets import tpch

    return tpch.generate_tables(scale_factor, seed=TPCH_SEED)


def sentiment_corpus(num_reviews: int, epochs: int):
    """The Amazon-reviews table and a sentiment model fitted on it.

    ``(3000, 150)`` is the Figure-4 benchmark's corpus; ``(400, 40)`` is the
    serving simulator's (``repro.serve.register_prediction_model``), whose
    PREDICT shape replays in ~15 ms instead of ~130 ms.
    """
    from repro.datasets import amazon_reviews
    from repro.ml.models import (
        BagOfWordsVectorizer,
        LogisticRegression,
        Pipeline,
    )

    reviews = amazon_reviews.generate_reviews(num_reviews=num_reviews)
    train_texts, train_labels, _, _ = amazon_reviews.training_split(reviews)
    model = Pipeline([
        ("vectorizer", BagOfWordsVectorizer(
            vocabulary=amazon_reviews.SENTIMENT_VOCABULARY)),
        ("classifier", LogisticRegression(epochs=epochs)),
    ]).fit(train_texts, train_labels)
    return reviews, model


def row_engine_rows(sql: str, tables: dict, model=None, params=None
                    ) -> list[list]:
    """Sorted, normalised rows of ``sql`` on the row engine."""
    from repro.baselines.rowengine import run_sql
    from repro.ml import compile_row_fn

    models = ({"sentiment_classifier": compile_row_fn(model)}
              if model is not None else None)
    return normalized_rows(run_sql(sql, tables, models=models, params=params))


def _tpch_reference(scale_factor: float) -> dict:
    from repro.datasets import tpch

    tables = tpch_tables(scale_factor)
    statements = {}
    for query_id in tpch.ALL_QUERY_IDS:
        start = time.perf_counter()
        rows = row_engine_rows(tpch.query(query_id, scale_factor), tables)
        statements[statement_name(query_id)] = rows
        print(f"  {statement_name(query_id)}: {len(rows)} rows in "
              f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return statements


def regen_expected(scale_factor: float) -> None:
    """Write ``expected/tpch_sf<sf>.json`` from the row engine."""
    path = expected_path(scale_factor)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"generator": "repro.baselines.RowEngine",
               "scale_factor": scale_factor, "seed": TPCH_SEED,
               "statements": _tpch_reference(scale_factor)}
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {path}")


def verify_expected(scale_factor: float) -> bool:
    """Re-run the row engine and compare with the committed file."""
    committed = load_expected(scale_factor)
    fresh = _tpch_reference(scale_factor)
    good = True
    for name in sorted(set(committed) | set(fresh)):
        if name not in committed or name not in fresh:
            problem = "missing on one side"
        else:
            problem = rows_mismatch(fresh[name], committed[name])
        if problem:
            good = False
            print(f"{name}: {problem}")
    print(f"expected/tpch_sf{scale_factor:g}.json: "
          f"{'matches' if good else 'DIFFERS FROM'} the row engine")
    return good
