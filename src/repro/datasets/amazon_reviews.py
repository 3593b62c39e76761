"""Synthetic Amazon product reviews (stand-in for the Kaggle dataset of §3.3).

The real "Consumer Reviews of Amazon Products" dataset requires a Kaggle
download; this generator produces a deterministic corpus with the same shape:
a brand column, a 1–5 star rating, and free-text reviews whose vocabulary is
correlated with the rating, so that sentiment classifiers trained on it have
signal and the paper's Figure-4 query (predicted vs. user-rated positives per
brand) produces meaningful output.
"""

from __future__ import annotations

import numpy as np

from repro.dataframe import DataFrame

BRANDS = ["Amazon", "Fire", "Kindle", "Echo", "Ring", "Eero"]

POSITIVE_WORDS = ["great", "excellent", "love", "perfect", "amazing", "fantastic",
                  "wonderful", "easy", "fast", "recommend"]
NEGATIVE_WORDS = ["terrible", "awful", "broken", "slow", "disappointed", "waste",
                  "refund", "poor", "bad", "useless"]
NEUTRAL_WORDS = ["tablet", "device", "battery", "screen", "bought", "price",
                 "works", "product", "using", "daily", "case", "charger"]

#: The vocabulary a text classifier should look at (used by the examples).
SENTIMENT_VOCABULARY = POSITIVE_WORDS + NEGATIVE_WORDS


def generate_reviews(num_reviews: int = 2000, seed: int = 7,
                     positive_fraction: float = 0.6) -> DataFrame:
    """Generate ``num_reviews`` synthetic reviews.

    Columns: ``review_id``, ``brand``, ``rating`` (1..5), ``text``.
    Ratings ≥ 4 draw mostly positive vocabulary, ratings ≤ 2 mostly negative,
    rating 3 is mixed — mirroring how sentiment correlates with stars.
    """
    rng = np.random.default_rng(seed)
    brands = np.array(BRANDS, dtype=object)[rng.integers(0, len(BRANDS), num_reviews)]
    positive = rng.random(num_reviews) < positive_fraction
    rating = np.where(positive, rng.integers(4, 6, num_reviews),
                      rng.integers(1, 4, num_reviews)).astype(np.int64)

    # Each review draws from the generator in turn (the texts depend on that
    # order).  The word pools are arrays built once, and a pool indexed by
    # ``integers(0, len(pool), size)`` is what ``rng.choice(pool, size)``
    # draws, without its per-call argument handling.
    positive_pool = np.array(POSITIVE_WORDS, dtype=object)
    negative_pool = np.array(NEGATIVE_WORDS, dtype=object)
    mixed_pool = np.array(POSITIVE_WORDS + NEGATIVE_WORDS, dtype=object)
    neutral_pool = np.array(NEUTRAL_WORDS, dtype=object)
    texts = np.empty(num_reviews, dtype=object)
    for i, stars in enumerate(rating.tolist()):
        sentiment_pool = (mixed_pool if stars == 3 else positive_pool
                          if stars >= 4 else negative_pool)
        n_sentiment = rng.integers(1, 4)
        n_neutral = rng.integers(2, 6)
        words = np.concatenate((
            sentiment_pool[rng.integers(0, len(sentiment_pool), n_sentiment)],
            neutral_pool[rng.integers(0, len(neutral_pool), n_neutral)]))
        rng.shuffle(words)
        texts[i] = " ".join(words)

    return DataFrame({
        "review_id": np.arange(1, num_reviews + 1, dtype=np.int64),
        "brand": brands,
        "rating": rating,
        "text": texts,
    })


def training_split(frame: DataFrame, train_fraction: float = 0.7, seed: int = 11
                   ) -> tuple[list[str], np.ndarray, list[str], np.ndarray]:
    """Split reviews into (train_texts, train_labels, test_texts, test_labels).

    The label is 1 for ratings ≥ 4 ("positive") and 0 otherwise.
    """
    rng = np.random.default_rng(seed)
    n = frame.num_rows
    order = rng.permutation(n)
    cut = int(n * train_fraction)
    texts = frame["text"]
    labels = (frame["rating"] >= 4).astype(np.int64)
    train_idx, test_idx = order[:cut], order[cut:]
    return (list(texts[train_idx]), labels[train_idx],
            list(texts[test_idx]), labels[test_idx])
