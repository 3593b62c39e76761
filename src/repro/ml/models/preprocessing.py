"""Feature preprocessing: scaling and text vectorization.

Both transformers can run in two worlds: a plain numpy ``transform`` used at
training time, and a tensor-program ``transform_tensor`` used when the fitted
pipeline is compiled into a prediction query (the Hummingbird-style path).
"""

from __future__ import annotations

import numpy as np

from repro.core import strings
from repro.errors import ModelError
from repro.tensor import Tensor, ops


class StandardScaler:
    """Zero-mean / unit-variance scaling."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def transform_tensor(self, X: Tensor) -> Tensor:
        """The same transformation expressed with tensor ops."""
        self._check_fitted()
        mean = ops.tensor(self.mean_, device=X.device)
        scale = ops.tensor(self.scale_, device=X.device)
        return ops.div(ops.sub(ops.cast(X, "float64"), mean), scale)

    def _check_fitted(self) -> None:
        if self.mean_ is None:
            raise ModelError("StandardScaler is not fitted")


class BagOfWordsVectorizer:
    """Bag-of-words presence features over a fixed vocabulary.

    At training time it works on Python strings; at prediction-query time the
    same features are produced from the padded ``(n × m)`` string tensor using
    sliding-window containment — one tensor sub-program per vocabulary word —
    so text featurization becomes part of the end-to-end tensor program.
    """

    def __init__(self, vocabulary: list[str] | None = None, max_features: int = 64):
        self.vocabulary = list(vocabulary) if vocabulary is not None else None
        self.max_features = max_features

    def fit(self, texts: list[str]) -> "BagOfWordsVectorizer":
        if self.vocabulary is not None:
            return self
        counts: dict[str, int] = {}
        for text in texts:
            for token in set(text.lower().split()):
                counts[token] = counts.get(token, 0) + 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        self.vocabulary = [token for token, _ in ranked[: self.max_features]]
        return self

    def transform(self, texts: list[str]) -> np.ndarray:
        self._check_fitted()
        out = np.zeros((len(texts), len(self.vocabulary)), dtype=np.float64)
        for i, text in enumerate(texts):
            lowered = text.lower()
            for j, word in enumerate(self.vocabulary):
                if word in lowered:
                    out[i, j] = 1.0
        return out

    def fit_transform(self, texts: list[str]) -> np.ndarray:
        return self.fit(texts).transform(texts)

    def transform_tensor(self, codes: Tensor) -> Tensor:
        """Presence features from a padded string tensor (lower-cased match).

        The synthetic review corpus is lower-case, so a direct code-point
        containment test is sufficient; each vocabulary word contributes one
        substring-search (``find``) sub-program.
        """
        self._check_fitted()
        columns = [ops.cast(strings.contains(codes, word), "float64")
                   for word in self.vocabulary]
        return ops.stack(columns, axis=1) if columns else ops.zeros(
            (codes.shape[0], 0), dtype="float64", device=codes.device
        )

    def _check_fitted(self) -> None:
        if self.vocabulary is None:
            raise ModelError("BagOfWordsVectorizer is not fitted")
