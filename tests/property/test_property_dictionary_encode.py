"""Seeded equivalence tests for sort-free string factorization.

``dictionary_encode`` finds the distinct values of a column by hashing and
sorts only those.  The body it replaced — ``np.unique(...,
return_inverse=True)`` over an object array, i.e. a sort of every row — is
kept here as the reference: dictionary tensor, codes, dtypes and order must be
identical, so no plan, trace or result can tell the two apart.  The codes are
int32; the dictionary's code unit is uint8 when every code point of the
distinct values is below 256, else int32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import encode_strings
from repro.storage import DictionaryEncoding, dictionary_encode, encode_column

SEED = 20221001

# The last two carry code points beyond Latin-1 and beyond the BMP.
ALPHABETS = ("ab", "ab ", "aé漢", "xy😀z")


def _reference(values):
    """The sorting body ``dictionary_encode`` had: ``(dictionary, codes)``."""
    cleaned = np.array(["" if v is None else str(v) for v in values],
                       dtype=object)
    uniques, inverse = np.unique(cleaned, return_inverse=True)
    return encode_strings(list(uniques)), inverse.astype(np.int32)


def _unit(values):
    """The code unit the rule picks for ``values``, counted here from the
    code points themselves."""
    text = "".join("" if v is None else str(v) for v in values)
    return np.uint8 if max(map(ord, text), default=0) < 256 else np.int32


def _assert_identical(values):
    dictionary, codes = _reference(values)
    column = dictionary_encode(values)
    assert isinstance(column.encoding, DictionaryEncoding)
    got_codes = column.tensor.numpy()
    got_dictionary = column.encoding.dictionary.numpy()
    assert got_codes.dtype == codes.dtype == np.int32
    assert got_dictionary.dtype == dictionary.dtype == _unit(values)
    assert got_codes.shape == codes.shape
    assert got_dictionary.shape == dictionary.shape
    np.testing.assert_array_equal(got_codes, codes)
    np.testing.assert_array_equal(got_dictionary, dictionary)


class _Odd:
    """A non-``str`` object whose text collides with a plain string."""

    def __str__(self) -> str:
        return "7"


@pytest.mark.parametrize("values", [
    [],
    ["only"],
    [None],
    ["same"] * 9,
    [None, "a", None, "b", None],
    ["", None, "x", "", None],                      # '' beside None
    [7, "7", 7.0, _Odd(), (1, 2), True, None],      # non-str objects
    ["é", "e", "漢字", "漢", "😀", "\U0001F600a", "z", "￿"],
    ["é", "e", "ÿ", None, "e"],                     # Latin-1: still uint8
    ["e", "ā"],                                     # one point past it
    ["a", "a ", "a  ", " a", "a\t", "a"],           # trailing spaces differ
    ["b", "a", "c", "a", "b", "c", "a"],
    [f"v{i:03d}" for i in range(200)][::-1],        # n distinct values
], ids=lambda v: f"{len(v)}rows")
def test_edge_cases_match_the_sorting_reference(values):
    _assert_identical(values)
    _assert_identical(np.array(values, dtype=object))


def test_unicode_dtype_input_matches_the_sorting_reference():
    values = np.array(["pear", "apple", "pear ", "fig", "apple", ""])
    assert values.dtype.kind == "U"
    _assert_identical(values)
    assert dictionary_encode(values).encoding.dictionary.dtype.name == "uint8"
    wide = np.array(["pear", "漢", "pear"])
    _assert_identical(wide)
    assert dictionary_encode(wide).encoding.dictionary.dtype.name == "int32"


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_random_columns_match_the_sorting_reference(alphabet):
    rng = np.random.default_rng([SEED, len(alphabet)])
    letters = np.array(list(alphabet), dtype=object)
    for _ in range(60):
        pool = ["".join(rng.choice(letters, size=rng.integers(0, 6)))
                for _ in range(int(rng.integers(1, 12)))] + [None]
        rows = int(rng.integers(0, 80))
        picks = rng.integers(0, len(pool), size=rows)
        _assert_identical([pool[i] for i in picks])


def test_policy_fallback_counts_like_the_sorting_reference():
    """Without catalog statistics ``encode_column`` counts the distinct values
    itself: the decision must land where ``len(np.unique(...))`` put it, on
    both sides of the NDV threshold."""
    rows = 64
    for ndv in (1, 31, 32, 33, 64):
        values = np.array([f"s{i % ndv}" for i in range(rows)], dtype=object)
        expected = len(_reference(values)[0]) <= rows // 2
        assert (encode_column(values).encoding is not None) == expected, ndv
