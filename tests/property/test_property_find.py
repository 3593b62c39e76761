"""Seeded property tests for the ``find`` substring-search kernel.

``ops.find`` sits under ``LIKE``, ``contains`` and the PREDICT text
featurizer, so it is checked against Python's ``str.find`` row by row, on the
shapes where candidate refinement over a flat buffer could go wrong (row
boundaries, short rows, empty inputs, strided views), and across the three
ways a traced program runs.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core import strings
from repro.core.columnar import encode_strings
from repro.tensor import ScriptedProgram, onnxlike, ops, trace
from repro.tensor.passes import optimize

SEED = 20220815

# Small alphabets so needles actually occur; the last two carry code points
# beyond Latin-1 and beyond the BMP.
ALPHABETS = ("ab", "abc ", "aé漢", "xy😀z")


def _random_strings(rng, alphabet, n, max_len):
    letters = np.array(list(alphabet), dtype=object)
    return ["".join(rng.choice(letters, size=rng.integers(0, max_len + 1)))
            for _ in range(n)]


def _find(values, start, needle):
    codes = ops.tensor(encode_strings(values))
    return ops.find(codes, start, [ord(ch) for ch in needle]).tolist()


@pytest.mark.parametrize("alphabet", ALPHABETS)
def test_find_matches_str_find_row_by_row(alphabet):
    rng = np.random.default_rng([SEED, len(alphabet)])
    for _ in range(40):
        values = _random_strings(rng, alphabet, int(rng.integers(1, 30)), 12)
        needle = "".join(rng.choice(list(alphabet), size=rng.integers(1, 5)))
        # Per-row starts run past the end of the widest row.
        start = rng.integers(0, 15, size=len(values))
        expected = [v.find(needle, int(s)) for v, s in zip(values, start)]
        assert _find(values, ops.tensor(start), needle) == expected
        assert _find(values, 0, needle) == [v.find(needle) for v in values]


def test_match_never_spans_two_full_width_rows():
    # "abcd" + "efgh" contains "cdef" only across the row boundary.
    assert _find(["abcd", "efgh"], 0, "cdef") == [-1, -1]
    assert _find(["abcd", "efgh"], 0, "de") == [-1, -1]
    assert _find(["abcd", "efgh"], 0, "d") == [3, -1]
    assert _find(["aaaa", "aaaa", "aaaa"], 0, "aaaaa") == [-1, -1, -1]
    assert _find(["aaaa", "aaaa"], ops.tensor([1, 0]), "aaaa") == [-1, 0]


def test_empty_input_and_oversized_needles():
    empty = ops.tensor(np.zeros((0, 6), dtype=np.int32))
    out = ops.find(empty, ops.tensor(np.zeros(0, dtype=np.int64)), [97])
    assert out.shape == (0,) and out.dtype.name == "int64"
    # Longer than the width: nowhere.  Longer than some rows: only the pad
    # zeros follow those rows, and a needle holds none.
    assert _find(["ab", "abc"], 0, "abcd") == [-1, -1]
    assert _find(["ab", "abcab", "b", ""], 0, "abc") == [-1, 0, -1, -1]
    assert _find(["ab", "abcab", "b", ""], 0, "b") == [1, 1, 0, -1]


def test_start_past_the_end_and_negative_start():
    values = ["abab", "ab", ""]
    assert _find(values, ops.tensor([4, 2, 0]), "ab") == [-1, -1, -1]
    assert _find(values, ops.tensor([99, 99, 99]), "ab") == [-1, -1, -1]
    assert _find(values, ops.tensor([2, 0, 0]), "ab") == [2, 0, -1]
    assert _find(values, ops.tensor([-3, -1, -1]), "ab") == [0, 0, -1]


def test_adversarial_repeated_prefix():
    # Every position survives every refinement step but the last.
    values = ["a" * 40, "a" * 39 + "b", "a" * 20 + "b" + "a" * 19]
    needle = "a" * 7 + "b"
    assert _find(values, 0, needle) == [v.find(needle) for v in values]
    assert _find(values, ops.tensor([0, 33, 14]), needle) == [-1, -1, -1]


def test_non_contiguous_int32_view():
    rng = np.random.default_rng(SEED)
    values = _random_strings(rng, "abc", 40, 10)
    base = encode_strings(values, 12)
    assert base.dtype == np.int32
    every_other = ops.tensor(base[::2])
    assert not every_other.data.flags.c_contiguous
    assert ops.find(every_other, 0, [97, 98]).tolist() == \
        [v.find("ab") for v in values[::2]]
    # A column slice drops the first code point of every row.
    tail = ops.tensor(base[:, 1:])
    assert not tail.data.flags.c_contiguous
    assert ops.find(tail, 0, [98, 99]).tolist() == \
        [v[1:].find("bc") for v in values]


def _like_regex(pattern):
    return re.compile(
        "^" + ".*".join(re.escape(p) for p in pattern.split("%")) + "$", re.S)


def _guarded_like(value, pattern):
    """The previous formulation, one row at a time: the same segment walk,
    with the ``length >= cursor`` guard it applied to every pattern."""
    segments = pattern.split("%")
    if len(segments) == 1:
        return value == pattern
    leading, trailing = segments[0], segments[-1]
    result, cursor = value.startswith(leading), len(leading)
    for segment in filter(None, segments[1:-1]):
        position = value.find(segment, cursor)
        result = result and position >= 0
        cursor = max(position, 0) + len(segment)
    if trailing:
        return (result and value.endswith(trailing)
                and len(value) - len(trailing) >= cursor)
    return result and len(value) >= cursor


def test_like_without_length_guard_equals_guarded_formulation():
    """Dropping ``row_lengths`` where no trailing anchor needs it changes no
    verdict: old (always guarded) = new = ``re`` on random patterns and rows."""
    rng = np.random.default_rng(SEED + 1)
    for _ in range(150):
        alphabet = ALPHABETS[int(rng.integers(len(ALPHABETS)))]
        values = _random_strings(rng, alphabet, int(rng.integers(1, 20)), 8)
        pieces = ["".join(rng.choice(list(alphabet), size=rng.integers(0, 4)))
                  for _ in range(int(rng.integers(1, 5)))]
        pattern = "%".join(pieces)
        got = strings.like(ops.tensor(encode_strings(values)), pattern).tolist()
        regex = _like_regex(pattern)
        assert got == [bool(regex.match(v)) for v in values], (pattern, values)
        assert got == [_guarded_like(v, pattern) for v in values], (pattern, values)


def test_like_computes_row_lengths_only_for_a_trailing_anchor():
    codes = ops.tensor(encode_strings(["special requests", "none"]))

    def op_counts(pattern):
        return trace(lambda c: strings.like(c, pattern), [codes]).op_counts()

    assert "count_nonzero" not in op_counts("%special%requests%")
    assert "count_nonzero" not in op_counts("spec%")
    assert op_counts("%special%requests")["count_nonzero"] == 1


@pytest.mark.parametrize("pattern", ["%ab%ab%", "a%b", "%ba", "b%ab%", "%a%"])
def test_traced_like_eager_interpreter_codegen_and_onnx_agree(pattern):
    rng = np.random.default_rng(SEED + 2)
    replay_values = _random_strings(rng, "ab", 45, 8)
    # Same row count as the replay input: a traced program bakes its inputs'
    # shapes, as a registered table's are fixed until it is re-registered.
    traced_on = ops.tensor(encode_strings(_random_strings(rng, "ab", 45, 8), 8))
    replay_on = ops.tensor(encode_strings(replay_values, 8))
    eager = strings.like(replay_on, pattern).numpy()
    regex = _like_regex(pattern)
    assert eager.tolist() == [bool(regex.match(v)) for v in replay_values]

    graph = optimize(trace(lambda c: strings.like(c, pattern), [traced_on]))
    find_nodes = [n for n in graph.nodes if n.op == "find"]
    assert find_nodes and all(
        isinstance(n.attrs["needle"], list)
        and all(isinstance(code, int) for code in n.attrs["needle"])
        for n in find_nodes)
    round_tripped = onnxlike.loads(onnxlike.dumps(graph))
    for program in (ScriptedProgram(graph.clone(), executor="interpret"),
                    ScriptedProgram(graph.clone(), executor="compiled"),
                    ScriptedProgram(round_tripped, executor="interpret"),
                    ScriptedProgram(round_tripped.clone(), executor="compiled")):
        np.testing.assert_array_equal(program.run([replay_on])[0].numpy(), eager)
