"""Property-based tests (hypothesis) for the tensor runtime invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.operators.join import HashJoinOperator
from repro.tensor import GraphInterpreter, ops, passes, trace

floats = hnp.arrays(np.float64, st.integers(1, 40),
                    elements=st.floats(-1e6, 1e6, allow_nan=False))
ints = hnp.arrays(np.int64, st.integers(1, 40), elements=st.integers(-1000, 1000))


@given(floats, floats)
@settings(max_examples=50, deadline=None)
def test_elementwise_ops_match_numpy(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    np.testing.assert_allclose(ops.add(ops.tensor(a), ops.tensor(b)).numpy(), a + b)
    np.testing.assert_allclose(ops.mul(ops.tensor(a), ops.tensor(b)).numpy(), a * b)
    np.testing.assert_array_equal(ops.le(ops.tensor(a), ops.tensor(b)).numpy(), a <= b)


@given(ints)
@settings(max_examples=50, deadline=None)
def test_argsort_produces_a_permutation_that_sorts(values):
    order = ops.argsort(ops.tensor(values)).numpy()
    assert sorted(order.tolist()) == list(range(len(values)))
    assert (values[order] == np.sort(values, kind="stable")).all()


@given(ints)
@settings(max_examples=50, deadline=None)
def test_unique_inverse_reconstructs_input(values):
    unique_values, inverse, counts = ops.unique(ops.tensor(values))
    np.testing.assert_array_equal(unique_values.numpy()[inverse.numpy()], values)
    assert counts.numpy().sum() == len(values)
    assert (np.diff(unique_values.numpy()) > 0).all()


@given(ints, st.integers(1, 8))
@settings(max_examples=50, deadline=None)
def test_scatter_add_equals_groupby_sum(values, num_groups):
    groups = np.abs(values) % num_groups
    result = ops.scatter_add(ops.tensor(groups), ops.tensor(values.astype(np.float64)),
                             size=num_groups).numpy()
    expected = np.zeros(num_groups)
    for g, v in zip(groups, values):
        expected[g] += v
    np.testing.assert_allclose(result, expected)


@given(floats)
@settings(max_examples=50, deadline=None)
def test_boolean_mask_then_concat_is_a_partition(values):
    tensor = ops.tensor(values)
    mask = ops.ge(tensor, 0.0)
    kept = ops.boolean_mask(tensor, mask)
    dropped = ops.boolean_mask(tensor, ops.logical_not(mask))
    assert kept.shape[0] + dropped.shape[0] == len(values)
    np.testing.assert_allclose(np.sort(np.concatenate([kept.numpy(), dropped.numpy()])),
                               np.sort(values))


@given(floats, floats)
@settings(max_examples=30, deadline=None)
def test_traced_graph_replays_identically(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]

    def fn(x, y):
        return ops.sum_(ops.mul(ops.add(x, y), 2.0))

    graph = trace(fn, [ops.tensor(a), ops.tensor(b)])
    eager = fn(ops.tensor(a), ops.tensor(b)).item()
    replayed = GraphInterpreter(graph).run([ops.tensor(a), ops.tensor(b)])[0].item()
    np.testing.assert_allclose(replayed, eager)


@given(floats)
@settings(max_examples=30, deadline=None)
def test_optimization_passes_preserve_semantics(values):
    def fn(x):
        doubled = ops.mul(x, 2.0)
        doubled_again = ops.mul(x, 2.0)           # CSE target
        unused = ops.add(x, 123.0)                # DCE target  # noqa: F841
        return ops.sum_(ops.add(doubled, doubled_again))

    example = [ops.tensor(values)]
    graph = trace(fn, example)
    before = GraphInterpreter(graph.clone()).run(example)[0].item()
    optimized = passes.optimize(graph)
    after = GraphInterpreter(optimized).run(example)[0].item()
    np.testing.assert_allclose(after, before)
    assert len(optimized.nodes) <= 4


# -- key densification: direct-address vs sort paths --------------------------
#
# ``unique`` and stable ``argsort`` choose their algorithm per call from the
# observed key span; the join's direct-address probe replaced an
# argsort + 2 x searchsorted probe.  Both sides of every choice must return
# the same arrays: values, dtypes and order.

_UNIQUE = ops.OP_REGISTRY["unique"].kernel
_ARGSORT = ops.OP_REGISTRY["argsort"].kernel
_I64 = np.iinfo(np.int64)


def _sorted_unique(a):
    values, inverse, counts = np.unique(a, return_inverse=True,
                                        return_counts=True)
    return [values, inverse.astype(np.int64), counts.astype(np.int64)]


def _assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def _key_cases():
    """Seeded inputs around every edge the path choice has."""
    rng = np.random.default_rng(20220913)
    slack, floor = ops.DIRECT_ADDRESS_SLACK, ops.DIRECT_ADDRESS_MIN_SPAN
    cases = {
        "empty": np.zeros(0, dtype=np.int64),
        "one_row": np.array([42], dtype=np.int64),
        "all_equal": np.full(500, -7, dtype=np.int64),
        "negative": rng.integers(-900, -100, 3000),
        "already_dense": rng.permutation(5000).astype(np.int64),
        "dict_codes_int32": rng.integers(0, 25, 4000).astype(np.int32),
        "int8_full_range": rng.integers(-128, 128, 700).astype(np.int8),
        "uint64_high": (rng.integers(0, 50, 300).astype(np.uint64)
                        + np.uint64(2**64 - 60)),
        "near_int64_max": _I64.max - rng.integers(0, 100, 400),
        "near_int64_min": _I64.min + rng.integers(0, 100, 400),
        "whole_int64_range": np.array([_I64.min, _I64.max, 0, -1, _I64.max],
                                      dtype=np.int64),
        "epoch_ns_dates": (rng.integers(8000, 10000, 5000)
                           * 86_400_000_000_000),
        "sparse_large": rng.integers(0, 1 << 40, 6000),
        "four_radix_digits": rng.integers(-(1 << 50), 1 << 50, 5000),
    }
    n = 2000
    for name, span in (("under", slack * n - 1), ("at", slack * n),
                       ("over", slack * n + 1), ("floor_under", floor - 1),
                       ("floor_at", floor)):
        size = n if not name.startswith("floor") else 10
        keys = rng.integers(0, span + 1, size)
        keys[0], keys[-1] = 0, span   # pin max - min to exactly ``span``
        cases[f"span_{name}_threshold"] = keys + 17
    return cases


def test_unique_paths_agree_on_every_edge(monkeypatch):
    taken = []
    direct = ops._direct_unique
    monkeypatch.setattr(
        ops, "_direct_unique",
        lambda a, low, span: taken.append(span) or direct(a, low, span))
    for name, keys in _key_cases().items():
        taken.clear()
        _assert_same_arrays(_UNIQUE([keys], {}), _sorted_unique(keys))
        bounds = ops._integer_span(keys)
        if bounds is None:
            assert not taken, name
            continue
        low, span = bounds
        assert span == int(keys.max()) - int(keys.min()), name  # never wraps
        limit = max(ops.DIRECT_ADDRESS_MIN_SPAN,
                    ops.DIRECT_ADDRESS_SLACK * keys.size)
        assert bool(taken) == (span < limit), name
        if span < 1 << 16:  # the direct path is exact whenever it is forced
            _assert_same_arrays(direct(keys, low, span), _sorted_unique(keys))
    assert not _UNIQUE([np.zeros(0, dtype=np.int64)], {})[0].size


def _join_id_cases():
    """``name -> (left keys, right keys, expected path)`` around every edge of
    ``join_ids``' path choice."""
    rng = np.random.default_rng(20250611)
    slack, floor = ops.DIRECT_ADDRESS_SLACK, ops.DIRECT_ADDRESS_MIN_SPAN

    def split(keys, at):
        return keys[:at], keys[at:]

    def spanning(low, span, size):
        keys = rng.integers(0, span + 1, size)
        keys[0], keys[-1] = 0, span   # pin max - min to exactly ``span``
        return rng.permutation(keys) + low

    empty = np.zeros(0, dtype=np.int64)
    dense = rng.integers(0, 900, 1500)
    cases = {
        "both_empty": (empty, empty, "identity"),
        "left_empty": (empty, dense, "identity"),
        "right_empty": (dense, empty, "identity"),
        "dense": (*split(dense, 1000), "identity"),
        "shifted": (*split(dense + (1 << 40), 600), "unique"),
        "negative": (*split(rng.integers(-900, -100, 3000), 2000), "unique"),
        "int32": (*split(dense.astype(np.int32), 700), "unique"),
        "int64_near_max": (*split(_I64.max - rng.integers(0, 100, 400), 250),
                           "unique"),
        "int64_near_min": (*split(_I64.min + rng.integers(0, 100, 400), 150),
                           "unique"),
        "uint64_near_2_63": (*split(rng.integers(0, 50, 300).astype(np.uint64)
                                    + np.uint64(2**63 - 25), 100), "unique"),
        "uint64_high": (*split(rng.integers(0, 50, 300).astype(np.uint64)
                               + np.uint64(2**64 - 60), 200), "unique"),
        "whole_int64_range": (np.array([_I64.min, 0, -1], dtype=np.int64),
                              np.array([_I64.max, 0, _I64.min]), "unique"),
        "sparse": (*split(rng.integers(0, 1 << 40, 3000), 1000), "unique"),
        "float_nan": (np.array([0.5, np.nan, 2.0, np.nan, -1.0]),
                      np.array([np.nan, 2.0, 7.0, 0.5]), "unique"),
    }
    n = 2000
    # The keys are their own ids while ``max`` (not ``max - min``) is under
    # the limit and no key is negative.
    for low, path in ((0, "identity"), (-5, "unique")):
        cases[f"span_under_limit_{low}"] = (
            *split(spanning(low, slack * n - 1, n), 1200), path)
        cases[f"floor_under_limit_{low}"] = (
            *split(spanning(low, floor - 1, 10), 4), path)
    cases["span_at_limit"] = (*split(spanning(0, slack * n, n), 1200), "unique")
    cases["floor_at_limit"] = (*split(spanning(0, floor, 10), 3), "unique")
    return cases


def test_join_id_paths_keep_key_equality_on_every_edge():
    """``left_ids[i] == right_ids[j]`` exactly when ``left[i] == right[j]``
    (NaN equal to NaN, as ``unique`` has it), on both paths, and every id
    lies in ``0..count-1``."""
    for name, (left, right, path) in _join_id_cases().items():
        left_ids, right_ids, count = ops.OP_REGISTRY["join_ids"].kernel(
            [left, right], {})
        taken = ("identity" if left_ids is left and right_ids is right
                 else "unique")
        assert taken == path, name
        assert count.dtype == np.int64 and count.shape == (), name
        keys = np.concatenate([left, right])
        ids = np.concatenate([left_ids, right_ids])
        assert ids.dtype == np.int64 and ids.shape == keys.shape, name
        assert ((0 <= ids) & (ids < count)).all(), name
        same_key = keys[:, None] == keys[None, :]
        if keys.dtype.kind == "f":
            same_key |= np.isnan(keys)[:, None] & np.isnan(keys)[None, :]
        np.testing.assert_array_equal(ids[:, None] == ids[None, :], same_key,
                                      err_msg=name)


def test_join_output_equals_the_joint_unique_output(monkeypatch):
    """Every join answers exactly — row order and float bits included — what
    it answers when ``join_ids`` is forced onto the joint densification, on
    serial, ``parallelism=4`` and ``devices=4`` plans: key builds, key probes
    and N:M joins over keys that are their own ids, negative keys, sparse keys,
    float keys and NULL keys."""
    from repro import DataFrame, ExecutionOptions, TQPSession
    from repro.core.tuning import tuning_overrides

    rng = np.random.default_rng(29)
    dim_keys = rng.permutation(400)
    fact_keys = rng.integers(-3, 420, 3000)

    def keyed(prefix, keys):
        return {f"{prefix}k": keys, f"{prefix}n": -keys - 1,
                f"{prefix}s": keys * 1_000_003, f"{prefix}f": keys / 2.0}

    session = TQPSession()
    session.register("dim", DataFrame({
        **keyed("d", dim_keys), "g": dim_keys % 7,
        "w": rng.uniform(0, 1, dim_keys.size)}))
    session.register("fact", DataFrame({
        **keyed("f", fact_keys), "x": rng.uniform(0, 100, fact_keys.size)}))
    queries = [
        f"select g, sum(x * w) as s, count(*) as c from fact "
        f"{kind} join dim on f{suffix} = d{suffix} group by g order by g"
        for kind in ("", "left") for suffix in "knsf"]
    queries += [
        f"select d{suffix}, x * w as p from dim join fact on d{suffix} = f{suffix}"
        for suffix in "knsf"]
    queries += [
        "select count(*) as c, sum(a.x - b.x) as s from fact a "
        "join fact b on a.fk = b.fk",
        "select g, sum(x) as s from fact join dim "
        "on case when x > 30 then fn end = dn group by g order by g",
        "select count(*) as c from fact where fk in (select dk from dim)"]
    for options in (ExecutionOptions(backend="torchscript"),
                    ExecutionOptions(backend="torchscript", parallelism=4),
                    ExecutionOptions(backend="torchscript", devices=4)):
        for sql in queries:
            with tuning_overrides(parallel_threshold_rows=0):
                compiled = session.compile(sql, options=options)
            got = compiled.run().to_dict()
            with monkeypatch.context() as forced:
                forced.setattr(ops, "DIRECT_ADDRESS_SLACK", 0)
                forced.setattr(ops, "DIRECT_ADDRESS_MIN_SPAN", 0)
                assert compiled.run().to_dict() == got, (options, sql)


def test_argsort_paths_agree_on_every_edge():
    for name, keys in _key_cases().items():
        want = np.argsort(keys, kind="stable").astype(np.int64)
        _assert_same_arrays(_ARGSORT([keys], {}), [want])
        bounds = ops._integer_span(keys)
        if bounds is not None and not bounds[1] >> 63:
            got = ops._radix_argsort(keys, *bounds)
            _assert_same_arrays([got.astype(np.int64)], [want])
    # Stability on heavy duplicates, above the row threshold the kernel uses.
    rng = np.random.default_rng(7)
    for high in (3, 1 << 16, 1 << 20, 1 << 33):
        keys = rng.integers(-5, high, ops.RADIX_ARGSORT_MIN_ROWS * 2)
        _assert_same_arrays(
            _ARGSORT([keys], {"kind": "stable"}),
            [np.argsort(keys, kind="stable").astype(np.int64)])


def test_non_integer_inputs_take_the_sort_fallback(monkeypatch):
    def boom(*args):
        raise AssertionError("direct-address path taken for a non-integer key")

    monkeypatch.setattr(ops, "_direct_unique", boom)
    monkeypatch.setattr(ops, "_radix_argsort", boom)
    rng = np.random.default_rng(3)
    n = ops.RADIX_ARGSORT_MIN_ROWS * 2
    for keys in (rng.integers(0, 2, n).astype(bool),
                 np.round(rng.uniform(0, 9, n), 1),
                 rng.integers(0, 9, (n, 2))):
        assert ops._integer_span(keys) is None
        _assert_same_arrays(_UNIQUE([keys], {}), _sorted_unique(keys))
        _assert_same_arrays(
            _ARGSORT([keys], {}),
            [np.argsort(keys, kind="stable", axis=-1).astype(np.int64)])


def _sorted_match_pairs(left_ids, right_ids):
    """The probe this PR replaced: sort the build side, searchsorted twice."""
    order = np.argsort(right_ids, kind="stable")
    sorted_right = right_ids[order]
    start = np.searchsorted(sorted_right, left_ids, side="left")
    counts = np.searchsorted(sorted_right, left_ids, side="right") - start
    offsets = np.cumsum(counts) - counts
    pair_left = np.repeat(np.arange(left_ids.size), counts)
    within = np.arange(counts.sum()) - np.repeat(offsets, counts)
    pair_right = order[np.repeat(start, counts) + within]
    return [counts, pair_left, pair_right]


def _join(key_side=None, **kwargs):
    return HashJoinOperator(None, None, "inner", [], [], key_side=key_side,
                            **kwargs)


def _count(num_ids):
    return ops.tensor(num_ids, dtype="int64")


def test_direct_address_match_pairs_equals_sorted_probe():
    rng = np.random.default_rng(11)
    shapes = [(0, 0, 1), (0, 5, 3), (5, 0, 3), (1, 1, 1), (40, 40, 1),
              (300, 7, 7), (7, 300, 400), (5000, 3000, 900),
              (3000, 5000, 100_000)]
    for n_left, n_right, num_ids in shapes:
        left = rng.integers(0, num_ids, n_left)
        right = rng.integers(0, num_ids, n_right)
        want = _sorted_match_pairs(left, right)
        counts, pairs = _join()._match_pairs(
            ops.tensor(left), ops.tensor(right), _count(num_ids), True)
        _assert_same_arrays(
            [counts.numpy(), pairs[0].numpy(), pairs[1].numpy()], want)
        counts, pairs = _join()._match_pairs(
            ops.tensor(left), ops.tensor(right), _count(num_ids), False)
        assert pairs is None
        _assert_same_arrays([counts.numpy()], want[:1])


def test_key_side_match_pairs_equal_the_general_construction():
    """A key build / key probe side (unique ids, bar the one fresh NULL id a
    side's rows may share and the other side never carries) gives the general
    path's counts and pairs, order included."""
    rng = np.random.default_rng(17)
    for n_key, n_other, num_ids in [(0, 0, 0), (0, 6, 4), (6, 0, 8), (1, 1, 1),
                                    (50, 400, 80), (400, 50, 400),
                                    (3000, 9000, 5000)]:
        key = rng.permutation(num_ids)[:n_key]
        other = rng.integers(0, max(num_ids, 1), n_other)
        key[:3], other[:2] = num_ids, num_ids + 1       # NULLs of each side
        for key_side, (left, right) in (("right", (other, key)),
                                        ("left", (key, other))):
            args = (ops.tensor(left), ops.tensor(right), _count(num_ids + 2))
            want_counts, want = _join()._match_pairs(*args, True)
            counts, pairs = _join(key_side)._match_pairs(*args, True)
            _assert_same_arrays(
                [counts.numpy(), pairs[0].numpy(), pairs[1].numpy()],
                [want_counts.numpy(), want[0].numpy(), want[1].numpy()])


def test_power_of_two_mod_mask_equals_np_mod():
    """``mod`` masks instead of dividing for a positive power-of-two scalar
    divisor of signed integers; every other operand pair is ``np.mod``."""
    rng = np.random.default_rng(5)
    arrays = [rng.integers(_I64.min, _I64.max, 500, endpoint=True),
              rng.integers(-128, 128, 500).astype(np.int8),
              rng.integers(-1000, 1000, 500).astype(np.int32),
              rng.integers(0, 255, 500).astype(np.uint8),
              rng.normal(0, 50, 500), np.zeros(0, dtype=np.int64)]
    for a in arrays:
        for d in (1, 2, 4, 8, 64, 1 << 30, 3, 6, -4):
            for b in (np.asarray(d), np.int64(d), np.asarray(d, dtype=np.int32),
                      np.asarray(float(d)), d % 100):
                want = np.mod(a, b)
                got = ops._mod_np(a, b)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
    lanes = rng.integers(1, 9, 500)
    np.testing.assert_array_equal(ops._mod_np(arrays[0], lanes),
                                  np.mod(arrays[0], lanes))
    np.testing.assert_array_equal(
        ops.mod(ops.tensor(arrays[0]), 4).numpy(), np.mod(arrays[0], 4))
