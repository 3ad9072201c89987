import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embalign import (
    PairList,
    all_genuine_pairs,
    embed_view,
    generate_identity_cloud,
    identity_disjoint_split,
    sample_impostor_pairs,
    reports,
    sample_pairs_capped,
)
from embalign.errors import ArgumentError, DegenerateDataError
from embalign.splits import (
    _TAG_GENUINE_CAP, _TAG_IMPOSTOR, _TAG_SPLIT, SplitSpec, _merged, _pair_counts, _rng,
    check_fraction, check_pair_caps, check_seeds, label_codes,
)


def labels_for(n_ids, per_id):
    return [f"p{k}" for k in range(n_ids) for _ in range(per_id)]


def test_split_counts():
    spec = identity_disjoint_split(labels_for(10, 3), 0.7, seed=0)
    assert len(spec.train_identities) == 7
    assert len(spec.test_identities) == 3
    assert not spec.train_identities & spec.test_identities


def test_split_deterministic():
    labels = labels_for(12, 2)
    a = identity_disjoint_split(labels, 0.5, seed=9)
    b = identity_disjoint_split(labels, 0.5, seed=9)
    assert a.to_dict() == b.to_dict()


def test_split_seeds_differ_but_stay_disjoint():
    labels = labels_for(8, 2)
    a = identity_disjoint_split(labels, 0.5, seed=0)
    b = identity_disjoint_split(labels, 0.5, seed=1)
    for spec in (a, b):
        assert not spec.train_identities & spec.test_identities
        assert sorted(np.concatenate((spec.train_rows, spec.test_rows))) == list(range(16))


def test_split_bad_fraction():
    with pytest.raises(ArgumentError):
        identity_disjoint_split(labels_for(4, 1), 1.5, seed=0)


@pytest.mark.parametrize("draw", [
    lambda seed: identity_disjoint_split(labels_for(4, 2), 0.5, seed),
    lambda seed: sample_impostor_pairs(labels_for(4, 2), 3, seed),
    lambda seed: sample_pairs_capped(labels_for(4, 2), 2, 3, seed),
    lambda seed: generate_identity_cloud(4, 2, 3, seed=seed),
    lambda seed: embed_view(generate_identity_cloud(4, 2, 3), 4, view_seed=seed),
])
def test_negative_seed_is_argument_error(draw):
    # numpy's own ValueError used to escape from default_rng
    draw(0)
    with pytest.raises(ArgumentError, match="seed must be nonnegative"):
        draw(-1)


@pytest.mark.parametrize("seed", [0.9, 1.5, True, np.True_, "3", "x", None])
def test_non_integer_seed_is_argument_error(seed):
    # 0.9 and 1.5 used to run as seeds 0 and 1, True as 1 and "3" as 3
    for draw in (lambda: check_seeds([seed]),
                 lambda: identity_disjoint_split(labels_for(4, 2), 0.5, seed)):
        with pytest.raises(ArgumentError, match="not an integer"):
            draw()
    assert check_seeds([np.int64(3), np.uint8(1)]) == [3, 1]


def test_repeated_seed_is_argument_error():
    assert check_seeds((3, 1, 0)) == [3, 1, 0]
    # a repeated seed would be counted twice in every mean and std
    with pytest.raises(ArgumentError, match="seed 3 is repeated"):
        check_seeds([1, 3, 2, 3])


def test_split_too_few_identities():
    with pytest.raises(DegenerateDataError):
        identity_disjoint_split(["a", "a", "a"], 0.5, seed=0)


@given(
    n_ids=st.integers(2, 20),
    per_id=st.integers(1, 4),
    fraction=st.floats(0.05, 0.95),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200, deadline=None)
def test_split_invariants_property(n_ids, per_id, fraction, seed):
    labels = labels_for(n_ids, per_id)
    if int(n_ids * fraction) < 1 or int(n_ids * fraction) >= n_ids:
        return
    spec = identity_disjoint_split(labels, fraction, seed)
    assert not spec.train_identities & spec.test_identities
    rows = np.concatenate((spec.train_rows, spec.test_rows))
    assert sorted(rows) == list(range(len(labels)))
    for i in spec.train_rows:
        assert labels[i] in spec.train_identities
    for i in spec.test_rows:
        assert labels[i] in spec.test_identities


def test_genuine_pairs_triple():
    pl = all_genuine_pairs(["a", "a", "a", "b"])
    assert pl.to_dict()["pairs"] == [[0, 1, True], [0, 2, True], [1, 2, True]]


def test_genuine_pairs_all_distinct():
    assert all_genuine_pairs(["a", "b", "c"]).to_dict()["pairs"] == []


def test_genuine_pairs_two_by_two():
    pl = all_genuine_pairs(["a", "a", "b", "b"])
    assert len(pl.pairs) == 2
    assert all(g for _, _, g in pl.pairs)


def test_impostor_forced_single_pair():
    pl = sample_impostor_pairs(["a", "b"], 1, seed=0)
    assert pl.to_dict()["pairs"] == [[0, 1, False]]


def test_impostor_zero_count():
    assert sample_impostor_pairs(["a", "b"], 0, seed=0).to_dict()["pairs"] == []


def test_impostor_sample_distinct_and_cross_label():
    labels = labels_for(10, 5)
    pl = sample_impostor_pairs(labels, 100, seed=3)
    assert len(pl.pairs) == 100
    seen = set()
    for i, j, genuine in pl.pairs:
        assert not genuine
        assert i < j
        assert labels[i] != labels[j]  # brute-force label check
        assert (i, j) not in seen
        seen.add((i, j))
    again = sample_impostor_pairs(labels, 100, seed=3)
    assert again.to_dict() == pl.to_dict()


def test_impostor_near_exhaustive():
    labels = ["a", "b", "c"]
    pl = sample_impostor_pairs(labels, 3, seed=0)
    assert {(i, j) for i, j, _ in pl.pairs} == set(itertools.combinations(range(3), 2))


@pytest.mark.parametrize("count", [1, 3])  # rejection branch, exhaustive branch
@pytest.mark.parametrize("seed", range(5))
def test_impostor_pairs_keep_labels_that_differ_by_a_trailing_nul(count, seed):
    # numpy's fixed-width str dtype drops trailing NULs and merged 'a' and 'a\x00'
    labels = ["a", "a\x00", "b"]
    pl = sample_impostor_pairs(labels, count, seed)
    assert len(pl.pairs) == count
    assert all(labels[i] != labels[j] for i, j, _ in pl.pairs)
    if count == 3:
        assert {(i, j) for i, j, _ in pl.pairs} == set(itertools.combinations(range(3), 2))


def test_label_codes_keep_labels_that_differ_by_trailing_nuls():
    assert label_codes(["a", "a\x00", "b", "a\x00\x00", "a"]).tolist() == [0, 1, 3, 2, 0]
    assert label_codes([]).shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.text(st.characters(exclude_characters="\x00"), max_size=4),
                          st.integers(-3, 3)), max_size=30))
def test_label_codes_of_ordinary_labels_are_the_fixed_width_codes(labels):
    # the codes every report was made with: a fixed-width str array's factorization
    want = np.unique(np.asarray([str(l) for l in labels], dtype=str), return_inverse=True)[1]
    assert label_codes(labels).tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([9, 10, -1, -10, 100, 0]), st.integers(-2**40, 2**40)),
                max_size=30),
       st.sampled_from([np.int64, np.int32, np.intp]))
def test_label_codes_of_integers_number_their_strings(values, dtype):
    ints = np.array(values, dtype=np.int64).astype(dtype, casting="unsafe")
    assert label_codes(ints).tolist() == label_codes([str(i) for i in ints]).tolist()
    assert label_codes(ints).dtype == np.intp


def test_label_codes_of_integers_sort_as_strings():
    # "-1" < "-10" < "10" < "9": the order of the strings, not of the numbers
    assert label_codes(np.array([9, 10, -10, -1, 9])).tolist() == [3, 2, 1, 0, 3]


def test_impostor_infeasible():
    with pytest.raises(ArgumentError):
        sample_impostor_pairs(["a", "a", "b"], 10, seed=0)


@pytest.mark.parametrize("count", [3, 40])  # rejection branch, exhaustive branch
def test_pair_indices_are_python_ints(count):
    labels = labels_for(4, 3)  # 54 impostor pairs: more than half of them is exhaustive
    for pl in (sample_impostor_pairs(labels, count, seed=5),
               sample_pairs_capped(labels, 6, count, seed=5)):
        rows = pl.to_dict()["pairs"]
        assert all(type(i) is int and type(j) is int and type(g) is bool for i, j, g in rows)
        reports.canonical_json(pl.to_dict())


def test_capped_exhaustive_genuine():
    labels = ["a", "a", "b", "b"]
    pl = sample_pairs_capped(labels, 2, 1, seed=0)
    genuine = [p for p in pl.to_dict()["pairs"] if p[2]]
    assert genuine == all_genuine_pairs(labels).to_dict()["pairs"]


def test_capped_counts_and_balance():
    labels = labels_for(30, 4)
    pl = sample_pairs_capped(labels, 150, 150, seed=1)
    assert pl.n_genuine == 150 and pl.n_impostor == 150
    assert len({(i, j) for i, j, _ in pl.pairs}) == 300


def test_capped_infeasible_genuine():
    with pytest.raises(ArgumentError):
        sample_pairs_capped(["a", "a", "b"], 5, 1, seed=0)


def test_pairs_no_self_pairs():
    labels = labels_for(5, 3)
    pl = sample_pairs_capped(labels, 10, 10, seed=2)
    assert all(i != j for i, j, _ in pl.pairs)


def test_split_json_round_trip():
    spec = identity_disjoint_split(labels_for(6, 2), 0.5, seed=4)
    d = spec.to_dict()
    assert set(d["train_identities"]) == spec.train_identities
    assert d["train_rows"] == spec.train_rows.tolist()
    assert all(type(i) is int for i in d["train_rows"] + d["test_rows"])


def test_split_rows_are_read_only_intp_arrays():
    spec = identity_disjoint_split(labels_for(6, 2), 0.5, seed=4)
    for rows in (spec.train_rows, spec.test_rows):
        assert rows.dtype == np.intp
    with pytest.raises(ValueError, match="read-only"):
        spec.train_rows[0] = 5


# --- reference: the split as per-row loops over the label strings ------------


def ref_identity_disjoint_split(labels, fraction, seed):
    """The loop-based split: the JSON form of its rows, from frozenset lookups per row."""
    check_fraction(fraction)
    labels = [str(l) for l in labels]
    identities = sorted(set(labels))
    if len(identities) < 2:
        raise DegenerateDataError("need at least 2 distinct identities to split")
    order = _rng(_TAG_SPLIT, seed).permutation(len(identities))
    n_train = int(len(identities) * fraction)
    train_ids = frozenset(identities[i] for i in order[:n_train])
    test_ids = frozenset(identities) - train_ids
    return {
        "seed": seed,
        "train_fraction": fraction,
        "train_identities": sorted(train_ids),
        "test_identities": sorted(test_ids),
        "train_rows": [i for i, l in enumerate(labels) if l in train_ids],
        "test_rows": [i for i, l in enumerate(labels) if l in test_ids],
    }


def _split_outcome(fn, *args):
    """The JSON form of ``fn``'s split, or the type and message of its error."""
    try:
        out = fn(*args)
    except (ArgumentError, DegenerateDataError) as exc:
        return type(exc), str(exc)
    return out.to_dict() if isinstance(out, SplitSpec) else out


#: labels that differ only by trailing NULs, integers, unpadded numbers whose
#: string order is not their numeric order ("10" < "9"), and one identity alone
SPLIT_LABELS = st.one_of(
    st.lists(st.one_of(st.sampled_from(["a", "a\x00", "a\x00\x00", "b", "9", "10"]),
                       st.integers(0, 12)), max_size=40),
    st.lists(st.integers(0, 120).map(str), max_size=40),
    st.lists(st.just("only"), max_size=5),
)


@settings(max_examples=400, deadline=None)
@given(labels=SPLIT_LABELS,
       # small fractions leave the train part empty; 0 and 1 are out of range
       fraction=st.one_of(st.floats(0.01, 0.99), st.sampled_from([0.0, 1.0, 0.02, 0.5])),
       seed=st.integers(-1, 50))
def test_split_equals_the_reference(labels, fraction, seed):
    want = _split_outcome(ref_identity_disjoint_split, labels, fraction, seed)
    assert _split_outcome(identity_disjoint_split, labels, fraction, seed) == want


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.sampled_from("abcde"), max_size=30))
def test_pair_counts_equal_brute_force(labels):
    pairs = list(itertools.combinations(labels, 2))
    genuine = sum(a == b for a, b in pairs)
    assert _pair_counts(label_codes(labels)) == (genuine, len(pairs) - genuine)


# --- references: the tuple builders the array builders replaced -------------
# The sampling references return the JSON form of their pair list, which the
# tuple ``PairList.to_dict`` wrote; ``_ref_dict`` makes it of a tuple list.


def ref_genuine_pairs(labels):
    """Every same-label pair from a per-label dict, nested loops and a tuple sort."""
    labels = [str(l) for l in labels]
    by_label = {}
    for i, l in enumerate(labels):
        by_label.setdefault(l, []).append(i)
    pairs = []
    for l in sorted(by_label):
        rows = by_label[l]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                pairs.append((rows[a], rows[b], True))
    return sorted(pairs)


def _ref_dict(pairs, seed):
    return {"seed": seed, "pairs": [list(p) for p in pairs]}


def ref_impostor_pairs(labels, count, seed):
    """Impostor sampling as a Python loop: one RNG call per drawn pair, a tuple pool."""
    labels = [str(l) for l in labels]
    if count < 0:
        raise ArgumentError("count must be nonnegative")
    if len(set(labels)) < 2:
        raise DegenerateDataError("need at least 2 distinct identities")
    n = len(labels)
    genuine = sum(c * (c - 1) // 2 for c in Counter(labels).values())
    available = n * (n - 1) // 2 - genuine
    if count > available:
        raise ArgumentError(f"requested {count} impostor pairs, only {available} exist")
    rng = _rng(_TAG_IMPOSTOR, seed)
    chosen = set()
    if count > available // 2:
        pool = [(a, b) for a in range(n) for b in range(a + 1, n) if labels[a] != labels[b]]
        idx = rng.choice(len(pool), size=count, replace=False)
        chosen = {pool[i] for i in idx}
    else:
        while len(chosen) < count:
            a, b = rng.integers(0, n, size=2).tolist()
            if a == b or labels[a] == labels[b]:
                continue
            chosen.add((min(a, b), max(a, b)))
    return _ref_dict([(a, b, False) for a, b in sorted(chosen)], seed)


def ref_capped_pairs(labels, genuine_count, impostor_count, seed):
    """Capped samples of each class as tuples, merged by one tuple sort."""
    genuine = ref_genuine_pairs(labels)
    if genuine_count < 0 or impostor_count < 0:
        raise ArgumentError("pair counts must be nonnegative")
    if genuine_count > len(genuine):
        raise ArgumentError(
            f"requested {genuine_count} genuine pairs, only {len(genuine)} exist"
        )
    if genuine_count == len(genuine):
        g_sample = list(genuine)
    else:
        rng = _rng(_TAG_GENUINE_CAP, seed)
        idx = rng.choice(len(genuine), size=genuine_count, replace=False)
        g_sample = [genuine[i] for i in sorted(idx)]
    imp = [tuple(p) for p in ref_impostor_pairs(labels, impostor_count, seed)["pairs"]]
    return _ref_dict(sorted(g_sample + imp), seed)


def ref_intra_pairs(labels, seed):
    """Every genuine pair plus as many impostors: the intra protocol's former merge."""
    genuine = all_genuine_pairs(labels).to_dict()["pairs"]
    impostor = sample_impostor_pairs(labels, len(genuine), seed).to_dict()["pairs"]
    return {"seed": seed, "pairs": sorted(genuine + impostor)}


def _pairs_outcome(fn, *args):
    """The JSON form of ``fn``'s pair list, or the type and message of its error."""
    try:
        out = fn(*args)
    except (ArgumentError, DegenerateDataError) as exc:
        return type(exc), str(exc)
    return out.to_dict() if isinstance(out, PairList) else out


@settings(max_examples=200, deadline=None)
@given(labels=st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=40),
       seed=st.integers(0, 50))
def test_capped_sample_of_every_genuine_pair_is_the_intra_merge(labels, seed):
    n_genuine = _pair_counts(label_codes(labels))[0]
    got = _pairs_outcome(sample_pairs_capped, labels, n_genuine, n_genuine, seed)
    assert got == _pairs_outcome(ref_intra_pairs, labels, seed)


#: labels that are equal only as strings (1 and "1"), or that differ only by
#: trailing NULs, which numpy's fixed-width str dtype would merge
LABELS = st.lists(st.one_of(st.sampled_from(["a", "a\x00", "a\x00\x00", "b", "c", "1"]),
                            st.integers(0, 3)), max_size=30)


@settings(max_examples=300, deadline=None)
@given(labels=LABELS)
def test_genuine_pairs_equal_the_reference(labels):
    assert all_genuine_pairs(labels).to_dict() == _ref_dict(ref_genuine_pairs(labels), 0)


def _count(data, available):
    """A pair count: mostly a feasible one of either branch, sometimes an infeasible one."""
    return data.draw(st.one_of(st.integers(0, available), st.integers(0, available // 2),
                               st.sampled_from([-1, available + 1])))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), labels=LABELS, seed=st.integers(-1, 50))
def test_impostor_sample_equals_the_python_loop(data, labels, seed):
    available = _pair_counts(label_codes(labels))[1]
    # counts up to half the pool reject, larger ones take the exhaustive branch
    count = _count(data, available)
    got = _pairs_outcome(sample_impostor_pairs, labels, count, seed)
    assert got == _pairs_outcome(ref_impostor_pairs, labels, count, seed)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), labels=LABELS, seed=st.integers(-1, 50))
def test_capped_sample_equals_the_reference(data, labels, seed):
    n_genuine, available = _pair_counts(label_codes(labels))
    genuine_count = data.draw(st.one_of(st.integers(0, n_genuine),
                                        st.sampled_from([-1, n_genuine + 1])))
    impostor_count = _count(data, available)
    got = _pairs_outcome(sample_pairs_capped, labels, genuine_count, impostor_count, seed)
    assert got == _pairs_outcome(ref_capped_pairs, labels, genuine_count, impostor_count, seed)


def test_impostor_sample_at_scale_equals_the_python_loop():
    # the verif-cross pair caps on 1000 identities x 10 images, rejection branch
    labels = labels_for(1000, 10)
    for seed in (0, 1):
        got = sample_pairs_capped(labels, 2500, 2500, seed).to_dict()
        assert got == ref_capped_pairs(labels, 2500, 2500, seed)


@pytest.mark.parametrize("n", [10 ** 4, 3 * 10 ** 9])
def test_batched_integer_draws_continue_the_single_draw_stream(n):
    # the rejection loop relies on this: batches of any size read the stream
    # that one pair per call reads (at n = 3e9 about 30% of raw draws are rejected)
    single = np.random.default_rng(7)
    want = [v for _ in range(2000) for v in single.integers(0, n, size=2).tolist()]
    batched = np.random.default_rng(7)
    got = []
    for size in itertools.cycle([2, 6, 14, 1, 3, 500]):
        got += batched.integers(0, n, size=size).tolist()
        if len(got) >= len(want):
            break
    assert got[:len(want)] == want


key_batches = st.lists(st.lists(st.integers(0, 60), max_size=12), min_size=1, max_size=6)


@given(key_batches)
@settings(max_examples=300, deadline=None)
def test_merged_keys_equal_the_union1d_merge(batches):
    # the rejection sampler merges each batch into the sorted keys it holds, empty ones too
    found = want = np.empty(0, dtype=np.int64)
    for batch in batches:
        keys = np.array(batch, dtype=np.int64)
        found, want = _merged(found, keys), np.union1d(want, keys)
        assert found.dtype == want.dtype and found.tobytes() == want.tobytes()


@pytest.mark.parametrize("caps, message", [
    ((0, 5), "pair caps must be positive"),
    ([5, 0], "pair caps must be positive"),
    ((-1, 5), "pair caps must be nonnegative"),
    ((5,), "two pair counts"),
])
def test_pair_caps_are_two_positive_counts(caps, message):
    with pytest.raises(ArgumentError, match=message):
        check_pair_caps(caps)
    assert check_pair_caps((1, 2)) == (1, 2) and check_pair_caps(None) is None
