import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embalign import (
    align,
    auc,
    blas,
    eer,
    evaluate_verification,
    pair_scores,
    reports,
    roc_curve,
    tmr_at_fmr,
    verif_eval,
)
from embalign.splits import (
    PairList, _pair_counts, label_codes, sample_impostor_pairs, sample_pairs_capped,
)
from embalign.errors import ArgumentError, ConsistencyError, DegenerateRowError, ProtocolError
from embalign.verif_eval import (
    FMR_TARGETS,
    ROC_GRID,
    SeedVerification,
    VerificationReport,
    _GRID_TARGETS,
    _points_to_arrays,
    _score_pairs,
    _seed_metrics,
    _tmr_at,
)

from conftest import fit_alignment, unit_pair


# --- independent oracles --------------------------------------------------

def mann_whitney(scores, labels):
    """P(random genuine outscores random impostor), ties counted 1/2."""
    gen = [s for s, l in zip(scores, labels) if l]
    imp = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for g in gen:
        for i in imp:
            total += 1.0 if g > i else (0.5 if g == i else 0.0)
    return total / (len(gen) * len(imp))


def brute_roc(scores, labels):
    """Threshold enumeration, accept at score >= t."""
    gen = np.array([s for s, l in zip(scores, labels) if l])
    imp = np.array([s for s, l in zip(scores, labels) if not l])
    pts = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        pts.append(((imp >= t).mean(), (gen >= t).mean()))
    return pts


def brute_eer(scores, labels):
    """Crossing of the piecewise-linear fmr/fnmr curves over ROC vertices."""
    pts = brute_roc(scores, labels)
    for (f1, t1), (f2, t2) in zip(pts, pts[1:]):
        g1 = f1 - (1.0 - t1)
        g2 = f2 - (1.0 - t2)
        if g1 == 0.0:
            return f1
        if g1 < 0.0 <= g2:
            s = -g1 / (g2 - g1)
            return f1 + s * (f2 - f1)
    return pts[-1][0]


def brute_tmr(scores, labels, target):
    pts = brute_roc(scores, labels)
    best = 0.0
    for idx, (f, t) in enumerate(pts):
        if f <= target:
            best = max(best, t)
        else:
            f1, t1 = pts[idx - 1]
            if f1 <= target:
                best = max(best, t1 + (target - f1) * (t - t1) / (f - f1))
            break
    return best


def random_score_set(rng):
    n_gen = int(rng.integers(2, 40))
    n_imp = int(rng.integers(2, 40))
    if rng.random() < 0.5:
        # discrete values force ties within and across classes
        values = rng.choice(np.linspace(-1, 1, 7), size=n_gen + n_imp)
    else:
        values = rng.standard_normal(n_gen + n_imp) + np.r_[
            0.8 * np.ones(n_gen), np.zeros(n_imp)
        ]
    labels = [True] * n_gen + [False] * n_imp
    return list(values), labels


# --- pair scoring ---------------------------------------------------------

def test_pair_score_identical():
    pl = PairList(((0, 0, True),), 0)
    scores, labels = pair_scores([[1.0, 2.0]], [[1.0, 2.0]], pl)
    assert np.isclose(scores[0], 1.0) and labels == [True]
    assert type(labels[0]) is bool  # the flags come back as booleans, not 0/1


def test_pair_score_orthogonal():
    pl = PairList(((0, 0, False),), 0)
    scores, _ = pair_scores([[1.0, 0.0]], [[0.0, 1.0]], pl)
    assert np.isclose(scores[0], 0.0)


def test_pair_score_empty():
    scores, labels = pair_scores(np.ones((2, 2)), np.ones((2, 2)), PairList((), 0))
    assert scores == [] and labels == []


def test_pair_score_out_of_range():
    with pytest.raises(ConsistencyError):
        pair_scores(np.ones((1, 2)), np.ones((1, 2)), PairList(((0, 5, True),), 0))


@pytest.mark.parametrize("pairs", [
    ((0, 1),),  # two columns: numpy's reshape would raise a bare ValueError
    ((0, 1.5, True),),  # a float index would be truncated to pair (0, 1)
    ((0, 1, 7),),  # a flag of 7 would count as genuine
    ((0, 1, -1), (0, 1, True)),
    ((0, 1, True), (0, 1)),  # rows of different lengths
    (("0", "1", "1"),),
    (0, 1, True),  # one row, not a list of rows
    5,
])
def test_malformed_pair_list_is_consistency_error(pairs):
    with pytest.raises(ConsistencyError, match=r"n x 3 array of integers .* flags 0 or 1"):
        pair_scores(np.ones((2, 2)), np.ones((2, 2)), PairList(pairs, 0))


def test_pair_list_holds_its_own_read_only_copy():
    rows = np.array([[0, 1, 1]])
    pl = PairList(rows, 0)
    rows[0, 1] = 0
    assert pl.to_dict() == {"seed": 0, "pairs": [[0, 1, True]]}
    assert not pl.pairs.flags.writeable


@pytest.mark.parametrize("a, t", [(np.ones(2), np.ones((1, 2))), (np.ones((1, 2)), np.ones(2))])
def test_pair_score_refuses_rows_that_are_not_2d(a, t):
    with pytest.raises(ConsistencyError, match="2-D"):
        pair_scores(a, t, PairList(((0, 0, True),), 0))


# --- ROC / AUC / EER / TMR examples ---------------------------------------

def test_roc_perfect_separation():
    pts = roc_curve([0.9, 0.8, 0.1, 0.2], [True, True, False, False])
    assert (0.0, 1.0) in pts


def test_roc_minimal():
    pts = roc_curve([0.9, 0.1], [True, False])
    assert (0.0, 1.0) in pts and pts[0] == (0.0, 0.0) and pts[-1] == (1.0, 1.0)


def test_roc_hand_case():
    scores = [0.8, 0.4, 0.6, 0.2]
    labels = [True, True, False, False]
    pts = roc_curve(scores, labels)
    assert (0.0, 0.5) in pts  # threshold 0.7-ish
    assert (0.5, 0.5) in pts  # threshold 0.5
    assert (0.5, 1.0) in pts  # threshold 0.3
    # Mann-Whitney count: 0.8 beats both impostors, 0.4 beats only 0.2
    assert np.isclose(auc(pts), 0.75)
    assert np.isclose(auc(pts), mann_whitney(scores, labels))
    assert np.isclose(eer(pts), 0.5)


def test_roc_single_class():
    with pytest.raises(ProtocolError):
        roc_curve([0.5, 0.6], [True, True])


def test_auc_perfect():
    assert auc(roc_curve([0.9, 0.1], [True, False])) == 1.0


def test_auc_identical_distributions():
    scores = [0.1, 0.5, 0.9, 0.1, 0.5, 0.9]
    labels = [True, True, True, False, False, False]
    assert np.isclose(auc(roc_curve(scores, labels)), 0.5)


def test_eer_perfect():
    assert eer(roc_curve([0.9, 0.1], [True, False])) == 0.0


def test_eer_identical_distributions():
    scores = [0.1, 0.5, 0.9, 0.1, 0.5, 0.9]
    labels = [True, True, True, False, False, False]
    assert np.isclose(eer(roc_curve(scores, labels)), 0.5)


def test_tmr_perfect():
    assert tmr_at_fmr(roc_curve([0.9, 0.1], [True, False]), 0.01) == 1.0


def test_tmr_chance_line():
    rng = np.random.default_rng(0)
    vals = rng.random(2000)
    scores = np.concatenate([vals, vals])
    labels = [True] * 2000 + [False] * 2000
    got = tmr_at_fmr(roc_curve(scores, labels), 0.01)
    assert abs(got - 0.01) < 1e-3


def test_tmr_bad_target():
    with pytest.raises(ArgumentError):
        tmr_at_fmr([(0.0, 0.0), (1.0, 1.0)], 1.5)


# --- oracle agreement over random score sets ------------------------------

def test_auc_matches_mann_whitney():
    rng = np.random.default_rng(17)
    for _ in range(100):
        scores, labels = random_score_set(rng)
        roc = roc_curve(scores, labels)
        assert abs(auc(roc) - mann_whitney(scores, labels)) <= 1e-9


def test_eer_tmr_match_brute_force():
    rng = np.random.default_rng(18)
    for _ in range(100):
        scores, labels = random_score_set(rng)
        roc = roc_curve(scores, labels)
        assert abs(eer(roc) - brute_eer(scores, labels)) <= 1e-9
        for target in (0.01, 0.001, 0.1, 0.5):
            assert abs(tmr_at_fmr(roc, target) - brute_tmr(scores, labels, target)) <= 1e-9


def test_monotone_transform_invariance():
    rng = np.random.default_rng(19)
    scores, labels = random_score_set(rng)
    roc1 = roc_curve(scores, labels)
    transformed = [np.tanh(3.0 * s) + 2.0 for s in scores]
    roc2 = roc_curve(transformed, labels)
    assert abs(auc(roc1) - auc(roc2)) <= 1e-9
    assert abs(eer(roc1) - eer(roc2)) <= 1e-9
    assert abs(tmr_at_fmr(roc1, 0.01) - tmr_at_fmr(roc2, 0.01)) <= 1e-9


def test_label_swap_flips_auc():
    rng = np.random.default_rng(20)
    scores, labels = random_score_set(rng)
    a1 = auc(roc_curve(scores, labels))
    a2 = auc(roc_curve(scores, [not l for l in labels]))
    assert abs(a1 + a2 - 1.0) <= 1e-9


def test_eer_always_a_rate():
    rng = np.random.default_rng(21)
    for _ in range(50):
        scores, labels = random_score_set(rng)
        roc = roc_curve(scores, labels)
        assert 0.0 <= eer(roc) <= 1.0


# --- protocol-level -------------------------------------------------------

def test_intra_protocol_balance(small_views):
    v0, v1 = small_views
    rep = evaluate_verification(v0, v1, "procrustes", seeds=(0, 1))
    for r in rep.per_seed:
        assert r.n_genuine == r.n_impostor


def test_self_pair_auc_one(small_views):
    v0, _ = small_views
    rep = evaluate_verification(v0, v0, "procrustes", seeds=(0,))
    assert rep.per_seed[0].auc >= 1.0 - 1e-9


def test_symmetric_mode_runs(small_views):
    v0, v1 = small_views
    rep = evaluate_verification(v0, v1, "linear", seeds=(0,), symmetric_score=True)
    assert rep.metadata["scoring_direction"] == "symmetric"
    assert 0.0 <= rep.per_seed[0].auc <= 1.0


def test_cross_protocol_pair_caps(small_views):
    v0, v1 = small_views
    amap = fit_alignment(*unit_pair(v0, v1)[1:], "procrustes")
    rep = evaluate_verification(
        v0, v1, "procrustes", seeds=(0,), amap=amap, pair_caps=(50, 50),
    )
    assert rep.protocol == "cross"
    assert rep.per_seed[0].n_genuine == 50
    assert rep.per_seed[0].n_impostor == 50


@pytest.mark.parametrize("caps", [(0, 5), (5, 0), (0, 0)])
def test_a_zero_pair_cap_is_refused_before_any_pair_is_drawn(small_views, caps):
    # no ROC can be drawn from zero pairs of a class: this was a ProtocolError after the
    # scoring, and on the CLI after the cross map's fit
    v0, v1 = small_views
    amap = fit_alignment(*unit_pair(v0, v1)[1:], "procrustes")
    with mock.patch.object(align, "pair_sets") as pair, \
            pytest.raises(ArgumentError, match="pair caps must be positive"):
        evaluate_verification(v0, v1, seeds=(0,), amap=amap, pair_caps=caps)
    pair.assert_not_called()


def test_cross_protocol_method_comes_from_the_map(small_views):
    v0, v1 = small_views
    amap = fit_alignment(*unit_pair(v0, v1)[1:], "ridge", 0.5)
    rep = evaluate_verification(v0, v1, seeds=(0,), amap=amap, pair_caps=(20, 20))
    assert (rep.method, rep.metadata["alpha"]) == ("ridge", 0.5)
    with pytest.raises(ConsistencyError, match="disagrees"):
        evaluate_verification(v0, v1, "linear", seeds=(0,), amap=amap, pair_caps=(20, 20))


def test_report_dict_fields(small_views):
    v0, v1 = small_views
    rep = evaluate_verification(v0, v1, "ridge", seeds=(0, 1))
    doc = rep.to_dict()
    summary = doc["aligned"]["summary"]
    assert set(summary["tmr_at_fmr"]) == {"0.01", "0.001"}
    assert len(summary["roc_grid"]["fmr"]) == 50


def test_eer_closes_curve_at_origin():
    # the segment from (0, 0) to (0.2, 0.9) crosses fmr = fnmr where
    # 0.2 s = 1 - 0.9 s, so s = 1/1.1 and the EER is 0.2/1.1 = 2/11
    assert abs(eer([(0.2, 0.9), (0.6, 1.0)]) - 2.0 / 11.0) <= 1e-12
    # from (0, 0) to (0.5, 1.0): 0.5 s = 1 - s, so s = 2/3 and the EER is 1/3
    assert abs(eer([(0.5, 1.0), (1.0, 1.0)]) - 1.0 / 3.0) <= 1e-12
    assert eer([(0.0, 1.0), (1.0, 1.0)]) == 0.0


# --- reference: the list-based scoring and ROC code the kernels replaced ----

def ref_pair_scores(aligned_source, target, pairs):
    a = np.asarray(aligned_source, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    scores, labels = [], []
    n_a, n_t = a.shape[0], t.shape[0]
    for i, j, genuine in pairs.pairs:
        if not (0 <= i < n_a and 0 <= j < n_t):
            raise ConsistencyError(f"pair ({i}, {j}) out of range")
        u, v = a[i], t[j]
        denom = np.linalg.norm(u) * np.linalg.norm(v)
        scores.append(float(u @ v / denom))
        labels.append(bool(genuine))
    return scores, labels


def ref_score_pairs(queries, gallery, pairs, symmetric):
    scores, labels = ref_pair_scores(queries, gallery, pairs)
    if symmetric:
        swapped = PairList(tuple((j, i, g) for i, j, g in pairs.pairs), pairs.seed)
        rev, _ = ref_pair_scores(queries, gallery, swapped)
        scores = [(s + r) / 2.0 for s, r in zip(scores, rev)]
    return scores, labels


def ref_roc_curve(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape:
        raise ConsistencyError("scores and labels differ in length")
    n_gen = int(labels.sum())
    n_imp = int((~labels).sum())
    if n_gen == 0 or n_imp == 0:
        raise ProtocolError("need at least one genuine and one impostor score")
    order = np.argsort(-scores, kind="stable")
    sorted_labels = labels[order]
    sorted_scores = scores[order]
    tp = np.cumsum(sorted_labels)
    fp = np.cumsum(~sorted_labels)
    distinct = np.flatnonzero(np.diff(sorted_scores, append=-np.inf))
    points = [(0.0, 0.0)]
    for idx in distinct:
        points.append((fp[idx] / n_imp, tp[idx] / n_gen))
    return points


def ref_auc(roc):
    if len(roc) < 2:
        raise ArgumentError("need at least 2 ROC points")
    pts = sorted(roc)
    if pts[-1] != (1.0, 1.0):
        pts.append((1.0, 1.0))
    area = 0.0
    for (f1, t1), (f2, t2) in zip(pts, pts[1:]):
        area += (f2 - f1) * (t1 + t2) / 2.0
    return float(area)


def ref_eer(roc):
    """The list code before the origin rule; agrees on curves from the origin."""
    if len(roc) < 2:
        raise ArgumentError("need at least 2 ROC points")
    pts = sorted(roc)
    gs = [f - (1.0 - t) for f, t in pts]
    for k, g in enumerate(gs):
        if g == 0.0:
            return float(pts[k][0])
        if g > 0.0:
            (f1, t1), (f2, t2) = pts[k - 1], pts[k]
            g1, g2 = gs[k - 1], gs[k]
            s = -g1 / (g2 - g1)
            return float(f1 + s * (f2 - f1))
    return float(pts[-1][0])


def ref_tmr_at_fmr(roc, fmr_target):
    if not 0.0 < fmr_target < 1.0:
        raise ArgumentError(f"fmr_target must lie in (0, 1), got {fmr_target}")
    pts = sorted(roc)
    best = 0.0
    for k, (f, t) in enumerate(pts):
        if f <= fmr_target:
            best = max(best, t)
        elif k > 0:
            f1, t1 = pts[k - 1]
            if f1 <= fmr_target < f:
                best = max(best, t1 + (fmr_target - f1) / (f - f1) * (t - t1))
            break
    return float(best)


def ref_roc_on_grid(roc):
    return np.array([ref_tmr_at_fmr(roc, min(f, 1.0 - 1e-12)) for f in ROC_GRID])


def grid_tmr(roc):
    """TMR of any point list on the FMR grid the report summary averages across seeds."""
    return _tmr_at(*_points_to_arrays(sorted(roc)), _GRID_TARGETS)


def ref_seed_metrics(scores, labels, seed):
    roc = ref_roc_curve(scores, labels)
    return SeedVerification(
        seed=seed,
        auc=ref_auc(roc),
        eer=ref_eer(roc),
        tmr_at_fmr={t: ref_tmr_at_fmr(roc, t) for t in FMR_TARGETS},
        tmr_grid=tuple(ref_roc_on_grid(roc).tolist()),
        n_genuine=sum(labels),
        n_impostor=len(labels) - sum(labels),
    )


def ref_grid_summary(rocs):
    grid_tmr = np.array([ref_roc_on_grid(roc) for roc in rocs])
    return grid_tmr.mean(axis=0).tolist(), (
        grid_tmr.std(axis=0, ddof=1) if grid_tmr.shape[0] > 1
        else np.zeros(grid_tmr.shape[1])
    ).tolist()


def ref_outcome(ref, *args):
    """Scores and labels of a loop reference, or ``DegenerateRowError`` for a NaN score.

    The reference divides by the row norms, so a pair with a zero-norm
    row gets a NaN cosine; the kernels raise on such a pair instead.
    """
    with np.errstate(invalid="ignore"):
        scores, labels = ref(*args)
    return DegenerateRowError if np.isnan(scores).any() else (list(scores), list(labels))


def kernel_outcome(fn, *args):
    """Scores and labels of a kernel, or ``DegenerateRowError`` if it raised one."""
    try:
        scores, labels = fn(*args)
    except DegenerateRowError as exc:
        assert "has zero norm" in str(exc)
        return DegenerateRowError
    return list(scores), list(labels)


def outcome(fn, *args):
    """The result of fn, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (ArgumentError, ConsistencyError, ProtocolError) as exc:
        return type(exc), str(exc)


# --- the kernels against the reference ------------------------------------

@st.composite
def pair_cases(draw):
    """Rows (ties, exact repeats and zero rows included) and a pair list, maybe empty."""
    n_a, n_t = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dim = draw(st.sampled_from([1, 3, 33, 70, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n_a, dim))
    t = rng.standard_normal((n_t, dim))
    if draw(st.booleans()):
        a, t = np.round(a, 1), np.round(t, 1)  # coarse values, many tied scores
        a[:, 0] += 5.0  # source rows stay nonzero here; target rows may round to zero
    if draw(st.booleans()):
        t[: min(n_a, n_t)] = a[: min(n_a, n_t)]  # identical rows score exactly 1
    if draw(st.integers(0, 3)) == 0:  # a zero row on either side
        rows = draw(st.sampled_from([a, t]))
        rows[draw(st.integers(0, rows.shape[0] - 1))] = 0.0
    n_pairs = draw(st.integers(0, 25))
    pairs = tuple(
        (draw(st.integers(0, n_a - 1)), draw(st.integers(0, n_t - 1)), draw(st.booleans()))
        for _ in range(n_pairs)
    )
    return a, t, PairList(pairs, 0)


@settings(max_examples=300, deadline=None)
@given(case=pair_cases(), block=st.sampled_from([1, 2, 7, 2048]), symmetric=st.booleans())
def test_pair_scores_equal_loop_reference(case, block, symmetric):
    a, t, pairs = case
    with mock.patch.object(verif_eval, "_PAIR_BLOCK", block):
        got = kernel_outcome(pair_scores, a, t, pairs)
        assert got == ref_outcome(ref_pair_scores, a, t, pairs)
        if symmetric and a.shape[0] != t.shape[0]:
            return  # the reversed pairs may fall outside; the evaluation sides are equal
        sides = [(x, verif_eval._row_norms(x)) for x in (a, t)]
        got = kernel_outcome(_score_pairs, *sides, pairs, symmetric)
    assert got == ref_outcome(ref_score_pairs, a, t, pairs, symmetric)


def test_pair_scores_equal_loop_reference_many_pairs():
    # more pairs than one block, duplicates included, wide rows
    rng = np.random.default_rng(5)
    a, t = rng.standard_normal((300, 512)), rng.standard_normal((250, 512))
    idx = rng.integers(0, 250, size=(5000, 2))
    pairs = PairList(tuple((int(i), int(j), bool(i % 2)) for i, j in idx), 0)
    assert pair_scores(a, t, pairs) == ref_pair_scores(a, t, pairs)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    pairs=st.lists(
        st.tuples(st.integers(-2, 7), st.integers(-2, 7), st.booleans()), max_size=6
    ),
)
def test_out_of_range_pair_same_error(n, pairs):
    a = np.arange(1.0, 2.0 * n + 1).reshape(n, 2)
    pl = PairList(tuple(pairs), 0)
    assert outcome(pair_scores, a, a, pl) == outcome(ref_pair_scores, a, a, pl)


@st.composite
def score_sets(draw):
    n_gen, n_imp = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    if draw(st.booleans()):
        values = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0])  # ties
    else:
        values = st.floats(-1.0, 1.0)
    scores = draw(st.lists(values, min_size=n_gen + n_imp, max_size=n_gen + n_imp))
    labels = [True] * n_gen + [False] * n_imp
    order = draw(st.permutations(range(n_gen + n_imp)))
    return [scores[k] for k in order], [labels[k] for k in order]


@settings(max_examples=300, deadline=None)
@given(sets=st.lists(score_sets(), min_size=1, max_size=3))
def test_seed_metrics_equal_list_reference(sets):
    got = [_seed_metrics(np.array(s), np.array(l), 4) for s, l in sets]
    want = [ref_seed_metrics(s, l, 4) for s, l in sets]
    assert got == want
    assert [roc_curve(s, l) for s, l in sets] == [ref_roc_curve(s, l) for s, l in sets]
    grid = VerificationReport._summary(got)["roc_grid"]
    assert (grid["tmr_mean"], grid["tmr_std"]) == ref_grid_summary(
        [ref_roc_curve(s, l) for s, l in sets])


def test_seed_metrics_equal_list_reference_large():
    rng = np.random.default_rng(8)
    labels = rng.random(6000) < 0.5
    scores = np.round(rng.standard_normal(6000) + labels, 3)  # ties across classes
    assert _seed_metrics(scores, labels, 0) == ref_seed_metrics(
        scores.tolist(), labels.tolist(), 0
    )
    assert roc_curve(scores.tolist(), labels.tolist()) == ref_roc_curve(
        scores.tolist(), labels.tolist()
    )


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
        min_size=2, max_size=12,
    ),
    target=st.floats(-0.5, 1.5),
)
def test_public_roc_functions_equal_list_reference(points, target):
    # arbitrary point lists: unsorted, not closed at (1, 1), repeated FMRs
    assert auc(points) == ref_auc(points)
    assert outcome(tmr_at_fmr, points, target) == outcome(ref_tmr_at_fmr, points, target)
    assert grid_tmr(points).tolist() == ref_roc_on_grid(points).tolist()
    if min(points) == (0.0, 0.0):
        assert eer(points) == ref_eer(points)


def test_public_roc_functions_keep_errors():
    assert grid_tmr([]).tolist() == ref_roc_on_grid([]).tolist()
    assert tmr_at_fmr([], 0.5) == 0.0
    for fn in (auc, eer):
        with pytest.raises(ArgumentError):
            fn([(0.0, 0.0)])


def test_pair_scoring_memory_is_blocked():
    # an unblocked gather would hold 40000 x 256 floats per side (82 MB each)
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((100, 256))
    side = (rows, verif_eval._row_norms(rows))
    idx = rng.integers(0, 100, size=(40000, 2))
    pairs = PairList(tuple((int(i), int(j), True) for i, j in idx), 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _score_pairs(side, side, pairs, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_bytes = verif_eval._PAIR_BLOCK * 256 * 8
    assert peak <= 4 * block_bytes


@pytest.mark.parametrize("cross, projections", [(True, 1), (False, 3)])
def test_cross_protocol_fits_once(small_views, cross, projections):
    v0, v1 = small_views
    kwargs = {}
    if cross:
        amap = fit_alignment(*unit_pair(v0, v1)[1:], "linear")
        kwargs = dict(amap=amap, pair_caps=(40, 40))
    # a fixed map fits nothing and gathers and projects the shared rows once for every
    # seed; a fitted map does each of the three once per seed
    with mock.patch.object(align, "_solve", wraps=align._solve) as fit, \
            mock.patch.object(verif_eval, "_eval_sides", wraps=verif_eval._eval_sides) as sides, \
            mock.patch.object(align.Pairing, "unit_rows", autospec=True,
                              side_effect=align.Pairing.unit_rows) as unit:
        rep = evaluate_verification(v0, v1, "linear", seeds=(0, 1, 2), **kwargs)
    assert fit.call_count == (0 if cross else 3)
    assert sides.call_count == unit.call_count == projections
    assert len(rep.per_seed) == 3


def test_zero_norm_row_names_the_first_pair():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
    t = np.array([[1.0, 1.0], [0.0, 0.0]])
    pairs = PairList(((0, 0, True), (2, 1, False), (1, 0, True)), 0)
    with pytest.raises(DegenerateRowError, match=r"pair \(2, 1\): target row 1") as err:
        pair_scores(a, t, pairs)
    assert err.value.row_index == 1
    # symmetric scoring: the zero source row 1 is met only by reversing the pair (0, 1)
    sides = [(x, verif_eval._row_norms(x)) for x in (a, np.ones((3, 2)))]
    pairs = PairList(((0, 0, True), (0, 1, False)), 0)
    _score_pairs(*sides, pairs, False)
    with pytest.raises(DegenerateRowError, match=r"pair \(1, 0\): source row 1"):
        _score_pairs(*sides, pairs, True)


def test_pair_caps_sample_the_intra_test_rows(small_views):
    v0, v1 = small_views
    caps, drawn = (30, 45), []

    def record(*args):
        drawn.append(sample_pairs_capped(*args))
        return drawn[-1]

    with mock.patch.object(verif_eval, "sample_pairs_capped", side_effect=record):
        rep = evaluate_verification(v0, v1, seeds=(0, 1), pair_caps=caps)
    labels = unit_pair(v0, v1)[0]
    assert [s.seed for s in rep.per_seed_split] == [0, 1]
    for split, pairs in zip(rep.per_seed_split, drawn):
        codes = label_codes([labels[k] for k in split.test_rows])
        assert pairs.to_dict() == sample_pairs_capped(codes, *caps, split.seed).to_dict()
    for r in (*rep.per_seed, *rep.per_seed_baseline):
        assert (r.n_genuine, r.n_impostor) == caps
    assert rep.metadata["pair_caps"] == [30, 45]


def test_fixed_map_without_caps_takes_every_genuine_pair(small_views):
    v0, v1 = small_views
    amap = fit_alignment(*unit_pair(v0, v1)[1:], "procrustes")
    rep = evaluate_verification(v0, v1, seeds=(0, 1), amap=amap)
    n_genuine = _pair_counts(label_codes(unit_pair(v0, v1)[0]))[0]
    assert n_genuine == 30 * 10  # 30 identities of 5 images
    for r in (*rep.per_seed, *rep.per_seed_baseline):
        assert r.n_genuine == r.n_impostor == n_genuine
    assert (rep.protocol, rep.metadata["pair_caps"], rep.per_seed_split) == ("cross", None, ())


@pytest.mark.parametrize("call, counts", [
    *(("pair_caps", caps) for caps in [(5,), 5, (5, 5, 5), (2.5, 3), (True, 3), ("5", "5"),
                                       (-1, 5), (5, np.float64(5.0))]),
    ("capped", (2.5, 3)), ("capped", (3, True)), ("capped", (np.bool_(True), 3)),
    ("impostor", (2.5,)), ("impostor", (True,)), ("impostor", ("3",)),
])
def test_malformed_pair_counts_are_argument_errors(small_views, call, counts):
    v0, v1 = small_views
    labels = list(v0.labels)
    calls = {
        "pair_caps": lambda: evaluate_verification(
            v0, v1, seeds=(0,), pair_caps=counts,
            amap=fit_alignment(*unit_pair(v0, v1)[1:], "procrustes")),
        "capped": lambda: sample_pairs_capped(labels, *counts, 0),
        "impostor": lambda: sample_impostor_pairs(labels, *counts, 0),
    }
    with pytest.raises(ArgumentError):
        calls[call]()


def test_empty_seed_list_is_an_argument_error(small_views):
    v0, v1 = small_views
    amap = fit_alignment(*unit_pair(v0, v1)[1:], "procrustes")
    for kwargs in (dict(), dict(amap=amap)):
        with pytest.raises(ArgumentError, match="at least one seed"):
            evaluate_verification(v0, v1, seeds=(), **kwargs)


def _numbers(r):
    """Every number of a :class:`SeedVerification`, its TMR grid included, in one list."""
    return [r.auc, r.eer, *r.tmr_at_fmr.values(), *r.tmr_grid, r.n_genuine, r.n_impostor]


def _serial(name, fn, items):
    return [fn(item) for item in items]


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("symmetric", [False, True])
def test_two_thread_sides_equal_the_serial_sides(small_views, monkeypatch, cross, symmetric):
    # each seed's aligned and baseline sides are scored at once; the metrics are those of
    # scoring them one after the other, bit for bit
    v0, v1 = small_views
    kwargs = dict(amap=fit_alignment(*unit_pair(v0, v1)[1:], "linear"),
                  pair_caps=(40, 60)) if cross else {}

    def run():
        return evaluate_verification(v0, v1, "linear", seeds=(0, 2), symmetric_score=symmetric,
                                     **kwargs)

    with mock.patch.object(blas, "each_on_two_threads", wraps=blas.each_on_two_threads) as two:
        got = run()
    assert [len(c.args[2]) for c in two.call_args_list] == [2, 2]
    monkeypatch.setattr(blas, "each_on_two_threads", _serial)
    want = run()
    for side in ("per_seed", "per_seed_baseline"):
        assert [np.array(_numbers(r)).tobytes() for r in getattr(got, side)] == \
               [np.array(_numbers(r)).tobytes() for r in getattr(want, side)]
    assert reports.canonical_json(got.to_dict()) == reports.canonical_json(want.to_dict())


def test_a_baseline_bug_is_raised_after_the_aligned_sides_error(small_views, monkeypatch):
    v0, v1 = small_views
    functions = blas._thread_functions()  # None without OpenBLAS
    count = functions[0] if functions else lambda: None
    before, threads = count(), set(threading.enumerate())
    real = verif_eval._seed_metrics
    failing = set()

    def seed_metrics(*args):
        name = threading.current_thread().name
        if name in failing:
            raise TypeError(f"bug on {name}")
        return real(*args)

    monkeypatch.setattr(verif_eval, "_seed_metrics", seed_metrics)
    # both sides fail: the aligned side's error, on this thread, comes first
    failing.update(("MainThread", "embalign-baseline"))
    with pytest.raises(TypeError, match="bug on MainThread"):
        evaluate_verification(v0, v1, seeds=(0,))
    # the baseline side alone fails: its error is not lost
    failing.discard("MainThread")
    with pytest.raises(TypeError, match="bug on embalign-baseline"):
        evaluate_verification(v0, v1, seeds=(0,))
    assert set(threading.enumerate()) == threads and count() == before
