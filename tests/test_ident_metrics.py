import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embalign import (
    cmc_curve,
    evaluate_identification,
    mean_average_precision,
    rank_k_accuracy,
    score_matrix,
)
from embalign import align, ident_eval
from embalign.analysis import build_compatibility_matrix
from embalign.errors import (
    ArgumentError,
    ConsistencyError,
    DataError,
    DegenerateRowError,
    EmbalignError,
    ProtocolError,
)
from embalign.splits import identity_disjoint_split, label_codes
from embalign.ident_eval import RANK_KS, SeedRetrieval, _metrics_from_scores

from conftest import aligned_rank1, fit_alignment


# --- the evaluation's rank kernels on one score matrix ---------------------

def first_hit_ranks(scores, q_labels, g_labels):
    """``_ranked``'s 1-based first-hit rank per query (``n_gallery + 1`` for none), of a score
    matrix handed in as the public metrics hand it (``_checked``)."""
    scores, q_codes, g_codes = ident_eval._check_labels(scores, q_labels, g_labels)
    return ident_eval._ranked(ident_eval._checked(scores), q_codes, g_codes)[0]


def _map_rank1(queries, gallery, labels):
    """``map_rank1`` of unit ``queries`` against unit ``gallery`` rows with no map.

    ``labels`` name both, as the matrix and the sweep pass one split's test rows.
    """
    side = align.Side(np.zeros((1, gallery.shape[1])), gallery, ident_eval._unit_rows(gallery),
                      np.zeros(gallery.shape[1]))
    return ident_eval.map_rank1(queries, side, label_codes(labels), None)


# --- naive O(Q*G log G) reference implementations -------------------------

def naive_order(scores_row):
    return sorted(range(len(scores_row)), key=lambda j: (-scores_row[j], j))


def naive_rank_k(scores, q_labels, g_labels, k):
    hits = 0
    for i, row in enumerate(scores):
        top = [g_labels[j] for j in naive_order(row)[:k]]
        hits += q_labels[i] in top
    return hits / len(scores)


def naive_ap(scores_row, q_label, g_labels):
    order = naive_order(scores_row)
    seen, total, n_rel = 0, 0.0, sum(1 for l in g_labels if l == q_label)
    for rank, j in enumerate(order, start=1):
        if g_labels[j] == q_label:
            seen += 1
            total += seen / rank
    return total / n_rel


def naive_map(scores, q_labels, g_labels):
    return float(
        np.mean([naive_ap(row, q_labels[i], g_labels) for i, row in enumerate(scores)])
    )


def naive_cmc(scores, q_labels, g_labels, max_rank):
    firsts = []
    for i, row in enumerate(scores):
        order = naive_order(row)
        firsts.append(
            next(r for r, j in enumerate(order, start=1) if g_labels[j] == q_labels[i])
        )
    return [sum(f <= k for f in firsts) / len(firsts) for k in range(1, max_rank + 1)]


# --- score matrix ---------------------------------------------------------

def test_score_self_similarity():
    g = np.array([[1.0, 2.0, 3.0]])
    assert np.isclose(score_matrix(g, g)[0, 0], 1.0)


def test_score_orthogonal():
    assert np.isclose(score_matrix([[1.0, 0.0]], [[0.0, 1.0]])[0, 0], 0.0)


def test_score_antipodal():
    assert np.isclose(score_matrix([[1.0, 0.0]], [[-1.0, 0.0]])[0, 0], -1.0)


def test_score_zero_row():
    with pytest.raises(DegenerateRowError):
        score_matrix([[0.0, 0.0]], [[1.0, 0.0]])


def test_score_range():
    rng = np.random.default_rng(0)
    s = score_matrix(rng.standard_normal((10, 5)), rng.standard_normal((8, 5)))
    assert s.min() >= -1.0 - 1e-12 and s.max() <= 1.0 + 1e-12


# --- rank-k / mAP / CMC examples ------------------------------------------

def test_rank1_perfect():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    assert rank_k_accuracy(scores, ["a", "b"], ["a", "b"], 1) == 1.0


def test_rank_hand_case():
    scores = np.array([[0.9, 0.1], [0.2, 0.8]])
    q, g = ["a", "b"], ["b", "a"]
    assert rank_k_accuracy(scores, q, g, 1) == 0.0
    assert rank_k_accuracy(scores, q, g, 2) == 1.0


def test_rank_label_mismatch():
    with pytest.raises(ConsistencyError):
        rank_k_accuracy(np.ones((2, 2)), ["a"], ["b", "b"], 1)


def test_ap_single_relevant_first():
    scores = np.array([[0.9, 0.5, 0.1]])
    assert mean_average_precision(scores, ["a"], ["a", "b", "c"]) == 1.0


def test_ap_ranks_1_and_3():
    scores = np.array([[0.9, 0.8, 0.7, 0.6]])
    got = mean_average_precision(scores, ["a"], ["a", "b", "a", "b"])
    assert np.isclose(got, 0.5 * (1.0 + 2.0 / 3.0))


def test_ap_all_relevant():
    scores = np.array([[0.4, 0.9, 0.1]])
    assert mean_average_precision(scores, ["a"], ["a", "a", "a"]) == 1.0


def test_map_no_relevant_raises():
    with pytest.raises(ProtocolError):
        mean_average_precision(np.ones((1, 2)), ["z"], ["a", "b"])


def test_cmc_perfect():
    scores = np.eye(3)
    labels = ["a", "b", "c"]
    assert cmc_curve(scores, labels, labels, 3) == [1.0, 1.0, 1.0]


def test_cmc_first_element_is_rank1():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal((6, 6))
    labels = ["a", "a", "b", "b", "c", "c"]
    curve = cmc_curve(scores, labels, labels, 6)
    assert curve[0] == rank_k_accuracy(scores, labels, labels, 1)


def test_cmc_hand_case():
    # first hits at ranks 1, 2, 2
    scores = np.array(
        [
            [0.9, 0.5, 0.1],
            [0.9, 0.5, 0.1],
            [0.5, 0.1, 0.4],
        ]
    )
    q = ["a", "b", "c"]
    g = ["a", "b", "c"]
    # query 1: top item is gallery 0 ('a'), own match at rank 2
    curve = cmc_curve(scores, q, g, 3)
    assert curve == [1.0 / 3.0, 1.0, 1.0]


def test_cmc_max_rank_too_big():
    with pytest.raises(ArgumentError):
        cmc_curve(np.ones((2, 2)), ["a", "b"], ["a", "b"], 3)


# --- randomized agreement with the naive references -----------------------

def test_metrics_match_naive_reference():
    rng = np.random.default_rng(99)
    for _ in range(100):
        q_n = int(rng.integers(2, 8))
        g_n = int(rng.integers(2, 10))
        g_labels = [str(rng.integers(0, 4)) for _ in range(g_n)]
        q_labels = [g_labels[rng.integers(0, g_n)] for _ in range(q_n)]
        scores = rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75], size=(q_n, g_n))
        for k in (1, min(3, g_n), g_n):
            assert rank_k_accuracy(scores, q_labels, g_labels, k) == naive_rank_k(
                scores, q_labels, g_labels, k
            )
        assert mean_average_precision(scores, q_labels, g_labels) == pytest.approx(
            naive_map(scores, q_labels, g_labels), abs=1e-15
        )
        curve = cmc_curve(scores, q_labels, g_labels, g_n)
        assert curve == naive_cmc(scores, q_labels, g_labels, g_n)
        assert all(a <= b + 1e-15 for a, b in zip(curve, curve[1:]))


def test_gallery_permutation_invariance():
    rng = np.random.default_rng(5)
    scores = rng.standard_normal((6, 9))  # continuous, no exact ties
    g_labels = [str(rng.integers(0, 3)) for _ in range(9)]
    q_labels = [g_labels[i] for i in rng.integers(0, 9, size=6)]
    perm = rng.permutation(9)
    permuted = scores[:, perm]
    p_labels = [g_labels[j] for j in perm]
    for k in (1, 3, 9):
        assert rank_k_accuracy(scores, q_labels, g_labels, k) == rank_k_accuracy(
            permuted, q_labels, p_labels, k
        )
    assert mean_average_precision(scores, q_labels, g_labels) == pytest.approx(
        mean_average_precision(permuted, q_labels, p_labels), abs=1e-12
    )


# --- protocol-level -------------------------------------------------------

def test_self_model_pair_rank1_is_one(small_views):
    v0, _ = small_views
    rep = evaluate_identification(v0, v0, "procrustes", seeds=(0, 1), fraction=0.7)
    for r in rep.per_seed:
        assert r.rank_k[1] == 1.0


def test_report_shape(small_views):
    v0, v1 = small_views
    rep = evaluate_identification(v0, v1, "linear", seeds=(0, 1, 2, 3, 4), fraction=0.7)
    assert len(rep.per_seed) == 5
    assert set(rep.summary["rank_k"]) == {"1", "5", "10"}
    doc = rep.to_dict()
    assert len(doc["aligned"]["per_seed"]) == 5
    assert "mean" in doc["aligned"]["summary"]["map"]


def test_cmc_monotone_in_protocol(small_views):
    v0, v1 = small_views
    rep = evaluate_identification(v0, v1, "ridge", seeds=(0,), fraction=0.7)
    for r in rep.per_seed + rep.per_seed_baseline:
        assert all(a <= b + 1e-15 for a, b in zip(r.cmc, r.cmc[1:]))


def test_baseline_independent_of_method(small_views):
    v0, v1 = small_views
    a = evaluate_identification(v0, v1, "procrustes", seeds=(0,), fraction=0.7)
    b = evaluate_identification(v0, v1, "linear", seeds=(0,), fraction=0.7)
    assert a.per_seed_baseline == b.per_seed_baseline


def test_exclude_self_drops_own_image(small_views):
    v0, _ = small_views
    rep = evaluate_identification(
        v0, v0, "procrustes", seeds=(0,), fraction=0.7, exclude_self=True
    )
    # same space, so nearest non-self neighbor is still same identity
    assert rep.per_seed[0].rank_k[1] == 1.0
    assert rep.metadata["gallery_includes_self"] is False


# --- exact agreement with a sort-based reference --------------------------
# The reference ranks every query by a full stable sort and evaluates each
# metric on that order, query by query; the library must give the same
# SeedRetrieval, mAP to the last bit, and the same errors.

def _ref_check(scores, q_labels, g_labels):
    scores = np.asarray(scores, dtype=np.float64)
    q_labels = np.asarray([str(l) for l in q_labels])
    g_labels = np.asarray([str(l) for l in g_labels])
    if scores.shape != (len(q_labels), len(g_labels)):
        raise ConsistencyError(
            f"scores shape {scores.shape} does not match "
            f"{len(q_labels)} queries x {len(g_labels)} gallery labels"
        )
    return scores, q_labels, g_labels


def _ref_order(scores):
    return np.argsort(-scores, axis=1, kind="stable")


def ref_rank_k(scores, q_labels, g_labels, k):
    scores, q_labels, g_labels = _ref_check(scores, q_labels, g_labels)
    order = _ref_order(scores)
    top = g_labels[order[:, :k]]
    live = np.take_along_axis(scores, order[:, :k], axis=1) > -np.inf
    return float(((top == q_labels[:, None]) & live).any(axis=1).mean())


def ref_map(scores, q_labels, g_labels):
    scores, q_labels, g_labels = _ref_check(scores, q_labels, g_labels)
    order = _ref_order(scores)
    aps = np.empty(len(q_labels))
    for i in range(len(q_labels)):
        live = scores[i, order[i]] > -np.inf
        rel = ((g_labels[order[i]] == q_labels[i]) & live).astype(np.float64)
        n_rel = rel.sum()
        if n_rel == 0:
            raise ProtocolError(f"query {i} has no relevant gallery items")
        ranks = np.arange(1, len(g_labels) + 1)
        aps[i] = float((np.cumsum(rel) / ranks * rel).sum() / n_rel)
    return float(aps.mean())


def ref_cmc(scores, q_labels, g_labels, max_rank):
    scores, q_labels, g_labels = _ref_check(scores, q_labels, g_labels)
    if max_rank > len(g_labels):
        raise ArgumentError(f"max_rank {max_rank} exceeds gallery size {len(g_labels)}")
    order = _ref_order(scores)
    live = np.take_along_axis(scores, order, axis=1) > -np.inf
    hits = (g_labels[order] == q_labels[:, None]) & live
    missing = np.flatnonzero(~hits.any(axis=1))
    if missing.size:
        raise ProtocolError(f"query {missing[0]} has no relevant gallery items")
    ranks = hits.argmax(axis=1) + 1
    return [float((ranks <= k).mean()) for k in range(1, max_rank + 1)]


def ref_metrics_from_scores(scores, q_labels, g_labels, max_rank, seed, exclude_self):
    scores = np.asarray(scores, dtype=np.float64)
    if exclude_self:
        if scores.shape[0] != scores.shape[1]:
            raise ConsistencyError("exclude_self requires query set == gallery set")
        scores = scores.copy()
        np.fill_diagonal(scores, -np.inf)
    rank_k = {
        k: ref_rank_k(scores, q_labels, g_labels, k)
        for k in RANK_KS
        if k <= len(g_labels)
    }
    return SeedRetrieval(
        seed=seed,
        rank_k=rank_k,
        map_score=ref_map(scores, q_labels, g_labels),
        cmc=tuple(ref_cmc(scores, q_labels, g_labels, max_rank)),
        n_queries=len(q_labels),
        n_gallery=len(g_labels),
    )


def chunked(scores, blocks=None):
    """A score matrix as the rank kernel's chunks of ``blocks`` rank blocks (None: one chunk)."""
    if blocks is None:
        return [(0, scores)]
    rows = blocks * ident_eval._block_rows(scores.shape[1])
    return [(start, scores[start:start + rows]) for start in range(0, len(scores), rows)]


def metrics_in_chunks(scores, q_labels, g_labels, max_rank, seed, exclude_self, blocks):
    scores, q_codes, g_codes = ident_eval._check_labels(scores, q_labels, g_labels)
    return ident_eval._seed_metrics(
        chunked(scores, blocks), q_codes, g_codes, max_rank, seed, exclude_self
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ArgumentError, ConsistencyError, ProtocolError) as exc:
        return type(exc), str(exc)


LEVELS = [-0.5, 0.0, 0.25, 0.5, 0.75]


@st.composite
def retrieval_cases(draw):
    exclude_self = draw(st.booleans())
    n_g = draw(st.integers(1, 14))
    n_q = n_g if exclude_self else draw(st.integers(1, 12))
    # few labels, drawn unevenly: some identities own most of the gallery
    pool = st.sampled_from("aaaabbcde")
    g_labels = draw(st.lists(pool, min_size=n_g, max_size=n_g))
    if exclude_self:
        q_labels = g_labels  # the queries are the gallery images
    elif draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, n_g - 1), min_size=n_q, max_size=n_q))
        q_labels = [g_labels[i] for i in picks]
    else:  # labels absent from the gallery leave queries without a relevant item
        q_labels = draw(st.lists(st.sampled_from("abcdef"), min_size=n_q, max_size=n_q))
    levels = LEVELS + [-np.inf] if draw(st.booleans()) else LEVELS
    flat = draw(st.lists(st.sampled_from(levels), min_size=n_q * n_g, max_size=n_q * n_g))
    scores = np.array(flat, dtype=np.float64).reshape(n_q, n_g)
    max_rank = draw(st.sampled_from([min(ident_eval.CMC_MAX_RANK, n_g), n_g, n_g + 1]))
    return scores, q_labels, g_labels, max_rank, exclude_self


@settings(max_examples=400, deadline=None)
@given(case=retrieval_cases(), budget=st.sampled_from([1, 5, 16, 1 << 16]),
       blocks=st.integers(1, 3))
def test_metrics_equal_sort_reference(case, budget, blocks):
    scores, q_labels, g_labels, max_rank, exclude_self = case
    args = (scores, q_labels, g_labels, max_rank, 7, exclude_self)
    want = outcome(ref_metrics_from_scores, *args)
    # small budgets split the queries into blocks of one or a few rows, and
    # the chunked kernel takes them in chunks of one to three blocks
    with mock.patch.object(ident_eval, "_CELL_BUDGET", budget):
        assert outcome(_metrics_from_scores, *args) == want
        assert outcome(metrics_in_chunks, *args, blocks) == want


@pytest.mark.parametrize("exclude_self", [False, True])
def test_metrics_equal_sort_reference_long_rows(exclude_self):
    # rows long enough for numpy's pairwise summation to block the mAP sums
    rng = np.random.default_rng(12)
    n = 600
    labels = [f"p{i % 60}" for i in rng.permutation(n)]
    scores = rng.standard_normal((n, n))
    scores[:, ::7] = np.round(scores[:, ::7], 1)  # some exact ties
    args = (scores, labels, labels, ident_eval.CMC_MAX_RANK, 0, exclude_self)
    assert _metrics_from_scores(*args) == ref_metrics_from_scores(*args)


def _tie_case(kind, n=600, per_id=10):
    """Scores and labels for ``n`` queries that are also the ``n`` gallery images."""
    rng = np.random.default_rng(21)
    labels = [f"p{i % (n // per_id)}" for i in rng.permutation(n)]
    if kind == "all_equal":
        scores = np.full((n, n), 0.25)
    elif kind == "columns_duplicated":  # every score occurs twice in its row
        scores = np.repeat(rng.standard_normal((n, n // 2)), 2, axis=1)
    elif kind == "signed_zeros":  # 0.0 and -0.0 tie; -inf entries are removed
        scores = rng.choice(np.array([-np.inf, -1.0, -0.0, 0.0, 1.0]), size=(n, n))
    else:  # 21 levels: -1.0, -0.9, ..., 1.0
        scores = np.round(np.clip(rng.standard_normal((n, n)), -1.0, 1.0), 1)
    return scores, labels, labels


def _short_gallery_case():
    rng = np.random.default_rng(22)
    g_labels = [f"p{i % 4}" for i in range(12)]
    q_labels = [g_labels[i] for i in rng.integers(0, 12, 2000)]
    scores = np.round(rng.standard_normal((2000, 12)), 1)  # ties in most rows
    return scores, q_labels, g_labels


RANK_CASES = {
    "columns_duplicated": lambda: _tie_case("columns_duplicated"),
    "all_equal": lambda: _tie_case("all_equal"),
    "21_levels_10_per_id": lambda: _tie_case("levels", per_id=10),
    "21_levels_60_per_id": lambda: _tie_case("levels", per_id=60),
    "signed_zeros_and_removed": lambda: _tie_case("signed_zeros"),
    "2000_queries_x_12": _short_gallery_case,
}


@pytest.mark.parametrize("budget", [ident_eval._CELL_BUDGET, 1000])
@pytest.mark.parametrize("exclude_self", [False, True])
@pytest.mark.parametrize("name", RANK_CASES)
def test_rank_kernel_equals_sort_reference_on_ties(name, exclude_self, budget):
    # the kernel reads tied items' ranks from a stable order of their rows
    # only; rows long enough for numpy's pairwise summation to block the
    # mAP sums, and a small budget splits them into many blocks
    scores, q_labels, g_labels = RANK_CASES[name]()
    args = (scores, q_labels, g_labels, min(ident_eval.CMC_MAX_RANK, len(g_labels)), 3,
            exclude_self)
    want = outcome(ref_metrics_from_scores, *args)
    with mock.patch.object(ident_eval, "_CELL_BUDGET", budget):
        got = outcome(_metrics_from_scores, *args)
    assert got == want
    # only the short gallery, which is not square, refuses exclude_self
    square = scores.shape[0] == scores.shape[1]
    assert isinstance(got, SeedRetrieval) == (square or not exclude_self)


def python_order_ranks(scores, q_labels, g_labels, exclude_self):
    """First-hit rank and AP per query from ``naive_order``, which calls no numpy sort."""
    scores = np.array(scores, dtype=np.float64)
    if exclude_self:
        np.fill_diagonal(scores, -np.inf)
    n_g = len(g_labels)
    first, aps = np.full(len(q_labels), n_g + 1), np.full(len(q_labels), np.nan)
    for i, row in enumerate(scores.tolist()):
        rel = np.array([g_labels[j] == q_labels[i] and row[j] > -np.inf
                        for j in naive_order(row)], dtype=np.float64)
        if rel.any():
            first[i] = rel.argmax() + 1
            # the kernel's AP expression, summed by numpy in the same order
            aps[i] = (np.cumsum(rel) / np.arange(1, n_g + 1) * rel).sum() / rel.sum()
    return first, aps


@pytest.mark.parametrize("name, exclude_self", [
    (name, exclude_self) for name in RANK_CASES for exclude_self in (False, True)
    if not (exclude_self and name == "2000_queries_x_12")  # exclude_self needs a square
])
def test_rank_kernel_equals_python_order_on_ties(name, exclude_self):
    scores, q_labels, g_labels = RANK_CASES[name]()
    want_first, want_aps = python_order_ranks(scores, q_labels, g_labels, exclude_self)
    _, q_codes, g_codes = ident_eval._check_labels(scores, q_labels, g_labels)
    for budget in (ident_eval._CELL_BUDGET, 1000):
        # the whole matrix as one chunk, or chunks of three rank blocks, the last short
        for blocks in (None, 3):
            with mock.patch.object(ident_eval, "_CELL_BUDGET", budget):
                first, aps = ident_eval._ranked(
                    chunked(scores, blocks), q_codes, g_codes, exclude_self, with_ap=True
                )
            assert np.array_equal(first, want_first)
            assert np.array_equal(aps, want_aps, equal_nan=True)


def test_public_metrics_equal_sort_reference():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n_q, n_g = int(rng.integers(1, 9)), int(rng.integers(1, 12))
        g_labels = [str(rng.integers(0, 3)) for _ in range(n_g)]
        q_labels = [str(rng.integers(0, 4)) for _ in range(n_q)]
        scores = rng.choice(LEVELS + [-np.inf], size=(n_q, n_g))
        for k in range(1, n_g + 1):
            assert rank_k_accuracy(scores, q_labels, g_labels, k) == ref_rank_k(
                scores, q_labels, g_labels, k
            )
        assert outcome(mean_average_precision, scores, q_labels, g_labels) == outcome(
            ref_map, scores, q_labels, g_labels
        )
        assert outcome(cmc_curve, scores, q_labels, g_labels, n_g) == outcome(
            ref_cmc, scores, q_labels, g_labels, n_g
        )


def test_labels_that_differ_by_a_trailing_nul_are_two_identities():
    # identity_disjoint_split keeps 'a' and 'a\x00' apart, and so must the ranking
    scores = np.array([[2.0, 1.0, 0.0]])
    q_labels, g_labels = ["a"], ["a\x00", "a", "b"]
    assert rank_k_accuracy(scores, q_labels, g_labels, 1) == 0.0
    assert first_hit_ranks(scores, q_labels, g_labels).tolist() == [2]
    assert mean_average_precision(scores, q_labels, g_labels) == 0.5
    # every score ties, so each query's first maximum is item 0, of label 'a\x00'
    rows = np.tile([1.0, 0.0], (3, 1))
    assert _map_rank1(rows, rows, ["a\x00", "a", "b"]) == 1 / 3


def test_empty_gallery():
    scores = np.zeros((2, 0))
    with pytest.raises(ProtocolError):
        mean_average_precision(scores, ["a", "b"], [])
    with pytest.raises(ArgumentError):
        rank_k_accuracy(scores, ["a", "b"], [], 1)


# --- scoring and ranking in row chunks --------------------------------------
# The evaluation scores the queries in chunks and ranks each as it comes; a
# score matrix is filled from the same chunks and ranked as one.  Small
# budgets give chunks of one or several rank blocks, the last one short.

@pytest.mark.parametrize("scorer", [
    score_matrix, ident_eval._score_chunks,
], ids=["score_matrix", "_score_chunks"])
@pytest.mark.parametrize("queries, gallery", [
    (np.ones(3), np.ones((2, 3))),
    (np.ones((2, 3)), np.ones((2, 2, 3))),
    (np.ones((2, 3)), np.ones((2, 4))),
], ids=["1d_queries", "3d_gallery", "widths_differ"])
def test_scoring_shape_errors_are_typed(scorer, queries, gallery):
    with pytest.raises(ConsistencyError):
        scorer(queries, gallery)  # raised at the call, before any chunk is asked for


def _codes(q_labels, g_labels):
    """Query and gallery label codes, factorized together as the evaluation does."""
    codes = label_codes([*q_labels, *g_labels])
    return codes[:len(q_labels)], codes[len(q_labels):]


ZERO_QUERIES = {
    "rank_k_accuracy": lambda s, g: rank_k_accuracy(s, [], g, 1),
    "mean_average_precision": lambda s, g: mean_average_precision(s, [], g),
    "cmc_curve": lambda s, g: cmc_curve(s, [], g, 2),
    "map_rank1": lambda s, g: _map_rank1(s, s, []),
    "_metrics_from_scores": lambda s, g: _metrics_from_scores(s, [], g, 2, 0, False),
    "_metrics_from_rows": lambda s, g: ident_eval._metrics_from_rows(
        np.zeros((0, 3)), np.eye(3), *_codes([], g), 2, 0, False),
}


@pytest.mark.parametrize("name", ZERO_QUERIES)
def test_zero_queries_raise(name):
    with pytest.raises(ProtocolError, match="no queries"):
        ZERO_QUERIES[name](np.zeros((0, 3)), ["a", "b", "a"])


def test_first_hit_ranks_of_zero_queries_is_empty():
    assert first_hit_ranks(np.zeros((0, 3)), [], ["a", "b", "a"]).shape == (0,)


def _grid_rows(draw, n, dim):
    """``n`` rows of small integers, none all zero: equal rows and tied scores abound."""
    flat = draw(st.lists(st.integers(-2, 2), min_size=n * dim, max_size=n * dim))
    rows = np.array(flat, dtype=np.float64).reshape(n, dim)
    rows[~rows.any(axis=1), 0] = 1.0
    return rows


@st.composite
def row_cases(draw):
    exclude_self = draw(st.booleans())
    n_g = draw(st.integers(1, 30))
    n_q = n_g if exclude_self else draw(st.integers(1, 30))
    dim = draw(st.integers(1, 4))
    g_labels = draw(st.lists(st.sampled_from("aaaabbcde"), min_size=n_g, max_size=n_g))
    if exclude_self:
        q_labels = g_labels
    else:  # some labels may be absent from the gallery
        q_labels = draw(st.lists(st.sampled_from("aabcdf"), min_size=n_q, max_size=n_q))
    max_rank = draw(st.sampled_from([min(ident_eval.CMC_MAX_RANK, n_g), n_g + 1]))
    return (_grid_rows(draw, n_q, dim), _grid_rows(draw, n_g, dim), q_labels, g_labels,
            max_rank, exclude_self)


@settings(max_examples=300, deadline=None)
@given(case=row_cases(), cell_budget=st.sampled_from([1, 7, 20, 1 << 16]),
       score_budget=st.integers(1, 200))
def test_metrics_from_rows_equal_metrics_of_score_matrix(case, cell_budget, score_budget):
    queries, gallery, q_labels, g_labels, max_rank, exclude_self = case
    args = (q_labels, g_labels, max_rank, 5, exclude_self)
    with mock.patch.object(ident_eval, "_CELL_BUDGET", cell_budget), \
            mock.patch.object(ident_eval, "_SCORE_BUDGET", score_budget):
        got = outcome(ident_eval._metrics_from_rows, queries, gallery,
                      *_codes(q_labels, g_labels), *args[2:])
        scores = score_matrix(queries, gallery)
        want = outcome(_metrics_from_scores, scores, *args)
    assert got == want
    assert want == outcome(ref_metrics_from_scores, scores, *args)


def _any_outcome(fn, *args):
    try:
        return fn(*args)
    except EmbalignError as exc:
        return type(exc), str(exc)


@st.composite
def split_cases(draw):
    n = draw(st.integers(4, 40))
    labels = draw(st.lists(st.sampled_from("aaabbcd"), min_size=n, max_size=n))
    labels[:2] = ["a", "b"]  # at least two identities to split
    d_a, d_b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    x = ident_eval._unit_rows(_grid_rows(draw, n, d_a))
    y = ident_eval._unit_rows(_grid_rows(draw, n, d_b))
    return x, y, labels, identity_disjoint_split(labels, 0.5, draw(st.integers(0, 9)))


@settings(max_examples=150, deadline=None)
@given(case=split_cases(), method=st.sampled_from(["procrustes", "linear", "ridge"]),
       cell_budget=st.sampled_from([1, 5, 1 << 16]), score_budget=st.integers(1, 120))
def test_aligned_rank1_equals_rank1_of_score_matrix(case, method, cell_budget, score_budget):
    x, y, labels, split = case
    test = list(split.test_rows)
    test_labels = [labels[i] for i in test]

    def from_matrix():
        # each side's gallery is made when the side is prepared, before the fit: an all-zero
        # centered test row of either model fails there
        for rows in (x, y):
            ident_eval._unit_rows(rows[test] - rows[list(split.train_rows)].mean(axis=0))
        amap = fit_alignment(x, y, method, 0.1, rows=list(split.train_rows))
        scores = score_matrix(*align.project(x[test], y[test], amap))
        return rank_k_accuracy(scores, test_labels, test_labels, 1)

    with mock.patch.object(ident_eval, "_CELL_BUDGET", cell_budget), \
            mock.patch.object(ident_eval, "_SCORE_BUDGET", score_budget):
        got = _any_outcome(aligned_rank1, x, y, labels, [split], method, 0.1)
        want = _any_outcome(from_matrix)
    assert got == want


# --- non-finite scores ----------------------------------------------------

METRICS = [
    lambda s, q, g: rank_k_accuracy(s, q, g, 1),
    mean_average_precision,
    first_hit_ranks,
    lambda s, q, g: cmc_curve(s, q, g, 2),
]


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_scores_raise(metric, bad):
    scores = np.array([[0.9, 0.1], [0.2, bad]])
    with pytest.raises(DataError):
        metric(scores, ["a", "b"], ["a", "b"])


@pytest.mark.parametrize("metric", METRICS)
def test_minus_inf_is_allowed(metric):
    metric(np.array([[-np.inf, 0.9, 0.5], [0.2, 0.8, 0.1]]), ["a", "b"], ["b", "b", "a"])


def test_non_finite_scores_are_refused_in_the_order_of_the_checks():
    # shapes first, then k, max_rank and exclude_self, then NaN or +inf, then relevance
    nan = np.array([[0.9, np.nan], [0.2, 0.1]])
    labels, strangers = ["a", "b"], ["c", "d"]
    refused = [
        (ConsistencyError, lambda: rank_k_accuracy(nan, labels, ["a"], 1)),
        (ArgumentError, lambda: rank_k_accuracy(nan, labels, labels, 3)),
        (ArgumentError, lambda: cmc_curve(nan, labels, labels, 3)),
        (ConsistencyError, lambda: _metrics_from_scores(nan[:1], ["a"], labels, 2, 0, True)),
        (DataError, lambda: mean_average_precision(nan, labels, strangers)),
        (DataError, lambda: cmc_curve(nan, labels, strangers, 2)),
        (DataError, lambda: _metrics_from_scores(nan, labels, strangers, 2, 0, False)),
        (DataError, lambda: _metrics_from_scores(nan, labels, labels, 3, 0, False)),
    ]
    for error, call in refused:
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error


def test_only_score_matrices_from_outside_are_scanned(small_views):
    # the evaluation's scores are cosines of finite unit rows: neither it nor a matrix cell
    # scans them; each public metric scans the matrix it is handed once
    with mock.patch.object(ident_eval, "_checked", wraps=ident_eval._checked) as scan:
        evaluate_identification(*small_views, seeds=(0,), exclude_self=True)
        build_compatibility_matrix(list(small_views), seeds=(0,))
        assert scan.call_count == 0
        scores, labels = np.eye(3), ["a", "b", "a"]
        rank_k_accuracy(scores, labels, labels, 1)
        mean_average_precision(scores, labels, labels)
        cmc_curve(scores, labels, labels, 2)
        _metrics_from_scores(scores, labels, labels, 2, 0, False)
    assert scan.call_count == 4


def test_minus_inf_means_removed():
    scores = np.array([[-np.inf, 0.9, 0.5], [0.2, 0.8, 0.1]])
    assert rank_k_accuracy(scores, ["a", "b"], ["b", "b", "a"], 1) == 0.5
    with pytest.raises(ProtocolError):
        mean_average_precision(scores, ["a", "b"], ["a", "b", "b"])


def test_protocol_rejects_non_finite_scores():
    scores = np.eye(3)
    scores[0, 1] = np.nan
    with pytest.raises(DataError):
        _metrics_from_scores(scores, list("abc"), list("abc"), 3, 0, True)


# --- memory ---------------------------------------------------------------

@pytest.mark.parametrize("exclude_self", [False, True])
def test_ranking_memory_bounded_by_score_matrix(exclude_self):
    rng = np.random.default_rng(8)
    n = 2000
    labels = [f"p{i % 200}" for i in rng.permutation(n)]
    scores = rng.standard_normal((n, n))
    tracemalloc.start()
    try:
        _metrics_from_scores(scores, labels, labels, ident_eval.CMC_MAX_RANK, 0, exclude_self)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0 * scores.nbytes


@pytest.mark.parametrize("exclude_self", [False, True])
def test_evaluation_from_rows_holds_no_score_matrix(exclude_self):
    rng = np.random.default_rng(9)
    n, dim = 4000, 64
    queries, gallery = rng.standard_normal((n, dim)), rng.standard_normal((n, dim))
    # 400 labels, and 2 labels, where the relevant items number half the 16M scores
    for n_labels in (400, 2):
        codes = label_codes([f"p{i % n_labels}" for i in rng.permutation(n)])
        # the unit rows twice over, and three chunks; the 4000 x 4000 scores are 128 MB
        bound = 2 * (2 * n) * dim * 8 + 3 * ident_eval._SCORE_BUDGET * 8
        tracemalloc.start()
        try:
            ident_eval._metrics_from_rows(
                queries, gallery, codes, codes,
                ident_eval.CMC_MAX_RANK, 0, exclude_self,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, n_labels
