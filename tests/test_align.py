import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from embalign import (
    AlignmentMap,
    align,
    evaluate_identification,
    evaluate_verification,
    fit_linear,
    fit_procrustes,
    fit_ridge,
    load_map,
    save_map,
    training_residual,
    transform,
)
from embalign import ident_eval, intersect_on_images, verif_eval
from embalign.align import DEFAULT_RIDGE_ALPHA, PINV_RTOL, fit_map, project
from embalign.embedstore import EmbeddingSet
from embalign.errors import (
    ConsistencyError, DataError, DegenerateRowError, FormatError, IoError, NumericalError,
)
from embalign.prep import PrepStats, apply_prep, center, fit_prep, l2_normalize
from embalign.splits import identity_disjoint_split, sample_pairs_capped

from conftest import fit_alignment, random_orthogonal, unit_pair


def make_stats(d, mu=None):
    mu = np.zeros(d) if mu is None else mu
    return PrepStats(mu, mu, 1)


def test_procrustes_self_alignment():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 8))
    w = fit_procrustes(x, x)
    assert np.linalg.norm(x @ w - x) <= 1e-8


def test_procrustes_90_degree_rotation():
    x = np.eye(2)
    y = np.array([[0.0, 1.0], [-1.0, 0.0]])
    w = fit_procrustes(x, y)
    assert np.allclose(w, y, atol=1e-12)


def test_procrustes_recovers_planted_rotation():
    rng = np.random.default_rng(42)
    q = random_orthogonal(32, rng)
    z = rng.standard_normal((500, 32))
    w = fit_procrustes(z, z @ q)
    assert np.linalg.norm(z @ w - z @ q) <= 1e-8


def test_procrustes_orthogonality():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, d = rng.integers(5, 200), rng.integers(4, 64)
        w = fit_procrustes(rng.standard_normal((n, d)), rng.standard_normal((n, d)))
        assert np.linalg.norm(w.T @ w - np.eye(d)) <= 1e-8


def test_procrustes_rejects_nonfinite():
    with pytest.raises(DataError):
        fit_procrustes(np.array([[np.inf, 0.0]]), np.ones((1, 2)))


def test_linear_scaling_case():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((100, 6))
    w = fit_linear(x, 2.0 * x)
    assert np.linalg.norm(x @ w - 2.0 * x) <= 1e-8


def test_linear_matches_lstsq_min_norm_oracle():
    # rank-deficient via zero-padded columns; compare to LAPACK gelsd
    rng = np.random.default_rng(2)
    x = np.zeros((40, 10))
    x[:, :7] = rng.standard_normal((40, 7))
    y = rng.standard_normal((40, 10))
    w = fit_linear(x, y)
    oracle, *_ = scipy.linalg.lstsq(x, y, lapack_driver="gelsd")
    assert np.allclose(w, oracle, atol=1e-10)
    # min-norm solution has zero rows for dead columns
    assert np.abs(w[7:]).max() == 0.0


def test_linear_recovers_rotation():
    rng = np.random.default_rng(3)
    q = random_orthogonal(32, rng)
    z = rng.standard_normal((500, 32))
    w = fit_linear(z, z @ q)
    assert np.linalg.norm(z @ w - z @ q) <= 1e-8


def test_ridge_1d_closed_form():
    w = fit_ridge(np.array([[1.0], [1.0]]), np.array([[1.0], [1.0]]), 0.1)
    assert abs(w[0, 0] - 2.0 / 2.1) < 1e-12


def test_ridge_approaches_linear():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 12))  # well conditioned
    y = rng.standard_normal((200, 12))
    w_ridge = fit_ridge(x, y, 1e-10)
    w_linear = fit_linear(x, y)
    assert np.linalg.norm(w_ridge - w_linear) <= 1e-6


def test_ridge_shrinkage_limit():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((50, 6))
    y = rng.standard_normal((50, 6))
    w = fit_ridge(x, y, 1e9)
    assert np.linalg.norm(w) <= 1e-6 * np.linalg.norm(x.T @ y)


def test_ridge_shrinkage_monotone():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((80, 10))
    y = rng.standard_normal((80, 10))
    norms = [np.linalg.norm(fit_ridge(x, y, a)) for a in (1e-4, 1e-2, 1.0, 100.0)]
    assert norms == sorted(norms, reverse=True)


def test_residual_ordering():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((60, 9))
    y = rng.standard_normal((60, 9))
    stats = make_stats(9)
    res = {}
    for method, w in [
        ("procrustes", fit_procrustes(x, y)),
        ("linear", fit_linear(x, y)),
        ("ridge", fit_ridge(x, y, DEFAULT_RIDGE_ALPHA)),
    ]:
        alpha = DEFAULT_RIDGE_ALPHA if method == "ridge" else 0.0
        amap = AlignmentMap(w, stats, method, alpha=alpha)
        res[method] = training_residual(amap, x, y)
    assert res["linear"] <= res["procrustes"] + 1e-9
    assert res["linear"] <= res["ridge"] + 1e-9


def test_linear_first_order_stationarity():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((30, 5))
    y = rng.standard_normal((30, 5))
    w = fit_linear(x, y)
    base = np.linalg.norm(x @ w - y)
    for _ in range(10):
        direction = rng.standard_normal(w.shape)
        direction /= np.linalg.norm(direction)
        perturbed = np.linalg.norm(x @ (w + 1e-4 * direction) - y)
        assert perturbed >= base - 1e-10


def test_self_fit_residual_zero():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((20, 4))
    amap = AlignmentMap(fit_linear(x, x), make_stats(4), "linear")
    assert training_residual(amap, x, x) <= 1e-8


def test_fit_determinism():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((40, 8))
    y = rng.standard_normal((40, 8))
    for fn in (fit_procrustes, fit_linear, lambda a, b: fit_ridge(a, b, 0.1)):
        assert np.array_equal(fn(x, y), fn(x, y))


# --- fits at the models' own widths ---------------------------------------

def pinv_oracle(x, y):
    """Minimum-norm least squares through the thin SVD pseudo-inverse."""
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    keep = s > PINV_RTOL * s[0]
    return vt[keep].T @ ((u[:, keep].T @ y) / s[keep, None])


def padded_ridge_oracle(xp, yp, alpha):
    """Ridge on rows zero-padded to one width D."""
    return np.linalg.solve(xp.T @ xp + alpha * np.eye(xp.shape[1]), xp.T @ yp)


@pytest.mark.parametrize("relation", ["narrower_source", "wider_source", "equal"])
@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), d=st.integers(1, 12), extra=st.integers(1, 6),
       alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 2**32 - 1))
def test_native_fits_equal_padded_fits(relation, n, d, extra, alpha, seed):
    d_a, d_b = {"narrower_source": (d, d + extra), "wider_source": (d + extra, d),
                "equal": (d, d)}[relation]
    rng = np.random.default_rng(seed)
    x = l2_normalize(rng.standard_normal((n, d_a)))
    y = l2_normalize(rng.standard_normal((n, d_b)))
    stats = fit_prep(x, y)
    xc, yc = center(x, stats, "source"), center(y, stats, "target")
    xp, yp = apply_prep(x, stats, "source"), apply_prep(y, stats, "target")

    w = fit_map(xc, yc, "procrustes")
    assert w.shape == (d_a, d_b)
    AlignmentMap(w, stats, "procrustes")
    s = np.linalg.svd(xc.T @ yc, compute_uv=False)
    if s[-1] > 1e-2 * s[0]:
        # a full-rank cross-covariance has one orthogonal factor: the leading
        # block of the padded fit's
        assert np.allclose(w, fit_procrustes(xp, yp)[:d_a, :d_b], rtol=0.0, atol=1e-12)

    for method, oracle in (("linear", pinv_oracle(xp, yp)),
                           ("ridge", padded_ridge_oracle(xp, yp, alpha))):
        w = fit_map(xc, yc, method, alpha)
        assert w.shape == (d_a, d_b)
        scale = max(1.0, np.abs(oracle).max())
        assert np.allclose(w, oracle[:d_a, :d_b], rtol=1e-7, atol=1e-9 * scale), method
        # the padded fit puts nothing outside the block the native fit returns
        assert np.allclose(oracle[d_a:], 0.0, atol=1e-9 * scale), method
        assert np.allclose(oracle[:, d_b:], 0.0, atol=1e-9 * scale), method
        AlignmentMap(w, stats, method, alpha=alpha if method == "ridge" else 0.0)


def test_linear_fit_holds_no_padded_or_n_by_d_copy():
    # the traced peak allows the two centered copies plus a few D x D arrays;
    # padded training rows (2 n D) or the SVD factor U (n D) exceed it
    n, d_a, d_b = 4000, 128, 64
    rng = np.random.default_rng(15)
    x = l2_normalize(rng.standard_normal((n, d_a)))
    y = l2_normalize(rng.standard_normal((n, d_b)))
    big_d = max(d_a, d_b)
    tracemalloc.start()
    try:
        amap = fit_alignment(x, y, "linear")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amap.w.shape == (d_a, d_b)
    assert peak <= (n * (d_a + d_b) + 4 * big_d**2) * 8 + 2**20


def test_solver_failures_are_typed():
    rng = np.random.default_rng(16)
    x, y = rng.standard_normal((10, 3)), rng.standard_normal((10, 5))
    dead = x.copy()
    dead[:, 1] = 0.0  # a zero column: singular Gram matrix, so gelsd runs
    failure = np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    with mock.patch.object(np.linalg, "lstsq", side_effect=failure):
        with pytest.raises(NumericalError, match="least squares failed"):
            fit_map(dead, y, "linear")
        with pytest.raises(NumericalError):
            fit_linear(dead, y)
    with mock.patch.object(np.linalg, "eigh", side_effect=failure):
        with pytest.raises(NumericalError, match="least squares failed"):
            fit_map(x, y, "linear")
        with pytest.raises(NumericalError):
            fit_linear(x, y)
    with pytest.raises(ConsistencyError, match="shape mismatch"):
        fit_procrustes(x, y)
    with pytest.raises(ConsistencyError, match="row counts differ"):
        fit_map(x, y[:9], "ridge")


def conditioned_rows(n, d, cond, rng):
    """n x d rows Q1 diag(s) Q2 with singular values from 1 down to 1 / cond."""
    s = np.logspace(0.0, -np.log10(cond), d)
    q1 = np.linalg.qr(rng.standard_normal((n, d)))[0]
    return (q1 * s) @ random_orthogonal(d, rng)


@pytest.mark.parametrize("cond", [1.0, 10.0, 1e3, 0.5e4])
@pytest.mark.parametrize("n, d_a, d_b", [(40, 16, 8), (600, 256, 64)])
def test_well_conditioned_linear_fit_skips_gelsd(cond, n, d_a, d_b):
    rng = np.random.default_rng(int(cond) + d_a)
    x = conditioned_rows(n, d_a, cond, rng)
    y = x @ rng.standard_normal((d_a, d_b)) + 0.1 * rng.standard_normal((n, d_b))
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
        w = fit_linear(x, y)
    assert spy.call_count == 0
    oracle = pinv_oracle(x, y)
    scale = max(1.0, np.abs(oracle).max())
    assert np.allclose(w, oracle, rtol=1e-7, atol=1e-9 * scale)


def _ill_conditioned():
    rng = np.random.default_rng(17)
    y = rng.standard_normal((30, 4))
    dead = rng.standard_normal((30, 6))
    dead[:, 2] = 0.0
    return [
        ("cond 1e5", conditioned_rows(30, 6, 1e5, rng), y),
        ("n < d", rng.standard_normal((5, 12)), y[:5]),
        ("dead column", dead, y),
        ("one centered row", np.zeros((1, 6)), y[:1]),
    ]


@pytest.mark.parametrize("case", range(4))
def test_rank_deficient_or_ill_conditioned_linear_fit_is_gelsd(case):
    name, x, y = _ill_conditioned()[case]
    expected = np.linalg.lstsq(x, y, rcond=PINV_RTOL)[0]
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as spy:
        w = fit_linear(x, y)
    assert spy.call_count == 1, name
    assert np.array_equal(w, expected), name


@pytest.mark.parametrize("n, d_a, d_b", [(40, 16, 8), (5, 12, 3), (600, 256, 64)])
def test_ridge_keeps_its_former_bits(n, d_a, d_b):
    rng = np.random.default_rng(n + d_a)
    x, y = rng.standard_normal((n, d_a)), rng.standard_normal((n, d_b))
    for alpha in (1e-3, DEFAULT_RIDGE_ALPHA, 10.0):
        former = scipy.linalg.solve(x.T @ x + alpha * np.eye(d_a), x.T @ y, assume_a="pos")
        assert np.array_equal(fit_ridge(x, y, alpha), former)


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
def test_fit_refuses_no_rows_and_no_width(method):
    with pytest.raises(ConsistencyError, match="at least one training row"):
        fit_map(np.ones((0, 3)), np.ones((0, 2)), method)
    for x, y in ((np.ones((3, 0)), np.ones((3, 2))), (np.ones((3, 2)), np.ones((3, 0)))):
        with pytest.raises(ConsistencyError, match="nonzero width"):
            fit_map(x, y, method)


def test_transform_identity_map():
    rows = np.random.default_rng(12).standard_normal((5, 4))
    amap = AlignmentMap(np.eye(4), make_stats(4), "procrustes")
    out = transform(rows, amap)
    expected = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    assert np.allclose(out, expected, atol=1e-12)


def test_transform_width_mismatch():
    amap = AlignmentMap(np.eye(4), make_stats(4), "procrustes")
    with pytest.raises(ConsistencyError):
        transform(np.ones((2, 3)), amap)


def old_pad(rows, big_d):
    """The baseline padding the evaluators used before ``project`` took it over."""
    out = np.zeros((rows.shape[0], big_d), dtype=np.float64)
    out[:, : rows.shape[1]] = rows
    return out


def cosines(queries, gallery):
    """``u @ v / (norm(u) * norm(v))`` of every query u and gallery row v, one pair at a time."""
    return np.array([[u @ v / (np.linalg.norm(u) * np.linalg.norm(v)) for v in gallery]
                     for u in queries])


@pytest.mark.parametrize("d_a, d_b", [(3, 5), (5, 3), (4, 4)])
def test_project_without_map_is_old_padding(d_a, d_b):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((6, d_a))
    y = rng.standard_normal((6, d_b))
    x[0, 0] = y[1, 2] = -0.0
    x[3, 1] = y[4, 0] = 0.0
    queries, gallery = project(x, y)
    k = min(d_a, d_b)
    # the padded rows without their zero columns: each side's first k columns, as they are
    assert queries.tobytes() == np.ascontiguousarray(x[:, :k]).tobytes()
    assert gallery.tobytes() == np.ascontiguousarray(y[:, :k]).tobytes()
    assert np.signbit(queries[0, 0]) and np.signbit(gallery[1, 2])
    # each score is the cosine of the two k-wide rows it compares
    scores = ident_eval.score_matrix(queries, gallery)
    assert np.abs(scores - cosines(x[:, :k], y[:, :k])).max() <= 1e-12
    # the padded scores divide by the full rows' norms instead: the same at equal
    # widths, else the native scores times the share of each row's norm in its k columns
    big_d = max(d_a, d_b)
    padded = ident_eval.score_matrix(old_pad(x, big_d), old_pad(y, big_d))
    share = [np.linalg.norm(r[:, :k], axis=1) / np.linalg.norm(r, axis=1) for r in (x, y)]
    assert np.abs(scores * np.outer(*share) - padded).max() <= 1e-12
    if d_a == d_b:
        assert np.abs(scores - padded).max() <= 1e-12


# --- scoring in the models' own shapes against the padded D-wide evaluation ---

WIDTHS = [(6, 11), (8, 8), (11, 6)]  # d_a < d_b, d_a = d_b, d_a > d_b


def padded_sides(x, y, amap, split):
    """Test rows of ``split`` as the D-wide evaluation scored them: aligned, then baseline.

    Both sides are zero-padded to D.  The aligned source rows go through the
    D x D map of that evaluation: the linear or ridge map zero-padded, or the
    orthogonal factor of the full SVD of the padded cross-covariance.
    """
    s = amap.stats
    big_d = max(s.d_a, s.d_b)
    tr, te = list(split.train_rows), list(split.test_rows)
    if amap.method == "procrustes":
        w = fit_procrustes(apply_prep(x[tr], s, "source"), apply_prep(y[tr], s, "target"))
    else:
        w = stored_map_v1(amap)
    aligned = (apply_prep(x[te], s, "source") @ w, apply_prep(y[te], s, "target"))
    return aligned, (old_pad(x[te], big_d), old_pad(y[te], big_d))


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
@pytest.mark.parametrize("d_a, d_b", WIDTHS)
def test_native_scores_equal_padded_scores(d_a, d_b, method):
    rng = np.random.default_rng(d_a * 100 + d_b)
    n = 200
    labels = [f"p{i % 40}" for i in range(n)]
    z = rng.standard_normal((40, 12))[np.arange(n) % 40] + 0.3 * rng.standard_normal((n, 12))
    x = l2_normalize(z[:, :d_a] + 0.1 * rng.standard_normal((n, d_a)))
    y = l2_normalize(z[:, -d_b:] + 0.1 * rng.standard_normal((n, d_b)))
    split = identity_disjoint_split(labels, 0.6, 0)
    amap, te = fit_alignment(x, y, method, 0.1, rows=split.train_rows), list(split.test_rows)
    test_labels = [labels[i] for i in te]
    pairs = sample_pairs_capped(test_labels, 150, 150, 0)
    i, j, genuine = pairs.pairs.T
    native = (project(x[te], y[te], amap), project(x[te], y[te]))
    sides = verif_eval._eval_sides(x[te], y[te], amap)
    for kind, padded, ours, pair_sides in zip(
        ("aligned", "baseline"), padded_sides(x, y, amap, split), native,
        (sides[:2], sides[2:]),
    ):
        # every score is the cosine of the two vectors it compares
        scores = ident_eval.score_matrix(*ours)
        assert np.abs(scores - cosines(*ours)).max() <= 1e-12, kind
        got_pairs, _ = verif_eval._score_pairs(*pair_sides, pairs, False)
        assert np.abs(got_pairs - cosines(*ours)[i, j]).max() <= 1e-12, kind
        args = (test_labels, test_labels, 20, 0, False)
        metrics = ident_eval._metrics_from_rows(*ours, *args)
        assert metrics == ident_eval._metrics_from_scores(scores, *args), kind
        # the padded evaluation divided each row by the norm of its padded row:
        # wider than the compared row for the procrustes source rows of d_a > d_b
        # (the D x D map keeps the centered row's norm) and the baseline's wider
        # side (its columns past k), the compared row's own norm everywhere else
        want = ident_eval.score_matrix(*padded)
        want_pairs = np.array(verif_eval.pair_scores(*padded, pairs)[0])
        if kind == "aligned":
            wider = method == "procrustes" and d_a > d_b
        else:
            wider = d_a != d_b
        if not wider:
            assert np.abs(scores - want).max() <= 1e-12, kind
            assert np.abs(got_pairs - want_pairs).max() <= 1e-12, kind
            assert verif_eval._seed_metrics(got_pairs, genuine, 0) == (
                verif_eval._seed_metrics(want_pairs, genuine, 0)), kind
        # where only the queries' denominators differ, each query's scores are
        # scaled by one positive factor: the tie-free scores keep their order
        if not (kind == "baseline" and d_a < d_b):
            for s in (scores, want):
                assert np.diff(np.sort(s.ravel())).min() > 1e-9, kind
            assert metrics == ident_eval._metrics_from_scores(want, *args), kind


@pytest.mark.parametrize("n, d_a, d_b", [(300, 16, 40), (300, 40, 16), (300, 24, 24),
                                         (3000, 512, 256)])
def test_thin_procrustes_is_the_padded_block(n, d_a, d_b):
    rng = np.random.default_rng(d_a + d_b)
    xc = rng.standard_normal((n, d_a))
    yc = xc[:, :min(d_a, d_b)] @ rng.standard_normal((min(d_a, d_b), d_b))
    yc += rng.standard_normal((n, d_b))
    big_d = max(d_a, d_b)
    w = fit_map(xc, yc, "procrustes")
    assert w.shape == (d_a, d_b)
    full = fit_procrustes(old_pad(xc, big_d), old_pad(yc, big_d))
    assert np.abs(w - full[:d_a, :d_b]).max() <= 1e-12


@pytest.mark.parametrize("d_a, d_b", [(5, 3), (3, 5)])
def test_alignment_map_checks_the_smaller_gram(d_a, d_b):
    rng = np.random.default_rng(d_a)
    stats = PrepStats(np.zeros(d_a), np.zeros(d_b), 1)
    big_d = max(d_a, d_b)
    tall = random_orthogonal(big_d, rng)[:, :min(d_a, d_b)]
    block = tall if d_a > d_b else tall.T
    AlignmentMap(block, stats, "procrustes")  # orthonormal columns, or rows
    for bad in (1.001 * block, block + 1e-3 * rng.standard_normal(block.shape)):
        with pytest.raises(ConsistencyError, match="orthogonality"):
            AlignmentMap(bad, stats, "procrustes")
    with pytest.raises(ConsistencyError, match="map shape"):
        AlignmentMap(np.pad(block, [(0, big_d - d_a), (0, big_d - d_b)]), stats, "procrustes")


@pytest.mark.parametrize("d_a, d_b", [(7, 4), (4, 7), (5, 5)])
def test_transform_and_residual_take_native_widths(d_a, d_b):
    for method in ("procrustes", "linear", "ridge"):
        x, y, amap = _fit_pair(d_a, d_b, method)
        out = transform(x[60:] * 3.0, amap)  # rows are normalized first
        assert out.shape == (20, d_b)
        assert np.array_equal(out, project(l2_normalize(x[60:] * 3.0), y[60:], amap)[0])
        xc, yc = center(x[:60], amap.stats, "source"), center(y[:60], amap.stats, "target")
        assert training_residual(amap, xc, yc) == np.linalg.norm(xc @ amap.w - yc)
        with pytest.raises(ConsistencyError, match="widths"):
            training_residual(amap, old_pad(xc, d_a + 1), yc)


# --- a compared vector of zero norm ------------------------------------------
# A score's denominators are the norms of the two compared vectors, so a row
# can be zero where the row it came from is not.  Each such row is a
# DegenerateRowError naming its position among the scored rows.

ZERO_LABELS = [f"p{k // 3}" for k in range(36)]  # 12 identities x 3 images
#: the fifth test row of the seed-0 split, and the row of the whole set it is
ZERO_AT = 4
ZERO_ROW = identity_disjoint_split(ZERO_LABELS, 0.7, 0).test_rows[ZERO_AT]


def _sets_with_source_row(row):
    """Sets 5 and 3 columns wide of one list of images; source row ``ZERO_ROW`` is ``row``."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((36, 5)).astype(np.float32)
    x[ZERO_ROW] = row
    y = rng.standard_normal((36, 3)).astype(np.float32)
    ids = [f"img{k:02d}" for k in range(36)]  # in sorted order: rows pair in place
    return (EmbeddingSet("a", "d", x, ids, ZERO_LABELS),
            EmbeddingSet("b", "d", y, ids, ZERO_LABELS))


def _zero_row_at(evaluate, *args, **kwargs):
    with pytest.raises(DegenerateRowError) as err:
        evaluate(*args, **kwargs)
    return err.value.row_index


def test_baseline_row_of_zero_shared_columns_is_a_degenerate_row():
    # the baseline compares the first 3 columns, and those of this row are zero
    a, b = _sets_with_source_row([0.0, 0.0, 0.0, 1.0, 1.0])
    assert _zero_row_at(evaluate_identification, a, b, seeds=(0,)) == ZERO_AT
    assert _zero_row_at(evaluate_verification, a, b, seeds=(0,)) == ZERO_AT
    amap = fit_alignment(*unit_pair(a, b)[1:], "procrustes")
    assert _zero_row_at(evaluate_verification, a, b, seeds=(0,), amap=amap,
                        pair_caps=(36, 10)) == ZERO_ROW


def test_zero_procrustes_mapped_row_is_a_degenerate_row():
    # an orthogonal 5 x 3 map that drops the first two columns: the row maps to zero,
    # though it is a unit row, and its baseline columns are not zero
    stats = PrepStats(np.zeros(5), np.zeros(3), 25)
    amap = AlignmentMap(np.eye(5)[:, 2:], stats, "procrustes")
    a, b = _sets_with_source_row([1.0, 1.0, 0.0, 0.0, 0.0])
    with mock.patch.object(align, "fit_sides", return_value=amap):
        assert _zero_row_at(evaluate_identification, a, b, seeds=(0,)) == ZERO_AT
        assert _zero_row_at(evaluate_verification, a, b, seeds=(0,)) == ZERO_AT
    assert _zero_row_at(evaluate_verification, a, b, seeds=(0,), amap=amap,
                        pair_caps=(36, 10)) == ZERO_ROW


def test_evaluations_normalize_one_split_part_at_a_time(small_views):
    # each seed gathers and normalizes each side's train rows and test rows from
    # the sets' rows, once: no call sees all the shared rows, or two parts at once
    v0, v1 = small_views
    labels, seeds = align.pair_sets(v0, v1)[0], (0, 3)
    splits = [identity_disjoint_split(labels, 0.7, seed) for seed in seeds]
    parts = [len(rows) for s in splits for rows in (s.train_rows, s.train_rows, s.test_rows,
                                                    s.test_rows)]
    with mock.patch.object(align, "l2_normalize", wraps=align.l2_normalize) as norm:
        evaluate_identification(v0, v1, "linear", seeds=seeds)
        evaluate_verification(v0, v1, "ridge", seeds=seeds)
    assert [len(c.args[0]) for c in norm.call_args_list] == parts * 2
    assert max(parts) < len(labels)


def test_transform_equals_the_scored_queries(small_views, monkeypatch):
    v0, v1 = small_views
    a, _ = intersect_on_images(v0, v1)
    labels, x, y = unit_pair(v0, v1)
    split = identity_disjoint_split(labels, 0.7, 0)
    amap, test = fit_alignment(x, y, "ridge", 0.1, rows=split.train_rows), list(split.test_rows)
    expected = transform(a.rows[test], amap).tobytes()

    scored = []
    real_rows = ident_eval._metrics_from_rows
    monkeypatch.setattr(ident_eval, "_metrics_from_rows",
                        lambda q, *args: scored.append(q) or real_rows(q, *args))
    evaluate_identification(v0, v1, "ridge", seeds=(0,))
    assert scored[0].tobytes() == expected  # scored[1] holds the baseline queries

    sides = []
    real_sides = verif_eval._eval_sides
    monkeypatch.setattr(verif_eval, "_eval_sides",
                        lambda *args: sides.append(real_sides(*args)) or sides[-1])
    evaluate_verification(v0, v1, "ridge", seeds=(0,))
    cross_map = fit_alignment(x, y, "ridge", 0.1)
    evaluate_verification(v0, v1, "ridge", seeds=(0,), amap=cross_map, pair_caps=(40, 40))
    (intra_queries, _), (cross_queries, _) = sides[0][0], sides[1][0]
    assert intra_queries.tobytes() == expected
    assert cross_queries.tobytes() == transform(a.rows, cross_map).tobytes()


def test_alignment_map_rejects_nonorthogonal_procrustes():
    with pytest.raises(ConsistencyError):
        AlignmentMap(2.0 * np.eye(3), make_stats(3), "procrustes")


@pytest.mark.parametrize("d_a, d_b", [(0, 3), (3, 0), (0, 0)])
def test_alignment_map_refuses_a_zero_width(d_a, d_b):
    # every fit refuses a zero width, so no map may have one either
    stats = PrepStats(np.zeros(d_a), np.zeros(d_b), 4)
    with pytest.raises(ConsistencyError, match="zero width"):
        AlignmentMap(np.zeros((d_a, d_b)), stats, "linear")


def _fit_pair(d_a, d_b, method, **meta):
    """Unit rows of widths d_a and d_b and the map fit on their first 60 rows."""
    rng = np.random.default_rng(21)
    x = l2_normalize(rng.standard_normal((80, d_a)))
    y = l2_normalize(rng.standard_normal((80, d_b)))
    return x, y, fit_alignment(x, y, method, 0.1, rows=list(range(60)), **meta)


@pytest.mark.parametrize("d_a, d_b", [(6, 6), (4, 9), (9, 4)])
def test_reversed_procrustes_map_is_the_transposed_map(d_a, d_b):
    x, y, amap = _fit_pair(d_a, d_b, "procrustes", source_model="a", target_model="b", seed=3)
    rev = amap.reversed()
    assert np.array_equal(rev.w, amap.w.T)
    assert np.array_equal(rev.stats.mu_x, amap.stats.mu_y)
    assert np.array_equal(rev.stats.mu_y, amap.stats.mu_x)
    assert (rev.stats.d_a, rev.stats.d_b, rev.stats.n_train) == (d_b, d_a, 60)
    assert (rev.method, rev.alpha, rev.source_model, rev.target_model, rev.seed) == (
        "procrustes", 0.0, "b", "a", 3)
    # it passes the orthogonality check of a procrustes map
    AlignmentMap(rev.w, rev.stats, "procrustes")
    assert rev.w.shape == (d_b, d_a)
    gram = rev.w.T @ rev.w if d_b >= d_a else rev.w @ rev.w.T
    assert np.linalg.norm(gram - np.eye(min(d_a, d_b))) <= 1e-8

    # a fit from y to x on the same rows: the same means, and the same map, which
    # is unique for a full-rank cross-covariance; and so the same scores
    direct = fit_alignment(y, x, "procrustes", rows=list(range(60)))
    assert np.array_equal(direct.stats.mu_x, rev.stats.mu_x)
    assert np.array_equal(direct.stats.mu_y, rev.stats.mu_y)
    assert np.abs(rev.w - direct.w).max() <= 1e-12
    scores = [ident_eval.score_matrix(*project(y[60:], x[60:], m)) for m in (rev, direct)]
    assert np.abs(scores[0] - scores[1]).max() <= 1e-12

    twice = rev.reversed()
    assert twice.w.tobytes() == amap.w.tobytes()
    assert twice.stats.mu_x.tobytes() == amap.stats.mu_x.tobytes()
    assert twice.stats.mu_y.tobytes() == amap.stats.mu_y.tobytes()
    assert (twice.stats.d_a, twice.stats.d_b, twice.stats.n_train) == (d_a, d_b, 60)
    assert (twice.source_model, twice.target_model, twice.seed) == ("a", "b", 3)


def test_one_side_onto_itself_is_the_identity_map():
    rng = np.random.default_rng(23)
    side = align.prepare_side(l2_normalize(rng.standard_normal((40, 9))), range(30), range(30, 40))
    with mock.patch.object(align, "fit_map", wraps=align.fit_map) as fit:
        amap = align.fit_sides(side, side, "procrustes", source_model="a", target_model="a",
                               seed=4)
    fit.assert_not_called()
    assert amap.w.tobytes() == np.eye(9).tobytes()
    assert amap.stats.mu_x.tobytes() == amap.stats.mu_y.tobytes() == side.mean.tobytes()
    assert (amap.stats.d_a, amap.stats.d_b, amap.stats.n_train) == (9, 9, 30)
    assert (amap.method, amap.alpha, amap.source_model, amap.seed) == ("procrustes", 0.0, "a", 4)
    # two sides of the same full-rank rows are two objects: the SVD path, whose
    # unique optimum is I up to rounding
    svd = align.fit_sides(side, align.Side(side.train, side.test, side.mean), "procrustes")
    assert np.abs(svd.w - np.eye(9)).max() <= 1e-12
    # the regressions still fit: the minimum-norm map of a rank-deficient X (rows
    # in a 5-dim subspace of 9 columns) is the projector onto its row space, not
    # I, and ridge shrinks the map
    x = l2_normalize(rng.standard_normal((40, 5)) @ rng.standard_normal((5, 9)))
    side = align.prepare_side(x, range(30), range(30, 40))
    with mock.patch.object(align, "fit_map", wraps=align.fit_map) as fit:
        linear = align.fit_sides(side, side, "linear")
        ridge = align.fit_sides(side, side, "ridge", 0.5)
    assert fit.call_count == 2
    assert np.abs(linear.w @ linear.w - linear.w).max() <= 1e-9
    assert abs(np.trace(linear.w) - 5.0) <= 1e-9
    assert np.linalg.norm(ridge.w, 2) < 1.0


@pytest.mark.parametrize("method", ["linear", "ridge"])
def test_regression_maps_cannot_be_reversed(method):
    _, _, amap = _fit_pair(5, 7, method)
    with pytest.raises(ConsistencyError, match="cannot be reversed"):
        amap.reversed()


def test_map_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    stats = PrepStats(rng.standard_normal(4), rng.standard_normal(6), 33)
    amap = AlignmentMap(
        rng.standard_normal((4, 6)), stats, "ridge", alpha=0.1,
        source_model="a", target_model="b", seed=3,
    )
    path = str(tmp_path / "m.amap")
    save_map(amap, path)
    loaded = load_map(path)
    assert np.array_equal(loaded.w, amap.w)
    assert np.array_equal(loaded.stats.mu_x, stats.mu_x)
    assert np.array_equal(loaded.stats.mu_y, stats.mu_y)
    assert loaded.method == "ridge" and loaded.alpha == 0.1
    assert loaded.stats.n_train == 33 and loaded.seed == 3


# --- map files of format version 1 -----------------------------------------
# Version 1 stored the D x D map, D = max(d_a, d_b), with the d_a x d_b map as
# its leading block.  The helpers below write that layout, as the writer of
# version 1 did, so the reader's compatibility is tested against it.

def stored_map_v1(amap):
    """The D x D map a file of format version 1 stores, ``amap.w`` as its leading block.

    Linear and ridge maps get zero rows and columns.  A procrustes map gets
    an orthonormal completion from a complete QR, so the stored map is
    orthogonal as well.
    """
    w = amap.w
    big_d = max(w.shape)
    if amap.method != "procrustes":
        return np.pad(w, [(0, big_d - w.shape[0]), (0, big_d - w.shape[1])])
    tall = w if w.shape[0] >= w.shape[1] else w.T
    q = np.linalg.qr(tall, mode="complete")[0]
    full = np.hstack([tall, q[:, tall.shape[1]:]])
    return full if tall is w else full.T


def map_bytes_v1(amap, stored=None):
    """The bytes of ``amap``'s map file of format version 1, map block ``stored``.

    ``stored`` defaults to :func:`stored_map_v1`.  The header's offsets
    count from the start of the file, so it references itself: the
    offsets are iterated until the header length is stable.
    """
    stored = stored_map_v1(amap) if stored is None else stored
    blocks = {name: np.ascontiguousarray(b, dtype="<f8").tobytes()
              for name, b in (("mu_x", amap.stats.mu_x), ("mu_y", amap.stats.mu_y),
                              ("w", stored))}
    header = {
        "format_version": 1, "method": amap.method, "alpha": amap.alpha,
        "d_a": amap.stats.d_a, "d_b": amap.stats.d_b, "D": len(stored),
        "n_train": amap.stats.n_train, "source_model": amap.source_model,
        "target_model": amap.target_model, "seed": amap.seed,
    }
    offsets = dict.fromkeys(blocks, 0)
    for _ in range(8):
        header.update({f"offset_{name}": at for name, at in offsets.items()})
        line = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        new, at = {}, len(line)
        for name, block in blocks.items():
            new[name], at = at, at + len(block)
        if new == offsets:
            break
        offsets = new
    return line + b"".join(blocks.values())


def file_header(path):
    with open(path, "rb") as f:
        blob = f.read()
    return blob, json.loads(blob[:blob.index(b"\n")])


def assert_same_map(got, want):
    """Every field of two maps agrees, float arrays to the bit."""
    for name, a, b in (("w", got.w, want.w), ("mu_x", got.stats.mu_x, want.stats.mu_x),
                       ("mu_y", got.stats.mu_y, want.stats.mu_y)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert (got.method, got.alpha, got.seed, got.stats.n_train) == (
        want.method, want.alpha, want.seed, want.stats.n_train)
    assert (got.source_model, got.target_model) == (want.source_model, want.target_model)


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
@pytest.mark.parametrize("d_a, d_b", [(4, 9), (6, 6), (9, 4)])
def test_map_file_round_trip_native_block(tmp_path, d_a, d_b, method):
    _, _, amap = _fit_pair(d_a, d_b, method, source_model="a", target_model="b", seed=2)
    path = str(tmp_path / "m.amap")
    save_map(amap, path)
    blob, header = file_header(path)
    # format version 2: the w block is the d_a x d_b map itself, and there is no D
    assert header["format_version"] == 2 and "D" not in header
    assert (header["d_a"], header["d_b"]) == (d_a, d_b)
    assert blob[header["offset_w"]:] == amap.w.tobytes()
    loaded = load_map(path)
    assert_same_map(loaded, amap)
    assert (loaded.method, loaded.alpha, loaded.seed, loaded.stats.n_train) == (
        method, amap.alpha, 2, 60)
    assert (loaded.source_model, loaded.target_model) == ("a", "b")


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
@pytest.mark.parametrize("d_a, d_b", [(4, 9), (6, 6), (9, 4)])
def test_v1_map_file_loads_as_the_v2_round_trip(tmp_path, d_a, d_b, method):
    _, _, amap = _fit_pair(d_a, d_b, method, source_model="a", target_model="b", seed=2)
    stored = stored_map_v1(amap)
    big_d = max(d_a, d_b)
    assert stored.shape == (big_d, big_d)
    assert stored[:d_a, :d_b].tobytes() == amap.w.tobytes()
    if method == "procrustes":
        # an orthonormal completion: the stored map is orthogonal
        assert np.abs(stored.T @ stored - np.eye(big_d)).max() <= 1e-12
    else:
        assert not stored[d_a:].any() and not stored[:, d_b:].any()
    v1, v2 = tmp_path / "v1.amap", tmp_path / "v2.amap"
    v1.write_bytes(map_bytes_v1(amap))
    save_map(amap, str(v2))
    assert file_header(v1)[1]["D"] == big_d
    assert_same_map(load_map(str(v1)), load_map(str(v2)))
    assert len(v2.read_bytes()) < len(v1.read_bytes())


def test_load_map_checks_the_stored_block(tmp_path):
    # version 1: a linear map with a nonzero entry outside its d_a x d_b block
    _, _, amap = _fit_pair(4, 6, "linear")
    stored = stored_map_v1(amap)
    stored[4, 1] = 0.5
    with pytest.raises(FormatError, match="outside"):
        load_bytes(tmp_path, map_bytes_v1(amap, stored))
    # version 1: a procrustes map whose leading block is orthonormal but the
    # stored map is not
    _, _, amap = _fit_pair(6, 4, "procrustes")
    stored = stored_map_v1(amap)
    stored[:, 4:] *= 2.0
    with pytest.raises(ConsistencyError, match="orthogonality"):
        load_bytes(tmp_path, map_bytes_v1(amap, stored))
    # version 2: a procrustes map that is not orthonormal
    path = str(tmp_path / "p.amap")
    save_map(amap, path)
    blob, header = file_header(path)
    at = header["offset_w"]
    bad = blob[:at] + (2.0 * amap.w).astype("<f8").tobytes()
    with pytest.raises(ConsistencyError, match="orthogonality"):
        load_bytes(tmp_path, bad)


# --- map file header validation -------------------------------------------

def saved_map_blob(tmp_path, version=2):
    """Bytes of a valid ridge map file with d_a=4, d_b=6 and format ``version``, its header."""
    rng = np.random.default_rng(13)
    stats = PrepStats(rng.standard_normal(4), rng.standard_normal(6), 33)
    amap = AlignmentMap(rng.standard_normal((4, 6)), stats, "ridge", alpha=0.1, seed=3)
    path = tmp_path / "valid.amap"
    if version == 1:
        path.write_bytes(map_bytes_v1(amap))
    else:
        save_map(amap, str(path))
    blob = path.read_bytes()
    newline = blob.index(b"\n")
    return blob, json.loads(blob[:newline]), newline


def with_header(header, data, width):
    """A map file from a header dict and data bytes, header padded to width."""
    line = json.dumps(header).encode()
    return line.ljust(width) + b"\n" + data


def load_bytes(tmp_path, blob):
    path = tmp_path / "m.amap"
    path.write_bytes(blob)
    return load_map(str(path))


BAD_HEADERS = {
    "version_only": lambda h: {"format_version": h["format_version"]},
    "not_an_object": lambda h: [h],
    "bool_version": lambda h: {**h, "format_version": True},
    "unknown_version": lambda h: {**h, "format_version": 3},
    "missing_d_b": lambda h: {k: v for k, v in h.items() if k != "d_b"},
    "float_d_a": lambda h: {**h, "d_a": 4.0},
    "negative_n_train": lambda h: {**h, "n_train": -1},
    "zero_d_a": lambda h: {**h, "d_a": 0},
    "zero_d_b": lambda h: {**h, "d_b": 0},
    "string_alpha": lambda h: {**h, "alpha": "0.1"},
    "unknown_method": lambda h: {**h, "method": "cubic"},
    "D_not_max": lambda h: {**h, "D": 7},
    "missing_D": lambda h: {k: v for k, v in h.items() if k != "D"},
    "blocks_overlap": lambda h: {**h, "offset_mu_y": h["offset_mu_x"] + 8},
    "block_in_header": lambda h: {**h, "offset_mu_x": 0},
    "block_past_end": lambda h: {**h, "offset_w": h["offset_w"] + 8},
}
#: mutations of a field that only format version 1 has
V1_ONLY = {"D_not_max", "missing_D"}


@pytest.mark.parametrize("name", BAD_HEADERS)
def test_load_map_rejects_bad_header(tmp_path, name):
    for version in (1,) if name in V1_ONLY else (1, 2):
        blob, header, newline = saved_map_blob(tmp_path, version)
        bad = with_header(BAD_HEADERS[name](dict(header)), blob[newline + 1:], newline)
        with pytest.raises(FormatError):
            load_bytes(tmp_path, bad)


def test_load_map_rejects_non_finite_block(tmp_path):
    for version in (1, 2):
        blob, header, _ = saved_map_blob(tmp_path, version)
        at = header["offset_w"]
        bad = blob[:at] + np.array([np.nan]).tobytes() + blob[at + 8:]
        with pytest.raises(FormatError):
            load_bytes(tmp_path, bad)


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(),
    st.text(max_size=4), st.lists(st.integers(0, 9), max_size=2),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_map_fuzz_raises_only_format_errors(tmp_path, data):
    blob, header, newline = saved_map_blob(tmp_path, data.draw(st.sampled_from([1, 2])))
    kind = data.draw(st.sampled_from(["truncate", "field", "bytes"]))
    if kind == "truncate":
        bad = blob[: data.draw(st.integers(0, len(blob) - 1))]
    elif kind == "field":
        h = dict(header)
        for key in data.draw(st.lists(st.sampled_from(sorted(h)), min_size=1, max_size=3,
                                             unique=True)):
            if data.draw(st.booleans()):
                del h[key]
            elif key.startswith("offset_") and data.draw(st.booleans()):
                h[key] += data.draw(st.integers(-60, 60))  # shifted, often misaligned
            else:
                h[key] = data.draw(JSON_VALUES)
        bad = with_header(h, blob[newline + 1:], newline)
    else:
        positions = data.draw(st.lists(st.integers(0, newline), min_size=1, max_size=4))
        mutable = bytearray(blob)
        for pos in positions:
            mutable[pos] = data.draw(st.integers(0, 255))
        bad = bytes(mutable)
    try:
        load_bytes(tmp_path, bad)
    except (FormatError, ConsistencyError, IoError):
        pass
