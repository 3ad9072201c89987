import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from embalign import (
    CompatibilityMatrix,
    EmbeddingSet,
    agglomerative_cluster,
    asymmetry_stats,
    build_compatibility_matrix,
    evaluate_identification,
    symmetrize,
    training_size_sweep,
)
from embalign import align, analysis, ident_eval
from embalign.errors import (
    ArgumentError,
    ConsistencyError,
    DegenerateRowError,
    EmbalignError,
    EmptyIntersectionError,
    LabelConflictError,
    ProtocolError,
)
from embalign.prep import apply_prep, fit_prep, l2_normalize
from embalign.splits import _rng, identity_disjoint_split


# --- brute-force agglomeration oracle -------------------------------------

def naive_agglomerate(dist, linkage):
    """Plain list-based agglomeration; returns merges as (id, id, height)."""
    m = dist.shape[0]
    clusters = {i: [i] for i in range(m)}
    next_id = m
    merges = []

    def cluster_dist(a, b):
        vals = [dist[i, j] for i in clusters[a] for j in clusters[b]]
        if linkage == "average":
            return sum(vals) / len(vals)
        return min(vals) if linkage == "single" else max(vals)

    while len(clusters) > 1:
        keys = sorted(clusters)
        best = None
        for x in range(len(keys)):
            for y in range(x + 1, len(keys)):
                d = cluster_dist(keys[x], keys[y])
                if best is None or d < best[0]:
                    best = (d, keys[x], keys[y])
        d, a, b = best
        merges.append((a, b, d))
        clusters[next_id] = clusters.pop(a) + clusters.pop(b)
        next_id += 1
    return merges


def cm_from(rank1, names=None):
    rank1 = np.asarray(rank1, dtype=np.float64)
    names = names or [f"m{i}" for i in range(rank1.shape[0])]
    return CompatibilityMatrix(names, rank1)


# --- symmetrize -----------------------------------------------------------

def test_symmetrize_average():
    s = symmetrize(cm_from([[100.0, 80.0], [60.0, 100.0]]))
    assert s[0, 1] == 70.0 and s[1, 0] == 70.0


def test_symmetrize_symmetric_unchanged():
    mat = np.array([[100.0, 42.0], [42.0, 100.0]])
    assert np.array_equal(symmetrize(cm_from(mat)), mat)


def test_symmetrize_output_symmetric():
    rng = np.random.default_rng(0)
    mat = rng.uniform(0, 100, (5, 5))
    s = symmetrize(cm_from(mat))
    assert np.abs(s - s.T).max() <= 1e-12


def test_symmetrize_idempotent():
    rng = np.random.default_rng(1)
    mat = rng.uniform(0, 100, (4, 4))
    s1 = symmetrize(cm_from(mat))
    s2 = symmetrize(cm_from(s1))
    assert np.allclose(s1, s2)


def test_symmetrize_missing_raises():
    mat = np.array([[100.0, np.nan], [60.0, 100.0]])
    with pytest.raises(ProtocolError):
        symmetrize(cm_from(mat))


# --- clustering -----------------------------------------------------------

def two_group_similarity(m_per_group=2, within=95.0, across=10.0):
    m = 2 * m_per_group
    s = np.full((m, m), across)
    s[:m_per_group, :m_per_group] = within
    s[m_per_group:, m_per_group:] = within
    np.fill_diagonal(s, 100.0)
    return s


def test_two_tight_groups_merge_within_first():
    s = two_group_similarity()
    groups = [frozenset({0, 1}), frozenset({2, 3})]
    for linkage in ("average", "single", "complete"):
        dend = agglomerative_cluster(s, linkage)
        for a, b, _ in dend.merges[:2]:
            assert dend.leaves_of(a) | dend.leaves_of(b) in groups
        oracle = naive_agglomerate(100.0 - s, linkage)
        for a, b, _ in oracle[:2]:
            assert frozenset({a, b}) in groups


def test_cluster_matches_naive_heights():
    rng = np.random.default_rng(3)
    base = rng.uniform(0, 100, (5, 5))
    s = (base + base.T) / 2
    np.fill_diagonal(s, 100.0)
    for linkage in ("average", "single", "complete"):
        dend = agglomerative_cluster(s, linkage)
        oracle = naive_agglomerate(100.0 - s, linkage)
        assert len(dend.merges) == 4
        got = sorted(h for _, _, h in dend.merges)
        want = sorted(h for _, _, h in oracle)
        assert np.allclose(got, want, atol=1e-9)


def test_cluster_two_models():
    s = np.array([[100.0, 64.0], [64.0, 100.0]])
    dend = agglomerative_cluster(s, "average")
    assert len(dend.merges) == 1
    assert dend.merges[0][2] == pytest.approx(36.0)


def test_cluster_degenerate_equal_similarities():
    s = np.full((4, 4), 50.0)
    np.fill_diagonal(s, 100.0)
    dend = agglomerative_cluster(s, "single")
    heights = [h for _, _, h in dend.merges]
    assert np.allclose(heights, 50.0)


def test_cluster_heights_nondecreasing():
    rng = np.random.default_rng(4)
    base = rng.uniform(0, 100, (7, 7))
    s = (base + base.T) / 2
    np.fill_diagonal(s, 100.0)
    for linkage in ("average", "complete"):
        heights = [h for _, _, h in agglomerative_cluster(s, linkage).merges]
        assert heights == sorted(heights)


def test_cluster_rejects_asymmetric():
    s = np.array([[100.0, 10.0], [20.0, 100.0]])
    with pytest.raises(ConsistencyError):
        agglomerative_cluster(s, "average")


def test_newick_output():
    s = two_group_similarity()
    dend = agglomerative_cluster(s, "average", model_names=["a", "b", "c", "d"])
    text = dend.to_newick()
    assert text.endswith(";")
    for name in "abcd":
        assert name in text


# --- asymmetry ------------------------------------------------------------

def test_asymmetry_symmetric_matrix():
    mat = np.array([[100.0, 70.0], [70.0, 100.0]])
    stats = asymmetry_stats(cm_from(mat))
    assert stats["mean_deviation"] == 0.0
    for entry in stats["per_model"].values():
        assert entry["incoming_mean"] == entry["outgoing_mean"]


def test_asymmetry_hand_case():
    mat = np.array([[100.0, 90.0], [50.0, 100.0]])
    stats = asymmetry_stats(cm_from(mat, ["m0", "m1"]))
    assert stats["mean_deviation"] == 40.0
    assert stats["per_model"]["m0"]["incoming_mean"] == 50.0
    assert stats["per_model"]["m0"]["outgoing_mean"] == 90.0
    assert stats["per_model"]["m1"]["incoming_mean"] == 90.0
    assert stats["per_model"]["m1"]["outgoing_mean"] == 50.0


def test_asymmetry_permutation_equivariance():
    rng = np.random.default_rng(5)
    mat = rng.uniform(0, 100, (4, 4))
    names = ["a", "b", "c", "d"]
    stats = asymmetry_stats(cm_from(mat, names))
    perm = [2, 0, 3, 1]
    permuted = mat[np.ix_(perm, perm)]
    stats_p = asymmetry_stats(cm_from(permuted, [names[i] for i in perm]))
    assert stats["mean_deviation"] == pytest.approx(stats_p["mean_deviation"])
    for name in names:
        assert stats["per_model"][name]["incoming_mean"] == pytest.approx(
            stats_p["per_model"][name]["incoming_mean"]
        )


def test_asymmetry_single_model():
    with pytest.raises(ArgumentError):
        asymmetry_stats(cm_from([[100.0]]))


# --- compatibility matrix and sweep (protocol level) ----------------------

def test_compatibility_matrix_synthetic(small_views):
    v0, v1 = small_views
    cm = build_compatibility_matrix([v0, v1], seeds=(0,), fraction=0.7)
    assert cm.rank1.shape == (2, 2)
    assert np.diag(cm.rank1).min() >= 99.0
    assert np.nanmin(cm.rank1) >= 0.0


def test_compatibility_matrix_single_model(small_views):
    v0, _ = small_views
    cm = build_compatibility_matrix([v0], seeds=(0,))
    assert cm.rank1.shape == (1, 1)


def test_compatibility_matrix_scores_only_the_aligned_side(small_views):
    v0, v1 = small_views
    # a model that saw none of the others' images: its off-diagonal cells fail
    lone = EmbeddingSet("lone", "", v0.rows, [f"x{i}" for i in v0.image_ids], v0.labels)
    sets = [v0, v1, lone]
    with mock.patch.object(ident_eval, "score_matrix", wraps=ident_eval.score_matrix) as spy, \
            mock.patch.object(analysis, "l2_normalize", wraps=analysis.l2_normalize) as norm, \
            mock.patch.object(analysis, "identity_disjoint_split",
                              wraps=analysis.identity_disjoint_split) as split:
        cm = build_compatibility_matrix(sets, seeds=(0, 1))
    live = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    assert spy.call_count == len(live) * 2  # one score matrix per (cell, seed)
    assert norm.call_count == len(sets)  # each model is normalized once
    # the live cells share one label list (lone's ids sort like v0's): one split per seed
    assert split.call_count == 2
    for i in range(3):
        for j in range(3):
            if (i, j) not in live:
                assert np.isnan(cm.rank1[i, j])
                continue
            report = evaluate_identification(sets[i], sets[j], seeds=(0, 1))
            assert cm.rank1[i, j] == 100.0 * report.summary["rank_k"]["1"]["mean"]


def _subset(es, name, keep, prefix="", zero=None, relabel=None, copies=()):
    """Model ``name`` holding the rows ``keep`` of es, optionally altered.

    ``prefix`` renames every image id; ``zero`` (a row of es) becomes an
    all-zero row, ``relabel`` (a row of es) gets a label no other model
    gives its image, and each ``(dst, src)`` in ``copies`` gives row dst
    the embedding of row src.
    """
    keep = list(keep)
    rows = es.rows[keep].copy()
    labels = [es.labels[k] for k in keep]
    for dst, src in copies:
        rows[keep.index(dst)] = es.rows[src]
    if zero is not None:
        rows[keep.index(zero)] = 0.0
    if relabel is not None:
        labels[keep.index(relabel)] = "conflict"
    return EmbeddingSet(name, "", rows, [prefix + es.image_ids[k] for k in keep], labels)


def test_compatibility_matrix_cells_equal_identification_or_fail_alike(small_views):
    v0, v1 = small_views  # 150 images, 5 per identity, the same ids and labels in both
    # head's first image of every odd identity repeats that of the even one
    # before it: tied gallery scores, won by the image whose id sorts first
    twins = [(10 * k + 5, 10 * k) for k in range(11)]
    sets = [
        _subset(v0, "full", range(150)),
        _subset(v1, "head", range(110), copies=twins),  # head and tail share 40..109
        _subset(v1, "tail", range(40, 150)),
        _subset(v0, "lone", range(150), prefix="x"),  # shares no image with the others
        _subset(v1, "clash", range(60, 150), relabel=120),  # conflicts with full and tail
        _subset(v0, "zero", range(80), zero=5),  # all-zero row on an image tail lacks
    ]
    names = [s.model_name for s in sets]
    missing = {("lone", n) for n in names if n != "lone"}
    missing |= {("clash", "full"), ("clash", "tail"), ("zero", "full"), ("zero", "head"),
                ("zero", "zero")}
    missing |= {(b, a) for a, b in missing}
    cm = build_compatibility_matrix(sets, seeds=(0, 1))
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            if (names[i], names[j]) in missing:
                assert np.isnan(cm.rank1[i, j])
                with pytest.raises(EmbalignError):
                    evaluate_identification(a, b, seeds=(0, 1))
                continue
            report = evaluate_identification(a, b, seeds=(0, 1))
            assert cm.rank1[i, j] == 100.0 * report.summary["rank_k"]["1"]["mean"]


def test_compatibility_matrix_refuses_repeated_model_names(small_views):
    with pytest.raises(ConsistencyError, match="'a'"):
        cm_from(np.full((3, 3), 50.0), ["a", "b", "a"])
    v0, v1 = small_views
    twin = EmbeddingSet("m0", "", v1.rows, v1.image_ids, v1.labels)
    with mock.patch.object(analysis, "aligned_rank1") as cell, \
            pytest.raises(ConsistencyError, match="'m0'"):
        build_compatibility_matrix([v0, v1, twin], seeds=(0,))
    cell.assert_not_called()  # refused before any cell is evaluated


@pytest.mark.parametrize("kwargs, error", [
    (dict(fraction=1.5), ArgumentError),
    (dict(fraction=0.0), ArgumentError),
    (dict(seeds=(0, -1)), ArgumentError),
    (dict(method="ridge", alpha=0.0), ConsistencyError),
    (dict(method="lasso"), ConsistencyError),
])
def test_compatibility_matrix_checks_arguments_before_any_cell(small_views, kwargs, error):
    # each of these made every cell fail, which read as an all-missing matrix
    with mock.patch.object(analysis, "aligned_rank1") as cell, pytest.raises(error):
        build_compatibility_matrix(list(small_views), **{"seeds": (0,), **kwargs})
    cell.assert_not_called()


def test_all_missing_matrix_warns_nothing(small_views):
    v0, _ = small_views
    rows = v0.rows.copy()
    rows[3] = 0.0  # every cell of a lone model with a zero row fails
    zero = EmbeddingSet("zero", "", rows, v0.image_ids, v0.labels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cm = build_compatibility_matrix([zero], seeds=(0,))
        assert np.isnan(cm.rank1).all()
        with pytest.raises(ConsistencyError):
            cm_from([[np.nan, 101.0], [np.nan, np.nan]])


def _failing_cell(monkeypatch, exc):
    """Make the evaluation of the cell m0 -> m1, the second in row-major order, raise exc."""
    real = analysis.aligned_rank1
    calls = []

    def evaluate(*args):
        calls.append(args)
        if len(calls) == 2:
            raise exc
        return real(*args)

    monkeypatch.setattr(analysis, "aligned_rank1", evaluate)


def test_compatibility_matrix_protocol_error_is_missing_cell(small_views, monkeypatch):
    _failing_cell(monkeypatch, ProtocolError("no relevant gallery items"))
    cm = build_compatibility_matrix(list(small_views), seeds=(0,))
    assert np.isnan(cm.rank1[0, 1])
    assert not np.isnan(np.delete(cm.rank1.ravel(), 1)).any()


def test_compatibility_matrix_bug_propagates(small_views, monkeypatch):
    _failing_cell(monkeypatch, TypeError("bug in a cell"))
    with pytest.raises(TypeError, match="bug in a cell"):
        build_compatibility_matrix(list(small_views), seeds=(0,))


def test_sweep_shape_and_determinism(small_views):
    v0, v1 = small_views
    kwargs = dict(seeds=(0, 1), methods=("procrustes", "linear"))
    t1 = training_size_sweep(v0, v1, [0.5, 1.0], **kwargs)
    t2 = training_size_sweep(v0, v1, [0.5, 1.0], **kwargs)
    assert len(t1["summary"]) == 4
    assert t1 == t2


def test_sweep_rejects_unsorted_fractions(small_views):
    v0, v1 = small_views
    with pytest.raises(ArgumentError):
        training_size_sweep(v0, v1, [0.9, 0.1], seeds=(0,))


def test_sweep_rejects_empty_pool(small_views):
    v0, v1 = small_views
    with pytest.raises(ArgumentError):
        training_size_sweep(v0, v1, [0.001], seeds=(0,))


# --- references: the sweep and the matrix cell pairing the shared paths replaced

def ref_training_size_sweep(source, target, fractions, seeds, methods, base_fraction, alpha):
    """The sweep's own prep -> fit -> score -> rank pipeline, verbatim."""
    fractions = list(fractions)
    labels, norm_a, norm_b = align.unit_pair(source, target)
    points = []
    for seed in seeds:
        split = identity_disjoint_split(labels, base_fraction, seed)
        pool = sorted(split.train_identities)
        order = _rng(analysis._TAG_SWEEP, seed).permutation(len(pool))
        test = list(split.test_rows)
        test_labels = [labels[i] for i in test]
        for frac in fractions:
            n_ids = int(len(pool) * frac)
            keep = {pool[i] for i in order[:n_ids]}
            rows = [i for i in split.train_rows if labels[i] in keep]
            stats = fit_prep(norm_a[rows], norm_b[rows])
            xp = apply_prep(norm_a[rows], stats, "source")
            yp = apply_prep(norm_b[rows], stats, "target")
            queries_raw = apply_prep(norm_a[test], stats, "source")
            gallery = apply_prep(norm_b[test], stats, "target")
            for method in methods:
                w = align.fit_map(xp, yp, method, alpha)
                scores = ident_eval.score_matrix(queries_raw @ w, gallery)
                points.append(
                    {
                        "method": method,
                        "fraction": frac,
                        "seed": int(seed),
                        "n_train_identities": n_ids,
                        "n_train_rows": len(rows),
                        "rank1": ident_eval.rank_k_accuracy(scores, test_labels, test_labels, 1),
                    }
                )
    summary = []
    for method in methods:
        for frac in fractions:
            vals = np.array(
                [p["rank1"] for p in points if p["method"] == method and p["fraction"] == frac]
            )
            summary.append(
                {
                    "method": method,
                    "fraction": frac,
                    "rank1_mean": float(vals.mean()),
                    "rank1_std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                }
            )
    return {"points": points, "summary": summary}


@pytest.mark.parametrize("seeds, fractions, base_fraction, alpha", [
    ((0, 1, 2), (0.1, 0.25, 0.5, 0.75, 1.0), 0.7, 0.1),
    ((3, 7), (0.3, 0.6, 1.0), 0.5, 0.5),
    ((11,), (1.0,), 0.8, 2.0),
])
def test_sweep_equals_its_former_pipeline(small_views, seeds, fractions, base_fraction, alpha):
    v0, v1 = small_views
    # a noisy target, so the three solvers disagree and rank1 is not always 1
    noisy = EmbeddingSet("noisy", "", v1.rows + np.random.default_rng(4).standard_normal(
        v1.rows.shape).astype(np.float32), v1.image_ids, v1.labels)
    methods = ("procrustes", "linear", "ridge")
    for target in (v1, noisy):
        args = (v0, target, fractions, seeds, methods, base_fraction, alpha)
        want = ref_training_size_sweep(*args)
        assert training_size_sweep(*args) == want
    assert len({p["rank1"] for p in want["points"]}) > 1


def test_sweep_point_is_the_aligned_rank1_of_its_split(small_views):
    v0, v1 = small_views
    with mock.patch.object(analysis, "aligned_rank1", wraps=analysis.aligned_rank1) as spy:
        table = training_size_sweep(v0, v1, [0.5], seeds=(2,), methods=("linear",))
    (x, y, labels, (split,), method, alpha), _ = spy.call_args
    assert method == "linear" and split.seed == 2
    kept = {labels[i] for i in split.train_rows}
    assert kept == split.train_identities and len(kept) == table["points"][0]["n_train_identities"]
    assert {labels[i] for i in split.test_rows} == split.test_identities
    assert not split.train_identities & split.test_identities
    n_ids = len(set(labels))
    assert split.train_fraction == len(kept) / n_ids


@dataclass(frozen=True)
class RefUnitModel:
    name: str
    index: dict
    labels: list
    rows: np.ndarray
    dead: frozenset


def ref_unit_model(s):
    order = sorted(range(s.n), key=s.image_ids.__getitem__)
    rows = s.rows[order]
    live = rows.any(axis=1)
    unit = np.zeros(rows.shape)
    unit[live] = l2_normalize(rows[live])
    ids = [s.image_ids[k] for k in order]
    return RefUnitModel(
        name=s.model_name,
        index={iid: r for r, iid in enumerate(ids)},
        labels=[s.labels[k] for k in order],
        rows=unit,
        dead=frozenset(ids[r] for r in np.flatnonzero(~live)),
    )


def ref_shared(a, b):
    shared = [iid for iid in a.index if iid in b.index]
    if not shared:
        raise EmptyIntersectionError(f"no shared image ids between {a.name!r} and {b.name!r}")
    ra = [a.index[iid] for iid in shared]
    rb = [b.index[iid] for iid in shared]
    labels = [a.labels[r] for r in ra]
    for iid, la, r in zip(shared, labels, rb):
        if la != b.labels[r]:
            raise LabelConflictError(f"image {iid!r}: label {la!r} vs {b.labels[r]!r}")
    dead = a.dead | b.dead
    if dead:
        for k, iid in enumerate(shared):
            if iid in dead:
                raise DegenerateRowError(k)
    return labels, a.rows[ra], b.rows[rb]


def ref_compatibility_rank1(sets, method, seeds, fraction, alpha):
    """The matrix cells as per-model id indexes paired them, verbatim."""
    units = [ref_unit_model(s) for s in sets]
    splits = {}
    rank1 = np.full((len(sets), len(sets)), np.nan)
    for i in range(len(sets)):
        for j in range(len(sets)):
            try:
                labels, x, y = ref_shared(units[i], units[j])
                key = tuple(labels)
                if key not in splits:
                    splits[key] = [identity_disjoint_split(labels, fraction, s) for s in seeds]
                rank1[i, j] = 100.0 * ident_eval.aligned_rank1(
                    x, y, labels, splits[key], method, alpha
                )
            except EmbalignError:
                pass
    return rank1


@pytest.mark.parametrize("method, alpha", [("procrustes", 0.1), ("ridge", 0.5)])
def test_matrix_zero_row_fails_only_the_cells_that_share_it(small_views, method, alpha):
    v0, v1 = small_views  # 150 images, the same ids and labels in both
    # image 12 is all-zero in "a" and "b" only; "c" lacks it, "d" and "e" hold it live
    sets = [
        _subset(v0, "a", range(150), zero=12),
        _subset(v1, "b", range(0, 100), zero=12),
        _subset(v1, "c", range(20, 150)),
        _subset(v0, "d", range(0, 150, 2)),
        _subset(v1, "e", range(10, 90)),
    ]
    shares_zero = {"a", "b"}
    holds_image = {"a", "b", "d", "e"}
    cm = build_compatibility_matrix(sets, method=method, seeds=(0, 4), alpha=alpha)
    want = ref_compatibility_rank1(sets, method, (0, 4), 0.7, alpha)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            names = {a.model_name, b.model_name}
            if names & shares_zero and names <= holds_image:
                assert np.isnan(cm.rank1[i, j]) and np.isnan(want[i, j])
            else:
                assert cm.rank1[i, j] == want[i, j]
    assert np.isfinite(cm.rank1).sum() == 25 - 12


@pytest.mark.parametrize("run", [
    lambda a, b: build_compatibility_matrix([a, b], seeds=()),
    lambda a, b: training_size_sweep(a, b, [0.5], seeds=()),
    lambda a, b: evaluate_identification(a, b, seeds=()),
])
def test_empty_seed_list_is_an_argument_error(small_views, run):
    with pytest.raises(ArgumentError, match="at least one seed"):
        run(*small_views)
