import contextlib
import tracemalloc
import warnings
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import pytest

from embalign import (
    CompatibilityMatrix,
    EmbeddingSet,
    agglomerative_cluster,
    asymmetry_stats,
    build_compatibility_matrix,
    embed_view,
    evaluate_identification,
    generate_identity_cloud,
    symmetrize,
    training_size_sweep,
)
from embalign import align, analysis, ident_eval
from embalign.errors import (
    ArgumentError,
    ConsistencyError,
    DataError,
    DegenerateRowError,
    EmbalignError,
    EmptyIntersectionError,
    LabelConflictError,
    NumericalError,
    ProtocolError,
)
from embalign.prep import apply_prep, fit_prep, l2_normalize
from embalign.splits import _rng, identity_disjoint_split

from conftest import aligned_rank1, unit_pair


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cluster_rejects_non_finite_similarities(bad):
    # NaN escaped as scipy's ValueError; +inf warned in the symmetry check and
    # then merged at height 0
    s = two_group_similarity()
    s[0, 2] = s[2, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="NaN or infinite"):
            agglomerative_cluster(s, "average")


@pytest.mark.parametrize("similarity", [5.0, np.ones(3), np.ones((2, 2, 2))],
                         ids=["0d", "1d", "3d"])
def test_cluster_rejects_non_matrix_similarities(similarity):
    # a 0-d similarity raised a raw IndexError
    with pytest.raises(ArgumentError, match="square matrix"):
        agglomerative_cluster(similarity)


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


def _scored_cell(amap):
    """(source model, target model, seed) of a map the matrix scores."""
    return amap.source_model, amap.target_model, amap.seed


def test_compatibility_matrix_scores_only_the_aligned_side(small_views):
    v0, v1 = small_views
    # a model that saw none of the others' images: its off-diagonal cells fail
    lone = EmbeddingSet("lone", "", v0.rows, [f"x{i}" for i in v0.image_ids], v0.labels)
    sets = [v0, v1, lone]
    with mock.patch.object(ident_eval, "_score_chunks", wraps=ident_eval._score_chunks) as spy, \
            mock.patch.object(analysis, "map_rank1", wraps=analysis.map_rank1) as cell, \
            mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prep, \
            mock.patch.object(analysis, "identity_disjoint_split",
                              wraps=analysis.identity_disjoint_split) as split:
        cm = build_compatibility_matrix(sets, seeds=(0, 1))
    live = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    scored = [_scored_cell(c.args[3]) for c in cell.call_args_list]
    # one scoring per (cell, seed), seed by seed
    assert scored == [(sets[a].model_name, sets[b].model_name, seed)
                      for seed in (0, 1) for a, b in live]
    assert spy.call_count == len(live) * 2
    assert prep.call_count == len(sets) * 2  # each model's side is prepared once per seed
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


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
def test_compatibility_matrix_equals_identification_over_mixed_widths(method):
    cloud = generate_identity_cloud(40, 5, 8, seed=3)
    sets = [
        embed_view(cloud, 12, 31, noise=0.6, model_name="narrow"),
        embed_view(cloud, 40, 32, noise=0.5, map_kind="general_linear", model_name="wide"),
        embed_view(cloud, 24, 33, noise=0.4, model_name="even"),
        # as wide as "even", and holding only 150 of the 200 images
        _subset(embed_view(cloud, 24, 34, noise=0.8), "part", range(50, 200)),
    ]
    seeds, m = (0, 1), len(sets)
    with mock.patch.object(align, "fit_map", wraps=align.fit_map) as fit:
        cm = build_compatibility_matrix(sets, method=method, seeds=seeds, alpha=0.5)
    # procrustes fits each unordered pair i < j once per seed (a self cell is the
    # identity map); regressions fit every cell
    per_seed = m * (m - 1) // 2 if method == "procrustes" else m * m
    assert fit.call_count == per_seed * len(seeds)
    assert np.isfinite(cm.rank1).all() and (cm.rank1 < 80.0).sum() >= 4  # not saturated
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            report = evaluate_identification(a, b, method=method, seeds=seeds, alpha=0.5)
            assert cm.rank1[i, j] == 100.0 * report.summary["rank_k"]["1"]["mean"], (i, j)


@contextlib.contextmanager
def _cell_seams():
    """Mock the side preparation, the fit and the (cell, seed) scoring of the matrix."""
    with mock.patch.object(align, "prepare_side") as prep, \
            mock.patch.object(align, "fit_sides") as fit, \
            mock.patch.object(analysis, "map_rank1") as cell:
        yield prep, fit, cell


def test_compatibility_matrix_refuses_repeated_model_names(small_views):
    with pytest.raises(ConsistencyError, match="'a'"):
        cm_from(np.full((3, 3), 50.0), ["a", "b", "a"])
    v0, v1 = small_views
    twin = EmbeddingSet("m0", "", v1.rows, v1.image_ids, v1.labels)
    with _cell_seams() as seams, pytest.raises(ConsistencyError, match="'m0'"):
        build_compatibility_matrix([v0, v1, twin], seeds=(0,))
    # refused before any side is prepared, any map fit or any (cell, seed) scored
    for seam in seams:
        seam.assert_not_called()


@pytest.mark.parametrize("kwargs, error", [
    (dict(fraction=1.5), ArgumentError),
    (dict(fraction=0.0), ArgumentError),
    (dict(seeds=(0, -1)), ArgumentError),
    (dict(method="ridge", alpha=0.0), ConsistencyError),
    (dict(method="lasso"), ConsistencyError),
])
def test_compatibility_matrix_checks_arguments_before_any_cell(small_views, kwargs, error):
    # each of these made every cell fail, which read as an all-missing matrix
    with _cell_seams() as seams, pytest.raises(error):
        build_compatibility_matrix(list(small_views), **{"seeds": (0,), **kwargs})
    for seam in seams:
        seam.assert_not_called()


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


def _seam_cell(seam, args, kwargs):
    """(source model, target model, seed) of a call of ``fit_sides`` or ``map_rank1``."""
    if seam == "fit_sides":
        return kwargs["source_model"], kwargs["target_model"], kwargs["seed"]
    return _scored_cell(args[3])


def _failing(monkeypatch, module, seam, cell, exc):
    """Make the call of ``module.seam`` for ``cell``, a (source, target, seed), raise ``exc``.

    Returns the list of the cells of every call, the failing one included.
    """
    real, calls = getattr(module, seam), []

    def failing(*args, **kwargs):
        calls.append(_seam_cell(seam, args, kwargs))
        if calls[-1] == cell:
            raise exc
        return real(*args, **kwargs)

    monkeypatch.setattr(module, seam, failing)
    return calls


def test_compatibility_matrix_protocol_error_is_missing_cell(small_views, monkeypatch):
    calls = _failing(monkeypatch, analysis, "map_rank1", ("m0", "m1", 0),
                     ProtocolError("no relevant gallery items"))
    cm = build_compatibility_matrix(list(small_views), seeds=(0,))
    assert calls.count(("m0", "m1", 0)) == 1
    assert np.isnan(cm.rank1[0, 1])
    assert not np.isnan(np.delete(cm.rank1.ravel(), 1)).any()


@pytest.mark.parametrize("module, seam, cell, missing", [
    # the seed-1 fit of m0 -> m1: m1 -> m0 reverses the seed-0 map and fits seed 1 itself
    (align, "fit_sides", ("m0", "m1", 1), (0, 1)),
    # the seed-0 scoring of m1 -> m0, after m0 -> m1 scored that seed; at seed 1
    # m0 -> m1 fits its map and m1 -> m0 is evaluated no further
    (analysis, "map_rank1", ("m1", "m0", 0), (1, 0)),
], ids=["forward_fit_fails", "reverse_scoring_fails"])
def test_compatibility_matrix_pair_cells_fail_on_their_own(small_views, monkeypatch, module,
                                                          seam, cell, missing):
    sets, seeds = list(small_views), (0, 1)
    want = [[100.0 * evaluate_identification(a, b, seeds=seeds).summary["rank_k"]["1"]["mean"]
             for b in sets] for a in sets]
    calls = _failing(monkeypatch, module, seam, cell, NumericalError("injected"))
    with mock.patch.object(align, "fit_map", wraps=align.fit_map) as fit:
        cm = build_compatibility_matrix(sets, seeds=seeds)
    assert calls.count(cell) == 1
    # one fit per pair i < j and seed, a failed one remade; self cells fit nothing
    assert fit.call_count == 2
    for i in range(2):
        for j in range(2):
            if (i, j) == missing:
                assert np.isnan(cm.rank1[i, j])
            else:
                assert cm.rank1[i, j] == want[i][j]


def test_compatibility_matrix_bug_propagates(small_views, monkeypatch):
    _failing(monkeypatch, analysis, "map_rank1", ("m0", "m1", 0), TypeError("bug in a cell"))
    with pytest.raises(TypeError, match="bug in a cell"):
        build_compatibility_matrix(list(small_views), seeds=(0,))


def _same_image_views(m, dim=32, noise=0.1):
    cloud = generate_identity_cloud(60, 5, 16, spread=0.3, seed=5)
    return [embed_view(cloud, dim, 40 + k, noise=noise, model_name=f"v{k}") for k in range(m)]


@pytest.mark.parametrize("m, seeds", [(2, (0,)), (3, (0, 1, 2)), (4, (1, 3))])
def test_compatibility_matrix_prepares_each_side_once_per_seed(m, seeds):
    # views of the same images share every pair's rows: one side per model and seed
    sets = _same_image_views(m)
    with mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prep, \
            mock.patch.object(align, "fit_map", wraps=align.fit_map) as fit:
        cm = build_compatibility_matrix(sets, seeds=seeds)
    assert prep.call_count == m * len(seeds)
    assert fit.call_count == m * (m - 1) // 2 * len(seeds)
    assert np.isfinite(cm.rank1).all()


def test_compatibility_matrix_fits_only_its_off_diagonal_pairs():
    # M views of the same images over S seeds: procrustes fits each pair i < j once
    # per seed and takes the identity map on the diagonal; linear fits every cell
    m, seeds = 3, (0, 2)
    sets = _same_image_views(m, noise=0.8)
    real = align.fit_sides

    def svd_always(source, target, *args, **kwargs):
        # a copy of the target side is another object: the self cell fits its SVD
        return real(source, align.Side(target.train, target.test, target.mean), *args, **kwargs)

    for method, fits in (("procrustes", m * (m - 1) // 2), ("linear", m * m)):
        with mock.patch.object(align, "fit_map", wraps=align.fit_map) as fit:
            cm = build_compatibility_matrix(sets, method=method, seeds=seeds)
        assert fit.call_count == fits * len(seeds), method
        with mock.patch.object(align, "fit_sides", svd_always):
            assert cm.rank1.tobytes() == build_compatibility_matrix(
                sets, method=method, seeds=seeds).rank1.tobytes()
        assert (np.diag(cm.rank1) == 100.0).all() and (cm.rank1 < 100.0).any()


def test_compatibility_matrix_normalizes_each_gallery_once_per_seed():
    # every cell into a model scores against the gallery its side made once
    m, seeds = 3, (0, 1, 2)
    sets, made = _same_image_views(m), []
    real = align.prepare_side

    def prepare(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(align, "prepare_side", prepare), \
            mock.patch.object(align, "l2_normalize", wraps=align.l2_normalize) as norm, \
            mock.patch.object(ident_eval, "_unit_rows", wraps=ident_eval._unit_rows) as unit:
        build_compatibility_matrix(sets, seeds=seeds)
    assert len(made) == m * len(seeds)
    galleries = [c for c in norm.call_args_list if any(c.args[0] is side.test for side in made)]
    assert len(galleries) == m * len(seeds)
    assert unit.call_count == m * m * len(seeds)  # the scorer normalizes the mapped queries only


def test_compatibility_matrix_memory_does_not_grow_with_the_seeds():
    # one 256 x 256 float64 map is 0.5 MiB; no map or side may outlive its seed
    sets = _same_image_views(3, dim=256)

    def peak(seeds):
        tracemalloc.start()
        try:
            build_compatibility_matrix(sets, seeds=seeds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, four = peak((0,)), peak((0, 1, 2, 3))
    assert four - one < 256 * 256 * 8, (one, four)


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


@pytest.mark.parametrize("kwargs, message", [
    (dict(fractions=[0.5, 0.5]), "fraction 0.5 is repeated"),
    (dict(methods=("procrustes", "linear", "procrustes")), "method 'procrustes' is repeated"),
    (dict(seeds=(1, 1)), "seed 1 is repeated"),
    (dict(fractions=[]), "need at least one fraction"),
    (dict(methods=()), "need at least one method"),
])
def test_sweep_rejects_repeats(small_views, kwargs, message):
    # a repeat used to write every sweep.csv row twice, and an empty list
    # gave an empty sweep
    args = {"fractions": [0.5, 1.0], "seeds": (0,), "methods": ("procrustes",), **kwargs}
    with mock.patch.object(align, "prepare_side") as prepare, \
            mock.patch.object(align, "fit_sides") as fit:
        with pytest.raises(ArgumentError, match=message):
            training_size_sweep(*small_views, **args)
    prepare.assert_not_called()
    fit.assert_not_called()


@pytest.mark.parametrize("methods, alpha", [(("procrustes", "nope"), 0.1),
                                            (("linear", "ridge"), 0.0)])
def test_sweep_checks_every_method_before_the_first_fit(small_views, methods, alpha):
    with mock.patch.object(align, "prepare_side") as prepare, \
            mock.patch.object(align, "fit_sides") as fit:
        with pytest.raises(ConsistencyError):
            training_size_sweep(*small_views, [1.0], seeds=(0,), methods=methods, alpha=alpha)
    prepare.assert_not_called()
    fit.assert_not_called()


def test_sweep_rejects_empty_pool(small_views):
    v0, v1 = small_views
    with pytest.raises(ArgumentError):
        training_size_sweep(v0, v1, [0.001], seeds=(0,))


# --- references: the sweep and the matrix cell pairing the shared paths replaced

def ref_training_size_sweep(source, target, fractions, seeds, methods, base_fraction, alpha):
    """The sweep's own prep -> fit -> score -> rank pipeline, verbatim."""
    fractions = list(fractions)
    labels, norm_a, norm_b = unit_pair(source, target)
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
    labels, x, y = unit_pair(v0, v1)
    _, ra, rb = align.pair_sets(v0, v1)
    with mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prepare:
        table = training_size_sweep(v0, v1, [0.5], seeds=(2,), methods=("linear",))
    (source, train_a, test_a), (target, train_b, test_b) = (
        c.args for c in prepare.call_args_list)
    assert source is v0.rows and target is v1.rows
    # both sides gather the same shared images: their positions among the shared rows
    at = {r: k for k, r in enumerate(ra)}
    train, test = [at[r] for r in train_a], [at[r] for r in test_a]
    assert np.array_equal(train_b, rb[train]) and np.array_equal(test_b, rb[test])
    # the kept train identities of the seed-2 split, tested on its test rows
    split = identity_disjoint_split(labels, 0.7, 2)
    kept = {labels[i] for i in train}
    assert kept <= split.train_identities
    assert len(kept) == table["points"][0]["n_train_identities"] == int(0.5 * len(
        split.train_identities))
    assert list(train) == [i for i in split.train_rows if labels[i] in kept]
    assert tuple(test) == split.test_rows
    # the point is the reference's aligned Rank-1 of that split
    sub = replace(split, train_rows=tuple(train))
    assert table["points"][0]["rank1"] == aligned_rank1(x, y, labels, [sub], "linear", 0.1)


@pytest.mark.parametrize("methods", [("ridge",), ("procrustes", "linear", "ridge")])
def test_sweep_prepares_each_point_once(small_views, methods):
    # both sides of a (seed, fraction) point are prepared once, whatever the
    # number of methods fit and scored on them
    with mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prepare, \
            mock.patch.object(align, "fit_sides", wraps=align.fit_sides) as fit:
        table = training_size_sweep(*small_views, [0.5, 1.0], seeds=(0, 3), methods=methods)
    assert prepare.call_count == 2 * 2 * 2
    assert fit.call_count == len(table["points"]) == 2 * 2 * len(methods)


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
                rank1[i, j] = 100.0 * aligned_rank1(
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
