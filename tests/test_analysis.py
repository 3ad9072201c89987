import contextlib
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
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
from embalign import align, analysis, blas, ident_eval
from embalign.analysis import Dendrogram
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
from embalign.reports import mean_std
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


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c", "d"]])
def test_cluster_refuses_names_that_do_not_fit_the_matrix(names):
    # one name raised a raw IndexError in to_newick; four put a model
    # that is not in the tree into the report
    with pytest.raises(ArgumentError, match=f"{len(names)} model names for 3 models"):
        agglomerative_cluster(two_group_similarity()[:3, :3], model_names=names)


def test_newick_output():
    s = two_group_similarity()
    dend = agglomerative_cluster(s, "average", model_names=["a", "b", "c", "d"])
    text = dend.to_newick()
    assert text.endswith(";")
    for name in "abcd":
        assert name in text


@pytest.mark.parametrize("names, want", [
    # these names used to be written raw: "(it s;,(a,b,x(1)):10):85;"
    (["a,b", "x(1)", "it s;"], "('it s;',('a,b','x(1)'):10):85;"),
    (["o'brien", "[c]", "tab\there"], "('tab\there',('o''brien','[c]'):10):85;"),
    # Newick reads an unquoted "_" as a blank
    (["view0", "eval_src", "m-1.b"], "(m-1.b,(view0,'eval_src'):10):85;"),
    ((), "(2,(0,1):10):85;"),
])
def test_newick_quotes_names_that_need_it(names, want):
    dend = Dendrogram(merges=((0, 1, 10.0), (2, 3, 85.0)), leaf_order=(2, 0, 1),
                      model_names=tuple(names))
    assert dend.to_newick() == want


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


def _label_sides(monkeypatch, sets, seeds):
    """Record ``(side, model name, seed)`` of each side the matrix prepares; return the list.

    Every pair of ``sets`` that pairs at all shares the same rows, so each
    seed prepares one side per model, in model order: the matrix's fixed
    call order names each side.
    """
    real, made = align.prepare_side, []

    def prepare(rows, *args):
        model = sets[len(made) % len(sets)]
        assert rows is model.rows  # the order the labels are read from
        made.append((real(rows, *args), model.model_name, seeds[len(made) // len(sets)]))
        return made[-1][0]

    monkeypatch.setattr(align, "prepare_side", prepare)
    return made


def _cell(made, source, target):
    """(source model, target model, seed) of a cell that fits or scores ``source`` into ``target``.

    Each of the two is a prepared side, or its train or test rows: ``map_rank1`` takes the
    source's test rows and the target side, ``_solve`` the train rows of both.
    """
    def named(rows):
        (name_seed,) = [(name, seed) for side, name, seed in made
                        if rows is side or rows is side.train or rows is side.test]
        return name_seed

    (source, seed), (target, target_seed) = named(source), named(target)
    assert seed == target_seed
    return source, target, seed


def test_compatibility_matrix_scores_only_the_aligned_side(small_views, monkeypatch):
    v0, v1 = small_views
    # a model that saw none of the others' images: its off-diagonal cells fail
    lone = EmbeddingSet("lone", "", v0.rows, [f"x{i}" for i in v0.image_ids], v0.labels)
    sets = [v0, v1, lone]
    made = _label_sides(monkeypatch, sets, (0, 1))
    with mock.patch.object(ident_eval, "_score_chunks", wraps=ident_eval._score_chunks) as spy, \
            mock.patch.object(analysis, "map_rank1", wraps=analysis.map_rank1) as cell, \
            mock.patch.object(analysis, "identity_disjoint_split",
                              wraps=analysis.identity_disjoint_split) as split:
        cm = build_compatibility_matrix(sets, seeds=(0, 1))
    monkeypatch.undo()
    live = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    scored = [_cell(made, *c.args[:2]) for c in cell.call_args_list]
    # one scoring per (cell, seed), seed by seed; within a seed the cells'
    # two threads interleave, so each seed's scorings compare as a multiset
    assert [seed for *_, seed in scored] == sorted(seed for *_, seed in scored)
    assert Counter(scored) == Counter((sets[a].model_name, sets[b].model_name, seed)
                                      for seed in (0, 1) for a, b in live)
    assert spy.call_count == len(live) * 2
    assert len(made) == len(sets) * 2  # each model's side is prepared once per seed
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
        # every odd identity's images repeat those of the identity before it
        _subset(v0, "tied", range(150),
                copies=[(10 * k + 5 + r, 10 * k + r) for k in range(15) for r in range(5)]),
    ]
    names = [s.model_name for s in sets]
    missing = {("lone", n) for n in names if n != "lone"}
    missing |= {("clash", "full"), ("clash", "tail"), ("clash", "tied"), ("zero", "full"),
                ("zero", "head"), ("zero", "zero"), ("zero", "tied")}
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
    with mock.patch.object(align, "_solve", wraps=align._solve) as fit:
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
            mock.patch.object(align, "_solve") as fit, \
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


def _failing(monkeypatch, sets, seeds, module, seam, cell, exc):
    """Make the call of ``module.seam`` for ``cell``, a (source, target, seed), raise ``exc``.

    ``seam`` is ``_solve`` or ``map_rank1``: the first takes the train rows of the source
    and the target side, the second the source's test rows and the target side.
    Returns the list of the cells of every call, the failing one included.
    """
    made, real, calls = _label_sides(monkeypatch, sets, seeds), getattr(module, seam), []

    def failing(source, target, *args):
        calls.append(_cell(made, source, target))
        if calls[-1] == cell:
            raise exc
        return real(source, target, *args)

    monkeypatch.setattr(module, seam, failing)
    return calls


def test_compatibility_matrix_protocol_error_is_missing_cell(small_views, monkeypatch):
    calls = _failing(monkeypatch, list(small_views), (0,), analysis, "map_rank1",
                     ("m0", "m1", 0), ProtocolError("no relevant gallery items"))
    cm = build_compatibility_matrix(list(small_views), seeds=(0,))
    assert calls.count(("m0", "m1", 0)) == 1
    assert np.isnan(cm.rank1[0, 1])
    assert not np.isnan(np.delete(cm.rank1.ravel(), 1)).any()


@pytest.mark.parametrize("module, seam, cell, missing", [
    # the seed-1 fit of m0 -> m1: m1 -> m0 scores the seed-0 transpose and fits seed 1 itself
    (align, "_solve", ("m0", "m1", 1), (0, 1)),
    # the seed-0 scoring of m1 -> m0, after m0 -> m1 scored that seed; at seed 1
    # m0 -> m1 fits its map and m1 -> m0 is evaluated no further
    (analysis, "map_rank1", ("m1", "m0", 0), (1, 0)),
], ids=["forward_fit_fails", "reverse_scoring_fails"])
def test_compatibility_matrix_pair_cells_fail_on_their_own(small_views, monkeypatch, module,
                                                          seam, cell, missing):
    sets, seeds = list(small_views), (0, 1)
    want = [[100.0 * evaluate_identification(a, b, seeds=seeds).summary["rank_k"]["1"]["mean"]
             for b in sets] for a in sets]
    fit = mock.Mock(wraps=align._solve)  # counts the fits that run, not the failed one
    monkeypatch.setattr(align, "_solve", fit)
    calls = _failing(monkeypatch, sets, seeds, module, seam, cell, NumericalError("injected"))
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
    _failing(monkeypatch, list(small_views), (0,), analysis, "map_rank1", ("m0", "m1", 0),
             TypeError("bug in a cell"))
    with pytest.raises(TypeError, match="bug in a cell"):
        build_compatibility_matrix(list(small_views), seeds=(0,))


def _same_image_views(m, dim=32, noise=0.1):
    cloud = generate_identity_cloud(60, 5, 16, spread=0.3, seed=5)
    return [embed_view(cloud, dim, 40 + k, noise=noise, model_name=f"v{k}") for k in range(m)]


def _serial_rank1(sets, method, seeds, fraction=0.7, alpha=align.DEFAULT_RIDGE_ALPHA):
    """The matrix's rank1 array as one thread built it, cell after cell: the reference loop."""
    m, failed, pairs, splits = len(sets), set(), [], {}
    for i in range(m):
        for j in range(i, m):
            try:
                pairing = align.pair_sets(sets[i], sets[j])
                key = tuple(pairing.labels)
                if key not in splits:
                    splits[key] = [(split, pairing.codes[split.test_rows]) for split in (
                        identity_disjoint_split(key, fraction, seed) for seed in seeds)]
                pairs.append((i, j, pairing.ra, pairing.rb, splits[key]))
            except EmbalignError:
                failed.update({(i, j), (j, i)})

    def side(model, rows, split):
        if sides[model] is None or not np.array_equal(sides[model][0], rows):
            sides[model] = None
            try:
                made = align.prepare_side(
                    sets[model].rows, rows[split.train_rows], rows[split.test_rows])
            except EmbalignError:
                made = None  # held as failed, as a prepared side is held
            sides[model] = rows, made
        return sides[model][1]

    per_seed = {}
    for k in range(len(seeds)):
        sides = [None] * m
        for i, j, ra, rb, per_split in pairs:
            cells = [c for c in ((i, j), (j, i))[: 1 + (i < j)] if c not in failed]
            if not cells:
                continue
            split, codes = per_split[k]
            prepared = {i: side(i, ra, split), j: side(j, rb, split)}
            if None in prepared.values():
                failed.update(cells)
                continue
            forward = None
            for a, b in cells:
                try:
                    if method == "procrustes" and a == b:
                        w = None
                    elif forward is not None:
                        w = forward.T
                    else:
                        w = align.fit_map(prepared[a].train, prepared[b].train, method, alpha)
                        if method == "procrustes" and a < b:
                            forward = w
                    value = analysis.map_rank1(prepared[a].test, prepared[b], codes, w)
                    per_seed.setdefault((a, b), []).append(value)
                except EmbalignError:
                    failed.add((a, b))
    rank1 = np.full((m, m), np.nan)
    for (a, b), values in per_seed.items():
        if (a, b) not in failed:
            rank1[a, b] = 100.0 * float(mean_std(values)[0])
    return rank1


def _inject_failures(monkeypatch):
    """Fail the 2nd side of the 16-wide model, the 2nd fit of 40 -> 24 and the 3rd scoring of
    24 -> 12, each with an ``EmbalignError``.

    The main thread prepares every side, in a fixed order.  A fit or a
    scoring is named by its cell, through the widths of its two models, and
    the seed fixes how often that cell ran before: at most once a seed.
    """
    calls, failing = Counter(), {("side", 16): 2, ("fit", 40, 24): 2, ("score", 24, 12): 3}
    prepare, fit, score = align.prepare_side, align._solve, analysis.map_rank1

    def fails(*key):
        calls[key] += 1
        return failing.get(key) == calls[key]

    def failing_prepare(rows, *args):
        if fails("side", rows.shape[1]):
            raise DegenerateRowError(0)
        return prepare(rows, *args)

    def failing_fit(x_tr, y_tr, *args):
        if fails("fit", x_tr.shape[1], y_tr.shape[1]):
            raise NumericalError("injected")
        return fit(x_tr, y_tr, *args)

    def failing_score(x_test, target, *args):
        if fails("score", x_test.shape[1], target.test.shape[1]):
            raise ProtocolError("injected")
        return score(x_test, target, *args)

    monkeypatch.setattr(align, "prepare_side", failing_prepare)
    monkeypatch.setattr(align, "_solve", failing_fit)
    monkeypatch.setattr(analysis, "map_rank1", failing_score)


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
@pytest.mark.parametrize("models", [5, 1])
def test_compatibility_matrix_equals_its_serial_reference(monkeypatch, method, models):
    cloud = generate_identity_cloud(40, 5, 8, seed=3)
    sets = [
        embed_view(cloud, 12, 31, noise=0.6, model_name="narrow"),
        embed_view(cloud, 40, 32, noise=0.5, map_kind="general_linear", model_name="wide"),
        embed_view(cloud, 24, 33, noise=0.4, model_name="even"),
        # shares images 50..199 only: every side it pairs with is rebuilt mid-seed
        _subset(embed_view(cloud, 20, 34, noise=0.8), "part", range(50, 200)),
        embed_view(cloud, 16, 35, noise=0.3, model_name="fragile"),
    ][:models]
    if models > 1:
        # every row is four ones, so the unit rows and their mean are exact and every centered
        # test row is zero: the model's side fails to prepare
        sets.append(EmbeddingSet("constant", "", np.ones((sets[0].n, 4), np.float32),
                                 sets[0].image_ids, sets[0].labels))
    seeds, interval = (0, 1, 2), sys.getswitchinterval()
    _inject_failures(monkeypatch)
    sys.setswitchinterval(1e-6)  # the two cell threads switch as often as they can
    try:
        with mock.patch.object(blas, "each_on_two_threads",
                               wraps=blas.each_on_two_threads) as flushes:
            got = build_compatibility_matrix(sets, method=method, seeds=seeds, alpha=0.5).rank1
    finally:
        sys.setswitchinterval(interval)
    _inject_failures(monkeypatch)
    want = _serial_rank1(sets, method, seeds, alpha=0.5)
    assert got.tobytes() == want.tobytes()
    if models == 1:
        assert flushes.call_count == len(seeds) and np.isfinite(got).all()
        return
    # the queue is flushed before each rebuilt side, not only at the end of each seed
    assert flushes.call_count > len(seeds)
    # the failed side, fit and scoring, every cell from or into the constant model, and
    # nothing else
    missing = {(3, 4), (4, 3), (1, 2), (2, 0)} | {c for k in range(6) for c in ((k, 5), (5, k))}
    assert {(a, b) for a, b in zip(*np.nonzero(np.isnan(got)))} == missing


def _views_and_constant():
    """Three 12-wide views of one cloud and a constant 4-wide model on the same images.

    Every row of the constant model is four ones, so its unit rows and their mean are exact,
    every centered test row is zero, and its side fails to prepare.
    """
    cloud = generate_identity_cloud(40, 5, 8, seed=3)
    views = [embed_view(cloud, 12, 40 + k, noise=0.5, model_name=f"v{k}") for k in range(3)]
    return [*views, EmbeddingSet("constant", "", np.ones((views[0].n, 4), np.float32),
                                 views[0].image_ids, views[0].labels)]


def test_a_side_that_fails_to_prepare_is_never_fit(monkeypatch):
    # no pair of the constant model fits a map into or out of it
    sets = _views_and_constant()
    fits = []
    real_fit = align._solve
    monkeypatch.setattr(align, "_solve",
                        lambda x, y, *args: fits.append((x, y)) or real_fit(x, y, *args))
    got = build_compatibility_matrix(sets, seeds=(0,)).rank1
    assert fits and not [f for f in fits if 4 in (f[0].shape[1], f[1].shape[1])]
    assert np.isnan(got[3]).all() and np.isnan(got[:, 3]).all()
    monkeypatch.undo()
    assert got[:3, :3].tobytes() == _serial_rank1(sets[:3], "procrustes", (0,)).tobytes()


def test_a_near_constant_model_has_missing_cells():
    # every row of the fourth model is the first row of v0: its unit rows are equal, but their
    # train mean rounds, so its centered test rows are rounding noise, which used to normalize
    # to unit rows and score chance-level cells, its self cell too; the noise lies under the
    # floor of align.prepare_side, so the side fails to prepare and its cells are missing
    views = _views_and_constant()[:3]
    v0 = views[0]
    near = EmbeddingSet("near", "", np.repeat(v0.rows[:1], v0.n, axis=0), v0.image_ids,
                        v0.labels)
    got = build_compatibility_matrix([*views, near], seeds=(0, 1)).rank1
    assert np.isnan(got[3]).all() and np.isnan(got[:, 3]).all()
    assert got[:3, :3].tobytes() == build_compatibility_matrix(views, seeds=(0, 1)).rank1.tobytes()


def test_a_side_that_fails_to_prepare_is_held_as_failed():
    # the constant model's side fails once and is held as failed for its later pairs on the
    # same rows, as a prepared side is held (it used to be prepared again for each of its 4
    # pairs, 10 preparations in all); seed 1 prepares it no more, as its cells have failed
    sets, seeds = _views_and_constant(), (0, 1)
    with mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prepare:
        got = build_compatibility_matrix(sets, seeds=seeds).rank1
    widths = [c.args[0].shape[1] for c in prepare.call_args_list]
    assert widths.count(4) == 1 and len(widths) == 3 * len(seeds) + 1
    assert got.tobytes() == _serial_rank1(sets, "procrustes", seeds).tobytes()
    assert np.isnan(got[3]).all() and np.isnan(got[:, 3]).all() and np.isfinite(got[:3, :3]).all()


@pytest.mark.parametrize("method", ["procrustes", "linear", "ridge"])
def test_matrix_and_sweep_fit_map_arrays_and_build_no_alignment_map(method):
    # a cell or a sweep point scores the map array alone: it builds no AlignmentMap only to
    # read its w
    sets, seeds, m = _views_and_constant(), (0, 1), 3  # m models whose sides prepare
    with mock.patch.object(align, "AlignmentMap", wraps=align.AlignmentMap) as amap, \
            mock.patch.object(align, "_solve", wraps=align._solve) as fit:
        cm = build_compatibility_matrix(sets, method=method, seeds=seeds, alpha=0.5)
        fits = fit.call_count
        table = training_size_sweep(sets[0], sets[1], [0.5, 1.0], seeds=seeds,
                                    methods=(method,), alpha=0.5)
    amap.assert_not_called()
    assert fits == (m * (m - 1) // 2 if method == "procrustes" else m * m) * len(seeds)
    assert fit.call_count - fits == len(table["points"]) == 2 * len(seeds)
    assert np.isfinite(cm.rank1[:m, :m]).all()


def test_a_bug_in_the_cell_thread_propagates_and_leaves_no_thread(monkeypatch):
    sets = _same_image_views(3)
    real, before = analysis.map_rank1, set(threading.enumerate())
    functions = blas._thread_functions()  # None without OpenBLAS
    count = functions[0] if functions else lambda: None
    threads = count()

    def failing(*args):
        if threading.current_thread().name == "embalign-cells":
            raise TypeError("bug in the cell thread")
        return real(*args)

    monkeypatch.setattr(analysis, "map_rank1", failing)
    with pytest.raises(TypeError, match="bug in the cell thread"):
        build_compatibility_matrix(sets, seeds=(0,))
    assert set(threading.enumerate()) == before and count() == threads

    def failing_on_both(*args):
        raise TypeError(f"bug on {threading.current_thread().name}")

    # the main thread's error is raised before the cell thread's
    monkeypatch.setattr(analysis, "map_rank1", failing_on_both)
    with pytest.raises(TypeError, match="bug on MainThread"):
        build_compatibility_matrix(sets, seeds=(0,))
    assert set(threading.enumerate()) == before and count() == threads


def test_a_lone_pair_is_scored_without_a_cell_thread(monkeypatch):
    # "part" shares only some images of v0: its pair rebuilds v0's side after (0, 0) alone
    views = _same_image_views(2)
    real_each, real_start = blas.each_on_two_threads, threading.Thread.start
    for sets, flushed in (([views[0]], [1, 1]),
                          ([views[0], _subset(views[1], "part", range(100, 300))], [1, 2] * 2)):
        sizes, started = [], []
        monkeypatch.setattr(blas, "each_on_two_threads",
                            lambda name, fn, items: sizes.append(len(items))
                            or real_each(name, fn, items))
        monkeypatch.setattr(threading.Thread, "start",
                            lambda self: started.append(self.name) or real_start(self))
        build_compatibility_matrix(sets, seeds=(0, 1))
        monkeypatch.undo()
        assert sizes == flushed
        assert started == ["embalign-cells"] * sum(size > 1 for size in flushed)


@pytest.mark.parametrize("m, seeds", [(2, (0,)), (3, (0, 1, 2)), (4, (1, 3))])
def test_compatibility_matrix_prepares_each_side_once_per_seed(m, seeds):
    # views of the same images share every pair's rows: one side per model and seed
    sets = _same_image_views(m)
    with mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prep, \
            mock.patch.object(align, "_solve", wraps=align._solve) as fit:
        cm = build_compatibility_matrix(sets, seeds=seeds)
    assert prep.call_count == m * len(seeds)
    assert fit.call_count == m * (m - 1) // 2 * len(seeds)
    assert np.isfinite(cm.rank1).all()


def test_compatibility_matrix_fits_only_its_off_diagonal_pairs():
    # M views of the same images over S seeds: procrustes fits each pair i < j once
    # per seed and scores the diagonal with no map; linear fits every cell
    m, seeds = 3, (0, 2)
    sets = _same_image_views(m, noise=0.8)
    real = analysis.map_rank1

    def svd_always(x_test, target, codes, w):
        # a self cell scores the SVD fit of its side onto itself instead of no map
        if w is None:
            w = align.fit_sides(target, target, "procrustes").w
        return real(x_test, target, codes, w)

    for method, fits in (("procrustes", m * (m - 1) // 2), ("linear", m * m)):
        with mock.patch.object(align, "_solve", wraps=align._solve) as fit, \
                mock.patch.object(analysis, "map_rank1", wraps=real) as cell:
            cm = build_compatibility_matrix(sets, method=method, seeds=seeds)
        assert fit.call_count == fits * len(seeds), method
        unmapped = [c.args[0] is c.args[1].test for c in cell.call_args_list if c.args[3] is None]
        assert unmapped == [True] * (m * len(seeds) if method == "procrustes" else 0), method
        with mock.patch.object(analysis, "map_rank1", svd_always):
            assert cm.rank1.tobytes() == build_compatibility_matrix(
                sets, method=method, seeds=seeds).rank1.tobytes()
        assert (np.diag(cm.rank1) == 100.0).all() and (cm.rank1 < 100.0).any()


def test_compatibility_matrix_cells_equal_their_maps_scored_directly():
    # a self procrustes cell scores as the identity map, and cell (j, i) as the
    # transpose of a direct fit of (i, j), bit for bit, on the sides the matrix made
    cloud = generate_identity_cloud(40, 5, 8, seed=3)
    sets = [embed_view(cloud, 12, 31, noise=0.6), embed_view(cloud, 40, 32, noise=0.5),
            embed_view(cloud, 24, 33, noise=0.4, map_kind="general_linear")]
    m, seeds, calls = len(sets), (0, 1), []
    real = analysis.map_rank1

    def recorded(*args):
        calls.append((*args, real(*args)))
        return calls[-1][-1]

    with mock.patch.object(analysis, "map_rank1", recorded):
        cm = build_compatibility_matrix(sets, seeds=seeds)
    # the widths name each call's cell: the two threads of a seed interleave their cells
    widths = [s.rows.shape[1] for s in sets]
    cells = [(widths.index(c[0].shape[1]), widths.index(c[1].test.shape[1])) for c in calls]
    assert Counter(cells) == {(a, b): len(seeds) for a in range(m) for b in range(m)}
    for (a, b), (x_test, target, codes, w, value) in zip(cells, calls):
        if a == b:
            assert w is None and x_test is target.test
            assert value == real(x_test, target, codes, np.eye(x_test.shape[1]))
        elif a > b:
            source = next(c[1] for c in calls if c[1].test is x_test)  # the side of model a
            direct = align.fit_sides(target, source, "procrustes").w.T
            assert w.tobytes() == direct.tobytes()
            assert value == real(x_test, target, codes, direct)
    assert np.isfinite(cm.rank1).all() and (cm.rank1 < 100.0).any()


def test_compatibility_matrix_normalizes_each_gallery_once_per_seed():
    # every cell into a side scores against the gallery the main thread made of it once,
    # inside prepare_side
    m, seeds = 3, (0, 1, 2)
    real_prepare, real_norm = align.prepare_side, align.l2_normalize
    for part in (False, True):
        sets, made, normalized = _same_image_views(m), [], []
        if part:  # its pairings rebuild the other models' sides mid-seed
            sets[-1] = _subset(sets[-1], "part", range(100, 300))

        def prepare(*args, **kwargs):
            made.append(real_prepare(*args, **kwargs))
            assert made[-1].gallery is normalized[-1][1]  # made last, by prepare_side
            return made[-1]

        def normalize(rows):
            normalized.append((rows, real_norm(rows), threading.current_thread().name))
            return normalized[-1][1]

        with mock.patch.object(align, "prepare_side", prepare), \
                mock.patch.object(align, "l2_normalize", normalize), \
                mock.patch.object(ident_eval, "_unit_rows", wraps=ident_eval._unit_rows) as unit:
            build_compatibility_matrix(sets, seeds=seeds)
        assert len(made) >= m * len(seeds) and (len(made) > m * len(seeds)) == part
        # every side and normalization kept alive: an id names one array
        galleries = [(rows, thread) for rows, out, thread in normalized
                     if any(out is side.gallery for side in made)]
        assert Counter(id(rows) for rows, _ in galleries) == Counter(id(side.test) for side in made)
        assert {thread for *_, thread in normalized} == {"MainThread"}
        assert unit.call_count == m * m * len(seeds)  # the scorer normalizes the queries only


def test_compatibility_matrix_memory_does_not_grow_with_the_seeds(monkeypatch):
    # one 256 x 256 float64 map is 0.5 MiB; no map or side may outlive its seed
    sets = _same_image_views(3, dim=256)
    # the two cell threads score one pair at a time: whether two fits overlap would otherwise
    # move the peak of a seed by about one map
    real, turn = analysis._score_pair, threading.Lock()

    def in_turn(*args):
        with turn:
            return real(*args)

    monkeypatch.setattr(analysis, "_score_pair", in_turn)

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


@pytest.mark.parametrize("fractions", [["0.5"], [None], [0.5, "1.0"], [True]])
def test_sweep_rejects_non_numeric_fractions(small_views, fractions):
    # the range check raised a raw TypeError, and True ran as fraction 1
    with pytest.raises(ArgumentError, match="fractions must be numbers"):
        training_size_sweep(*small_views, fractions, seeds=(0,))


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
            mock.patch.object(align, "_solve") as fit:
        with pytest.raises(ArgumentError, match=message):
            training_size_sweep(*small_views, **args)
    prepare.assert_not_called()
    fit.assert_not_called()


@pytest.mark.parametrize("methods, alpha", [(("procrustes", "nope"), 0.1),
                                            (("linear", "ridge"), 0.0)])
def test_sweep_checks_every_method_before_the_first_fit(small_views, methods, alpha):
    with mock.patch.object(align, "prepare_side") as prepare, \
            mock.patch.object(align, "_solve") as fit:
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
            mu_x, mu_y = fit_prep(norm_a[rows], norm_b[rows])
            big_d = max(len(mu_x), len(mu_y))
            xp, yp = apply_prep(norm_a[rows], mu_x, big_d), apply_prep(norm_b[rows], mu_y, big_d)
            queries_raw = apply_prep(norm_a[test], mu_x, big_d)
            gallery = apply_prep(norm_b[test], mu_y, big_d)
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
    pairing = align.pair_sets(v0, v1)
    ra, rb = pairing.ra, pairing.rb
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
    assert test == split.test_rows.tolist()
    # the point is the reference's aligned Rank-1 of that split
    sub = replace(split, train_rows=np.array(train))
    assert table["points"][0]["rank1"] == aligned_rank1(x, y, labels, [sub], "linear", 0.1)


@pytest.mark.parametrize("methods", [("ridge",), ("procrustes", "linear", "ridge")])
def test_sweep_prepares_each_point_once(small_views, methods):
    # both sides of a (seed, fraction) point are prepared once, whatever the
    # number of methods fit and scored on them
    with mock.patch.object(align, "prepare_side", wraps=align.prepare_side) as prepare, \
            mock.patch.object(align, "_solve", wraps=align._solve) as fit:
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
