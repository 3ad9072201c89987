"""Structural analyses: pairwise compatibility matrix, hierarchical
clustering of models, directional asymmetry, and the training-size sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import align
from .embedstore import EmbeddingSet
from .errors import (
    ArgumentError,
    ConsistencyError,
    DataError,
    EmbalignError,
    ProtocolError,
)
from .ident_eval import map_rank1
from .reports import mean_std
from .splits import (
    DEFAULT_SEEDS, _rng, check_distinct, check_fraction, check_seeds, identity_disjoint_split,
    label_codes,
)

_TAG_SWEEP = 301

LINKAGES = ("average", "single", "complete")


def _require_unique(names):
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ConsistencyError(f"repeated model names: {', '.join(map(repr, repeated))}")


@dataclass(frozen=True)
class CompatibilityMatrix:
    """Directed matrix of mean Rank-1 percentages, rank1[a][b] = a -> b."""

    model_names: tuple
    rank1: np.ndarray  # percentages in [0, 100]; NaN marks missing
    dataset_name: str = ""
    method: str = "procrustes"

    def __post_init__(self):
        r = np.asarray(self.rank1, dtype=np.float64)
        object.__setattr__(self, "rank1", r)
        object.__setattr__(self, "model_names", tuple(self.model_names))
        m = len(self.model_names)
        if r.shape != (m, m):
            raise ConsistencyError(f"matrix shape {r.shape} for {m} models")
        _require_unique(self.model_names)
        if np.any((r < 0) | (r > 100)):  # NaN, a missing cell, compares False
            raise ConsistencyError("rank1 entries must lie in [0, 100]")

    def to_dict(self):
        return {
            "model_names": list(self.model_names),
            "dataset": self.dataset_name,
            "method": self.method,
            "rank1": [[None if np.isnan(v) else float(v) for v in row] for row in self.rank1],
        }


@dataclass(frozen=True)
class Dendrogram:
    """Agglomerative merge list; leaves 0..M-1, new clusters M, M+1, ..."""

    merges: tuple  # (cluster id, cluster id, height)
    leaf_order: tuple
    linkage: str = "average"
    model_names: tuple = ()

    def to_dict(self):
        return {
            "linkage": self.linkage,
            "model_names": list(self.model_names),
            "merges": [[int(a), int(b), float(h)] for a, b, h in self.merges],
            "leaf_order": [int(i) for i in self.leaf_order],
        }

    def leaves_of(self, cluster_id: int) -> frozenset:
        """Set of original leaf indices under one cluster id."""
        m = len(self.merges) + 1
        if cluster_id < m:
            return frozenset([cluster_id])
        a, b, _ = self.merges[cluster_id - m]
        return self.leaves_of(int(a)) | self.leaves_of(int(b))

    def to_newick(self) -> str:
        m = len(self.merges) + 1

        def render(cid):
            if cid < m:
                name = self.model_names[cid] if self.model_names else str(cid)
                return str(name)
            a, b, h = self.merges[cid - m]
            return f"({render(int(a))},{render(int(b))}):{h:g}"

        return render(m + len(self.merges) - 1) + ";"


def build_compatibility_matrix(
    sets,
    method: str = "procrustes",
    seeds=DEFAULT_SEEDS,
    fraction: float = 0.7,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
) -> CompatibilityMatrix:
    """Mean Rank-1 (percent) of every ordered model pair, self-pairs included.

    Cells score the aligned side only, through :func:`ident_eval.map_rank1`,
    and Rank-1 is read from each query's first highest score.  Each
    unordered pair i <= j is paired once (:func:`align.pair_sets`;
    a shared all-zero row fails both cells), and each seed's split is made
    once per label list.  The matrix then runs seed by seed.  Per seed,
    each model's side is prepared once (:func:`align.prepare_side`): its
    shared rows gathered from the set, normalized, split and centered with
    the training mean; its test rows are normalized once, by the first
    cell that scores against them, into the gallery every cell into that
    model shares (:attr:`align.Side.gallery`).  A model holds one side at
    a time, rebuilt when a pair shares other rows of it.  Both ordered
    cells of a pair score from those sides.  A self cell (i, i) passes one
    side as both source and target, so procrustes takes the identity map,
    an exact optimum, and computes no SVD (:func:`align.fit_sides`).
    Procrustes fits once per unordered pair i < j per seed: cell (j, i)
    scores the reversed map of (i, j)
    (:meth:`align.AlignmentMap.reversed`) right away, and fits its own map
    where (i, j) failed.  Linear and ridge are directional regressions and
    fit per cell, self cells included.  No side or map outlives its seed.
    The arguments are checked before any cell is fit.  Each ordered cell
    fails on its own: one whose evaluation fails with an ``EmbalignError``
    at any seed is marked missing (NaN), never zero, and evaluated no
    further; any other exception is a bug and propagates.
    """
    sets = list(sets)
    m = len(sets)
    names = tuple(s.model_name for s in sets)
    _require_unique(names)
    check_fraction(fraction)
    seeds = check_seeds(seeds)
    align.check_method(method, alpha)
    failed = set()  # ordered cells that failed
    pairs = []  # (i, j, rows of i, rows of j, (split, test label codes) per seed)
    splits = {}  # label list -> (split, test label codes) per seed
    for i in range(m):
        for j in range(i, m):
            try:
                labels, ra, rb = align.pair_sets(sets[i], sets[j])
                key = tuple(labels)
                if key not in splits:
                    splits[key] = [_split_codes(labels, fraction, seed) for seed in seeds]
                pairs.append((i, j, ra, rb, splits[key]))
            except EmbalignError:
                failed.update({(i, j), (j, i)})

    def side(model, rows, split):
        """The side of ``model`` on its shared ``rows``, prepared unless it is held."""
        if sides[model] is None or not np.array_equal(sides[model][0], rows):
            sides[model] = None  # free the old side before the new one is made
            sides[model] = rows, align.prepare_side(
                sets[model].rows, rows[list(split.train_rows)], rows[list(split.test_rows)])
        return sides[model][1]

    per_seed = {}  # ordered cell -> Rank-1 per seed
    for k, seed in enumerate(seeds):
        sides = [None] * m  # model -> (its shared rows, their prepared side) at this seed
        for i, j, ra, rb, per_split in pairs:
            cells = [c for c in ((i, j), (j, i))[: 1 + (i < j)] if c not in failed]
            if not cells:
                continue
            split, codes = per_split[k]
            try:
                prepared = {i: side(i, ra, split), j: side(j, rb, split)}
            except EmbalignError:
                failed.update(cells)
                continue
            forward = None  # the procrustes map i -> j of this seed
            for a, b in cells:
                try:
                    if forward is not None:  # (a, b) is (j, i)
                        amap = forward.reversed()
                    else:
                        amap = align.fit_sides(prepared[a], prepared[b], method, alpha,
                                               seed=seed, source_model=names[a],
                                               target_model=names[b])
                        if method == "procrustes" and a < b:
                            forward = amap
                    value = map_rank1(prepared[a].test, prepared[b], codes, amap)
                    per_seed.setdefault((a, b), []).append(value)
                except EmbalignError:
                    failed.add((a, b))
        sides = prepared = forward = amap = None  # no side or map outlives its seed
    rank1 = np.full((m, m), np.nan)
    for (a, b), values in per_seed.items():
        if (a, b) not in failed:
            rank1[a, b] = 100.0 * float(mean_std(values)[0])
    return CompatibilityMatrix(
        model_names=names,
        rank1=rank1,
        dataset_name=sets[0].dataset_name if sets else "",
        method=method,
    )


def _split_codes(labels, fraction, seed):
    """The identity-disjoint split of ``labels`` at ``seed`` and the label codes of its test rows."""
    split = identity_disjoint_split(labels, fraction, seed)
    return split, label_codes([labels[r] for r in split.test_rows])


def symmetrize(cm: CompatibilityMatrix) -> np.ndarray:
    """(rank1 + rank1^T) / 2; requires a complete off-diagonal matrix."""
    r = cm.rank1
    off = ~np.eye(r.shape[0], dtype=bool)
    if np.isnan(r[off]).any():
        raise ProtocolError("cannot symmetrize: missing off-diagonal entries")
    s = (r + r.T) / 2.0
    np.fill_diagonal(s, np.nan_to_num(np.diag(s), nan=100.0))
    return s


def agglomerative_cluster(
    similarity: np.ndarray,
    linkage: str = "average",
    model_names=(),
) -> Dendrogram:
    """Cluster models on distance 100 - similarity with the chosen linkage."""
    import scipy.cluster.hierarchy as sch  # here for the reason given in align.fit_ridge

    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 2:
        raise ArgumentError("similarity must be a square matrix with M >= 2")
    m = s.shape[0]
    if linkage not in LINKAGES:
        raise ArgumentError(f"linkage must be one of {LINKAGES}")
    if not np.isfinite(s).all():
        raise DataError("similarity matrix holds NaN or infinite entries")
    if np.abs(s - s.T).max() > 1e-9:
        raise ConsistencyError("similarity matrix is not symmetric")
    d = 100.0 - s
    np.fill_diagonal(d, 0.0)
    d = np.maximum(d, 0.0)
    condensed = d[np.triu_indices(m, 1)]
    z = sch.linkage(condensed, method=linkage)
    merges = tuple((int(a), int(b), float(h)) for a, b, h, _ in z)
    return Dendrogram(
        merges=merges,
        leaf_order=tuple(int(i) for i in sch.leaves_list(z)),
        linkage=linkage,
        model_names=tuple(model_names),
    )


def asymmetry_stats(cm: CompatibilityMatrix) -> dict:
    """Per-model incoming/outgoing means and the global directional deviation."""
    r = cm.rank1
    m = r.shape[0]
    if m < 2:
        raise ArgumentError("need at least 2 models")
    off = ~np.eye(m, dtype=bool)
    if np.isnan(r[off]).any():
        raise ProtocolError("missing off-diagonal entries")
    per_model = {}
    for k, name in enumerate(cm.model_names):
        incoming = np.delete(r[:, k], k)
        outgoing = np.delete(r[k, :], k)
        per_model[name] = {
            "incoming_mean": float(incoming.mean()),
            "outgoing_mean": float(outgoing.mean()),
        }
    devs = [abs(r[a, b] - r[b, a]) for a in range(m) for b in range(a + 1, m)]
    return {
        "per_model": per_model,
        "mean_deviation": float(np.mean(devs)),
        "max_deviation": float(np.max(devs)),
    }


def training_size_sweep(
    source: EmbeddingSet,
    target: EmbeddingSet,
    fractions,
    seeds=DEFAULT_SEEDS,
    methods=("procrustes", "linear", "ridge"),
    base_fraction: float = 0.7,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
) -> dict:
    """Rank-1 vs. amount of training data, on a fixed per-seed test pool.

    Per seed the base split defines the train identity pool and the test
    pool; each sweep fraction keeps a nested deterministic prefix of a
    shuffled pool.  Each point prepares both sides of its split once
    (:func:`align.prepare_side`); each method fits its map on them
    (:func:`align.fit_sides`) and reads Rank-1 from each query's first
    highest score (:func:`ident_eval.map_rank1`), as in the matrix.  The
    shared labels are factorized once; each seed reads its test codes, its
    identity pool and each point's train rows from those codes.  Returns
    per-point values and mean/std aggregates (:func:`reports.mean_std`).
    An empty or repeated list of fractions, methods or seeds is an
    ``ArgumentError``, and every method is checked before the first fit.
    """
    fractions = list(fractions)
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ArgumentError("fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise ArgumentError("fractions must be ascending")
    check_distinct(fractions, "fraction")
    seeds = check_seeds(seeds)
    methods = list(methods)
    check_distinct(methods, "method")
    for method in methods:
        align.check_method(method, alpha)
    labels, ra, rb = align.pair_sets(source, target)
    all_codes = label_codes(labels)
    points = []
    for seed in seeds:
        split = identity_disjoint_split(labels, base_fraction, seed)
        train_rows, test = np.array(split.train_rows, dtype=np.intp), list(split.test_rows)
        train_codes, codes = all_codes[train_rows], all_codes[test]
        # the codes number the identities in sorted order, so the pool is
        # the sorted train identities
        pool = np.unique(train_codes)
        order = _rng(_TAG_SWEEP, seed).permutation(len(pool))
        for frac in fractions:
            n_ids = int(len(pool) * frac)
            if n_ids < 1:
                raise ArgumentError(
                    f"fraction {frac} keeps no train identities (pool {len(pool)})"
                )
            train = train_rows[np.isin(train_codes, pool[order[:n_ids]])]
            a, b = (align.prepare_side(s.rows, r[train], r[test])
                    for s, r in ((source, ra), (target, rb)))
            for method in methods:
                amap = align.fit_sides(a, b, method, alpha, seed=seed)
                points.append(
                    {
                        "method": method,
                        "fraction": frac,
                        "seed": seed,
                        "n_train_identities": n_ids,
                        "n_train_rows": len(train),
                        "rank1": map_rank1(a.test, b, codes, amap),
                    }
                )
    summary = []
    for method in methods:
        for frac in fractions:
            mean, std = mean_std(
                [p["rank1"] for p in points if p["method"] == method and p["fraction"] == frac]
            )
            summary.append({"method": method, "fraction": frac,
                            "rank1_mean": float(mean), "rank1_std": float(std)})
    return {"points": points, "summary": summary}
