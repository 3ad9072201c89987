"""Structural analyses: pairwise compatibility matrix, hierarchical
clustering of models, directional asymmetry, and the training-size sweep.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import align, blas
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
    DEFAULT_SEEDS, DEFAULT_TRAIN_FRACTION, _rng, check_distinct, check_fraction, check_seeds,
    identity_disjoint_split,
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
        """Newick text; a name holding whitespace or ``()[]':;,_`` is single-quoted and its
        ``'`` doubled (Newick reads an unquoted ``_`` as a blank)."""
        m = len(self.merges) + 1

        def render(cid):
            if cid < m:
                name = str(self.model_names[cid] if self.model_names else cid)
                if any(c.isspace() or c in "()[]':;,_" for c in name):
                    return "'" + name.replace("'", "''") + "'"
                return name
            a, b, h = self.merges[cid - m]
            return f"({render(int(a))},{render(int(b))}):{h:g}"

        return render(m + len(self.merges) - 1) + ";"


def _score_pair(queued, method, alpha):
    """A queued pair's cells as ``[(cell, Rank-1, or None where it failed), ...]``, in order.

    A self procrustes cell scores its side with no map, and cell (j, i) the
    transpose of the procrustes map of (i, j) where that fit succeeded; every
    other cell the map array :func:`align._solve` fits on its sides' train rows.
    """
    cells, prepared, codes = queued
    forward = None  # the procrustes map array i -> j of this pair
    values = []
    for a, b in cells:
        try:
            if method == "procrustes" and a == b:
                w = None  # the identity, an exact optimum
            elif forward is not None:  # (a, b) is (j, i)
                w = forward.T
            else:
                w = align._solve(prepared[a].train, prepared[b].train, method, alpha)
                if method == "procrustes" and a < b:
                    forward = w
            values.append(((a, b), map_rank1(prepared[a].test, prepared[b], codes, w)))
        except EmbalignError:
            values.append(((a, b), None))
    return values


def build_compatibility_matrix(
    sets,
    method: str = "procrustes",
    seeds=DEFAULT_SEEDS,
    fraction: float = DEFAULT_TRAIN_FRACTION,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
) -> CompatibilityMatrix:
    """Mean Rank-1 (percent) of every ordered model pair, self-pairs included.

    Cells score the aligned side only, through :func:`ident_eval.map_rank1`,
    so a cell is the aligned Rank-1 mean that
    :func:`ident_eval.evaluate_identification` reports for its pair.  Each
    unordered pair i <= j is paired once (:func:`align.pair_sets`), and each
    seed's split is made once per label list.  The matrix then runs seed by
    seed.  Per seed, each model's side is prepared once
    (:func:`align.prepare_side`): its shared rows gathered from the set,
    normalized, split and centered with the training mean (a shared all-zero
    row fails it).  A model holds one side at a time, rebuilt when a pair
    shares other rows of it.  The sides are prepared whole on the main
    thread, in pair order, so the cell threads only read them.  A side that
    fails to prepare (an ``EmbalignError``) is held as failed: it fails each
    pair of its model on those rows before any fit, and it is prepared again
    only when a pair shares other rows of the model, as a held side is.
    Each pair whose sides are held is queued, and the queue is scored
    before a held side (not a failed one) is rebuilt and at the end of the
    seed, its pairs on two threads (:func:`blas.each_on_two_threads`; a lone
    pair on the main thread alone), and their cells merged in pair order.
    Both ordered cells of a pair score from those sides, on one thread, each
    through one map array.
    A self procrustes cell (i, i) scores its side with no map: the
    identity, an exact optimum (:mod:`align`).  Procrustes fits once per
    unordered pair i < j per seed (:func:`align._solve` on the two sides'
    train rows): cell (j, i) scores the transpose of that map right away,
    the map of the same training rows fit from j to i (:mod:`align`), and
    fits its own map where (i, j) failed.  Linear and ridge are directional
    regressions and fit per cell, self cells included.  No side or map
    outlives its seed.
    The arguments are checked before any cell is fit.  Each ordered cell
    fails on its own: one whose evaluation fails with an ``EmbalignError``
    at any seed is marked missing (NaN), never zero, and evaluated no
    further; any other exception is a bug and propagates, the main
    thread's before the other thread's.
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
                pairing = align.pair_sets(sets[i], sets[j])
                key = tuple(pairing.labels)
                if key not in splits:
                    splits[key] = [(split, pairing.codes[split.test_rows]) for split in (
                        identity_disjoint_split(key, fraction, seed) for seed in seeds)]
                pairs.append((i, j, pairing.ra, pairing.rb, splits[key]))
            except EmbalignError:
                failed.update({(i, j), (j, i)})

    per_seed = {}  # ordered cell -> Rank-1 per seed
    queue = []  # (cells, their prepared sides, test label codes) of the pairs not yet scored

    def flush():
        """Score the queued pairs and merge their cells in pair order."""
        for values in blas.each_on_two_threads(
                "embalign-cells", lambda queued: _score_pair(queued, method, alpha), queue):
            for cell, value in values:
                if value is None:
                    failed.add(cell)
                else:
                    per_seed.setdefault(cell, []).append(value)
        queue.clear()

    def side(model, rows, split):
        """The side of ``model`` on its shared ``rows``, prepared unless it is held; ``None``
        where it failed to prepare."""
        if sides[model] is None or not np.array_equal(sides[model][0], rows):
            if sides[model] is not None and sides[model][1] is not None:
                flush()  # the queued pairs may hold the side about to be dropped
            sides[model] = None  # free the old side before the new one is made
            try:
                made = align.prepare_side(
                    sets[model].rows, rows[split.train_rows], rows[split.test_rows])
            except EmbalignError:
                made = None
            sides[model] = rows, made
        return sides[model][1]

    for k, seed in enumerate(seeds):
        sides = [None] * m  # model -> (its shared rows, their prepared side) at this seed
        for i, j, ra, rb, per_split in pairs:
            cells = [c for c in ((i, j), (j, i))[: 1 + (i < j)] if c not in failed]
            if not cells:
                continue
            split, codes = per_split[k]
            prepared = {i: side(i, ra, split), j: side(j, rb, split)}
            if None in prepared.values():
                failed.update(cells)
                continue
            queue.append((cells, prepared, codes))
        flush()
        sides = prepared = None  # no side outlives its seed
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
    import scipy.cluster.hierarchy as sch  # here for the reason given in align._ridge

    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 2:
        raise ArgumentError("similarity must be a square matrix with M >= 2")
    m = s.shape[0]
    model_names = tuple(model_names)
    if len(model_names) not in (0, m):
        raise ArgumentError(f"{len(model_names)} model names for {m} models")
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
        model_names=model_names,
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
    base_fraction: float = DEFAULT_TRAIN_FRACTION,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
) -> dict:
    """Rank-1 vs. amount of training data, on a fixed per-seed test pool.

    Per seed the base split defines the train identity pool and the test
    pool; each sweep fraction keeps a nested deterministic prefix of a
    shuffled pool.  Each point prepares both sides of its split once
    (:meth:`align.Pairing.sides`); each method solves for its map array on
    their train rows (:func:`align._solve`) and reads its aligned Rank-1 with
    :func:`ident_eval.map_rank1`, as the matrix does.  The shared labels
    are factorized once; each seed reads its test codes, its identity pool
    and each point's train rows from those codes.  Returns per-point
    values and mean/std aggregates (:func:`reports.mean_std`).  An empty
    or repeated list of fractions, methods or seeds is an
    ``ArgumentError``, as is a fraction that is not a number in (0, 1]
    (a ``bool`` included), and every method is checked before the first fit.
    """
    fractions = list(fractions)
    if any(isinstance(f, bool) or not isinstance(f, numbers.Real) or not 0.0 < f <= 1.0
           for f in fractions):
        raise ArgumentError("fractions must be numbers in (0, 1]")
    if sorted(fractions) != fractions:
        raise ArgumentError("fractions must be ascending")
    check_distinct(fractions, "fraction")
    seeds = check_seeds(seeds)
    methods = list(methods)
    check_distinct(methods, "method")
    for method in methods:
        align.check_method(method, alpha)
    pairing = align.pair_sets(source, target)
    points = []
    for seed in seeds:
        split = identity_disjoint_split(pairing.labels, base_fraction, seed)
        train_codes, codes = pairing.codes[split.train_rows], pairing.codes[split.test_rows]
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
            train = split.train_rows[np.isin(train_codes, pool[order[:n_ids]])]
            a, b = pairing.sides(train, split.test_rows)
            for method in methods:
                w = align._solve(a.train, b.train, method, alpha)
                points.append(
                    {
                        "method": method,
                        "fraction": frac,
                        "seed": seed,
                        "n_train_identities": n_ids,
                        "n_train_rows": len(train),
                        "rank1": map_rank1(a.test, b, codes, w),
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
