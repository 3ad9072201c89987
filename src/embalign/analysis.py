"""Structural analyses: pairwise compatibility matrix, hierarchical
clustering of models, directional asymmetry, and the training-size sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.cluster.hierarchy as sch

from . import align
from .embedstore import EmbeddingSet, shared_rows
from .errors import (
    ArgumentError,
    ConsistencyError,
    DegenerateRowError,
    EmbalignError,
    ProtocolError,
)
from .ident_eval import aligned_rank1
from .prep import l2_normalize
from .splits import DEFAULT_SEEDS, _rng, check_fraction, check_seeds, identity_disjoint_split

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


def _unit_model(s: EmbeddingSet):
    """Unit rows of ``s`` in file order, from one normalize call, and the zero-row mask.

    All-zero rows stay zero; they fail only the cells that share their image.
    """
    live = s.rows.any(axis=1)
    unit = np.zeros(s.rows.shape)
    unit[live] = l2_normalize(s.rows[live])
    return unit, live


def build_compatibility_matrix(
    sets,
    method: str = "procrustes",
    seeds=DEFAULT_SEEDS,
    fraction: float = 0.7,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
) -> CompatibilityMatrix:
    """Mean Rank-1 (percent) of every ordered model pair, self-pairs included.

    Cells score the aligned side only, and Rank-1 is read from each
    query's first highest score.  Each model is normalized once and each
    seed's split is made once per label list; every cell fits its own map.
    Rows are paired by image id in :func:`embedstore.shared_rows`, and a
    cell that shares an all-zero row fails.  The arguments are checked
    before any cell is fit.  Pairs whose evaluation fails with an
    ``EmbalignError`` are marked missing (NaN), never zero; any other
    exception is a bug and propagates.
    """
    sets = list(sets)
    m = len(sets)
    names = tuple(s.model_name for s in sets)
    _require_unique(names)
    check_fraction(fraction)
    seeds = check_seeds(seeds)
    align.check_method(method, alpha)
    units = [_unit_model(s) for s in sets]
    splits = {}  # label list -> one split per seed
    rank1 = np.full((m, m), np.nan)
    for i in range(m):
        for j in range(m):
            try:
                ra, rb = shared_rows(sets[i], sets[j])
                (unit_a, live_a), (unit_b, live_b) = units[i], units[j]
                dead = np.flatnonzero(~(live_a[ra] & live_b[rb]))
                if dead.size:
                    raise DegenerateRowError(int(dead[0]))
                labels = [sets[i].labels[r] for r in ra]
                key = tuple(labels)
                if key not in splits:
                    splits[key] = [identity_disjoint_split(labels, fraction, s) for s in seeds]
                rank1[i, j] = 100.0 * aligned_rank1(
                    unit_a[ra], unit_b[rb], labels, splits[key], method, alpha
                )
            except EmbalignError:
                pass
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
    s = np.asarray(similarity, dtype=np.float64)
    m = s.shape[0]
    if s.ndim != 2 or s.shape != (m, m) or m < 2:
        raise ArgumentError("similarity must be a square matrix with M >= 2")
    if linkage not in LINKAGES:
        raise ArgumentError(f"linkage must be one of {LINKAGES}")
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
    shuffled pool.  Each method fits and scores that split through
    :func:`ident_eval.aligned_rank1`, which reads Rank-1 from each query's
    first highest score, as in the matrix.  Returns per-point values and
    mean/std aggregates.
    """
    fractions = list(fractions)
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ArgumentError("fractions must lie in (0, 1]")
    if sorted(fractions) != fractions:
        raise ArgumentError("fractions must be ascending")
    seeds = check_seeds(seeds)
    labels, x, y = align.unit_pair(source, target)
    points = []
    for seed in seeds:
        split = identity_disjoint_split(labels, base_fraction, seed)
        pool = sorted(split.train_identities)
        n_identities = len(pool) + len(split.test_identities)
        order = _rng(_TAG_SWEEP, seed).permutation(len(pool))
        for frac in fractions:
            n_ids = int(len(pool) * frac)
            if n_ids < 1:
                raise ArgumentError(
                    f"fraction {frac} keeps no train identities (pool {len(pool)})"
                )
            keep = frozenset(pool[i] for i in order[:n_ids])
            sub = replace(split, train_fraction=n_ids / n_identities, train_identities=keep,
                          train_rows=tuple(i for i in split.train_rows if labels[i] in keep))
            for method in methods:
                points.append(
                    {
                        "method": method,
                        "fraction": frac,
                        "seed": seed,
                        "n_train_identities": n_ids,
                        "n_train_rows": len(sub.train_rows),
                        "rank1": aligned_rank1(x, y, labels, [sub], method, alpha),
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
