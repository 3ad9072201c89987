"""Cross-model verification: pair scoring, ROC, AUC, EER, TMR@FMR.

Scoring is directional by default: the source member of each pair passes
through the alignment map, the target member stays in its own space.  A
symmetric mode averages the two directions.

Pair scoring gathers the rows of a block of at most ``_PAIR_BLOCK`` pairs
at a time, so its temporaries hold block x k values whatever the number
of pairs.  The evaluation scores each side in the models' own shapes
(:func:`align.project`), over the k columns the two sides share: a
pair's score is the cosine of the two k-wide vectors it compares, each
over its own norm.  Each dot product goes through BLAS ``ddot``, as
``u @ v`` and ``np.linalg.norm(u)`` do, so every score has the same bits
as the one-pair-at-a-time expression ``u @ v / (norm(u) * norm(v))``.

ROC metrics.  The evaluation path keeps each ROC as two arrays (FMR, TMR)
and computes AUC, EER and TMR@FMR from them in the operation order of the
public list-based functions, which wrap the same kernels.  The curve runs
from the (0, 0) origin to (1, 1); AUC closes a curve that stops short of
(1, 1), and EER closes one that starts after the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import align
from .embedstore import EmbeddingSet
from .errors import ArgumentError, ConsistencyError, DegenerateRowError, ProtocolError
from .reports import AlignedBaselineReport, mean_std, pair_metadata
from .splits import (DEFAULT_SEEDS, PairList, _pair_counts, check_pair_caps, check_seeds,
                     sample_pairs_capped)

FMR_TARGETS = (0.01, 0.001)

#: fixed FMR grid used when vertically averaging ROC curves across seeds
ROC_GRID = np.logspace(-4, 0, 50)

#: ROC_GRID as roc_on_grid evaluates it (FMR 1 itself is not a valid target)
_GRID_TARGETS = np.minimum(ROC_GRID, 1.0 - 1e-12)

# pairs scored per step; the gathered rows hold 2 x _PAIR_BLOCK x k floats
_PAIR_BLOCK = 2048


def _row_dots(x, y):
    """``x[k] @ y[k]`` for every row k, each through BLAS ``ddot``.

    ``np.einsum`` and ``np.linalg.norm(axis=1)`` sum in another order and
    can differ from ``u @ v`` in the last bit; a stacked vector matmul
    does not.
    """
    return np.matmul(x[:, None, :], y[:, :, None])[:, 0, 0]


def _row_norms(x):
    """Euclidean norm of each row, equal to ``np.linalg.norm(x[k])``."""
    return np.sqrt(_row_dots(x, x))


def _cosines(a, t, norms_a, norms_t, i, j):
    """Cosine of ``a[i[k]]`` and ``t[j[k]]`` for each pair k; no row may have zero norm."""
    bad = (i < 0) | (i >= a.shape[0]) | (j < 0) | (j >= t.shape[0])
    if bad.any():
        k = int(np.argmax(bad))
        raise ConsistencyError(f"pair ({i[k]}, {j[k]}) out of range")
    zero = (norms_a[i] == 0.0) | (norms_t[j] == 0.0)
    if zero.any():
        k = int(np.argmax(zero))
        side, row = ("source", i[k]) if norms_a[i[k]] == 0.0 else ("target", j[k])
        raise DegenerateRowError(int(row), f"pair ({i[k]}, {j[k]}): {side} row {row} has zero norm")
    out = np.empty(i.shape[0])
    for start in range(0, i.shape[0], _PAIR_BLOCK):
        bi, bj = i[start:start + _PAIR_BLOCK], j[start:start + _PAIR_BLOCK]
        out[start:start + _PAIR_BLOCK] = _row_dots(a[bi], t[bj]) / (norms_a[bi] * norms_t[bj])
    return out


def pair_scores(aligned_source: np.ndarray, target: np.ndarray, pairs: PairList):
    """Cosine similarity per pair: aligned source row i against target row j."""
    a = np.asarray(aligned_source, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if a.ndim != 2 or t.ndim != 2:
        raise ConsistencyError(f"pair rows must be 2-D, got shapes {a.shape} and {t.shape}")
    scores, genuine = _score_pairs((a, _row_norms(a)), (t, _row_norms(t)), pairs, False)
    return scores.tolist(), genuine.tolist()


def _roc(scores, labels):
    """ROC of a score set as (fmr, tmr) arrays, origin first (see roc_curve)."""
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
    # keep only the last index of each distinct score (full batch accepted)
    distinct = np.flatnonzero(np.diff(sorted_scores, append=-np.inf))
    fmr = np.concatenate(([0.0], fp[distinct] / n_imp))
    tmr = np.concatenate(([0.0], tp[distinct] / n_gen))
    return fmr, tmr


def _points_to_arrays(roc):
    """(fmr, tmr) arrays of a sequence of (fmr, tmr) points, in its order."""
    pts = np.array(roc, dtype=np.float64).reshape(-1, 2)
    return pts[:, 0], pts[:, 1]


def _auc(fmr, tmr):
    """Trapezoid sum over a sorted curve that ends at (1, 1).

    ``cumsum`` adds the terms one after another, as a Python loop does;
    ``np.sum`` would add them pairwise, in another order.
    """
    terms = np.diff(fmr) * (tmr[:-1] + tmr[1:]) / 2.0
    return float(np.cumsum(terms)[-1])


def _eer(fmr, tmr):
    """EER of a sorted curve that starts at the (0, 0) origin."""
    # g = fmr - fnmr rises from -1 at (0,0) to +1 at (1,1)
    g = fmr - (1.0 - tmr)
    crossed = np.flatnonzero(g >= 0.0)
    if crossed.size == 0:
        return float(fmr[-1])
    k = int(crossed[0])
    if g[k] == 0.0:
        return float(fmr[k])
    s = -g[k - 1] / (g[k] - g[k - 1])
    return float(fmr[k - 1] + s * (fmr[k] - fmr[k - 1]))


def _tmr_at(fmr, tmr, targets):
    """TMR at each FMR target of a curve sorted by FMR (see tmr_at_fmr)."""
    targets = np.asarray(targets, dtype=np.float64)
    best = np.zeros(targets.shape)
    # points at or below each target form a prefix of the curve
    m = np.searchsorted(fmr, targets, side="right")
    some = m > 0
    best[some] = np.maximum(0.0, np.maximum.accumulate(tmr)[m[some] - 1])
    # linear interpolation towards the first point above the target
    inner = some & (m < fmr.shape[0])
    k = m[inner]
    f1, t1, f2, t2 = fmr[k - 1], tmr[k - 1], fmr[k], tmr[k]
    interp = t1 + (targets[inner] - f1) / (f2 - f1) * (t2 - t1)
    best[inner] = np.maximum(best[inner], interp)
    return best


def roc_curve(scores, labels):
    """(fmr, tmr) points swept over the distinct scores, high to low.

    Acceptance rule is score >= threshold; a +inf sentinel contributes the
    (0, 0) origin and the lowest score yields (1, 1).
    """
    fmr, tmr = _roc(scores, labels)
    return list(zip(fmr.tolist(), tmr.tolist()))


def auc(roc) -> float:
    """Trapezoidal area under the ROC; equals the rank-sum statistic."""
    if len(roc) < 2:
        raise ArgumentError("need at least 2 ROC points")
    pts = sorted(roc)
    if pts[-1] != (1.0, 1.0):
        pts.append((1.0, 1.0))
    return _auc(*_points_to_arrays(pts))


def eer(roc) -> float:
    """Error rate where FMR equals FNMR, interpolated between ROC points.

    A curve that does not start at the (0, 0) origin is closed there.
    """
    if len(roc) < 2:
        raise ArgumentError("need at least 2 ROC points")
    pts = sorted(roc)
    if pts[0] != (0.0, 0.0):
        pts.insert(0, (0.0, 0.0))
    return _eer(*_points_to_arrays(pts))


def tmr_at_fmr(roc, fmr_target: float) -> float:
    """Largest TMR achievable at FMR <= target, with linear interpolation."""
    if not 0.0 < fmr_target < 1.0:
        raise ArgumentError(f"fmr_target must lie in (0, 1), got {fmr_target}")
    return float(_tmr_at(*_points_to_arrays(sorted(roc)), [fmr_target])[0])


def roc_on_grid(roc, grid=ROC_GRID) -> np.ndarray:
    """TMR sampled at fixed FMR values (for cross-seed vertical averaging)."""
    targets = np.array([min(f, 1.0 - 1e-12) for f in grid], dtype=np.float64)
    bad = ~((0.0 < targets) & (targets < 1.0))
    if bad.any():
        raise ArgumentError(f"fmr_target must lie in (0, 1), got {targets[np.argmax(bad)]}")
    return _tmr_at(*_points_to_arrays(sorted(roc)), targets)


@dataclass(frozen=True)
class SeedVerification:
    seed: int
    auc: float
    eer: float
    tmr_at_fmr: dict
    roc: tuple
    n_genuine: int
    n_impostor: int

    def to_dict(self):
        return {
            "seed": self.seed,
            "auc": self.auc,
            "eer": self.eer,
            "tmr_at_fmr": {str(k): v for k, v in self.tmr_at_fmr.items()},
            "n_genuine": self.n_genuine,
            "n_impostor": self.n_impostor,
        }


@dataclass(frozen=True)
class VerificationReport(AlignedBaselineReport):
    method: str
    seeds: tuple
    per_seed: tuple
    per_seed_baseline: tuple
    per_seed_split: tuple = field(default=(), compare=False)  # splits.SplitSpec; intra only
    protocol: str = "intra"
    fraction: float = 0.7
    symmetric_score: bool = False
    metadata: dict = field(default_factory=dict)

    @classmethod
    def _summary(cls, results):
        # each stored ROC is a sweep from `_roc`, already sorted by (FMR, TMR)
        tmr_mean, tmr_std = mean_std(
            [_tmr_at(*_points_to_arrays(r.roc), _GRID_TARGETS) for r in results]
        )
        return {
            "auc": cls._scalar([r.auc for r in results]),
            "eer": cls._scalar([r.eer for r in results]),
            "tmr_at_fmr": {
                str(t): cls._scalar([r.tmr_at_fmr[t] for r in results]) for t in FMR_TARGETS
            },
            "roc_grid": {
                "fmr": ROC_GRID.tolist(),
                "tmr_mean": tmr_mean.tolist(),
                "tmr_std": tmr_std.tolist(),
            },
        }


def _score_pairs(queries, gallery, pairs, symmetric):
    """Scores and genuine flags of a pair list, as arrays.

    ``queries`` and ``gallery`` are (rows, row norms) couples.
    """
    (q, norms_q), (g, norms_g) = queries, gallery
    i, j, genuine = pairs.pairs.T
    scores = _cosines(q, g, norms_q, norms_g, i, j)
    if symmetric:
        scores = (scores + _cosines(q, g, norms_q, norms_g, j, i)) / 2.0
    return scores, genuine.astype(bool)


def _seed_metrics(scores, labels, seed):
    fmr, tmr = _roc(scores, labels)
    n_genuine = int(np.count_nonzero(labels))
    return SeedVerification(
        seed=seed,
        auc=_auc(fmr, tmr),
        eer=_eer(fmr, tmr),
        tmr_at_fmr=dict(zip(FMR_TARGETS, _tmr_at(fmr, tmr, FMR_TARGETS).tolist())),
        roc=tuple(zip(fmr.tolist(), tmr.tolist())),
        n_genuine=n_genuine,
        n_impostor=len(labels) - n_genuine,
    )


def _eval_sides(x, y, amap):
    """Aligned queries and gallery, then the unaligned baseline pair.

    Each side is its scored rows from :func:`align.project` with their
    norms, the cosine denominators every seed's pairs share.
    """
    sides = (*align.project(x, y, amap), *align.project(x, y))
    return tuple((rows, _row_norms(rows)) for rows in sides)


def _score_seed(sides, pairs, symmetric, seed):
    queries, gallery, base_q, base_g = sides
    aligned = _seed_metrics(*_score_pairs(queries, gallery, pairs, symmetric), seed)
    base = _seed_metrics(*_score_pairs(base_q, base_g, pairs, symmetric), seed)
    return aligned, base


def evaluate_verification(
    source: EmbeddingSet,
    target: EmbeddingSet,
    method: str | None = None,
    seeds=DEFAULT_SEEDS,
    fraction: float = 0.7,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
    pair_caps=None,
    amap: align.AlignmentMap | None = None,
    symmetric_score: bool = False,
) -> VerificationReport:
    """Per-seed verification protocol; both protocols run one seed loop.

    Intra protocol (no ``amap``): per seed, fit ``method`` (default
    procrustes) on the train side of an identity-disjoint split and score
    pairs of its test rows.  Cross protocol (a fitted ``amap``, whose
    method and alpha the report gives; another ``method`` is a
    ``ConsistencyError``): no split and no fit; every seed scores pairs of
    the shared rows, projected once.  Each seed samples ``pair_caps``
    (:func:`splits.check_pair_caps`) or every genuine pair and as many impostors.
    """
    seeds, pair_caps = check_seeds(seeds), check_pair_caps(pair_caps)
    if amap is not None:
        if method not in (None, amap.method):
            raise ConsistencyError(f"method {method!r} disagrees with the map's {amap.method!r}")
        method, alpha = amap.method, amap.alpha
    method = method or "procrustes"
    results = []
    for seed, split, _, sides, codes in align.pair_sets(source, target).seed_maps(
            method, alpha, fraction, seeds, amap, _eval_sides):
        # pair indices refer to positions within the scored rows
        pairs = sample_pairs_capped(codes, *(pair_caps or (_pair_counts(codes)[0],) * 2), seed)
        results.append((*_score_seed(sides, pairs, symmetric_score, seed), split))
        del sides  # free a fitted map's rows before the next seed's fit; a fixed map keeps its own
    return VerificationReport(
        method=method,
        seeds=tuple(seeds),
        per_seed=tuple(r[0] for r in results),
        per_seed_baseline=tuple(r[1] for r in results),
        per_seed_split=tuple(r[2] for r in results if r[2] is not None),
        protocol="intra" if amap is None else "cross",
        fraction=fraction,
        symmetric_score=symmetric_score,
        metadata={
            **pair_metadata(source, target, method, alpha),
            "scoring_direction": "symmetric" if symmetric_score else "source_to_target",
            "pair_caps": list(pair_caps) if pair_caps else None,
        },
    )
