"""Closed-set cross-model identification: cosine scoring, Rank-k, mAP, CMC.

The evaluation protocol per seed: split identities disjointly, fit the
preprocessing and the alignment map on training rows only, use aligned
test-source rows as queries against preprocessed test-target rows as the
gallery.  The unaligned baseline is scored on the same test rows: prep
with zero means and no map, so its rows are unit-normalized and padded.

Ranking.  Rank-k, mAP and CMC all derive from one rank kernel.  For a
query with score row s, gallery item j has the 1-based rank
``1 + #{l: s[l] > s[j]} + #{l < j: s[l] == s[j]}``: descending score,
ties broken by ascending gallery index, as a stable descending sort
would order them.  Entries scored -inf count as removed from the
gallery: they are never relevant and never outrank anything (the
exclude-self protocol removes each query's own image this way).  NaN
and +inf scores are rejected with ``DataError``.

Memory.  The kernel walks the queries in blocks of at most
``_CELL_BUDGET`` score entries (or one row, for galleries larger than
that) and ranks each block by one sort of its rows.  Its
temporaries hold one block each, so memory beyond the score matrix does
not grow with the number of queries or of items per label.  The score
matrix is never copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import align
from .embedstore import EmbeddingSet
from .errors import ArgumentError, ConsistencyError, DataError, ProtocolError
from .prep import _unit_rows
from .reports import AlignedBaselineReport
from .splits import DEFAULT_SEEDS, check_seeds

RANK_KS = (1, 5, 10)
CMC_MAX_RANK = 50

# score entries one step of the rank kernel sorts at a time
_CELL_BUDGET = 1 << 16


def score_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities, queries x gallery."""
    return _unit_rows(queries) @ _unit_rows(gallery).T


def _check_labels(scores, q_labels, g_labels):
    """Validate scores against the labels; return scores and label codes.

    Labels compare by their string form and are factorized once to
    integer codes shared by queries and gallery.
    """
    scores = np.asarray(scores, dtype=np.float64)
    q_labels = [str(l) for l in q_labels]
    g_labels = [str(l) for l in g_labels]
    if scores.shape != (len(q_labels), len(g_labels)):
        raise ConsistencyError(
            f"scores shape {scores.shape} does not match "
            f"{len(q_labels)} queries x {len(g_labels)} gallery labels"
        )
    # max() is NaN if any entry is NaN, so one reduction catches NaN and +inf
    if scores.size and not scores.max() < np.inf:
        raise DataError("scores contain NaN or +inf (only -inf, meaning removed, is allowed)")
    _, codes = np.unique(np.asarray(q_labels + g_labels, dtype=str), return_inverse=True)
    return scores, codes[: len(q_labels)], codes[len(q_labels):]


def _rank_blocks(scores, q_codes, g_codes, exclude_self=False):
    """Rank the gallery for one block of queries at a time.

    Yields ``(start, stop, hits)`` per block of queries ``start:stop``:
    ``hits[i, r]`` is True when the gallery item at rank ``r + 1`` for
    query ``start + i`` (module docstring) is live and has its label, so
    the ranks of the relevant items are the nonzero columns plus one.
    With ``exclude_self`` the diagonal counts as scored -inf.
    """
    n_q, n_g = scores.shape
    if n_g == 0:
        return  # nothing to rank
    step = max(1, _CELL_BUDGET // n_g)
    for start in range(0, n_q, step):
        stop = min(start + step, n_q)
        neg = -scores[start:stop]
        if exclude_self:
            neg[np.arange(stop - start), np.arange(start, stop)] = np.inf
        relevant = (q_codes[start:stop, None] == g_codes) & (neg < np.inf)
        # numpy's default sort is fast but leaves equal scores in any order;
        # re-sorting on (run of equal scores, gallery index) gives the
        # stable order
        order = np.argsort(neg, axis=1)
        ranked = np.take_along_axis(neg, order, axis=1)
        run = np.zeros(order.shape, dtype=np.intp)
        np.cumsum(ranked[:, 1:] != ranked[:, :-1], axis=1, out=run[:, 1:])
        run *= n_g
        run += order
        run.sort(axis=1)
        np.remainder(run, n_g, out=order)
        yield start, stop, np.take_along_axis(relevant, order, axis=1)


def _ranked(scores, q_codes, g_codes, exclude_self=False, with_ap=False):
    """First-hit rank per query and, if asked, average precision per query.

    A query without a live relevant item gets first-hit rank
    ``n_gallery + 1`` and AP NaN.  AP keeps the expression of a per-row
    sorted evaluation, ``sum(cumsum(rel) / rank * rel) / n_rel``, on
    blocks of rows, so its value is the same to the last bit.
    """
    n_q, n_g = scores.shape
    first = np.full(n_q, n_g + 1, dtype=np.intp)
    aps = np.full(n_q, np.nan) if with_ap else None
    positions = np.arange(1, n_g + 1)
    for start, stop, hits in _rank_blocks(scores, q_codes, g_codes, exclude_self):
        found = hits.any(axis=1)
        first[start:stop][found] = hits[found].argmax(axis=1) + 1
        if with_ap:
            rel = hits.astype(np.float64)
            with np.errstate(invalid="ignore"):
                aps[start:stop] = (
                    (np.cumsum(rel, axis=1) / positions * rel).sum(axis=1)
                    / rel.sum(axis=1)
                )
    return first, aps


def _require_relevant(found):
    """Raise unless every query (``found[i]``) has a live relevant gallery item."""
    missing = np.flatnonzero(~found)
    if missing.size:
        raise ProtocolError(f"query {missing[0]} has no relevant gallery items")


def _rank1(scores, q_labels, g_labels) -> float:
    """Rank-1 accuracy read from the first maximum of each score row.

    The first maximum is the item the rank kernel puts at rank 1 (equal
    scores go to the lowest gallery index); a -inf maximum is a removed
    item and never a hit.  Validation and errors are those of the
    evaluation, ``ProtocolError`` for a query without a live relevant
    item included.
    """
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    relevant = (q_codes[:, None] == g_codes) & (scores > -np.inf)
    _require_relevant(relevant.any(axis=1))
    return float(relevant[np.arange(len(q_codes)), scores.argmax(axis=1)].mean())


def _cmc(first, max_rank):
    return [float((first <= k).mean()) for k in range(1, max_rank + 1)]


def rank_k_accuracy(scores, q_labels, g_labels, k: int) -> float:
    """Fraction of queries with a same-label gallery item in the top k."""
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    if not 1 <= k <= len(g_codes):
        raise ArgumentError(f"k={k} outside [1, {len(g_codes)}]")
    first, _ = _ranked(scores, q_codes, g_codes)
    return float((first <= k).mean())


def mean_average_precision(scores, q_labels, g_labels) -> float:
    """Standard retrieval mAP; all same-label gallery items are relevant.

    Entries scored -inf are treated as removed from the gallery (used by
    the exclude-self protocol variant).
    """
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    first, aps = _ranked(scores, q_codes, g_codes, with_ap=True)
    _require_relevant(first <= len(g_codes))
    return float(aps.mean())


def _first_hits(scores, q_codes, g_codes):
    first, _ = _ranked(scores, q_codes, g_codes)
    if (first > len(g_codes)).any():
        raise ProtocolError("some query label never occurs in the gallery")
    return first


def first_hit_ranks(scores, q_labels, g_labels) -> np.ndarray:
    """1-based rank of the first same-label gallery item per query."""
    return _first_hits(*_check_labels(scores, q_labels, g_labels))


def cmc_curve(scores, q_labels, g_labels, max_rank: int = CMC_MAX_RANK):
    """Identification accuracy at ranks 1..max_rank (nondecreasing)."""
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    if max_rank > len(g_codes):
        raise ArgumentError(f"max_rank {max_rank} exceeds gallery size {len(g_codes)}")
    return _cmc(_first_hits(scores, q_codes, g_codes), max_rank)


@dataclass(frozen=True)
class SeedRetrieval:
    """Metrics of one seed's evaluation."""

    seed: int
    rank_k: dict
    map_score: float
    cmc: tuple
    n_queries: int
    n_gallery: int

    def to_dict(self):
        return {
            "seed": self.seed,
            "rank_k": {str(k): v for k, v in self.rank_k.items()},
            "map": self.map_score,
            "cmc": list(self.cmc),
            "n_queries": self.n_queries,
            "n_gallery": self.n_gallery,
        }


@dataclass(frozen=True)
class RetrievalReport(AlignedBaselineReport):
    """Per-seed identification metrics plus mean/std summaries."""

    method: str
    fraction: float
    seeds: tuple
    per_seed: tuple  # SeedRetrieval, aligned
    per_seed_baseline: tuple  # SeedRetrieval, unaligned
    exclude_self: bool = False
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def _summary(results):
        ks = sorted(set.intersection(*(set(r.rank_k) for r in results)))
        out = {"rank_k": {}, "map": {}, "cmc": {}}
        for k in ks:
            vals = np.array([r.rank_k[k] for r in results])
            out["rank_k"][str(k)] = {
                "mean": float(vals.mean()),
                "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
            }
        maps = np.array([r.map_score for r in results])
        out["map"] = {
            "mean": float(maps.mean()),
            "std": float(maps.std(ddof=1)) if len(maps) > 1 else 0.0,
        }
        # test-set size varies with the seed; aggregate over the common prefix
        minlen = min(len(r.cmc) for r in results)
        cmc = np.array([r.cmc[:minlen] for r in results])
        out["cmc"] = {
            "mean": cmc.mean(axis=0).tolist(),
            "std": (cmc.std(axis=0, ddof=1) if cmc.shape[0] > 1 else np.zeros(cmc.shape[1])).tolist(),
        }
        return out

    def to_dict(self):
        return {
            "method": self.method,
            "fraction": self.fraction,
            "seeds": list(self.seeds),
            "exclude_self": self.exclude_self,
            "metadata": self.metadata,
            **self._sections(),
        }


def _metrics_from_scores(scores, q_labels, g_labels, max_rank, seed, exclude_self):
    scores = np.asarray(scores, dtype=np.float64)
    if exclude_self and scores.shape[0] != scores.shape[1]:
        raise ConsistencyError("exclude_self requires query set == gallery set")
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    n_g = len(g_codes)
    first, aps = _ranked(scores, q_codes, g_codes, exclude_self, with_ap=True)
    _require_relevant(first <= n_g)
    if max_rank > n_g:
        raise ArgumentError(f"max_rank {max_rank} exceeds gallery size {n_g}")
    return SeedRetrieval(
        seed=seed,
        rank_k={k: float((first <= k).mean()) for k in RANK_KS if k <= n_g},
        map_score=float(aps.mean()),
        cmc=tuple(_cmc(first, max_rank)),
        n_queries=len(q_codes),
        n_gallery=n_g,
    )


def evaluate_identification(
    source: EmbeddingSet,
    target: EmbeddingSet,
    method: str = "procrustes",
    seeds=DEFAULT_SEEDS,
    fraction: float = 0.7,
    alpha: float = align.DEFAULT_RIDGE_ALPHA,
    exclude_self: bool = False,
) -> RetrievalReport:
    """Run the per-seed identification protocol and aggregate the metrics."""
    seeds = check_seeds(seeds)
    labels, x, y = align.unit_pair(source, target)
    results = []  # (aligned, baseline) per seed
    for seed in seeds:
        amap, test = align.fit_seed(x, y, labels, method, alpha, fraction, seed)
        test_labels = [labels[i] for i in test]
        results.append(tuple(
            _metrics_from_scores(
                score_matrix(*align.project(x[test], y[test], m)), test_labels, test_labels,
                min(CMC_MAX_RANK, len(test)), seed, exclude_self,
            )
            for m in (amap, None)
        ))
    return RetrievalReport(
        method=method,
        fraction=fraction,
        seeds=tuple(seeds),
        per_seed=tuple(r[0] for r in results),
        per_seed_baseline=tuple(r[1] for r in results),
        exclude_self=exclude_self,
        metadata={
            "source_model": source.model_name,
            "target_model": target.model_name,
            "dataset": source.dataset_name,
            "alpha": alpha if method == "ridge" else 0.0,
            "gallery_includes_self": not exclude_self,
        },
    )


def aligned_rank1(x, y, labels, splits, method, alpha) -> float:
    """Aligned mean Rank-1 as :func:`evaluate_identification` reports it, with no baseline.

    ``x`` and ``y`` are the unit source and target rows of the shared
    images, ``labels`` their identities and ``splits`` one
    identity-disjoint split of ``labels`` per seed.  The seeds run one
    after another on the calling thread.
    """
    rank1 = []
    for split in splits:
        amap = align.fit_alignment(
            x, y, method, alpha, rows=list(split.train_rows), seed=split.seed
        )
        test = list(split.test_rows)
        test_labels = [labels[i] for i in test]
        scores = score_matrix(*align.project(x[test], y[test], amap))
        rank1.append(_rank1(scores, test_labels, test_labels))
    return float(np.array(rank1).mean())
