"""Closed-set cross-model identification: cosine scoring, Rank-k, mAP, CMC.

The evaluation protocol per seed: split identities disjointly, fit the
preprocessing and the alignment map on training rows only, use aligned
test-source rows as queries against preprocessed test-target rows as the
gallery.  The unaligned baseline is scored on the same test rows, with
no means and no map.  Both are scored in the models' own shapes
(:func:`align.project`), over the k columns the sides share: a score is
the cosine of a k-wide query and a k-wide gallery row, each row over its
own norm.

Ranking.  Rank-k, mAP and CMC all derive from one rank kernel.  For a
query with score row s, gallery item j has the 1-based rank
``1 + #{l: s[l] > s[j]} + #{l < j: s[l] == s[j]}``: descending score,
ties broken by ascending gallery index, as a stable descending sort
would order them.  Entries scored -inf count as removed from the
gallery: they are never relevant and never outrank anything (the
exclude-self protocol removes each query's own image this way).  NaN
and +inf scores are rejected with ``DataError``.

The kernel computes the ranks of the relevant items only (same label,
scored above -inf).  It groups the gallery by label once per evaluation
(a stable argsort of the label codes), and each block reads its relevant
items from the groups of its queries' labels.  It sorts the score values
of each row once, and a binary search of the sorted row counts the
entries ``<= s[j]``, which gives the rank of an item whose score is
unique in its row.  Only a row that holds a relevant item tied with
another entry is also ordered in full, by numpy's stable argsort of its
negated scores, and the tied items read their ranks from that order.

Memory.  Evaluation never holds the n_q x n_gallery score matrix.  It
normalizes both sides once, scores the queries in row chunks of at
most ``_SCORE_BUDGET`` entries (or one row, for galleries wider than
that), and ranks each chunk before the next one is scored.  The
rank kernel walks each chunk in blocks of at most ``_CELL_BUDGET`` score
entries (or one row); a chunk holds a whole number of blocks, so no
block straddles two chunks.  The kernel's temporaries, the sorted block
and per-item arrays of at most one block's entries, hold one block
each.  Memory is thus the unit rows plus one chunk and one block, and
does not grow with the number of queries or of items per label.
``score_matrix`` is filled from the same chunks, so the evaluation's
scores have its bits on every shape and BLAS (a row block of a BLAS
product is not in general bit-equal to the full product), and a score
matrix handed to the public metrics is ranked as one chunk by the same
kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import align
from .embedstore import EmbeddingSet
from .errors import ArgumentError, ConsistencyError, DataError, ProtocolError
from .prep import _unit_rows
from .reports import AlignedBaselineReport, mean_std, pair_metadata
from .splits import DEFAULT_SEEDS, check_seeds, identity_disjoint_split, label_codes

RANK_KS = (1, 5, 10)
CMC_MAX_RANK = 50

# score entries one block of the rank kernel holds at a time
_CELL_BUDGET = 1 << 16
# score entries one chunk of the scorer holds at a time (8 MiB)
_SCORE_BUDGET = 1 << 20


def _block_rows(n_g):
    """Queries in one block of the rank kernel, for a gallery of ``n_g >= 1`` items."""
    return max(1, _CELL_BUDGET // n_g)


def _score_chunks(qn, gn):
    """Cosine scores of unit query rows against unit gallery rows, lazily, as ``(start, block)``.

    ``block`` holds the scores of queries ``start, start + 1, ...``: all
    of them when the whole score matrix fits in ``_SCORE_BUDGET``
    entries, else a whole number of rank blocks per chunk, as many as
    fit (at least one).  The shapes are checked here; each chunk is
    computed when it is asked for.
    """
    if qn.ndim != 2 or gn.ndim != 2 or qn.shape[1] != gn.shape[1]:
        raise ConsistencyError(
            f"queries {qn.shape} and gallery {gn.shape} must be 2-D rows of one width"
        )
    n_q, n_g = len(qn), len(gn)
    if n_q * n_g <= _SCORE_BUDGET:
        rows = max(n_q, 1)
    else:
        step = _block_rows(n_g)
        rows = max(step, _SCORE_BUDGET // n_g // step * step)
    return ((start, qn[start:start + rows] @ gn.T) for start in range(0, n_q, rows))


def score_matrix(queries: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarities, queries x gallery, rows of one width.

    Both sides are normalized once and the matrix is filled from the
    chunks the evaluation ranks, so it has their bits.
    """
    chunks = _score_chunks(_unit_rows(queries), _unit_rows(gallery))
    scores = np.empty((len(queries), len(gallery)))
    for start, block in chunks:
        scores[start:start + len(block)] = block
    return scores


def _label_codes(q_labels, g_labels, shape):
    """Integer codes of the query and gallery labels of scores of ``shape``.

    The labels are factorized once (:func:`splits.label_codes`), so
    queries and gallery share their codes.
    """
    if shape != (len(q_labels), len(g_labels)):
        raise ConsistencyError(
            f"scores shape {shape} does not match "
            f"{len(q_labels)} queries x {len(g_labels)} gallery labels"
        )
    codes = label_codes([*q_labels, *g_labels])
    return codes[: len(q_labels)], codes[len(q_labels):]


def _check_labels(scores, q_labels, g_labels):
    """A score matrix and its label codes, validated against each other."""
    scores = np.asarray(scores, dtype=np.float64)
    return (scores, *_label_codes(q_labels, g_labels, scores.shape))


def _check_finite(block):
    # max() is NaN if any entry is NaN, so one reduction catches NaN and +inf
    if block.size and not block.max() < np.inf:
        raise DataError("scores contain NaN or +inf (only -inf, meaning removed, is allowed)")


def _mean(values) -> float:
    """Mean over the queries, of which there must be at least one."""
    if not len(values):
        raise ProtocolError("no queries to evaluate")
    return float(values.mean())


def _relevant_ranks(block, rows, cols, v):
    """Rank (module docstring) of each item ``block[rows, cols]``, of score ``v``, in its row.

    ``#{entries <= v}`` comes from a bisection over the value-sorted rows;
    an item tied with another entry of its row takes its rank from the
    stable order of that row instead.
    """
    n_g = block.shape[1]
    srt = np.sort(block, axis=1).ravel()
    # branchless upper bound over rows of one length: entries <= v lie
    # before lo + n, and the search window n halves each pass
    lo = rows * n_g
    probe = np.empty_like(lo)
    below = np.empty(rows.size, dtype=bool)
    n = n_g
    while n > 1:
        half = n // 2
        np.less_equal(srt.take(np.add(lo, half, out=probe)), v, out=below)
        lo += np.multiply(below, half, out=probe)
        n -= half
    lo += srt.take(lo) <= v
    count = lo - rows * n_g  # entries <= v, at least 1 (v itself)
    ranks = n_g + 1 - count
    # an item is tied when the entry before the last one <= v also equals v
    # (count > 1 masks the read before the row's start)
    tied = count > 1
    tied &= srt.take(lo - 2) == v
    if tied.any():
        tied_rows, which = np.unique(rows[tied], return_inverse=True)
        order = np.argsort(-block[tied_rows], axis=1, kind="stable")
        inverse = np.empty_like(order)
        np.put_along_axis(inverse, order, np.arange(n_g), axis=1)
        ranks[tied] = inverse[which, cols[tied]] + 1
    return ranks


def _ranked(chunks, q_codes, g_codes, exclude_self=False, with_ap=False):
    """First-hit rank per query and, if asked, average precision per query.

    ``chunks`` yields ``(start, block)`` row chunks of the score matrix
    in query order (a score matrix is its own single chunk).  A query
    without a live relevant item gets first-hit rank ``n_gallery + 1``
    and AP NaN.  Each chunk goes in blocks of at most ``_CELL_BUDGET``
    score entries; with ``exclude_self`` the diagonal counts as scored
    -inf.  AP keeps the expression of a per-row sorted evaluation,
    ``sum(cumsum(rel) / rank * rel) / n_rel``: the block of its terms is
    zero except ``i / rank_i`` at column ``rank_i - 1`` for the ``i``-th
    relevant item, so its value is the same to the last bit.
    """
    n_q, n_g = len(q_codes), len(g_codes)
    first = np.full(n_q, n_g + 1, dtype=np.intp)
    aps = np.full(n_q, np.nan) if with_ap else None
    if n_g == 0:
        return first, aps  # nothing to rank
    step = _block_rows(n_g)
    # the gallery grouped by label once: the items of code c, ascending, are
    # items[starts[c]:starts[c] + counts[c]]
    counts = np.bincount(g_codes, minlength=max(q_codes.max(initial=0), g_codes.max()) + 1)
    starts = np.cumsum(counts) - counts
    items = np.argsort(g_codes, kind="stable")
    for start, chunk in chunks:
        _check_finite(chunk)
        for lo in range(start, start + len(chunk), step):
            block = chunk[lo - start:lo - start + step]
            hi = lo + len(block)
            if exclude_self:
                block = block.copy()
                block[np.arange(hi - lo), np.arange(lo, hi)] = -np.inf
            # the same-label items of each row, row-major with ascending columns
            codes = q_codes[lo:hi]
            per_row = counts[codes]
            row_first = np.cumsum(per_row) - per_row  # index of each row's first pair
            rows = np.repeat(np.arange(hi - lo), per_row)
            cols = items[np.repeat(starts[codes] - row_first, per_row) + np.arange(rows.size)]
            v = block[rows, cols]
            live = v > -np.inf
            if not live.all():
                rows, cols, v = rows[live], cols[live], v[live]
            # rows come sorted, so one integer sort orders the ranks within each row
            offset = rows * (n_g + 1)
            key = offset + _relevant_ranks(block, rows, cols, v)
            key.sort()
            ranks = key - offset
            n_rel = np.bincount(rows, minlength=hi - lo)
            row_start = np.cumsum(n_rel) - n_rel
            found = n_rel > 0
            first[lo:hi][found] = ranks[row_start[found]]
            if with_ap:
                terms = np.zeros(block.shape)
                terms[rows, ranks - 1] = (np.arange(1, rows.size + 1) - row_start[rows]) / ranks
                with np.errstate(invalid="ignore"):
                    aps[lo:hi] = terms.sum(axis=1) / n_rel
        chunk = block = None  # free the chunk before the next one is scored
    return first, aps


def _require_relevant(found):
    """Raise unless every query (``found[i]``) has a live relevant gallery item."""
    missing = np.flatnonzero(~found)
    if missing.size:
        raise ProtocolError(f"query {missing[0]} has no relevant gallery items")


def _rank1_from(chunks, q_codes, g_codes) -> float:
    """Rank-1 accuracy read from the first maximum of each score row.

    The first maximum is the item the rank kernel puts at rank 1 (equal
    scores go to the lowest gallery index); a -inf maximum is a removed
    item and never a hit.  ``chunks`` are those of :func:`_ranked`, and
    validation and errors are those of the evaluation, ``ProtocolError``
    for a query without a live relevant item included.  A chunk takes two
    passes over its scores, ``argmax`` and ``min``: with no -inf entry,
    the hit is the label code at the first maximum, and a query has a
    relevant item when its code occurs in the gallery.  Only a chunk that
    holds a -inf entry builds the mask of live relevant items.
    """
    hits = np.zeros(len(q_codes), dtype=bool)
    found = np.zeros(len(q_codes), dtype=bool)
    if len(g_codes):  # an empty gallery has no maximum and no relevant item
        # whether each code occurs in the gallery: with no removed item, a
        # query has a relevant item exactly when its code does
        in_gallery = np.zeros(max(q_codes.max(initial=0), g_codes.max()) + 1, dtype=bool)
        in_gallery[g_codes] = True
        for start, chunk in chunks:
            stop = start + len(chunk)
            rows = np.arange(stop - start)
            best = chunk.argmax(axis=1)
            # argmax stops at the first NaN, so the row maxima show NaN and +inf
            _check_finite(chunk[rows, best])
            codes = q_codes[start:stop]
            if not chunk.size or chunk.min() > -np.inf:
                found[start:stop] = in_gallery[codes]
                hits[start:stop] = codes == g_codes[best]
            else:  # a chunk with removed items: -inf entries are never relevant
                relevant = (codes[:, None] == g_codes) & (chunk > -np.inf)
                found[start:stop] = relevant.any(axis=1)
                hits[start:stop] = relevant[rows, best]
            chunk = relevant = None  # free the chunk before the next one is scored
    _require_relevant(found)
    return _mean(hits)


def _rank1(scores, q_labels, g_labels) -> float:
    """:func:`_rank1_from` of a score matrix and its labels."""
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    return _rank1_from([(0, scores)], q_codes, g_codes)


def _cmc(first, max_rank):
    return [_mean(first <= k) for k in range(1, max_rank + 1)]


def rank_k_accuracy(scores, q_labels, g_labels, k: int) -> float:
    """Fraction of queries with a same-label gallery item in the top k."""
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    if not 1 <= k <= len(g_codes):
        raise ArgumentError(f"k={k} outside [1, {len(g_codes)}]")
    first, _ = _ranked([(0, scores)], q_codes, g_codes)
    return _mean(first <= k)


def mean_average_precision(scores, q_labels, g_labels) -> float:
    """Standard retrieval mAP; all same-label gallery items are relevant.

    Entries scored -inf are treated as removed from the gallery (used by
    the exclude-self protocol variant).
    """
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    first, aps = _ranked([(0, scores)], q_codes, g_codes, with_ap=True)
    _require_relevant(first <= len(g_codes))
    return _mean(aps)


def _first_hits(scores, q_codes, g_codes):
    first, _ = _ranked([(0, scores)], q_codes, g_codes)
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

    @classmethod
    def _summary(cls, results):
        ks = sorted(set.intersection(*(set(r.rank_k) for r in results)))
        # test-set size varies with the seed; aggregate over the common prefix
        minlen = min(len(r.cmc) for r in results)
        cmc_mean, cmc_std = mean_std([r.cmc[:minlen] for r in results])
        return {
            "rank_k": {str(k): cls._scalar([r.rank_k[k] for r in results]) for k in ks},
            "map": cls._scalar([r.map_score for r in results]),
            "cmc": {"mean": cmc_mean.tolist(), "std": cmc_std.tolist()},
        }


def _seed_metrics(chunks, q_codes, g_codes, max_rank, seed, exclude_self):
    """One seed's metrics from the score chunks of :func:`_ranked`."""
    n_g = len(g_codes)
    if exclude_self and len(q_codes) != n_g:
        raise ConsistencyError("exclude_self requires query set == gallery set")
    first, aps = _ranked(chunks, q_codes, g_codes, exclude_self, with_ap=True)
    _require_relevant(first <= n_g)
    if max_rank > n_g:
        raise ArgumentError(f"max_rank {max_rank} exceeds gallery size {n_g}")
    return SeedRetrieval(
        seed=seed,
        rank_k={k: _mean(first <= k) for k in RANK_KS if k <= n_g},
        map_score=_mean(aps),
        cmc=tuple(_cmc(first, max_rank)),
        n_queries=len(q_codes),
        n_gallery=n_g,
    )


def _metrics_from_scores(scores, q_labels, g_labels, max_rank, seed, exclude_self):
    """One seed's metrics from a score matrix, ranked as a single chunk."""
    scores, q_codes, g_codes = _check_labels(scores, q_labels, g_labels)
    return _seed_metrics([(0, scores)], q_codes, g_codes, max_rank, seed, exclude_self)


def _metrics_from_rows(queries, gallery, q_labels, g_labels, max_rank, seed, exclude_self):
    """:func:`_metrics_from_scores` of the cosine scores of query and gallery rows.

    Both sides are normalized once, then scored by :func:`_score_chunks`
    and ranked chunk by chunk.
    """
    chunks = _score_chunks(_unit_rows(queries), _unit_rows(gallery))
    codes = _label_codes(q_labels, g_labels, (len(queries), len(gallery)))
    return _seed_metrics(chunks, *codes, max_rank, seed, exclude_self)


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
    labels, ra, rb = align.pair_sets(source, target)
    results = []  # (aligned, baseline) per seed
    for seed in seeds:
        split = identity_disjoint_split(labels, fraction, seed)
        train, test = list(split.train_rows), list(split.test_rows)
        amap = align.fit_sides(align.prepare_side(source.rows, ra[train]),
                               align.prepare_side(target.rows, rb[train]), method, alpha)
        x, y = align.unit_rows(source, target, ra[test], rb[test])
        test_labels = [labels[i] for i in test]
        results.append(tuple(
            _metrics_from_rows(*align.project(x, y, m), test_labels, test_labels,
                               min(CMC_MAX_RANK, len(test)), seed, exclude_self)
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
            **pair_metadata(source, target, method, alpha),
            "gallery_includes_self": not exclude_self,
        },
    )


def map_rank1(x_test, target, codes, amap) -> float:
    """Rank-1 of the fitted map ``amap`` on one split's test rows, aligned side only.

    ``x_test`` are the source test rows centered with ``amap``'s source
    mean (:attr:`align.Side.test`), ``target`` the prepared target side
    whose test rows are the gallery, and ``codes`` their identities'
    :func:`splits.label_codes`.  The source rows are mapped with ``amap``
    and normalized, then scored against the gallery's unit rows
    (:attr:`align.Side.gallery`, made once per side and shared by every
    map scored against it) in the chunks the evaluation ranks.  Those are
    the unit rows :func:`_metrics_from_rows` would make of the gallery,
    and the queries are normalized first, so the value, or the error, is
    that of the seed's aligned Rank-1 in :func:`evaluate_identification`.
    """
    chunks = _score_chunks(_unit_rows(x_test @ amap.w), target.gallery)
    return _rank1_from(chunks, codes, codes)

