import numpy as np
import pytest

from embalign import align, embed_view, generate_identity_cloud
from embalign.embedstore import shared_rows
from embalign.errors import ConsistencyError
from embalign.ident_eval import map_rank1
from embalign.prep import l2_normalize
from embalign.reports import mean_std
from embalign.splits import label_codes


@pytest.fixture(scope="session")
def small_views():
    """Two orthogonal noise-free views of one 30-identity cloud."""
    cloud = generate_identity_cloud(30, 5, 8, seed=1)
    v0 = embed_view(cloud, 32, 10, map_kind="orthogonal", model_name="m0")
    v1 = embed_view(cloud, 32, 20, map_kind="orthogonal", model_name="m1")
    return v0, v1


def random_orthogonal(dim, rng):
    """Test-local Haar rotation, independent of the library's generator."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def unit_pair(source, target):
    """``(labels, x, y)`` of the shared images: labels, unit source and target rows.

    Every shared row is normalized at once: the reference for the per-part
    gathers of ``align.prepare_side`` and ``align.unit_rows``.
    """
    ra, rb = shared_rows(source, target)
    a, b = source.rows[ra], target.rows[rb]
    return [source.labels[i] for i in ra], l2_normalize(a), l2_normalize(b)


def unit_side(rows, train=None, test=None):
    """The :class:`align.Side` of unit ``rows``, each part centered with the train mean."""
    rows = np.asarray(rows, dtype=np.float64)
    x_tr = rows if train is None else rows[list(train)]
    if not len(x_tr):
        raise ConsistencyError("need at least one training row")
    mean = x_tr.mean(axis=0)
    return align.Side(x_tr - mean, None if test is None else rows[list(test)] - mean, mean)


def fit_alignment(x, y, method, alpha=align.DEFAULT_RIDGE_ALPHA, rows=None, **meta):
    """The reference fit: the map on the unit rows ``rows`` of ``x`` and ``y`` (default: all)."""
    return align.fit_sides(unit_side(x, rows), unit_side(y, rows), method, alpha, **meta)


def aligned_rank1(x, y, labels, splits, method, alpha) -> float:
    """Aligned mean Rank-1 as ``evaluate_identification`` reports it, with no baseline.

    ``x`` and ``y`` are the unit source and target rows of the shared
    images, ``labels`` their identities and ``splits`` one
    identity-disjoint split of ``labels`` per seed.  Each seed prepares
    both sides of its split, fits its map and scores it with ``map_rank1``.
    """
    per_seed = []
    for split in splits:
        a, b = (unit_side(v, split.train_rows, split.test_rows) for v in (x, y))
        amap = align.fit_sides(a, b, method, alpha, seed=split.seed)
        codes = label_codes([labels[i] for i in split.test_rows])
        per_seed.append(map_rank1(a.test, b, codes, amap))
    return float(mean_std(per_seed)[0])
