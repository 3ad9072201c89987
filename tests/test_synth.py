import numpy as np
import pytest

from embalign import embed_view, generate_identity_cloud
from embalign.align import fit_procrustes
from embalign.prep import apply_prep, fit_prep, l2_normalize
from embalign.errors import ArgumentError


def test_cloud_counts():
    cloud = generate_identity_cloud(10, 5, 4, seed=0)
    assert cloud.points.shape == (50, 4)
    assert len(cloud.labels) == 50
    assert len(set(cloud.labels)) == 10


def test_cloud_zero_spread_collapses_identities():
    cloud = generate_identity_cloud(4, 3, 5, spread=0.0, seed=2)
    for k in range(4):
        block = cloud.points[3 * k : 3 * k + 3]
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[2])


def test_cloud_deterministic():
    a = generate_identity_cloud(6, 2, 3, seed=9)
    b = generate_identity_cloud(6, 2, 3, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.centers, b.centers)


def test_cloud_bad_counts():
    with pytest.raises(ArgumentError):
        generate_identity_cloud(0, 5, 4)


@pytest.mark.parametrize("kwargs", [
    {"spread": -0.1}, {"spread": np.nan}, {"spread": np.inf},
    {"center_scale": np.nan}, {"center_scale": -np.inf},
])
def test_cloud_bad_scale(kwargs):
    with pytest.raises(ArgumentError, match=next(iter(kwargs))):
        generate_identity_cloud(5, 2, 3, **kwargs)


@pytest.mark.parametrize("noise", [-1.0, -1e-300, np.nan, np.inf])
def test_view_bad_noise(noise):
    # a negative or NaN noise used to give the noise-free view
    cloud = generate_identity_cloud(5, 2, 3, seed=0)
    with pytest.raises(ArgumentError, match="noise"):
        embed_view(cloud, 8, view_seed=1, noise=noise)


def test_view_deterministic():
    cloud = generate_identity_cloud(5, 2, 3, seed=0)
    a = embed_view(cloud, 8, view_seed=4)
    b = embed_view(cloud, 8, view_seed=4)
    assert np.array_equal(a.rows, b.rows)


def test_view_unit_rows():
    cloud = generate_identity_cloud(8, 3, 4, seed=1)
    v = embed_view(cloud, 16, view_seed=2, noise=0.05)
    norms = np.linalg.norm(v.rows.astype(np.float64), axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_view_shares_image_ids():
    cloud = generate_identity_cloud(5, 2, 3, seed=0)
    a = embed_view(cloud, 8, view_seed=1)
    b = embed_view(cloud, 8, view_seed=2)
    assert a.image_ids == b.image_ids
    assert a.labels == b.labels


def test_view_dim_too_small():
    cloud = generate_identity_cloud(5, 2, 6, seed=0)
    with pytest.raises(ArgumentError):
        embed_view(cloud, 4, view_seed=0)


def test_view_bad_map_kind():
    cloud = generate_identity_cloud(5, 2, 3, seed=0)
    with pytest.raises(ArgumentError):
        embed_view(cloud, 8, view_seed=0, map_kind="affine")


def test_noise_free_procrustes_residual_small():
    cloud = generate_identity_cloud(40, 5, 8, seed=3)
    v0 = embed_view(cloud, 24, 1, map_kind="orthogonal")
    v1 = embed_view(cloud, 24, 2, map_kind="orthogonal")
    x = l2_normalize(v0.rows)
    y = l2_normalize(v1.rows)
    stats = fit_prep(x, y)
    xp = apply_prep(x, stats, "source")
    yp = apply_prep(y, stats, "target")
    w = fit_procrustes(xp, yp)
    assert np.linalg.norm(xp @ w - yp) <= 1e-6 * np.linalg.norm(yp)


def test_label_permutation_equivariance():
    # relabeling identities must not change geometry, only the tags
    cloud = generate_identity_cloud(6, 3, 4, seed=5)
    v = embed_view(cloud, 8, view_seed=7)
    relabeled = {l: f"z{i}" for i, l in enumerate(sorted(set(v.labels)))}
    from embalign import EmbeddingSet

    v2 = EmbeddingSet(
        v.model_name, v.dataset_name, v.rows, v.image_ids,
        [relabeled[l] for l in v.labels],
    )
    from embalign import evaluate_identification

    r1 = evaluate_identification(v, v, "procrustes", seeds=(0,), fraction=0.5)
    r2 = evaluate_identification(v2, v2, "procrustes", seeds=(0,), fraction=0.5)
    assert r1.per_seed[0].rank_k == r2.per_seed[0].rank_k
    assert r1.per_seed[0].map_score == r2.per_seed[0].map_score
