"""Synthetic ground-truth embeddings: one identity cloud, many views.

A cloud is a set of identity centers with Gaussian scatter in a low
intrinsic dimension.  A view embeds the cloud into a higher-dimensional
space through a seeded orthogonal or general linear map, optionally adds
noise, and unit-normalizes rows.  Views of one cloud share image ids, so
they behave exactly like two models run over the same image set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embedstore import EmbeddingSet
from .errors import ArgumentError
from .splits import _rng

_TAG_CLOUD = 201
_TAG_VIEW = 202

#: upper bound on the condition number of general linear view maps
GENERAL_LINEAR_MAX_COND = 100.0


@dataclass(frozen=True)
class IdentityCloud:
    """Low-dimensional points grouped into identities."""

    num_identities: int
    per_identity: int
    intrinsic_dim: int
    centers: np.ndarray
    points: np.ndarray
    labels: tuple
    image_ids: tuple
    seed: int


def _check_std(name: str, value: float) -> None:
    """Raise ``ArgumentError`` unless the standard deviation ``value`` is finite and >= 0."""
    if not 0.0 <= value < np.inf:
        raise ArgumentError(f"{name} must be finite and >= 0, got {value}")


def generate_identity_cloud(
    num_ids: int,
    per_id: int,
    intrinsic_dim: int,
    center_scale: float = 1.0,
    spread: float = 0.1,
    seed: int = 0,
) -> IdentityCloud:
    """Centers ~ center_scale * N(0, I); points = center + N(0, spread^2 I)."""
    if num_ids < 1 or per_id < 1 or intrinsic_dim < 1:
        raise ArgumentError("counts and intrinsic_dim must be >= 1")
    _check_std("spread", spread)
    if not np.isfinite(center_scale):
        raise ArgumentError(f"center_scale must be finite, got {center_scale}")
    rng = _rng(_TAG_CLOUD, seed)
    centers = center_scale * rng.standard_normal((num_ids, intrinsic_dim))
    noise = spread * rng.standard_normal((num_ids * per_id, intrinsic_dim))
    points = np.repeat(centers, per_id, axis=0) + noise
    labels = tuple(f"id{k:05d}" for k in range(num_ids) for _ in range(per_id))
    image_ids = tuple(
        f"id{k:05d}_img{j:03d}" for k in range(num_ids) for j in range(per_id)
    )
    return IdentityCloud(
        num_ids, per_id, intrinsic_dim, centers, points, labels, image_ids, seed
    )


def random_orthogonal(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed orthogonal matrix via QR with R-diagonal sign fix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def _general_linear(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random square map with condition number clamped below the bound."""
    a = rng.standard_normal((dim, dim))
    u, s, vt = np.linalg.svd(a)
    floor = s[0] / GENERAL_LINEAR_MAX_COND
    return u @ np.diag(np.maximum(s, floor)) @ vt


def embed_view(
    cloud: IdentityCloud,
    target_dim: int,
    view_seed: int,
    noise: float = 0.0,
    map_kind: str = "orthogonal",
    model_name: str = "",
    dataset_name: str = "synthetic",
) -> EmbeddingSet:
    """Embed the cloud into target_dim through a seeded view map.

    Intrinsic coordinates are zero-extended to target_dim, mapped by Q,
    perturbed by Gaussian noise, then unit-normalized.
    """
    if target_dim < cloud.intrinsic_dim:
        raise ArgumentError(
            f"target_dim {target_dim} < intrinsic_dim {cloud.intrinsic_dim}"
        )
    if map_kind not in ("orthogonal", "general_linear"):
        raise ArgumentError(f"unknown map_kind {map_kind!r}")
    _check_std("noise", noise)
    rng = _rng(_TAG_VIEW, view_seed)
    if map_kind == "orthogonal":
        q = random_orthogonal(target_dim, rng)
    else:
        q = _general_linear(target_dim, rng)
    lifted = np.zeros((cloud.points.shape[0], target_dim))
    lifted[:, : cloud.intrinsic_dim] = cloud.points
    rows = lifted @ q.T
    if noise > 0:
        rows = rows + noise * rng.standard_normal(rows.shape)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    rows = rows / norms
    return EmbeddingSet(
        model_name or f"view{view_seed}",
        dataset_name,
        rows.astype(np.float32),
        cloud.image_ids,
        cloud.labels,
    )
