"""Preprocessing: unit normalization and train-statistic centering.

Pipeline order is fixed: normalize rows, fit column means on the training
rows only, subtract those means.  Maps are fit and rows are scored at
each model's own width (:func:`center`); no evaluation pads a row.
:func:`apply_prep` gives the centered rows with trailing zero columns up
to the common width D = max(d_a, d_b), the padded formulation the tests
hold the native one against.  Test rows are centered with the training
means so no test information leaks into the fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DataError, DegenerateRowError


@dataclass(frozen=True)
class PrepStats:
    """Training means for one (source, target) model pair, and the rows they came from."""

    mu_x: np.ndarray
    mu_y: np.ndarray
    n_train: int

    def __post_init__(self):
        mu_x = np.asarray(self.mu_x, dtype=np.float64)
        mu_y = np.asarray(self.mu_y, dtype=np.float64)
        object.__setattr__(self, "mu_x", mu_x)
        object.__setattr__(self, "mu_y", mu_y)
        if mu_x.ndim != 1 or mu_y.ndim != 1:
            raise ConsistencyError("mean vectors must be 1-D")
        if not (np.all(np.isfinite(mu_x)) and np.all(np.isfinite(mu_y))):
            raise DataError("non-finite training means")

    @property
    def d_a(self) -> int:
        """Source width."""
        return len(self.mu_x)

    @property
    def d_b(self) -> int:
        """Target width."""
        return len(self.mu_y)


# rows whose norm lies outside [_TINY, _HUGE] are rescaled before they are
# divided; every row a float32 embedding can hold lies inside
_TINY, _HUGE = 2.0 ** -300, 2.0 ** 300
# values per block of rows whose norms are taken at once: the squares of one
# block are the only temporary beside the one float64 array of the result
_NORM_BLOCK = 1 << 16


def _unit_rows(rows) -> np.ndarray:
    """Each row divided by its Euclidean norm (float64); an all-zero or non-finite row raises.

    Exactly one n x d float64 array is made: the float64 cast of rows of
    another dtype, divided in place, or else the quotient.  The norms are
    ``np.linalg.norm(axis=1)`` taken over blocks of rows; each row is
    reduced on its own, so the blocks do not change a norm's bits.  A row
    whose norm would underflow or overflow (entries near 1e-160 or 1e160
    and beyond) is first scaled by the exact power of two that brings its
    largest entry into [0.5, 1).  Rows with an in-range norm are divided
    as they are.  A row holding NaN or inf raises ``DataError`` naming
    its index, and input that is not 2-D raises ``ConsistencyError``.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ConsistencyError(f"rows must be a 2-D array, got shape {rows.shape}")
    into = None
    if rows.dtype != np.float64:
        rows = into = rows.astype(np.float64)  # this call's own array: divided in place
    norms = np.empty(rows.shape[0])
    step = max(1, _NORM_BLOCK // max(rows.shape[1], 1))
    with np.errstate(over="ignore"):  # an overflowing norm marks a row to rescale
        for start in range(0, rows.shape[0], step):
            norms[start:start + step] = np.linalg.norm(rows[start:start + step], axis=1)
    # a NaN norm fails both bounds; the peak of a row holding NaN or inf is not finite
    odd = np.flatnonzero(~((norms >= _TINY) & (norms <= _HUGE)))
    if not odd.size:
        return np.divide(rows, norms[:, None], out=into)
    peak = np.abs(rows[odd]).max(axis=1, initial=0.0)
    bad = odd[~np.isfinite(peak)]
    if bad.size:
        raise DataError(f"row {bad[0]} holds a non-finite value")
    zero = odd[peak == 0.0]
    if zero.size:
        raise DegenerateRowError(int(zero[0]))
    scaled = np.ldexp(rows[odd], -np.frexp(peak)[1][:, None])
    norms[odd] = 1.0
    out = np.divide(rows, norms[:, None], out=into)
    out[odd] = scaled / np.linalg.norm(scaled, axis=1)[:, None]
    return out


def l2_normalize(rows: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm (float64 output)."""
    return _unit_rows(rows)


def fit_prep(x_train: np.ndarray, y_train: np.ndarray) -> PrepStats:
    """Compute columnwise training means; inputs must already be unit rows."""
    x_train = np.asarray(x_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.float64)
    if x_train.ndim != 2 or y_train.ndim != 2:
        raise ConsistencyError(
            f"training rows must be 2-D, got shapes {x_train.shape} and {y_train.shape}"
        )
    if x_train.shape[0] != y_train.shape[0]:
        raise ConsistencyError(
            f"row counts differ: {x_train.shape[0]} vs {y_train.shape[0]}"
        )
    if x_train.shape[0] < 1:
        raise ConsistencyError("need at least one training row")
    return PrepStats(x_train.mean(axis=0), y_train.mean(axis=0), x_train.shape[0])


def center(rows: np.ndarray, stats: PrepStats, side: str) -> np.ndarray:
    """Subtract the training mean of ``side``; the rows keep the model's own width.

    ``side`` selects which mean applies: "source" uses mu_x, "target" mu_y.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if side == "source":
        mu, d = stats.mu_x, stats.d_a
    elif side == "target":
        mu, d = stats.mu_y, stats.d_b
    else:
        raise ConsistencyError(f"side must be 'source' or 'target', got {side!r}")
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ConsistencyError(
            f"{side} rows have width {rows.shape[1] if rows.ndim == 2 else '?'}, "
            f"stats expect {d}"
        )
    return rows - mu


def apply_prep(rows: np.ndarray, stats: PrepStats, side: str) -> np.ndarray:
    """Center by the training mean of ``side`` and zero-pad to width D = max(d_a, d_b)."""
    centered = center(rows, stats, side)
    return np.pad(centered, ((0, 0), (0, max(stats.d_a, stats.d_b) - centered.shape[1])))
