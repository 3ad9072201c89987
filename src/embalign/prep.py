"""Preprocessing: unit normalization and train-mean centering.

Pipeline order is fixed: normalize rows, fit column means on the training
rows only (:func:`fit_prep`), subtract those means.  The commands gather
a model's rows of a split and normalize them in one step
(:func:`gather_unit_rows`), into one float64 array.  A mean is a plain
1-D float64 array; a fitted :class:`align.AlignmentMap` holds the two it
was fit after.  Maps are fit and rows are scored at each model's own
width (:func:`center` subtracts one mean); no evaluation pads a row.
:func:`apply_prep` gives the centered rows with trailing zero columns up
to a common width, D = max(d_a, d_b), the padded formulation the tests
hold the native one against.  Test rows are centered with the training
means so no test information leaks into the fit.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DataError, DegenerateRowError


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
    step = _block_rows(rows.shape[1])
    with np.errstate(over="ignore"):  # an overflowing norm marks a row to rescale
        for start in range(0, rows.shape[0], step):
            norms[start:start + step] = np.linalg.norm(rows[start:start + step], axis=1)
    return _divide(rows, norms, into)


def _block_rows(width: int) -> int:
    """Rows per block of at most ``_NORM_BLOCK`` values."""
    return max(1, _NORM_BLOCK // max(width, 1))


def _divide(rows, norms, into):
    """``rows`` over their ``norms`` into ``into`` (``None``: a new array), rescaling odd rows.

    A row whose norm lies outside [_TINY, _HUGE] is scaled by a power of
    two first; a row holding NaN or inf is a ``DataError`` and an all-zero
    row a ``DegenerateRowError``, each naming its index.
    """
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


def gather_unit_rows(rows, index) -> np.ndarray:
    """``l2_normalize(rows[index])`` bit for bit, gathered straight into one float64 array.

    ``rows`` is a 2-D array of any float dtype (a set's float32 rows) and
    ``index`` a 1-D array of row indexes, in any order and repeated at
    will.  Blocks of at most ``_NORM_BLOCK`` values are gathered straight
    into the float64 result and their norms taken as :func:`_unit_rows`
    takes them, while the block is in cache; the result is then divided in
    place, with the same rescaling of rows whose norm would underflow or
    overflow.  So no n x d copy in the input dtype is made beside the
    result, and the bits and the errors (a row holding NaN or inf, an
    all-zero row, each named by its position in ``index``) are those of
    :func:`l2_normalize` on the gathered rows.  ``rows`` are never written.
    """
    rows, index = np.asarray(rows), np.asarray(index, dtype=np.intp)
    if rows.ndim != 2:
        raise ConsistencyError(f"rows must be a 2-D array, got shape {rows.shape}")
    out = np.empty((index.shape[0], rows.shape[1]))
    norms = np.empty(index.shape[0])
    step = _block_rows(rows.shape[1])
    with np.errstate(over="ignore"):  # an overflowing norm marks a row to rescale
        for start in range(0, index.shape[0], step):
            block = out[start:start + step]
            block[...] = rows[index[start:start + step]]
            norms[start:start + step] = np.linalg.norm(block, axis=1)
    return _divide(out, norms, out)


def l2_normalize(rows: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm (float64 output)."""
    return _unit_rows(rows)


def fit_prep(x_train: np.ndarray, y_train: np.ndarray):
    """The columnwise training means ``(mu_x, mu_y)``, float64; inputs must be unit rows."""
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
    return x_train.mean(axis=0), y_train.mean(axis=0)


def center(rows: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """``rows`` minus the training mean ``mu``; the rows keep the model's own width."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != len(mu):
        raise ConsistencyError(
            f"rows have width {rows.shape[1] if rows.ndim == 2 else '?'}, "
            f"the mean has {len(mu)}"
        )
    return rows - mu


def apply_prep(rows: np.ndarray, mu: np.ndarray, width: int) -> np.ndarray:
    """Center by the training mean ``mu`` and zero-pad to ``width`` columns."""
    centered = center(rows, mu)
    return np.pad(centered, ((0, 0), (0, width - centered.shape[1])))
