"""Linear alignment maps between preprocessed embedding spaces.

One fitter, :func:`fit_map`, with three methods of increasing capacity:

* orthogonal (Procrustes): W = U V^T from the SVD of X^T Y,
* unconstrained least squares, the minimum-norm solution, and
* ridge, the damped normal-equation solution (X^T X + alpha I)^-1 X^T Y.

Least squares takes one of two paths, chosen from the eigenvalues of
the Gram matrix G = X^T X.  When lambda_min > GRAM_RTOL * lambda_max
(cond(X) < 1e4), X has full column rank with no singular value near the
PINV_RTOL cutoff, the solution is unique, and it is solved from the
normal equations through the eigendecomposition of G.  Otherwise
(rank-deficient or ill-conditioned X: fewer rows than columns, dead
columns, low-rank data) it is LAPACK ``gelsd`` (``np.linalg.lstsq``)
with cutoff PINV_RTOL.  Both paths give the minimum-norm map.

:func:`fit_map` takes centered rows at the models' own widths (n x d_a
and n x d_b) and returns the d_a x d_b map of every method.  The
orthogonal map is U V^T from the thin SVD of the d_a x d_b
cross-covariance X^T Y: its columns are orthonormal when d_a >= d_b,
its rows when d_a < d_b.  All solver arithmetic is float64.
Reflections are allowed in the orthogonal fit (no determinant
correction).  Two facts spare the compatibility matrix fits: the
procrustes map of a side onto itself is I, which attains min over
orthogonal W of ||X W - X||_F = 0 (the unique optimum when X has full
column rank), and the orthogonal factor of (X^T Y)^T = Y^T X is the
transpose of that of X^T Y, so the map from target to source is W^T.

A fitted map is one record, :class:`AlignmentMap`: W and the train means
it was fit after, so a source row x maps to (x - mu_x) W and is compared
with y - mu_y.  :func:`prepare_side` refuses a centered test row that is
only the rounding of its train mean (:func:`centering_floor`).

Scoring works in the models' own shapes too (:func:`project`): each
side keeps the k columns it shares with the other, k = d_b with a map
and min(d_a, d_b) for the unaligned baseline.  A score is the cosine of
the two k-wide vectors it compares, their dot product over the product
of their own norms.  Map files store the d_a x d_b map too
(:func:`save_map`, format version 2); :func:`load_map` still reads the
D x D maps, D = max(d_a, d_b), of format version 1.

Every command pairs two sets once (:func:`pair_sets`) and takes its rows
through that :class:`Pairing`: the sides a map is fit on, the unit rows
it is scored on, and each seed's split (or none), map and scored rows.
Rows are scanned for NaN or inf only where they come from outside.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .embedstore import EmbeddingSet, shared_rows
from .errors import (
    ConsistencyError, DataError, DegenerateRowError, FormatError, IoError, NumericalError,
)
from .prep import center, gather_unit_rows, l2_normalize
from .reports import atomic_write
from .splits import identity_disjoint_split, label_codes

#: relative cutoff of the least-squares fit: singular values s <= PINV_RTOL * s_1
#: of the training rows count as zero, so a rank-deficient X gets the
#: minimum-norm map
PINV_RTOL = 1e-10
#: the least-squares fit solves the normal equations when the eigenvalues of
#: X^T X satisfy lambda_min > GRAM_RTOL * lambda_max, i.e. cond(X) < 1e4, where
#: their error O(cond(X)^2 eps) stays below about 1e-8; otherwise it calls gelsd
GRAM_RTOL = 1e-8

METHODS = ("procrustes", "linear", "ridge")
DEFAULT_RIDGE_ALPHA = 0.1

_MAP_FORMAT_VERSION = 2


def _check_train(x_tr: np.ndarray, y_tr: np.ndarray):
    x_tr = np.asarray(x_tr, dtype=np.float64)
    y_tr = np.asarray(y_tr, dtype=np.float64)
    if x_tr.ndim != 2 or y_tr.ndim != 2:
        raise ConsistencyError("training inputs must be 2-D")
    if x_tr.shape[0] != y_tr.shape[0]:
        raise ConsistencyError(f"row counts differ: {x_tr.shape} vs {y_tr.shape}")
    if x_tr.shape[0] == 0:
        raise ConsistencyError("need at least one training row")
    if x_tr.shape[1] == 0 or y_tr.shape[1] == 0:
        raise ConsistencyError(f"training rows need a nonzero width: {x_tr.shape} vs {y_tr.shape}")
    # NaN fails both comparisons; no n x d bool array is made
    if not all(a.min() > -np.inf and a.max() < np.inf for a in (x_tr, y_tr)):
        raise DataError("non-finite training data")
    return x_tr, y_tr


def _orthogonal(m: np.ndarray) -> np.ndarray:
    """U V^T from the thin SVD of ``m``: orthonormal columns or rows, the shape of ``m``."""
    try:
        u, _, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"SVD failed: {exc}") from exc
    return u @ vt


def _cross_products(x_tr: np.ndarray, y_tr: np.ndarray):
    """The Gram matrix x_tr^T x_tr and the cross-product x_tr^T y_tr."""
    return x_tr.T @ x_tr, x_tr.T @ y_tr


def _least_squares(x_tr: np.ndarray, y_tr: np.ndarray) -> np.ndarray:
    """Minimum-norm W minimizing ||x_tr W - y_tr||_F.

    With G = x_tr^T x_tr = V diag(lam) V^T and lam_min > GRAM_RTOL * lam_max
    the map is V diag(1 / lam) V^T x_tr^T y_tr, the unique solution of the
    normal equations.  Otherwise it is LAPACK gelsd with cutoff PINV_RTOL.
    """
    gram, cross = _cross_products(x_tr, y_tr)
    try:
        lam, v = np.linalg.eigh(gram)
        if lam[0] > GRAM_RTOL * lam[-1]:
            return v @ ((v.T @ cross) / lam[:, None])
        return np.linalg.lstsq(x_tr, y_tr, rcond=PINV_RTOL)[0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"least squares failed: {exc}") from exc


def _ridge(x_tr: np.ndarray, y_tr: np.ndarray, alpha: float) -> np.ndarray:
    """(x_tr^T x_tr + alpha I)^-1 x_tr^T y_tr by a Cholesky solve."""
    import scipy.linalg  # here, not at module level: only ridge needs it, and it imports slowly

    gram, cross = _cross_products(x_tr, y_tr)
    try:
        return scipy.linalg.solve(gram + alpha * np.eye(x_tr.shape[1]), cross, assume_a="pos")
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"SPD solve failed: {exc}") from exc


def check_method(method: str, alpha: float) -> None:
    """Raise ``ConsistencyError`` unless :func:`fit_map` accepts ``method`` and ``alpha``."""
    if method not in METHODS:
        raise ConsistencyError(f"unknown method {method!r}")
    if method == "ridge" and not 0 < alpha < np.inf:
        raise ConsistencyError(f"ridge alpha must be positive and finite, got {alpha}")


def fit_map(x_tr: np.ndarray, y_tr: np.ndarray, method: str, alpha: float = DEFAULT_RIDGE_ALPHA):
    """The d_a x d_b map of ``method`` from n x d_a ``x_tr`` to n x d_b ``y_tr``, all checked."""
    check_method(method, alpha)
    return _solve(*_check_train(x_tr, y_tr), method, alpha)


def _solve(x_tr: np.ndarray, y_tr: np.ndarray, method: str, alpha: float) -> np.ndarray:
    """:func:`fit_map` of checked float64 rows and a checked method; nothing is checked here."""
    if method == "procrustes":
        return _orthogonal(x_tr.T @ y_tr)
    return _least_squares(x_tr, y_tr) if method == "linear" else _ridge(x_tr, y_tr, alpha)


def _check_orthonormal(w: np.ndarray) -> None:
    """Raise ``ConsistencyError`` unless W^T W = I (d_a >= d_b) or W W^T = I (d_a < d_b)."""
    tall = w.shape[0] >= w.shape[1]
    gram = w.T @ w if tall else w @ w.T
    dev = np.linalg.norm(gram - np.eye(gram.shape[0]))
    if dev > 1e-8:
        product = "W^T W" if tall else "W W^T"
        raise ConsistencyError(f"orthogonality violated: ||{product} - I|| = {dev:g}")


@dataclass(frozen=True)
class AlignmentMap:
    """The affine map x -> (x - mu_x) @ w, d_a x d_b, fit on ``n_train`` rows centered with the
    1-D float64 train means ``mu_x`` and ``mu_y``; target rows are compared as y - mu_y."""

    w: np.ndarray
    mu_x: np.ndarray
    mu_y: np.ndarray
    n_train: int
    method: str
    source_model: str = ""
    target_model: str = ""
    alpha: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("w", "mu_x", "mu_y"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        w, mu_x, mu_y = self.w, self.mu_x, self.mu_y
        if mu_x.ndim != 1 or mu_y.ndim != 1:
            raise ConsistencyError("mean vectors must be 1-D")
        if not (np.all(np.isfinite(mu_x)) and np.all(np.isfinite(mu_y))):
            raise DataError("non-finite training means")
        if w.shape != (len(mu_x), len(mu_y)):
            raise ConsistencyError(
                f"map shape {w.shape} != (d_a, d_b) = ({len(mu_x)}, {len(mu_y)})"
            )
        if not all(w.shape):
            raise ConsistencyError(f"map shape {w.shape} has a zero width")
        if not np.all(np.isfinite(w)):
            raise DataError("non-finite map entries")
        if self.method not in METHODS:
            raise ConsistencyError(f"unknown method {self.method!r}")
        if self.method == "procrustes":
            _check_orthonormal(w)
        if self.method != "ridge" and self.alpha != 0.0:
            raise ConsistencyError("alpha must be 0 unless method is ridge")


@dataclass(frozen=True, eq=False)
class Side:
    """One model's rows of a split as maps are fit and scored, whole when it is made.

    ``train`` and ``test`` are the model's unit rows of the split's train
    and test rows, each centered with ``mean``, the column mean of the
    unit train rows, and ``gallery`` the unit rows of ``test`` that
    :func:`ident_eval.map_rank1` scores against (both ``None`` without test
    rows).  The arrays are read-only: threads that score a side only read it.
    """

    train: np.ndarray
    test: np.ndarray | None
    gallery: np.ndarray | None
    mean: np.ndarray

    def __post_init__(self):
        for rows in (self.train, self.test, self.gallery, self.mean):
            if rows is not None:
                rows.flags.writeable = False


def prepare_side(rows, train, test=None) -> Side:
    """Gather one model's train and test rows, normalize them and center them with the train mean.

    ``rows`` are a model's raw embeddings (the float32 rows of a set), and
    ``train`` and ``test`` index them (``test=None``: no test rows).  Each
    part is gathered straight into one new float64 array of unit rows
    (:func:`prep.gather_unit_rows`, bit-equal to :func:`prep.l2_normalize`
    of the gathered rows) and centered in place; ``rows`` themselves are
    never written.  The mean and the centered rows are bit-equal to
    :func:`prep.fit_prep` on the unit train rows followed by
    :func:`prep.center` of each part; the gallery is made from the centered
    test rows here.  No train rows is a ``ConsistencyError``.

    A centered test row no longer than the rounding floor below is a
    ``DegenerateRowError`` naming its index among the test rows: it cannot
    be told from a row equal to the train mean, whose direction is
    rounding noise.  With u = 2^-53 and g(k) = k u / (1 - k u), a sum of
    n terms in any order errs by at most g(n - 1) times the sum of their
    magnitudes, and the division by n adds one rounding, so each column of
    the computed mean of n unit rows u_i is off by at most g(n) a_j, where
    a is the mean of the |u_i|.  A test row equal to the exact mean
    centers to that error times (1 + u) (one rounding of the subtraction),
    so its norm is at most g(n + 1) ||a||.  By the triangle inequality
    ||a|| <= max ||u_i||, and a computed unit row of width d has norm at
    most 1 + (d + 2) eps, eps = 2u: its norm is off by at most about
    (d / 2 + 1) eps and each division adds u.  The floor is
    g(n + 1) (1 + (d + 2) eps).  An all-zero centered row lies under it.
    """

    def centered(index, mean=None):
        got = gather_unit_rows(rows, index)
        if mean is None:
            if not len(got):
                raise ConsistencyError("need at least one training row")
            mean = got.mean(axis=0)
        got -= mean
        return got, mean

    x_tr, mean = centered(train)
    if test is None:
        return Side(x_tr, None, None, mean)
    x_te = centered(test, mean)[0]
    _refuse_rounding_rows(x_te, len(x_tr), "test")
    return Side(x_tr, x_te, l2_normalize(x_te), mean)


def _refuse_rounding_rows(rows, n_train, name):
    """Raise ``DegenerateRowError`` at the first centered row no longer than
    :func:`centering_floor` of ``n_train`` rows and the rows' width; ``name`` names the rows."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))  # no n x d temporary
    low = np.flatnonzero(norms <= centering_floor(n_train, rows.shape[1]))
    if low.size:
        raise DegenerateRowError(int(low[0]), f"centered {name} row {low[0]} has norm "
                                 f"{norms[low[0]]:.3g}, the rounding level of its train mean")


def centering_floor(n: int, d: int) -> float:
    """The floor of :func:`prepare_side`: the largest norm rounding leaves of a unit row of
    width d that equals the exact mean of n unit rows, centered with their computed mean."""
    u = np.finfo(np.float64).eps / 2
    return (n + 1) * u / (1 - (n + 1) * u) * (1 + (d + 2) * 2 * u)


def fit_sides(source: Side, target: Side, method: str, alpha: float = DEFAULT_RIDGE_ALPHA,
              **meta) -> AlignmentMap:
    """The map of ``method`` from the centered train rows of ``source`` to those of ``target``.

    The fits whose map is kept or projected go through here (:meth:`Pairing.seed_maps`, the
    CLI's ``fit`` and cross map); the matrix and the sweep solve for the map array alone
    (:func:`_solve`).  Only the method is checked: a prepared side's rows are finite.  The
    map holds the two sides' train means; ``meta`` fills its descriptive fields
    (``source_model``, ``target_model``, ``seed``), which only a map that is saved needs.
    """
    check_method(method, alpha)
    w = _solve(source.train, target.train, method, alpha)
    return AlignmentMap(w, source.mean, target.mean, len(source.train), method,
                        alpha=alpha if method == "ridge" else 0.0, **meta)


@dataclass(frozen=True, eq=False)
class Pairing:
    """The images two sets share, paired by id (:func:`pair_sets`).

    Rows ``ra[k]`` of ``source`` and ``rb[k]`` of ``target`` hold the k-th shared image, of
    identity ``labels[k]``; every other row index here is such a position k.  Each evaluator
    takes every seed's map and scored rows from :meth:`seed_maps`, a fitted map or a fixed one.
    """

    source: EmbeddingSet
    target: EmbeddingSet
    labels: list
    ra: np.ndarray
    rb: np.ndarray

    @functools.cached_property
    def codes(self) -> np.ndarray:
        """The :func:`splits.label_codes` of ``labels``, factorized once."""
        return label_codes(self.labels)

    def sides(self, train=slice(None), test=None):
        """The source and target :func:`prepare_side` of the shared rows ``train`` and ``test``."""
        return self._gather(prepare_side, train, test)

    def unit_rows(self, rows=slice(None)):
        """The unit source and target rows (float64) of the shared rows ``rows``, each gathered
        straight into its one float64 array (:func:`prep.gather_unit_rows`)."""
        return self._gather(gather_unit_rows, rows)

    def _gather(self, gather, *parts):
        """``gather(set rows, *indexes)`` of the source's, then the target's, shared rows
        ``parts``; an all-zero row is named by its position k, not among the gathered rows."""
        out = []
        for s, r in ((self.source, self.ra), (self.target, self.rb)):
            try:
                out.append(gather(s.rows, *(p if p is None else r[p] for p in parts)))
            except DegenerateRowError as exc:  # a rounding-level test row has no zero row
                at = np.concatenate([np.arange(len(r))[p] for p in parts if p is not None])
                dead = [k for k in at.tolist() if not s.rows[r[k]].any()]
                raise (DegenerateRowError(dead[0]) if dead else exc) from None
        return tuple(out)

    def seed_maps(self, method: str, alpha: float, fraction: float, seeds, amap=None, project=None):
        """Per seed, when it is asked for, ``(seed, split, amap, (x, y), codes)``.

        Without ``amap``: the seed's :func:`splits.identity_disjoint_split` of ``labels``, the
        map of ``method`` fit on its train rows (:meth:`sides`, :func:`fit_sides`), and the unit
        rows (:meth:`unit_rows`) and label codes of its test rows.  With a fixed ``amap``: no
        split, that map, and the unit rows of every shared row and ``codes``, made once for all
        seeds.  ``project(x, y, amap)``, if given, stands for the unit rows wherever they are made.
        """
        project = project or (lambda x, y, _: (x, y))
        rows = None if amap is None else project(*self.unit_rows(), amap)
        for seed in seeds:
            if amap is None:
                split = identity_disjoint_split(self.labels, fraction, seed)
                fitted = fit_sides(*self.sides(split.train_rows), method, alpha)
                test = split.test_rows
                yield seed, split, fitted, project(*self.unit_rows(test), fitted), self.codes[test]
            else:
                yield seed, None, amap, rows, self.codes


def pair_sets(source: EmbeddingSet, target: EmbeddingSet) -> Pairing:
    """The :class:`Pairing` of the images two sets share.

    Rows pair in lexicographic id order (:func:`embedstore.shared_rows`).  No row is read: an
    all-zero shared row is refused where :class:`Pairing` gathers it, named by its position.
    """
    ra, rb = shared_rows(source, target)
    return Pairing(source, target, [source.labels[i] for i in ra], np.array(ra), np.array(rb))


def project(x: np.ndarray, y: np.ndarray, amap: AlignmentMap | None = None):
    """Source and target rows as they are scored: the k columns the two sides share.

    With a map, both sides are centered with its training means and the
    source rows go through W, k = d_b.  A centered row no longer than
    :func:`centering_floor` of the map's ``n_train`` and the row's width
    is a ``DegenerateRowError`` naming the side and the row, as
    :func:`prepare_side` refuses a test row: its direction is rounding
    noise.  The source rows are checked before W.  Without a map this is
    the unaligned baseline: each side's first k = min(d_a, d_b) columns,
    the rows as they are (-0.0 included).  The scorers take each row's
    cosine denominator from these k columns (module docstring).
    """
    if amap is None:
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        k = min(x.shape[1], y.shape[1])
        return x[:, :k], y[:, :k]
    x, y = center(x, amap.mu_x), center(y, amap.mu_y)
    _refuse_rounding_rows(x, amap.n_train, "source")
    _refuse_rounding_rows(y, amap.n_train, "target")
    return x @ amap.w, y


def training_residual(amap: AlignmentMap, x_tr: np.ndarray, y_tr: np.ndarray) -> float:
    """Frobenius residual ||x_tr W - y_tr||_F on centered n x d_a and n x d_b training rows."""
    x_tr, y_tr = _check_train(x_tr, y_tr)
    if (x_tr.shape[1], y_tr.shape[1]) != amap.w.shape:
        raise ConsistencyError("training data widths do not match the map")
    return float(np.linalg.norm(x_tr @ amap.w - y_tr))


#: the fields of an AlignmentMap beside its arrays, stored under their names in a map file
_MAP_RECORD = ("n_train", "method", "alpha", "source_model", "target_model", "seed")


def save_map(amap: AlignmentMap, path: str) -> None:
    """Write a map file: one JSON header line, then the float64 LE blocks mu_x, mu_y and w.

    The map block is the d_a x d_b map itself (format version 2).
    """
    mu_x = np.ascontiguousarray(amap.mu_x, dtype="<f8").tobytes()
    mu_y = np.ascontiguousarray(amap.mu_y, dtype="<f8").tobytes()
    w = np.ascontiguousarray(amap.w, dtype="<f8").tobytes()
    header = {"format_version": _MAP_FORMAT_VERSION, "d_a": amap.w.shape[0],
              "d_b": amap.w.shape[1], **{key: getattr(amap, key) for key in _MAP_RECORD}}
    header_bytes = None
    # offsets count from the start of the file, so the header references
    # itself; iterate until the header length stabilizes
    offsets = {"mu_x": 0, "mu_y": 0, "w": 0}
    for _ in range(8):
        header.update(
            offset_mu_x=offsets["mu_x"], offset_mu_y=offsets["mu_y"], offset_w=offsets["w"]
        )
        header_bytes = (json.dumps(header, sort_keys=True) + "\n").encode("utf-8")
        new = {
            "mu_x": len(header_bytes),
            "mu_y": len(header_bytes) + len(mu_x),
            "w": len(header_bytes) + len(mu_x) + len(mu_y),
        }
        if new == offsets:
            break
        offsets = new
    atomic_write(path, header_bytes + mu_x + mu_y + w)


#: header fields of a map file and their JSON types; a file of format
#: version 1 also holds ``D``, the width of its D x D map block
_MAP_FIELDS = {
    "format_version": int,
    "method": str,
    "alpha": (int, float),
    "d_a": int,
    "d_b": int,
    "n_train": int,
    "source_model": str,
    "target_model": str,
    "seed": int,
    "offset_mu_x": int,
    "offset_mu_y": int,
    "offset_w": int,
}
_MAP_COUNTS = ("d_a", "d_b", "D", "n_train", "offset_mu_x", "offset_mu_y", "offset_w")


def _map_header(blob: bytes, path: str):
    """Parse and validate the header line of a map file; return it and the map block's shape.

    Every field must be present with its type, counts and offsets must be
    nonnegative and the widths ``d_a`` and ``d_b`` nonzero, ``D`` (format
    version 1 only) must equal ``max(d_a, d_b)``, and the three data blocks
    must lie after the header, inside the file, without overlapping.
    """
    newline = blob.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")
    version = header.get("format_version")
    if isinstance(version, bool) or version not in (1, _MAP_FORMAT_VERSION):
        raise FormatError(f"{path}: unsupported format_version")
    fields = {**_MAP_FIELDS, "D": int} if version == 1 else _MAP_FIELDS
    for key, kind in fields.items():
        value = header.get(key)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise FormatError(f"{path}: header field {key!r} missing or of the wrong type")
    for key in _MAP_COUNTS:
        if key in fields and header[key] < 0:
            raise FormatError(f"{path}: header field {key!r} is negative")
    if not (header["d_a"] and header["d_b"]):
        raise FormatError(f"{path}: header fields 'd_a' and 'd_b' must be nonzero")
    if isinstance(header["alpha"], float) and not math.isfinite(header["alpha"]):
        raise FormatError(f"{path}: header field 'alpha' is not finite")
    if header["method"] not in METHODS:
        raise FormatError(f"{path}: unknown method {header['method']!r}")
    shape = (header["d_a"], header["d_b"])
    if version == 1:
        if header["D"] != max(shape):
            raise FormatError(f"{path}: D must equal max(d_a, d_b)")
        shape = (header["D"], header["D"])
    blocks = sorted(
        (header[f"offset_{name}"], 8 * count, name)
        for name, count in (
            ("mu_x", header["d_a"]), ("mu_y", header["d_b"]), ("w", shape[0] * shape[1])
        )
    )
    end = newline + 1
    for offset, size, name in blocks:
        if offset < end:
            raise FormatError(f"{path}: data block {name} overlaps the header or another block")
        end = offset + size
        if end > len(blob):
            raise FormatError(f"{path}: truncated data block {name}")
    return header, shape


def load_map(path: str) -> AlignmentMap:
    """Inverse of :func:`save_map`; a malformed file raises ``FormatError``.

    A file of format version 1 stores a D x D map: that of a procrustes
    file must be orthogonal (``ConsistencyError`` otherwise), that of a
    linear or ridge file zero outside its leading d_a x d_b block, and
    the returned map is that block.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise IoError(str(exc)) from exc
    header, shape = _map_header(blob, path)
    d_a, d_b = header["d_a"], header["d_b"]

    def block(name, count):
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=header[f"offset_{name}"])
        if not np.all(np.isfinite(values)):
            raise FormatError(f"{path}: non-finite values in data block {name}")
        return values

    mu_x, mu_y = block("mu_x", d_a), block("mu_y", d_b)
    stored = block("w", shape[0] * shape[1]).reshape(shape)
    if header["format_version"] == 1:
        if header["method"] == "procrustes":
            _check_orthonormal(stored)
        elif np.any(stored[d_a:]) or np.any(stored[:, d_b:]):
            raise FormatError(f"{path}: nonzero entries outside the d_a x d_b block of the map")
    return AlignmentMap(np.array(stored[:d_a, :d_b]), mu_x, mu_y,
                        **{key: header[key] for key in _MAP_RECORD})
