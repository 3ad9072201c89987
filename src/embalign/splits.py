"""Identity-disjoint partitioning and genuine/impostor pair generation.

All randomness comes from numpy's PCG64 keyed by (operation tag, seed), so
every output is a pure, reproducible function of its inputs and seed.

A split (:class:`SplitSpec`) holds its rows as ascending read-only intp arrays, taken
by one mask over the label codes (:func:`label_codes`); ``+`` on them adds elementwise.

A pair list (:class:`PairList`) is one ``(n, 3)`` int64 array.  Each
builder factorizes its labels once (:func:`label_codes`) and builds its
pairs from the codes as sorted keys ``i * n + j``; it draws what the
tuple-based builders drew, in the same order, so every pair is unchanged.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ConsistencyError, DegenerateDataError

DEFAULT_SEEDS = (0, 1, 2, 3, 4)

# per-operation PRNG domain tags, so different operations sharing one user
# seed draw from independent streams
_TAG_SPLIT = 101
_TAG_IMPOSTOR = 102
_TAG_GENUINE_CAP = 103


def check_seed(seed) -> int:
    """``seed`` as an int; a negative seed is an ``ArgumentError``."""
    seed = int(seed)
    if seed < 0:
        raise ArgumentError(f"seed must be nonnegative, got {seed}")
    return seed


def check_count(count, what: str) -> int:
    """``count`` as an int; a negative or non-integer one (``bool`` too) is an ``ArgumentError``."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ArgumentError(f"{what}: {count!r} is not an integer")
    if count < 0:
        raise ArgumentError(f"{what} must be nonnegative")
    return int(count)


def check_pair_caps(caps):
    """``None``, or ``caps`` as a ``(genuine, impostor)`` couple of :func:`check_count` ints.

    Anything else (a number, a string, one or three counts) is an ``ArgumentError``.
    """
    if caps is None:
        return None
    if not isinstance(caps, (tuple, list)) or len(caps) != 2:
        raise ArgumentError(f"pair caps must be two pair counts, got {caps!r}")
    return tuple(check_count(c, "pair caps") for c in caps)


def check_seeds(seeds) -> list:
    """``seeds`` as a list of ints.

    An empty list, a negative seed or a repeated seed (which would be
    counted twice in the mean and std) is an ``ArgumentError``.
    """
    seeds = [check_seed(s) for s in seeds]
    check_distinct(seeds, "seed")
    return seeds


def check_distinct(values, what: str) -> None:
    """Raise ``ArgumentError`` if ``values`` is empty, or name the first value that occurs twice."""
    if not values:
        raise ArgumentError(f"need at least one {what}")
    seen = set()
    for v in values:
        if v in seen:
            raise ArgumentError(f"{what} {v!r} is repeated")
        seen.add(v)


def check_fraction(fraction: float) -> None:
    """Raise ``ArgumentError`` unless the train fraction lies in (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ArgumentError(f"fraction must lie in (0, 1), got {fraction}")


def label_codes(labels) -> np.ndarray:
    """Integer codes of ``labels``, equal exactly where the labels' string forms are equal.

    The codes number the distinct strings in sorted order.  They are
    factorized over Python strings: numpy's fixed-width ``str`` dtype
    drops trailing NULs, so it would give ``'a'`` and ``'a\\x00'``, two
    identities to every other function here, one code.  A 1-D integer
    array (label codes, as the pair builders get them) is factorized as
    numbers, and only its distinct values are sorted as strings.
    """
    if isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "iu":
        values, inverse = np.unique(labels, return_inverse=True)
        rank = np.empty(values.shape[0], dtype=np.intp)
        # an integer's string holds no NUL, so the fixed-width str order is the str order
        rank[np.argsort(values.astype(str))] = np.arange(values.shape[0])
        return rank[inverse]
    labels = [str(l) for l in labels]
    index = {label: code for code, label in enumerate(sorted(set(labels)))}
    return np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([tag, check_seed(seed)])


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """An identity-disjoint train/test partition of one embedding set.

    The rows are copied into read-only intp arrays; two splits are compared through ``to_dict``.
    """

    seed: int
    train_fraction: float
    train_identities: frozenset
    test_identities: frozenset
    train_rows: np.ndarray
    test_rows: np.ndarray

    def __post_init__(self):
        for name in ("train_rows", "test_rows"):
            rows = np.array(getattr(self, name), dtype=np.intp)
            rows.flags.writeable = False
            object.__setattr__(self, name, rows)

    def to_dict(self):
        return {
            "seed": self.seed,
            "train_fraction": self.train_fraction,
            "train_identities": sorted(self.train_identities),
            "test_identities": sorted(self.test_identities),
            "train_rows": self.train_rows.tolist(),
            "test_rows": self.test_rows.tolist(),
        }


@dataclass(frozen=True, eq=False)
class PairList:
    """Row pairs ``(i, j, is_genuine)`` with a 0/1 flag, as one ``(n, 3)`` int64 array.

    The builders below give i < j in lexicographic order.  The input is
    converted once and kept read-only; anything but n x 3 integers with
    0/1 flags is a ``ConsistencyError``.  ``to_dict`` writes ints and
    booleans; two lists are compared through it.
    """

    pairs: np.ndarray
    seed: int

    def __post_init__(self):
        try:
            pairs = np.asarray(self.pairs if len(self.pairs) else np.empty((0, 3), np.int64))
        except (TypeError, ValueError):  # no length, or rows of different lengths
            pairs = None
        if (pairs is None or pairs.ndim != 2 or pairs.shape[1] != 3
                or pairs.dtype.kind not in "biu" or not np.isin(pairs[:, 2], (0, 1)).all()):
            raise ConsistencyError("pairs must form an n x 3 array of integers "
                                   "(i, j, is_genuine) with flags 0 or 1")
        pairs = pairs.astype(np.int64)
        pairs.flags.writeable = False
        object.__setattr__(self, "pairs", pairs)

    def to_dict(self):
        rows = self.pairs.astype(object)
        rows[:, 2] = self.pairs[:, 2] == 1
        return {"seed": self.seed, "pairs": rows.tolist()}

    @property
    def n_genuine(self):
        return int(np.count_nonzero(self.pairs[:, 2]))

    @property
    def n_impostor(self):
        return len(self.pairs) - self.n_genuine


def identity_disjoint_split(labels, fraction: float, seed: int) -> SplitSpec:
    """Shuffle the identities of a label sequence by seed; first floor(fraction * #ids) train."""
    check_fraction(fraction)
    codes = label_codes(labels)
    # each identity's label string, read at its first row, in code (sorted) order
    identities = [str(labels[r]) for r in np.unique(codes, return_index=True)[1]]
    if len(identities) < 2:
        raise DegenerateDataError("need at least 2 distinct identities to split")
    order = _rng(_TAG_SPLIT, seed).permutation(len(identities))
    n_train = int(len(identities) * fraction)
    train_ids = frozenset(identities[i] for i in order[:n_train])
    train = np.isin(codes, order[:n_train])
    return SplitSpec(seed, fraction, train_ids, frozenset(identities) - train_ids,
                     np.flatnonzero(train), np.flatnonzero(~train))


def _pair_list(codes, keys, seed) -> PairList:
    """The pair list of keys ``i * n + j``, sorted; genuine where the two codes are equal."""
    i, j = np.divmod(np.sort(keys), codes.shape[0])
    return PairList(np.column_stack((i, j, codes[i] == codes[j])), seed)


def _genuine_keys(codes) -> np.ndarray:
    """Sorted keys ``i * n + j`` (i < j) of every same-code row pair."""
    n = codes.shape[0]
    order = np.argsort(codes, kind="stable")  # rows grouped by code, ascending in each group
    # sorted position p pairs with every later position of its group
    per = np.searchsorted(codes[order], codes[order], side="right") - np.arange(n) - 1
    left = np.repeat(np.arange(n), per)
    right = left + 1 + np.arange(left.shape[0]) - np.repeat(np.cumsum(per) - per, per)
    return np.sort(order[left] * n + order[right])


def _pair_counts(codes):
    """Numbers ``(genuine, impostor)`` of same-code and cross-code row pairs."""
    sizes, n = np.bincount(codes), codes.shape[0]
    genuine = int((sizes * (sizes - 1) // 2).sum())
    return genuine, n * (n - 1) // 2 - genuine


def _impostor_keys(codes, count: int, seed: int) -> np.ndarray:
    """Keys ``a * n + b`` (a < b) of a uniform sample of cross-code row pairs."""
    count = check_count(count, "count")
    if codes.max(initial=0) < 1:  # the codes number the identities 0, 1, ...
        raise DegenerateDataError("need at least 2 distinct identities")
    available = _pair_counts(codes)[1]
    if count > available:
        raise ArgumentError(f"requested {count} impostor pairs, only {available} exist")
    rng = _rng(_TAG_IMPOSTOR, seed)
    n = codes.shape[0]
    # exhaustive fallback when the request covers most of the pool, where
    # rejection sampling would stall
    if count > available // 2:
        a, b = np.triu_indices(n, 1)  # every pair (a < b), in lexicographic order
        cross = codes[a] != codes[b]
        idx = rng.choice(available, size=count, replace=False)
        return a[cross][idx] * n + b[cross][idx]
    # each batch draws as many pairs as are missing, so it cannot overshoot;
    # the pairs do not depend on the batch size, because the bit generator
    # keeps the spare 32-bit half of a 64-bit word across calls
    found = np.empty(0, dtype=np.int64)
    while found.shape[0] < count:
        a, b = rng.integers(0, n, size=2 * (count - found.shape[0])).reshape(-1, 2).T
        cross = codes[a] != codes[b]  # also rejects a == b
        found = np.union1d(found, np.minimum(a, b)[cross] * n + np.maximum(a, b)[cross])
    return found


def all_genuine_pairs(labels) -> PairList:
    """Every unordered same-label row pair, exactly once."""
    codes = label_codes(labels)
    return _pair_list(codes, _genuine_keys(codes), seed=0)


def pair_counts(labels):
    """Numbers ``(genuine, impostor)`` of unordered same-label and cross-label row pairs."""
    return _pair_counts(label_codes(labels))


def sample_impostor_pairs(labels, count: int, seed: int) -> PairList:
    """Uniform without-replacement sample of cross-label pairs (rejection)."""
    codes = label_codes(labels)
    return _pair_list(codes, _impostor_keys(codes, count, seed), seed)


def sample_pairs_capped(labels, genuine_count: int, impostor_count: int, seed: int) -> PairList:
    """Capped uniform samples of each class, merged (cross-dataset protocol)."""
    genuine_count, impostor_count = (check_count(c, "pair counts")
                                     for c in (genuine_count, impostor_count))
    codes = label_codes(labels)
    genuine = _genuine_keys(codes)
    if genuine_count > genuine.shape[0]:
        raise ArgumentError(f"requested {genuine_count} genuine pairs, "
                            f"only {genuine.shape[0]} exist")
    if genuine_count < genuine.shape[0]:
        rng = _rng(_TAG_GENUINE_CAP, seed)
        genuine = genuine[np.sort(rng.choice(genuine.shape[0], size=genuine_count,
                                             replace=False))]
    impostor = _impostor_keys(codes, impostor_count, seed)
    return _pair_list(codes, np.concatenate((genuine, impostor)), seed)
