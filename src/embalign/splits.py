"""Identity-disjoint partitioning and genuine/impostor pair generation.

All randomness comes from numpy's PCG64 keyed by (operation tag, seed), so
every output is a pure, reproducible function of its inputs and seed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateDataError

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
    identities to every other function here, one code.
    """
    labels = [str(l) for l in labels]
    index = {label: code for code, label in enumerate(sorted(set(labels)))}
    return np.fromiter(map(index.__getitem__, labels), dtype=np.intp, count=len(labels))


def _rng(tag: int, seed: int) -> np.random.Generator:
    return np.random.default_rng([tag, check_seed(seed)])


@dataclass(frozen=True)
class SplitSpec:
    """An identity-disjoint train/test partition of one embedding set."""

    seed: int
    train_fraction: float
    train_identities: frozenset
    test_identities: frozenset
    train_rows: tuple
    test_rows: tuple

    def to_dict(self):
        return {
            "seed": self.seed,
            "train_fraction": self.train_fraction,
            "train_identities": sorted(self.train_identities),
            "test_identities": sorted(self.test_identities),
            "train_rows": list(self.train_rows),
            "test_rows": list(self.test_rows),
        }


@dataclass(frozen=True)
class PairList:
    """Unordered row pairs flagged genuine/impostor; canonical (min, max) form."""

    pairs: tuple  # of (i, j, is_genuine)
    seed: int

    def to_dict(self):
        return {"seed": self.seed, "pairs": [list(p) for p in self.pairs]}

    @property
    def n_genuine(self):
        return sum(1 for _, _, g in self.pairs if g)

    @property
    def n_impostor(self):
        return sum(1 for _, _, g in self.pairs if not g)


def identity_disjoint_split(labels, fraction: float, seed: int) -> SplitSpec:
    """Shuffle identities by seed; first floor(fraction * #identities) train."""
    check_fraction(fraction)
    labels = [str(l) for l in labels]
    identities = sorted(set(labels))
    if len(identities) < 2:
        raise DegenerateDataError("need at least 2 distinct identities to split")
    order = _rng(_TAG_SPLIT, seed).permutation(len(identities))
    n_train = int(len(identities) * fraction)
    train_ids = frozenset(identities[i] for i in order[:n_train])
    test_ids = frozenset(identities) - train_ids
    train_rows = tuple(i for i, l in enumerate(labels) if l in train_ids)
    test_rows = tuple(i for i, l in enumerate(labels) if l in test_ids)
    return SplitSpec(seed, fraction, train_ids, test_ids, train_rows, test_rows)


def all_genuine_pairs(labels) -> PairList:
    """Every unordered same-label row pair, exactly once."""
    labels = [str(l) for l in labels]
    by_label = {}
    for i, l in enumerate(labels):
        by_label.setdefault(l, []).append(i)
    pairs = []
    for l in sorted(by_label):
        rows = by_label[l]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                pairs.append((rows[a], rows[b], True))
    pairs.sort()
    return PairList(tuple(pairs), seed=0)


def pair_counts(labels):
    """Numbers ``(genuine, impostor)`` of unordered same-label and cross-label row pairs."""
    n = len(labels)
    genuine = sum(c * (c - 1) // 2 for c in Counter(str(l) for l in labels).values())
    return genuine, n * (n - 1) // 2 - genuine


def sample_impostor_pairs(labels, count: int, seed: int) -> PairList:
    """Uniform without-replacement sample of cross-label pairs (rejection)."""
    labels = [str(l) for l in labels]
    if count < 0:
        raise ArgumentError("count must be nonnegative")
    if len(set(labels)) < 2:
        raise DegenerateDataError("need at least 2 distinct identities")
    available = pair_counts(labels)[1]
    if count > available:
        raise ArgumentError(f"requested {count} impostor pairs, only {available} exist")
    rng = _rng(_TAG_IMPOSTOR, seed)
    n = len(labels)
    # exhaustive fallback when the request covers most of the pool, where
    # rejection sampling would stall
    if count > available // 2:
        codes = label_codes(labels)
        a, b = np.triu_indices(n, 1)  # every pair (a < b), in lexicographic order
        cross = codes[a] != codes[b]
        idx = np.sort(rng.choice(available, size=count, replace=False))
        chosen = zip(a[cross][idx].tolist(), b[cross][idx].tolist())
    else:
        # each batch draws as many pairs as are missing, so it cannot overshoot;
        # the pairs do not depend on the batch size, because the bit generator
        # keeps the spare 32-bit half of a 64-bit word across calls
        found = set()
        while len(found) < count:
            draws = rng.integers(0, n, size=2 * (count - len(found))).tolist()
            found.update((min(a, b), max(a, b)) for a, b in zip(draws[::2], draws[1::2])
                         if a != b and labels[a] != labels[b])
        chosen = sorted(found)
    return PairList(tuple((a, b, False) for a, b in chosen), seed=seed)


def sample_pairs_capped(labels, genuine_count: int, impostor_count: int, seed: int) -> PairList:
    """Capped uniform samples of each class, merged (cross-dataset protocol)."""
    labels = [str(l) for l in labels]
    genuine = all_genuine_pairs(labels).pairs
    if genuine_count < 0 or impostor_count < 0:
        raise ArgumentError("pair counts must be nonnegative")
    if genuine_count > len(genuine):
        raise ArgumentError(
            f"requested {genuine_count} genuine pairs, only {len(genuine)} exist"
        )
    if genuine_count == len(genuine):
        g_sample = list(genuine)
    else:
        rng = _rng(_TAG_GENUINE_CAP, seed)
        idx = rng.choice(len(genuine), size=genuine_count, replace=False)
        g_sample = [genuine[i] for i in sorted(idx)]
    imp = sample_impostor_pairs(labels, impostor_count, seed).pairs
    return PairList(tuple(sorted(g_sample + list(imp))), seed=seed)
