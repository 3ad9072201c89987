"""Loading, validation, and persistence of labeled embedding sets.

Binary format (little-endian): magic ``EMB1``, u32 N, u32 d, then N*d
float32 values row-major.  The loader checks the header against the file
size before it allocates or reads the values, then reads them in one pass
into the array the set keeps as its rows.  A companion label file with
the same basename plus ``.labels.tsv`` holds one ``image_id<TAB>identity``
line per matrix row, so no id or identity may hold a tab, CR or LF.  The
CSV format is a single self-contained file with header
``image_id,identity,e0,...,e{d-1}``.  Both formats are UTF-8, so neither
stores an id or identity that holds a surrogate code point.
"""

from __future__ import annotations

import csv
import functools
import os
import re
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DataError,
    EmptyIntersectionError,
    FormatError,
    IoError,
    LabelConflictError,
)

_MAGIC = b"EMB1"
#: characters an id or label cannot hold, per format: a surrogate code point,
#: which UTF-8 cannot encode, and in a label line also its separator and line ends
_UNSTORABLE = {"binary": re.compile("[\t\n\r\ud800-\udfff]"),
               "csv": re.compile("[\ud800-\udfff]")}


def _label_path(path: str) -> str:
    base, _ = os.path.splitext(path)
    return base + ".labels.tsv"


def set_files(path: str, format: str = "binary") -> list:
    """The files :func:`load_embeddings` reads for the set at ``path``: the path itself, and
    for the binary format its label file."""
    return [path, _label_path(path)] if format == "binary" else [path]


@dataclass(frozen=True)
class EmbeddingSet:
    """Per-image embeddings of one model on one dataset.

    Rows are stored as float32 (the on-disk precision); downstream
    numerics promote to float64.
    """

    model_name: str
    dataset_name: str
    rows: np.ndarray
    image_ids: tuple
    labels: tuple

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float32)
        if rows.ndim != 2:
            raise ConsistencyError("rows must be a 2-D matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "image_ids", tuple(str(i) for i in self.image_ids))
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        n, d = rows.shape
        if n < 1:
            raise ConsistencyError("embedding set must contain at least one row")
        if d < 1:
            raise ConsistencyError("embedding rows must have at least one column")
        if len(self.image_ids) != n or len(self.labels) != n:
            raise ConsistencyError(
                f"row/label mismatch: {n} rows, {len(self.image_ids)} ids, "
                f"{len(self.labels)} labels"
            )
        if len(set(self.image_ids)) != n:
            raise ConsistencyError("image_ids are not unique")
        if not np.all(np.isfinite(rows)):
            raise DataError("embedding matrix contains non-finite values")
        rows.setflags(write=False)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    @functools.cached_property
    def _id_order(self) -> tuple:
        """Row indexes in lexicographic image id order (:func:`shared_rows`)."""
        return tuple(sorted(range(self.n), key=self.image_ids.__getitem__))


def save_embeddings(s: EmbeddingSet, path: str, format: str = "binary") -> None:
    """Persist an EmbeddingSet; binary round-trips bitwise.

    Before either format opens a file, an id or label it could not give
    back is a ``FormatError`` naming the first such row and field: one
    holding a surrogate, which UTF-8 cannot encode, or, in the binary
    format's label file, a tab, CR or LF.
    """
    if format not in _UNSTORABLE:
        raise FormatError(f"unknown format {format!r}")
    for i, fields in enumerate(zip(s.image_ids, s.labels)):
        for name, value in zip(("image id", "label"), fields):
            bad = _UNSTORABLE[format].search(value)
            if bad:
                why = ("a surrogate, which UTF-8 cannot encode" if bad.group() >= "\ud800"
                       else "a tab, CR or LF, which a binary label file cannot store")
                raise FormatError(f"{path}: row {i}: {name} {value!r} holds {why}")
    try:
        if format == "binary":
            with open(path, "wb") as f:
                f.write(_MAGIC)
                f.write(struct.pack("<II", s.n, s.dim))
                f.write(np.ascontiguousarray(s.rows, dtype="<f4").tobytes())
            with open(_label_path(path), "w", encoding="utf-8", newline="\n") as f:
                for image_id, label in zip(s.image_ids, s.labels):
                    f.write(f"{image_id}\t{label}\n")
        else:
            with open(path, "w", encoding="utf-8", newline="") as f:
                writer = csv.writer(f)
                writer.writerow(
                    ["image_id", "identity"] + [f"e{j}" for j in range(s.dim)]
                )
                for i in range(s.n):
                    writer.writerow(
                        [s.image_ids[i], s.labels[i]]
                        + [repr(float(v)) for v in s.rows[i]]
                    )
    except OSError as exc:
        raise IoError(str(exc)) from exc


def load_embeddings(
    path: str,
    format: str = "binary",
    model_name: str = "",
    dataset_name: str = "",
) -> EmbeddingSet:
    """Load and validate an EmbeddingSet from disk; row order matches the file."""
    if format == "binary":
        return _load_binary(path, model_name, dataset_name)
    if format == "csv":
        return _load_csv(path, model_name, dataset_name)
    raise FormatError(f"unknown format {format!r}")


def _load_binary(path, model_name, dataset_name):
    try:
        with open(path, "rb") as f:
            header = f.read(12)
            if len(header) < 12 or header[:4] != _MAGIC:
                raise FormatError(f"{path}: bad magic, not an EMB1 file")
            n, d = struct.unpack("<II", header[4:])
            expected = 12 + 4 * n * d
            size = os.fstat(f.fileno()).st_size
            if size != expected:
                raise FormatError(f"{path}: expected {expected} bytes, found {size}")
            rows = np.empty((n, d), dtype="<f4")
            got = f.readinto(rows)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    if got != rows.nbytes:
        raise FormatError(f"{path}: expected {expected} bytes, found {12 + got}")

    lpath = _label_path(path)
    try:
        with open(lpath, "r", encoding="utf-8") as f:
            lines = [line.rstrip("\n") for line in f if line.strip("\n") != ""]
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{lpath}: not a UTF-8 label file") from exc
    if len(lines) != n:
        raise ConsistencyError(f"{lpath}: {len(lines)} label lines for {n} rows")
    image_ids, labels = [], []
    for i, line in enumerate(lines):
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(f"{lpath}:{i + 1}: expected 'image_id<TAB>identity'")
        image_ids.append(parts[0])
        labels.append(parts[1])
    return EmbeddingSet(model_name, dataset_name, rows, image_ids, labels)


def _load_csv(path, model_name, dataset_name):
    try:
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            try:
                header = next(reader)
            except StopIteration:
                raise FormatError(f"{path}: empty file") from None
            body = list(reader)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not a UTF-8 CSV file") from exc
    if len(header) < 3 or header[0] != "image_id" or header[1] != "identity":
        raise FormatError(f"{path}: bad CSV header {header[:3]}")
    d = len(header) - 2
    if header[2:] != [f"e{j}" for j in range(d)]:
        raise FormatError(f"{path}: embedding columns must be e0..e{d - 1}")
    image_ids, labels, rows = [], [], []
    for i, row in enumerate(body):
        if len(row) != d + 2:
            raise ConsistencyError(f"{path}: row {i} has {len(row)} fields, want {d + 2}")
        image_ids.append(row[0])
        labels.append(row[1])
        try:
            rows.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise FormatError(f"{path}: row {i}: {exc}") from exc
    if not rows:
        raise ConsistencyError(f"{path}: no data rows")
    values = np.array(rows, dtype=np.float64)
    over = np.abs(values) > np.finfo(np.float32).max  # inf after the cast to float32
    if over.any():
        i, j = np.argwhere(over)[0]
        raise DataError(f"{path}: row {i}: value {body[i][j + 2]!r} is beyond the float32 range")
    return EmbeddingSet(model_name, dataset_name, values.astype(np.float32), image_ids, labels)


def shared_rows(a: EmbeddingSet, b: EmbeddingSet):
    """Row indexes ``(ra, rb)`` of the image ids a and b share, in lexicographic id order.

    ``a.image_ids[ra[k]] == b.image_ids[rb[k]]`` for every k.  This is the
    one place that pairs rows by image id.  Labels must agree per image id;
    a conflict raises ``LabelConflictError`` naming the first conflicting
    image in id order.  Two sets that list the same image ids in the same
    order are paired by ``a``'s id sort order, computed once per set, and
    their labels compared as tuples; every other pair goes through a
    dict of ``b``'s ids.
    """
    if a.image_ids == b.image_ids:
        order = a._id_order
        if a.labels != b.labels:
            i = next(i for i in order if a.labels[i] != b.labels[i])
            raise LabelConflictError(
                f"image {a.image_ids[i]!r}: label {a.labels[i]!r} vs {b.labels[i]!r}"
            )
        return list(order), list(order)
    b_index = {iid: i for i, iid in enumerate(b.image_ids)}
    shared = sorted((iid, i) for i, iid in enumerate(a.image_ids) if iid in b_index)
    if not shared:
        raise EmptyIntersectionError(
            f"no shared image ids between {a.model_name!r} and {b.model_name!r}"
        )
    ra = [i for _, i in shared]
    rb = [b_index[iid] for iid, _ in shared]
    for (iid, i), j in zip(shared, rb):
        la, lb = a.labels[i], b.labels[j]
        if la != lb:
            raise LabelConflictError(f"image {iid!r}: label {la!r} vs {lb!r}")
    return ra, rb


def intersect_on_images(a: EmbeddingSet, b: EmbeddingSet):
    """Restrict both sets to their shared image ids (:func:`shared_rows`).

    Row pairing between the two outputs is positional.
    """
    ra, rb = shared_rows(a, b)
    ids = [a.image_ids[i] for i in ra]
    return tuple(
        EmbeddingSet(s.model_name, s.dataset_name, s.rows[rows], ids, [s.labels[i] for i in rows])
        for s, rows in ((a, ra), (b, rb))
    )
