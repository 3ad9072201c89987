"""Canonical report emission: deterministic JSON/CSV with atomic writes.

Floats are fixed at 9 significant digits so identical runs produce
byte-identical files.  Every summary across seeds is :func:`mean_std`,
and :func:`pair_metadata` gives the metadata keys that every
aligned/baseline report shares.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import threading

import numpy as np

from .errors import IoError

TOOL_VERSION = "0.1.0"


def _canon(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    return value


def canonical_json(obj) -> str:
    """Serialize with sorted keys and 9-significant-digit floats."""
    return json.dumps(_canon(obj), sort_keys=True, indent=2) + "\n"


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temporary file, which a failure removes."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise IoError(str(exc)) from exc


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            # one small buffer, reused: a fresh 1 MiB bytes object per read stays
            # resident in the hashing thread's malloc arena (+1.8 MB on `matrix`)
            buf = bytearray(1 << 16)
            view = memoryview(buf)
            while n := f.readinto(buf):
                h.update(view[:n])
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return h.hexdigest()


class Beside:
    """``fn(*args)``, run on a thread named ``name`` from creation on.

    :meth:`result` waits for the thread.  Used as a context manager, the
    object also waits for it when the block is left, also when the block
    fails; the block's error is then the one raised.
    """

    def __init__(self, name: str, fn, *args):
        self._value = self._error = None
        self._thread = threading.Thread(target=self._run, args=(fn, args), name=name)
        self._thread.start()

    def _run(self, fn, args):
        try:
            self._value = fn(*args)
        except Exception as exc:  # raised by result(), on the thread that reads it
            self._error = exc

    def result(self):
        """What ``fn`` returned, once it has; else the error it raised."""
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._value

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._thread.join()


def mean_std(values):
    """Mean and sample std (ddof 1, or 0 for a single value) over the first axis."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std(axis=0, ddof=1) if len(values) > 1 else np.zeros(values.shape[1:])
    return values.mean(axis=0), std


def pair_metadata(source, target, method: str, alpha: float) -> dict:
    """Model and dataset names of an evaluated pair, and alpha (0 unless ridge)."""
    return {
        "source_model": source.model_name,
        "target_model": target.model_name,
        "dataset": source.dataset_name,
        "alpha": alpha if method == "ridge" else 0.0,
    }


@dataclasses.dataclass(frozen=True)
class AlignedBaselineReport:
    """Per-seed results of the aligned map (``per_seed``) and of the unaligned baseline.

    ``per_seed_split`` holds each seed's :class:`splits.SplitSpec` in seed order (none for a
    fixed map) and takes no part in equality.  Subclasses add fields and ``_summary(results)``.
    """

    method: str
    seeds: tuple
    per_seed: tuple
    per_seed_baseline: tuple
    fraction: float
    per_seed_split: tuple = dataclasses.field(default=(), compare=False)
    metadata: dict = dataclasses.field(default_factory=dict)

    @classmethod
    def from_seeds(cls, results, **fields):
        """The report of a seed loop's (aligned, baseline, split) triples and ``fields``; its
        seeds are the aligned results' seeds, and a ``None`` split (fixed map) is left out."""
        aligned, base, splits = zip(*results)
        return cls(seeds=tuple(r.seed for r in aligned), per_seed=aligned, per_seed_baseline=base,
                   per_seed_split=tuple(s for s in splits if s is not None), **fields)

    @property
    def summary(self):
        return self._summary(self.per_seed)

    @property
    def baseline_summary(self):
        return self._summary(self.per_seed_baseline)

    @staticmethod
    def _scalar(values) -> dict:
        mean, std = mean_std(values)
        return {"mean": float(mean), "std": float(std)}

    def to_dict(self) -> dict:
        """Every field but the per-seed ones, then each side's per-seed results and summary."""
        out = {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self) if not f.name.startswith("per_seed")
        }
        out["seeds"] = list(self.seeds)
        for side, results in (("aligned", self.per_seed), ("baseline", self.per_seed_baseline)):
            out[side] = {"per_seed": [r.to_dict() for r in results],
                         "summary": self._summary(results)}
        return out


def write_report(path: str, config: dict, protocol: str, body: dict, inputs: Beside):
    """Emit the standard report envelope as canonical JSON, with the input hashes that the
    :class:`Beside` ``inputs`` gives as ``{path: hex digest}``."""
    doc = {
        "config": _canon(config),
        "protocol": protocol,
        **body,
        "provenance": {"tool_version": TOOL_VERSION, "input_hashes": inputs.result(),
                       "config": _canon(config)},
    }
    atomic_write(path, canonical_json(doc).encode("utf-8"))


def write_csv(path: str, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(f"{v:.9g}" if isinstance(v, float) else str(v) for v in row)
        )
    atomic_write(path, ("\n".join(lines) + "\n").encode("utf-8"))


def cmc_csv_rows(summary: dict):
    """rank, accuracy_mean, accuracy_std rows from a retrieval summary."""
    mean = summary["cmc"]["mean"]
    std = summary["cmc"]["std"]
    return [(k + 1, float(m), float(s)) for k, (m, s) in enumerate(zip(mean, std))]


def roc_csv_rows(summary: dict):
    """fmr, tmr rows of the vertically averaged ROC."""
    grid = summary["roc_grid"]
    return [(float(f), float(t)) for f, t in zip(grid["fmr"], grid["tmr_mean"])]
