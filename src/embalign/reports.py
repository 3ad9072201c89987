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
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    return h.hexdigest()


def provenance(config: dict, input_paths) -> dict:
    return {
        "tool_version": TOOL_VERSION,
        "input_hashes": {p: file_sha256(p) for p in input_paths},
        "config": _canon(config),
    }


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


class AlignedBaselineReport:
    """Per-seed results of the aligned map (``per_seed``) and of the baseline.

    Subclasses are dataclasses with ``seeds``, ``per_seed`` and
    ``per_seed_baseline`` fields and a ``_summary(results)`` class method.
    """

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


def write_report(path: str, config: dict, protocol: str, body: dict, input_paths=()):
    """Emit the standard report envelope as canonical JSON."""
    doc = {
        "config": _canon(config),
        "protocol": protocol,
        **body,
        "provenance": provenance(config, input_paths),
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
