"""In-memory span recorder that wraps embalign's public functions from outside.

A span records a layer call: name, start, end, the span that caused it, and
counts derived from the call's arguments or result.
Each thread keeps its own parent stack.  A span opened on a thread with an
empty stack (a ``--jobs`` worker) takes as parent the innermost span open
on the thread that installed the recorder, which is the call that started
the pool.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Recorder:
    """Collects spans from wrapped functions; safe to use from many threads."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._stacks = {}
        self._origin = threading.get_ident()

    def _stack(self):
        return self._stacks.setdefault(threading.get_ident(), [])

    def _parent(self, stack):
        if stack:
            return stack[-1].id
        origin = self._stacks.get(self._origin)
        return origin[-1].id if origin else None

    def wrap(self, name, fn, count=None):
        """Return fn wrapped so each call records one span named name.

        count(result, *args, **kwargs) -> dict of numbers, evaluated after
        the span has ended so its cost stays out of the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            span = Span(sid, name, self._parent(stack), 0.0)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        return traced


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> duration minus the part of it that child spans cover.

    Children on parallel threads may overlap each other; the covered part is
    the union of their intervals clipped to the parent's.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children[s.id]
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - _union_length(clipped)
    return out


# --- the layers and their counts --------------------------------------------


def _file_bytes(result, path, *args, **kwargs):
    """Size of the file named by the first argument, read or just written."""
    return {"bytes": os.path.getsize(path)}


def _rows_and_content(result, rows, *args, **kwargs):
    a = np.ascontiguousarray(rows)
    digest = hashlib.blake2b(a.data, digest_size=16)
    digest.update(repr((a.shape, a.dtype.str)).encode())
    return {"rows": a.shape[0], "content": digest.hexdigest()}


def _first_arg_rows(result, x, *args, **kwargs):
    return {"rows": np.shape(x)[0]}


def _result_pairs(result, *args, **kwargs):
    return {"pairs": len(result.pairs)}


def _cells(result, queries, gallery, *args, **kwargs):
    return {"cells": np.shape(queries)[0] * np.shape(gallery)[0]}


def _pairs_arg(result, aligned_source, target, pairs, *args, **kwargs):
    return {"pairs": len(pairs.pairs)}


def _roc_points(result, *args, **kwargs):
    return {"points": len(result)}


def _missing(result, *args, **kwargs):
    return {"cells_missing": float(np.isnan(result.rank1).mean())}


#: (module, function, count function or None) for every wrapped layer call
LAYERS = (
    ("embedstore", "load_embeddings", _file_bytes),
    ("embedstore", "intersect_on_images", None),
    ("prep", "l2_normalize", _rows_and_content),
    ("prep", "apply_prep", None),
    ("prep", "fit_prep", None),
    ("splits", "identity_disjoint_split", None),
    ("splits", "all_genuine_pairs", None),
    ("splits", "sample_impostor_pairs", _result_pairs),
    ("splits", "sample_pairs_capped", None),
    ("align", "fit_map", _first_arg_rows),
    ("ident_eval", "evaluate_identification", None),
    ("ident_eval", "score_matrix", _cells),
    ("ident_eval", "rank_k_accuracy", None),
    ("ident_eval", "mean_average_precision", None),
    ("ident_eval", "cmc_curve", None),
    ("verif_eval", "evaluate_verification", None),
    ("verif_eval", "pair_scores", _pairs_arg),
    ("verif_eval", "roc_curve", _roc_points),
    ("verif_eval", "tmr_at_fmr", None),
    ("verif_eval", "auc", None),
    ("verif_eval", "eer", None),
    ("analysis", "build_compatibility_matrix", _missing),
    ("reports", "write_report", _file_bytes),
    ("reports", "write_csv", None),
    ("cli", "main", None),
)

RANK_CALLS = ("ident_eval.rank_k_accuracy", "ident_eval.mean_average_precision",
              "ident_eval.cmc_curve")


def install(recorder):
    """Wrap every layer function in each package module that holds it.

    Modules that imported a function by name hold their own reference, so
    the wrapper replaces the original wherever it appears.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "embalign" or n.startswith("embalign."))]
    for mod_name, fn_name, count in LAYERS:
        original = getattr(sys.modules[f"embalign.{mod_name}"], fn_name)
        wrapped = recorder.wrap(f"{mod_name}.{fn_name}", original, count)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapped)


# --- per-layer metrics -------------------------------------------------------

#: metric name -> unit, in the order they are reported
LAYER_METRICS = {
    "embedstore.load_embeddings.self_s": "s",
    "embedstore.load_embeddings.bytes": "bytes",
    "embedstore.intersect_on_images.self_s": "s",
    "embedstore.intersect_on_images.calls": "count",
    "prep.l2_normalize.self_s": "s",
    "prep.l2_normalize.rows": "count",
    "prep.l2_normalize.redundancy": "ratio",
    "prep.apply_prep.self_s": "s",
    "prep.apply_prep.calls": "count",
    "prep.fit_prep.self_s": "s",
    "splits.identity_disjoint_split.self_s": "s",
    "splits.identity_disjoint_split.calls": "count",
    "splits.all_genuine_pairs.self_s": "s",
    "splits.sample_impostor_pairs.self_s": "s",
    "splits.sample_impostor_pairs.pairs": "count",
    "splits.sample_pairs_capped.self_s": "s",
    "align.fit_map.self_s": "s",
    "align.fit_map.calls": "count",
    "align.fit_map.rows": "count",
    "ident_eval.evaluate_identification.self_s": "s",
    "ident_eval.evaluate_identification.calls": "count",
    "ident_eval.score_matrix.self_s": "s",
    "ident_eval.score_matrix.calls": "count",
    "ident_eval.score_matrix.cells": "count",
    "ident_eval.rank_k_accuracy.self_s": "s",
    "ident_eval.mean_average_precision.self_s": "s",
    "ident_eval.cmc_curve.self_s": "s",
    "ident_eval.rank_calls_per_score": "ratio",
    "verif_eval.evaluate_verification.self_s": "s",
    "verif_eval.pair_scores.self_s": "s",
    "verif_eval.pair_scores.pairs": "count",
    "verif_eval.roc_curve.self_s": "s",
    "verif_eval.roc_curve.points": "count",
    "verif_eval.tmr_at_fmr.self_s": "s",
    "verif_eval.tmr_at_fmr.calls": "count",
    "verif_eval.auc.self_s": "s",
    "verif_eval.eer.self_s": "s",
    "analysis.build_compatibility_matrix.self_s": "s",
    "analysis.build_compatibility_matrix.cells_missing": "ratio",
    "reports.write_report.self_s": "s",
    "reports.write_report.bytes": "bytes",
    "reports.write_csv.self_s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_s": "s",
}


def layer_metrics(spans):
    """Aggregate spans into every per-layer metric except trace_overhead_s.

    A layer that did not run reports 0 for each of its metrics.
    """
    selfs = self_times(spans)
    sums = defaultdict(float)
    content_rows = {}
    for s in spans:
        sums[f"{s.name}.self_s"] += selfs[s.id]
        sums[f"{s.name}.calls"] += 1
        for key, value in s.counts.items():
            if key == "content":
                content_rows[value] = s.counts["rows"]
            else:
                sums[f"{s.name}.{key}"] += value
    distinct = sum(content_rows.values())
    sums["prep.l2_normalize.redundancy"] = (
        sums["prep.l2_normalize.rows"] / distinct if distinct else 0.0)
    scores = sums["ident_eval.score_matrix.calls"]
    sums["ident_eval.rank_calls_per_score"] = (
        sum(sums[f"{n}.calls"] for n in RANK_CALLS) / scores if scores else 0.0)
    return {name: sums[name] for name in LAYER_METRICS if name != "trace_overhead_s"}


def spans_to_json(spans):
    return [[s.id, s.name, s.parent, s.start, s.end, s.counts] for s in spans]


def spans_from_json(rows):
    return [Span(*row) for row in rows]
