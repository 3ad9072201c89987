"""Seeded synthetic workloads with known-answer checks on the CLI's reports.

Each workload writes its inputs from one seed with ``embalign.synth``,
names the CLI command that consumes them, and checks the report that
command writes against the structure planted in the inputs.  The CLI
receives only the generated files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from embalign import embedstore, synth

INTRINSIC_DIM = 16


@dataclass(frozen=True)
class Inputs:
    """Generated input files and the CLI arguments that read them."""

    argv: list  # CLI arguments without --out-dir
    paths: list  # every embedding file the CLI loads


@dataclass(frozen=True)
class Workload:
    name: str
    item_unit: str  # what one item of items_per_s is
    report: str  # canonical JSON report the CLI writes into --out-dir
    generate: Callable[[int, str], Inputs]
    items: Callable[[dict], int]  # work done, read from the report
    check: Callable[[dict], list]  # report -> problems; empty when correct


def _save(es, directory, stem):
    path = os.path.join(directory, stem + ".emb")
    embedstore.save_embeddings(es, path, "binary")
    return path


def _view_seed(seed, k):
    return seed * 1000 + k


def _band(problems, what, value, lo, hi):
    if not lo <= value <= hi:
        problems.append(f"{what} = {value!r}, planted band [{lo}, {hi}]")


# --- ident-10k --------------------------------------------------------------
# One 1000 x 10 cloud seen through two orthogonal views of different width.
# The spread makes neighbouring identities overlap, so aligned mAP sits well
# below 1; Rank-1 stays 1 because each query's own image is in the gallery.

IDENT_QUERIES = 3000  # 30% of 1000 identities, 10 images each, one seed
IDENT_MAP_BAND = (0.70, 0.85)  # seeds 0-27 gave 0.747-0.791
IDENT_BASELINE_RANK1_MAX = 0.03  # chance is 10 / 3000; seeds 0-27 gave at most 0.011


def _gen_ident(seed, directory):
    cloud = synth.generate_identity_cloud(1000, 10, INTRINSIC_DIM, spread=0.6, seed=seed)
    src = _save(synth.embed_view(cloud, 512, _view_seed(seed, 0), noise=0.01,
                                 model_name="src"), directory, "src")
    tgt = _save(synth.embed_view(cloud, 256, _view_seed(seed, 1), noise=0.01,
                                 model_name="tgt"), directory, "tgt")
    argv = ["eval-id", "--source", src, "--target", tgt, "--method", "procrustes",
            "--seeds", "0", "--jobs", "1"]
    return Inputs(argv, [src, tgt])


def _ident_items(doc):
    return sum(s["n_queries"] for s in doc["metrics"]["aligned"]["per_seed"])


def _check_ident(doc):
    problems = []
    m = doc["metrics"]
    if _ident_items(doc) != IDENT_QUERIES:
        problems.append(f"{_ident_items(doc)} queries ranked, expected {IDENT_QUERIES}")
    _band(problems, "aligned mAP", m["aligned"]["summary"]["map"]["mean"], *IDENT_MAP_BAND)
    _band(problems, "baseline Rank-1", m["baseline"]["summary"]["rank_k"]["1"]["mean"],
          0.0, IDENT_BASELINE_RANK1_MAX)
    return problems


# --- verif-cross ------------------------------------------------------------
# Cross protocol: the map is fit on a disjoint 2000 x 10 training cloud seen
# through the same two view maps, then pairs are scored on a 1000 x 10
# evaluation cloud.  Training ids and labels carry a prefix so the two sets
# share neither image ids nor identities.  The pair caps are a quarter of the
# CLI's defaults: the per-pair Python loops drift most with the speed of a
# shared machine, and smaller caps make the vectorized fit the larger share.

VERIF_SEEDS = (0, 1, 2)
VERIF_EVAL_IDS, VERIF_TRAIN_IDS = 1000, 2000
VERIF_DIMS = (512, 256)  # source, target
VERIF_PAIR_CAP = 2500  # genuine and impostor pairs each, per seed
# Unrelated view maps still correlate the views slightly, by an amount fixed
# per seed that shrinks as 1/sqrt(intrinsic dim); at 16 dims the baseline
# AUC ranged 0.34-0.66 over 29 seeds, at 64 dims 0.46-0.58 over 12.
VERIF_INTRINSIC_DIM = 64
VERIF_BASELINE_AUC_BAND = (0.38, 0.62)
VERIF_ALIGNED_AUC_MIN = 0.9
_TRAIN_PREFIX = "train_"
_TRAIN_CLOUD_OFFSET = 1_000_003  # keeps training clouds apart from eval clouds


def _prefixed(es, prefix):
    return embedstore.EmbeddingSet(
        es.model_name, es.dataset_name, es.rows,
        [prefix + i for i in es.image_ids], [prefix + l for l in es.labels],
    )


def _gen_verif(seed, directory):
    paths = {}
    for part, n_ids, cloud_seed in (("eval", VERIF_EVAL_IDS, seed),
                                    ("train", VERIF_TRAIN_IDS, seed + _TRAIN_CLOUD_OFFSET)):
        cloud = synth.generate_identity_cloud(n_ids, 10, VERIF_INTRINSIC_DIM, spread=0.6,
                                              seed=cloud_seed)
        for side, dim, k in zip(("src", "tgt"), VERIF_DIMS, (0, 1)):
            es = synth.embed_view(cloud, dim, _view_seed(seed, k), noise=0.01,
                                  model_name=side)
            if part == "train":
                es = _prefixed(es, _TRAIN_PREFIX)
            paths[part, side] = _save(es, directory, f"{part}_{side}")
    check_disjoint(paths["train", "src"], paths["eval", "src"])
    argv = ["eval-verif",
            "--source", paths["eval", "src"], "--target", paths["eval", "tgt"],
            "--train-source", paths["train", "src"],
            "--train-target", paths["train", "tgt"],
            "--method", "linear", "--symmetric-score",
            "--genuine-cap", str(VERIF_PAIR_CAP), "--impostor-cap", str(VERIF_PAIR_CAP),
            "--seeds", ",".join(map(str, VERIF_SEEDS)), "--jobs", "1"]
    return Inputs(argv, list(paths.values()))


def check_disjoint(train_path, eval_path):
    """Raise if two embedding files share an image id or an identity."""
    a = embedstore.load_embeddings(train_path)
    b = embedstore.load_embeddings(eval_path)
    if set(a.image_ids) & set(b.image_ids) or set(a.labels) & set(b.labels):
        raise ValueError(f"{train_path} and {eval_path} overlap")


def _verif_items(doc):
    return sum(s["n_genuine"] + s["n_impostor"]
               for s in doc["metrics"]["aligned"]["per_seed"])


def _check_verif(doc):
    problems = []
    m = doc["metrics"]
    expected = 2 * VERIF_PAIR_CAP * len(VERIF_SEEDS)
    if _verif_items(doc) != expected:
        problems.append(f"{_verif_items(doc)} pairs scored, expected {expected}")
    if m["protocol"] != "cross":
        problems.append(f"protocol {m['protocol']!r}, expected 'cross'")
    aligned = m["aligned"]["summary"]["auc"]["mean"]
    base = m["baseline"]["summary"]["auc"]["mean"]
    if not aligned > base:
        problems.append(f"aligned AUC {aligned} does not exceed baseline AUC {base}")
    _band(problems, "aligned AUC", aligned, VERIF_ALIGNED_AUC_MIN, 1.0)
    _band(problems, "baseline AUC", base, *VERIF_BASELINE_AUC_BAND)
    return problems


# --- matrix-m6 --------------------------------------------------------------
# Six views of one 100 x 10 cloud.  Views 0-3 are noise-free or lightly
# noisy and align with each other perfectly; view 4 carries moderate noise,
# so cells into it are high but short of 100; view 5 is mostly noise, so
# every off-diagonal cell in its row and column is near chance (10 / 300).

MATRIX_VIEWS = (  # (dim, map kind, noise)
    (64, "orthogonal", 0.0),
    (128, "orthogonal", 0.0),
    (256, "general_linear", 0.0),
    (64, "general_linear", 0.5),
    (128, "orthogonal", 1.0),
    (256, "orthogonal", 4.0),
)
MATRIX_SEEDS = (0, 1)
MATRIX_IDS = 100
MATRIX_CLEAN = range(4)
MATRIX_NOISY, MATRIX_CHANCE = 4, 5
MATRIX_CLEAN_MIN = 99.0
MATRIX_NOISY_BAND = (75.0, 98.5)  # seeds 0-7 gave 85-92
MATRIX_CHANCE_MAX = 25.0


def _gen_matrix(seed, directory):
    cloud = synth.generate_identity_cloud(MATRIX_IDS, 10, INTRINSIC_DIM, spread=0.3, seed=seed)
    paths = [
        _save(synth.embed_view(cloud, dim, _view_seed(seed, k), noise=noise,
                               map_kind=kind, model_name=f"view{k}"),
              directory, f"view{k}")
        for k, (dim, kind, noise) in enumerate(MATRIX_VIEWS)
    ]
    argv = ["matrix", "--inputs", *paths, "--method", "procrustes",
            "--seeds", ",".join(map(str, MATRIX_SEEDS)), "--jobs", "2"]
    return Inputs(argv, paths)


def _matrix_items(doc):
    cells = sum(v is not None for row in doc["metrics"]["rank1"] for v in row)
    return cells * len(MATRIX_SEEDS)


def _check_matrix(doc):
    problems = []
    r = doc["metrics"]["rank1"]
    m = len(MATRIX_VIEWS)
    if len(r) != m or any(len(row) != m for row in r):
        return [f"matrix is not {m} x {m}"]
    missing = [(i, j) for i in range(m) for j in range(m) if r[i][j] is None]
    if missing:
        return [f"missing cells {missing}"]
    for i in range(m):
        if r[i][i] != 100.0:
            problems.append(f"diagonal cell {i} = {r[i][i]}, expected 100")
    for i in MATRIX_CLEAN:
        for j in MATRIX_CLEAN:
            _band(problems, f"clean cell {i}->{j}", r[i][j], MATRIX_CLEAN_MIN, 100.0)
        _band(problems, f"noisy cell {i}->{MATRIX_NOISY}", r[i][MATRIX_NOISY],
              *MATRIX_NOISY_BAND)
    for k in range(m):
        if k != MATRIX_CHANCE:
            _band(problems, f"chance cell {k}->{MATRIX_CHANCE}", r[k][MATRIX_CHANCE],
                  0.0, MATRIX_CHANCE_MAX)
            _band(problems, f"chance cell {MATRIX_CHANCE}->{k}", r[MATRIX_CHANCE][k],
                  0.0, MATRIX_CHANCE_MAX)
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ident-10k", "ranked queries", "identification_report.json",
                 _gen_ident, _ident_items, _check_ident),
        Workload("verif-cross", "scored pairs", "verification_report.json",
                 _gen_verif, _verif_items, _check_verif),
        Workload("matrix-m6", "evaluated (cell, seed) pairs", "compatibility_matrix.json",
                 _gen_matrix, _matrix_items, _check_matrix),
    )
}


def check_report(workload: Workload, out_dir: str) -> list:
    """Problems with the report in out_dir; empty when it is correct."""
    path = os.path.join(out_dir, workload.report)
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        return [f"report missing: {exc}"]
    except ValueError as exc:
        return [f"report does not parse: {exc}"]
    try:
        return workload.check(doc)
    except (KeyError, TypeError, IndexError) as exc:
        return [f"report lacks an expected field: {exc!r}"]
