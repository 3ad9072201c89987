"""Command-line entry point.

Subcommands: synth, fit, eval-id, eval-verif, matrix, cluster, sweep.
The env var ``EMBALIGN_SEEDS`` (comma-separated) overrides the default
seed list {0..4}; an explicit ``--seeds`` flag overrides both.  The map
of the ``eval-verif`` cross protocol is fit here and handed to the evaluator.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import align, analysis, embedstore, ident_eval, reports, splits, synth, verif_eval
from .errors import ArgumentError, EmbalignError, FormatError, IoError


# run-environment knobs that must not leak into reports: identical inputs
# have to produce byte-identical output regardless of where it goes
_NON_CONFIG = ("func", "out", "out_dir", "jobs", "dump_splits")


def _config(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in _NON_CONFIG}


def _write_report(args, name, protocol, metrics, inputs):
    """Write the report ``name`` into ``--out-dir``, which is made if needed."""
    os.makedirs(args.out_dir, exist_ok=True)
    reports.write_report(os.path.join(args.out_dir, name), _config(args), protocol,
                         {"metrics": metrics}, input_paths=inputs)


def _parse_list(text: str, kind, what: str) -> list:
    try:
        return [kind(s) for s in text.split(",")]
    except ValueError:
        raise ArgumentError(
            f"{what} must be a comma-separated list of {kind.__name__}, got {text!r}"
        ) from None


def _seed_list(args) -> list:
    """The checked seed list, so a bad one fails before any fit."""
    if getattr(args, "seeds", None) is not None:
        return splits.check_seeds(_parse_list(args.seeds, int, "--seeds"))
    env = os.environ.get("EMBALIGN_SEEDS")
    if env:
        return splits.check_seeds(_parse_list(env, int, "EMBALIGN_SEEDS"))
    return list(splits.DEFAULT_SEEDS)


def _model_name(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _load(path: str, fmt: str) -> embedstore.EmbeddingSet:
    return embedstore.load_embeddings(path, fmt, model_name=_model_name(path))


def _add_fit_args(p):
    p.add_argument("--format", default="binary", choices=("binary", "csv"))
    p.add_argument("--method", default="procrustes", choices=align.METHODS)
    p.add_argument("--alpha", type=float, default=align.DEFAULT_RIDGE_ALPHA,
                   help="ridge regularization weight")
    p.add_argument("--train-frac", type=float, default=0.7)


def _add_pair_args(p):
    p.add_argument("--source", required=True, help="source embedding file")
    p.add_argument("--target", required=True, help="target embedding file")
    _add_fit_args(p)


def _add_run_args(p):
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--out-dir", required=True)


def _add_jobs_arg(p):
    p.add_argument("--jobs", type=int, default=1,
                   help="at least 1, ignored: seeds run on one thread, as BLAS uses every "
                        "core (measured on 2 cores only: two seed threads were slower)")


def _add_eval_args(p):
    _add_pair_args(p)
    _add_run_args(p)
    _add_jobs_arg(p)
    p.add_argument("--dump-splits", action="store_true",
                   help="also write the per-seed splits as JSON")


def cmd_synth(args):
    if args.views < 1:
        raise ArgumentError(f"--views must be at least 1, got {args.views}")
    cloud = synth.generate_identity_cloud(
        args.ids, args.per_id, args.intrinsic_dim,
        center_scale=args.center_scale, spread=args.spread, seed=args.seed,
    )
    written = []
    for v in range(args.views):
        view = synth.embed_view(
            cloud, args.dim, view_seed=args.seed * 1000 + v,
            noise=args.noise, map_kind=args.map_kind,
            model_name=f"view{v}",
        )
        # made after the first view, so a bad view argument leaves no directory
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"view{v}.emb")
        embedstore.save_embeddings(view, path, "binary")
        written.append(path)
    for path in written:
        print(path)
    return 0


def cmd_fit(args):
    a = _load(args.source, args.format)
    b = _load(args.target, args.format)
    labels, ra, rb = align.pair_sets(a, b)
    train = list(splits.identity_disjoint_split(labels, args.train_frac, args.seed).train_rows)
    amap = align.fit_sides(
        align.prepare_side(a.rows, ra[train]), align.prepare_side(b.rows, rb[train]),
        args.method, args.alpha, seed=args.seed, source_model=a.model_name,
        target_model=b.model_name,
    )
    align.save_map(amap, args.out)
    print(args.out)
    return 0


def _cross_map(args):
    """The cross protocol's map, fit on every shared training row; its sets are freed on return."""
    a, b = (_load(p, args.format) for p in (args.train_source, args.train_target))
    _, ra, rb = align.pair_sets(a, b)
    return align.fit_sides(align.prepare_side(a.rows, ra), align.prepare_side(b.rows, rb),
                           args.method, args.alpha)


def _dump_splits(out_dir, source, target, fraction, seeds, tag):
    labels = align.pair_sets(source, target)[0]
    doc = {
        str(seed): splits.identity_disjoint_split(labels, fraction, seed).to_dict()
        for seed in seeds
    }
    path = os.path.join(out_dir, f"{tag}_splits.json")
    reports.atomic_write(path, reports.canonical_json(doc).encode("utf-8"))


def cmd_eval_id(args):
    a = _load(args.source, args.format)
    b = _load(args.target, args.format)
    seeds = _seed_list(args)
    report = ident_eval.evaluate_identification(
        a, b, method=args.method, seeds=seeds, fraction=args.train_frac,
        alpha=args.alpha, exclude_self=args.exclude_self,
    )
    _write_report(args, "identification_report.json", "identification", report.to_dict(),
                  [args.source, args.target])
    reports.write_csv(
        os.path.join(args.out_dir, "cmc.csv"),
        ["rank", "accuracy_mean", "accuracy_std"],
        reports.cmc_csv_rows(report.summary),
    )
    if args.dump_splits:
        _dump_splits(args.out_dir, a, b, args.train_frac, seeds, "eval_id")
    return 0


def cmd_eval_verif(args):
    cross = args.train_source is not None or args.train_target is not None
    if cross and (args.train_source is None or args.train_target is None):
        raise ArgumentError("--train-source and --train-target must be given together")
    if cross and args.dump_splits:
        raise ArgumentError("--dump-splits: the cross protocol does not split its data")
    a = _load(args.source, args.format)
    b = _load(args.target, args.format)
    seeds = _seed_list(args)
    amap = _cross_map(args) if cross else None
    report = verif_eval.evaluate_verification(
        a, b, method=args.method, seeds=seeds, fraction=args.train_frac, alpha=args.alpha,
        pair_caps=(args.genuine_cap, args.impostor_cap) if cross else None, amap=amap,
        symmetric_score=args.symmetric_score,
    )
    _write_report(args, "verification_report.json", "verification", report.to_dict(),
                  [args.source, args.target])
    reports.write_csv(
        os.path.join(args.out_dir, "roc.csv"),
        ["fmr", "tmr"],
        reports.roc_csv_rows(report.summary),
    )
    if args.dump_splits:
        _dump_splits(args.out_dir, a, b, args.train_frac, seeds, "eval_verif")
    return 0


def cmd_matrix(args):
    paths = {}
    for path in args.inputs:
        name = _model_name(path)
        if name in paths:
            raise ArgumentError(
                f"--inputs {paths[name]} and {path} both give the model name {name!r}"
            )
        paths[name] = path
    sets = [_load(p, args.format) for p in args.inputs]
    seeds = _seed_list(args)
    cm = analysis.build_compatibility_matrix(
        sets, method=args.method, seeds=seeds, fraction=args.train_frac, alpha=args.alpha,
    )
    _write_report(args, "compatibility_matrix.json", "compatibility_matrix", cm.to_dict(),
                  args.inputs)
    header = ["model"] + list(cm.model_names)
    rows = [
        [name] + [float(v) if not np.isnan(v) else "missing" for v in cm.rank1[i]]
        for i, name in enumerate(cm.model_names)
    ]
    reports.write_csv(os.path.join(args.out_dir, "compatibility_matrix.csv"), header, rows)
    return 0


def _matrix_entry(v, path):
    if v is None:
        return np.nan
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            return float(v)
        except OverflowError:
            pass
    raise FormatError(f"{path}: 'rank1' entries must be numbers or null")


def _read_matrix(path: str) -> analysis.CompatibilityMatrix:
    """Load the compatibility matrix from a ``matrix`` report (or its metrics)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise IoError(str(exc)) from exc
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise FormatError(f"{path}: not a JSON document: {exc}") from exc
    metrics = doc.get("metrics", doc) if isinstance(doc, dict) else None
    if not isinstance(metrics, dict):
        raise FormatError(f"{path}: expected a JSON object")
    names, rank1 = metrics.get("model_names"), metrics.get("rank1")
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise FormatError(f"{path}: 'model_names' must be a list of strings")
    if not (isinstance(rank1, list)
            and all(isinstance(row, list) and len(row) == len(names) for row in rank1)):
        raise FormatError(f"{path}: 'rank1' must be a list of rows of {len(names)} entries")
    values = [[_matrix_entry(v, path) for v in row] for row in rank1]
    return analysis.CompatibilityMatrix(
        names,
        np.array(values, dtype=np.float64).reshape(len(rank1), len(names)),
        metrics.get("dataset", ""),
        metrics.get("method", "procrustes"),
    )


def cmd_cluster(args):
    cm = _read_matrix(args.matrix)
    names = list(cm.model_names)
    sym = analysis.symmetrize(cm)
    dend = analysis.agglomerative_cluster(sym, linkage=args.linkage, model_names=names)
    asym = analysis.asymmetry_stats(cm)
    _write_report(args, "cluster_report.json", "clustering",
                  {"dendrogram": dend.to_dict(), "asymmetry": asym}, [args.matrix])
    newick = (dend.to_newick() + "\n").encode("utf-8")
    reports.atomic_write(os.path.join(args.out_dir, "dendrogram.newick"), newick)
    return 0


def cmd_sweep(args):
    a = _load(args.source, args.format)
    b = _load(args.target, args.format)
    seeds = _seed_list(args)
    fractions = _parse_list(args.fractions, float, "--fractions")
    methods = tuple(args.methods.split(","))
    table = analysis.training_size_sweep(
        a, b, fractions, seeds=seeds, methods=methods,
        base_fraction=args.train_frac, alpha=args.alpha,
    )
    _write_report(args, "sweep_report.json", "training_size_sweep", table,
                  [args.source, args.target])
    reports.write_csv(
        os.path.join(args.out_dir, "sweep.csv"),
        ["method", "fraction", "rank1_mean", "rank1_std"],
        [
            (r["method"], float(r["fraction"]), float(r["rank1_mean"]), float(r["rank1_std"]))
            for r in table["summary"]
        ],
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embalign",
        description="Fit and evaluate linear maps between embedding spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic embedding views")
    p.add_argument("--ids", type=int, default=100)
    p.add_argument("--per-id", type=int, default=10)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--intrinsic-dim", type=int, default=16)
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--center-scale", type=float, default=1.0)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--map-kind", default="orthogonal",
                   choices=("orthogonal", "general_linear"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("fit", help="fit an alignment map on a train split")
    _add_pair_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval-id", help="identification protocol (Rank-k, mAP, CMC)")
    _add_eval_args(p)
    p.add_argument("--exclude-self", action="store_true",
                   help="drop the query's own image from the gallery")
    p.set_defaults(func=cmd_eval_id)

    p = sub.add_parser("eval-verif", help="verification protocol (AUC, EER, TMR@FMR)")
    _add_eval_args(p)
    p.add_argument("--symmetric-score", action="store_true",
                   help="average both scoring directions")
    p.add_argument("--train-source", help="fit on this source set (cross-dataset)")
    p.add_argument("--train-target", help="fit on this target set (cross-dataset)")
    p.add_argument("--genuine-cap", type=int, default=10000)
    p.add_argument("--impostor-cap", type=int, default=10000)
    p.set_defaults(func=cmd_eval_verif)

    p = sub.add_parser("matrix", help="pairwise Rank-1 compatibility matrix")
    p.add_argument("--inputs", nargs="+", required=True)
    _add_fit_args(p)
    _add_run_args(p)
    _add_jobs_arg(p)
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("cluster", help="hierarchical clustering of a matrix")
    p.add_argument("--matrix", required=True, help="compatibility_matrix.json")
    p.add_argument("--linkage", default="average", choices=analysis.LINKAGES)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("sweep", help="Rank-1 vs. training-set size")
    _add_pair_args(p)
    _add_run_args(p)
    p.add_argument("--fractions", default="0.1,0.25,0.5,0.75,1.0")
    p.add_argument("--methods", default="procrustes,linear,ridge")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:
            raise ArgumentError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except EmbalignError as exc:
        print(f"embalign: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
