"""Write every canonical output of one source tree, for a byte-identity check.

    python3 tools/canonical_outputs.py --src SRC --inputs DIR --out OUT

Runs a fixed list of CLI commands (``python -m embalign.cli`` with only
SRC on PYTHONPATH) and writes their reports, CSVs, splits, maps and
dendrograms into OUT, which must be empty or absent.  The inputs are
generated into DIR on the first run and reused afterwards: the
generators of ``bench/workloads.py`` at seed 7, one small ``embalign
synth`` set, and a row-permuted copy of the second ``matrix-m6`` view.
Reports embed the paths of their inputs, so two trees are compared
through one shared DIR:

    python3 tools/canonical_outputs.py --src ../parent/src --inputs /tmp/in --out /tmp/a
    python3 tools/canonical_outputs.py --src src --inputs /tmp/in --out /tmp/b
    diff -r /tmp/a /tmp/b

Each command runs with OUT as its working directory and writes to a
relative path, so a report that names another output (``cluster``)
reads the same in every OUT.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_SEED = 7
MANIFEST = "manifest.json"  # written last: its presence marks complete inputs
# the set of demos/05_cli_pipeline.sh
SYNTH_ARGV = ["synth", "--ids", "60", "--per-id", "5", "--dim", "32", "--intrinsic-dim", "8",
              "--views", "3", "--seed", "1"]


def _env(src):
    env = {k: v for k, v in os.environ.items() if k != "EMBALIGN_SEEDS"}
    env["PYTHONPATH"] = src
    return env


def _cli(argv, src, cwd):
    print("embalign " + " ".join(argv), file=sys.stderr)
    proc = subprocess.run([sys.executable, "-m", "embalign.cli", *argv], cwd=cwd,
                          env=_env(src), capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"exit code {proc.returncode}:\n{proc.stderr}")


def _generate(src, inputs):
    """Write the inputs into ``inputs`` and return the manifest: the workload argvs."""
    sys.path[:0] = [src, os.path.join(ROOT, "bench")]
    from workloads import WORKLOADS

    manifest = {}
    for name, workload in sorted(WORKLOADS.items()):
        directory = os.path.join(inputs, name)
        os.makedirs(directory, exist_ok=True)
        manifest[name] = workload.generate(WORKLOAD_SEED, directory).argv
    synth_dir = os.path.join(inputs, "synth")
    _cli([*SYNTH_ARGV, "--out", synth_dir], src, inputs)
    manifest["synth"] = [os.path.join(synth_dir, f"view{v}.emb") for v in range(3)]
    manifest["permuted"] = _permuted_copy(_matrix_views(manifest["matrix-m6"])[1], inputs)
    with open(os.path.join(inputs, MANIFEST), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1)
    return manifest


def _permuted_copy(path, inputs):
    """Write the set at ``path`` with its rows in a seeded random order; return the copy's path.

    It lists the same images as the set it was made from, in another order,
    so the two are paired by id through a dict (``embedstore.shared_rows``).
    """
    from embalign.embedstore import EmbeddingSet, load_embeddings, save_embeddings

    es = load_embeddings(path)
    order = np.random.default_rng(WORKLOAD_SEED).permutation(es.n)
    directory = os.path.join(inputs, "permuted")
    os.makedirs(directory, exist_ok=True)
    copy = os.path.join(directory, "view1_permuted.emb")
    save_embeddings(EmbeddingSet(es.model_name, es.dataset_name, es.rows[order],
                                 [es.image_ids[i] for i in order],
                                 [es.labels[i] for i in order]), copy)
    return copy


def _matrix_views(argv):
    """The ``--inputs`` paths of a ``matrix`` argv."""
    return argv[argv.index("--inputs") + 1:argv.index("--method")]


def _pair(argv, swap=False):
    """``--source``/``--target`` arguments of a workload's argv, exchanged if ``swap``."""
    source, target = (argv[argv.index(flag) + 1] for flag in ("--source", "--target"))
    if swap:
        source, target = target, source
    return ["--source", source, "--target", target]


def _method(argv, method):
    """A workload's argv with its ``--method`` argument replaced by ``method``."""
    k = argv.index("--method") + 1
    return [*argv[:k], method, *argv[k + 1:]]


def commands(manifest):
    """The CLI argvs to run, every output path relative to OUT."""
    ident, verif, matrix = (manifest[w] for w in ("ident-10k", "verif-cross", "matrix-m6"))
    views = manifest["synth"]
    matrix_views = _matrix_views(matrix)
    # models whose shared rows differ per partner; train_tgt shares no image with the rest
    mixed = [views[1], matrix_views[0], matrix_views[4],
             verif[verif.index("--train-target") + 1]]
    demo = ["--source", views[0], "--target", views[1]]
    permuted = ["--source", matrix_views[0], "--target", manifest["permuted"]]
    return [
        [*ident, "--out-dir", "eval_id"],
        ["eval-id", *_pair(ident), "--seeds", "0,1", "--exclude-self", "--dump-splits",
         "--out-dir", "eval_id_exclude_self"],
        [*verif, "--out-dir", "eval_verif_cross"],
        ["eval-verif", *_pair(verif), "--method", "ridge", "--alpha", "0.3",
         "--symmetric-score", "--dump-splits", "--seeds", "0,1", "--out-dir", "eval_verif_intra"],
        [*matrix, "--out-dir", "matrix"],
        # linear fits every cell's own map
        [*_method(matrix, "linear"), "--out-dir", "matrix_linear"],
        ["matrix", "--inputs", *mixed, "--seeds", "0,1", "--out-dir", "matrix_mixed"],
        # the same images listed in another order: paired by id through a dict
        ["matrix", "--inputs", matrix_views[0], manifest["permuted"], "--method", "procrustes",
         "--seeds", "0,1", "--out-dir", "matrix_permuted"],
        # the pair commands gather each split part by row index: rows that do not pair in place
        ["eval-id", *permuted, "--seeds", "0,1", "--dump-splits", "--out-dir", "eval_id_permuted"],
        ["eval-verif", *permuted, "--method", "linear", "--seeds", "0,1",
         "--out-dir", "eval_verif_permuted"],
        ["fit", *permuted, "--method", "ridge", "--seed", "2", "--out", "fit_permuted.bin"],
        ["cluster", "--matrix", "matrix/compatibility_matrix.json", "--out-dir", "cluster"],
        ["sweep", *_pair(ident), "--methods", "procrustes,linear", "--fractions", "0.25,1.0",
         "--seeds", "0", "--out-dir", "sweep_ident"],
        ["sweep", *demo, "--methods", "ridge", "--alpha", "0.3", "--fractions", "0.5,1.0",
         "--seeds", "0,1,2", "--out-dir", "sweep_ridge"],
        # the narrower model as source (d_a < d_b): the baseline scores the first d_a
        # target columns, the gallery's wider rows cut to the columns it compares
        ["eval-id", *_pair(ident, swap=True), "--method", "linear", "--seeds", "0",
         "--out-dir", "eval_id_narrow_source"],
        ["eval-verif", *_pair(ident, swap=True), "--method", "ridge", "--seeds", "0",
         "--out-dir", "eval_verif_narrow_source"],
        # procrustes from the wider model (d_a > d_b): the pair cosines divide each
        # mapped source row by its own norm
        ["eval-verif", *_pair(ident), "--method", "procrustes", "--seeds", "0",
         "--out-dir", "eval_verif_procrustes_wide_source"],
        ["fit", *_pair(ident), "--method", "procrustes", "--out", "fit_procrustes.bin"],
        ["fit", *_pair(verif), "--method", "linear", "--seed", "3", "--out", "fit_linear.bin"],
        # demos/05_cli_pipeline.sh
        ["fit", *demo, "--method", "procrustes", "--out", "demo_map.bin"],
        ["eval-id", *demo, "--seeds", "0,1,2", "--out-dir", "demo_ident", "--dump-splits"],
        ["eval-verif", *demo, "--seeds", "0,1,2", "--out-dir", "demo_verif"],
        # 2 test identities x 5 images: 20 genuine pairs against 25 impostor pairs, more
        # than half of them, so the impostor sample takes its exhaustive branch (every
        # other verification run takes the rejection branch)
        ["eval-verif", *demo, "--train-frac", "0.98", "--seeds", "0,1", "--symmetric-score",
         "--out-dir", "eval_verif_exhaustive"],
        ["matrix", "--inputs", *views, "--seeds", "0", "--out-dir", "demo_matrix"],
        ["cluster", "--matrix", "demo_matrix/compatibility_matrix.json", "--linkage", "average",
         "--out-dir", "demo_cluster"],
        ["sweep", *demo, "--seeds", "0", "--fractions", "0.25,0.5,1.0", "--out-dir",
         "demo_sweep"],
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, help="the src directory of the tree to run")
    parser.add_argument("--inputs", required=True, help="input directory, shared by the runs")
    parser.add_argument("--out", required=True, help="output directory, empty or absent")
    args = parser.parse_args(argv)
    src, inputs, out = (os.path.abspath(p) for p in (args.src, args.inputs, args.out))
    if not os.path.isfile(os.path.join(src, "embalign", "cli.py")):
        sys.exit(f"{src}/embalign/cli.py not found")
    if os.path.isdir(out) and os.listdir(out):
        sys.exit(f"{out} is not empty")
    try:
        with open(os.path.join(inputs, MANIFEST), encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        manifest = _generate(src, inputs)
    os.makedirs(out, exist_ok=True)
    for command in commands(manifest):
        _cli(command, src, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
