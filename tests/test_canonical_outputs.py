"""The byte-identity tool's commands must parse with the CLI as it is now."""

import importlib
import json
import os

from embalign import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a manifest of the shape ``tools/canonical_outputs.py`` writes, with stub paths
STUB_MANIFEST = {
    "ident-10k": ["eval-id", "--source", "src.emb", "--target", "tgt.emb", "--method",
                  "procrustes", "--seeds", "0", "--jobs", "1"],
    "verif-cross": ["eval-verif", "--source", "eval_src.emb", "--target", "eval_tgt.emb",
                    "--train-source", "train_src.emb", "--train-target", "train_tgt.emb",
                    "--method", "linear", "--symmetric-score", "--genuine-cap", "2500",
                    "--impostor-cap", "2500", "--seeds", "0,1,2", "--jobs", "1"],
    "matrix-m6": ["matrix", "--inputs", *[f"view{k}.emb" for k in range(6)], "--method",
                  "procrustes", "--seeds", "0,1", "--jobs", "2"],
    "synth": [f"synth/view{v}.emb" for v in range(3)],
    "permuted": "permuted/view1_permuted.emb",
    "relabeled": [f"relabeled/view{v}.emb" for v in range(2)],
    "tied": "tied/view0.emb",
    "csv": [f"csv/view{v}.csv" for v in range(2)],
    "constant": "constant/constant.emb",
    "near_constant": "near_constant/near_constant.emb",
    "zero_row": ["zero_row/zero_row.emb", "zero_row/lacking.emb"],
}


def test_every_canonical_command_parses(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    commands = importlib.import_module("canonical_outputs").commands(STUB_MANIFEST)
    assert commands
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a renamed or removed flag exits with status 2


def test_blas_environment_names_the_thread_settings(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    env = importlib.import_module("canonical_outputs")._blas_environment()
    assert env["thread_variables"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["thread_variables"]["OMP_NUM_THREADS"] is None
    assert env["blas"]["name"] and env["sched_getaffinity"] >= 1
    json.dumps(env)
