import json
import os
import subprocess
import sys
import threading
from unittest import mock

import pytest

from embalign import (
    align, embedstore, evaluate_verification, load_map, load_embeddings, prep, reports, splits,
)
from embalign.cli import build_parser, main

from conftest import fit_alignment, unit_pair


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = run(
        "synth", "--ids", "40", "--per-id", "4", "--dim", "24",
        "--intrinsic-dim", "8", "--views", "3", "--spread", "0.2",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    return out


def test_synth_outputs(synth_dir):
    for v in range(3):
        path = synth_dir / f"view{v}.emb"
        assert path.exists()
        es = load_embeddings(str(path), "binary")
        assert es.rows.shape == (160, 24)


def test_fit_writes_loadable_map(synth_dir, tmp_path):
    out = tmp_path / "map.bin"
    code = run(
        "fit", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--method", "procrustes", "--seed", "0", "--out", str(out),
    )
    assert code == 0
    amap = load_map(str(out))
    assert amap.method == "procrustes"
    assert amap.w.shape == (24, 24)


def test_fit_writes_the_map_of_the_split_fit_sequence(synth_dir, tmp_path):
    # the sequence `fit` ran before it shared the evaluators' helpers
    out = tmp_path / "map.bin"
    code = run(
        "fit", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view2.emb"),
        "--method", "ridge", "--alpha", "0.3", "--train-frac", "0.6", "--seed", "4",
        "--out", str(out),
    )
    assert code == 0
    a = load_embeddings(str(synth_dir / "view0.emb"), model_name="view0")
    b = load_embeddings(str(synth_dir / "view2.emb"), model_name="view2")
    a, b = embedstore.intersect_on_images(a, b)
    norm_a, norm_b = prep.l2_normalize(a.rows), prep.l2_normalize(b.rows)
    split = splits.identity_disjoint_split(list(a.labels), 0.6, 4)
    amap = fit_alignment(
        norm_a, norm_b, "ridge", 0.3, rows=list(split.train_rows),
        source_model=a.model_name, target_model=b.model_name, seed=4,
    )
    align.save_map(amap, str(tmp_path / "expected.bin"))
    assert out.read_bytes() == (tmp_path / "expected.bin").read_bytes()


def eval_id(synth_dir, out_dir, *extra):
    return run(
        "eval-id", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--seeds", "0,1", "--out-dir", str(out_dir), *extra,
    )


def test_eval_id_outputs(synth_dir, tmp_path):
    assert eval_id(synth_dir, tmp_path, "--dump-splits") == 0
    doc = json.loads((tmp_path / "identification_report.json").read_text())
    summary = doc["metrics"]["aligned"]["summary"]
    assert {"1", "5", "10"} <= set(summary["rank_k"])
    assert "mean" in summary["map"]
    assert "provenance" in doc and "input_hashes" in doc["provenance"]
    cmc = (tmp_path / "cmc.csv").read_text().splitlines()
    assert cmc[0] == "rank,accuracy_mean,accuracy_std"
    assert len(cmc) > 1
    splits_doc = json.loads((tmp_path / "eval_id_splits.json").read_text())
    assert set(splits_doc) == {"0", "1"}


def test_eval_id_reports_reproducible(synth_dir, tmp_path):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert eval_id(synth_dir, d1) == 0
    assert eval_id(synth_dir, d2) == 0
    assert eval_id(synth_dir, d3, "--jobs", "8") == 0
    ref = (d1 / "identification_report.json").read_bytes()
    assert (d2 / "identification_report.json").read_bytes() == ref
    assert (d3 / "identification_report.json").read_bytes() == ref
    assert (d2 / "cmc.csv").read_bytes() == (d1 / "cmc.csv").read_bytes()


def test_eval_id_env_seed_override(synth_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("EMBALIGN_SEEDS", "3")
    code = run(
        "eval-id", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"), "--out-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "identification_report.json").read_text())
    per_seed = doc["metrics"]["aligned"]["per_seed"]
    assert [r["seed"] for r in per_seed] == [3]


def test_eval_verif_outputs(synth_dir, tmp_path):
    code = run(
        "eval-verif", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--seeds", "0", "--method", "ridge", "--out-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "verification_report.json").read_text())
    summary = doc["metrics"]["aligned"]["summary"]
    for key in ("auc", "eer", "tmr_at_fmr", "roc_grid"):
        assert key in summary
    roc = (tmp_path / "roc.csv").read_text().splitlines()
    assert roc[0] == "fmr,tmr"
    assert len(roc) == 51


def test_eval_verif_cross_reports_identical_across_jobs(synth_dir, tmp_path):
    # the cross-protocol map and scored rows are shared by the seed threads
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        code = run(
            "eval-verif", "--source", str(synth_dir / "view0.emb"),
            "--target", str(synth_dir / "view1.emb"),
            "--train-source", str(synth_dir / "view0.emb"),
            "--train-target", str(synth_dir / "view2.emb"),
            "--genuine-cap", "200", "--impostor-cap", "200", "--symmetric-score",
            "--seeds", "0,1,2", "--jobs", jobs, "--out-dir", str(out),
        )
        assert code == 0
        outs.append(out)
    for name in ("verification_report.json", "roc.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_library_cross_protocol_equals_the_cli(synth_dir, tmp_path):
    # the CLI fits the map on the training pair and hands it to the evaluator
    code = run(
        "eval-verif", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--train-source", str(synth_dir / "view0.emb"),
        "--train-target", str(synth_dir / "view2.emb"),
        "--method", "linear", "--genuine-cap", "200", "--impostor-cap", "200",
        "--seeds", "0,1", "--out-dir", str(tmp_path),
    )
    assert code == 0
    v0, v1, v2 = (load_embeddings(str(synth_dir / f"view{k}.emb"), model_name=f"view{k}")
                  for k in range(3))
    amap = fit_alignment(*unit_pair(v0, v2)[1:], "linear")
    with mock.patch.object(align, "fit_map", wraps=align.fit_map) as spy:
        rep = evaluate_verification(v0, v1, seeds=(0, 1), amap=amap, pair_caps=(200, 200))
    assert spy.call_count == 0
    doc = json.loads((tmp_path / "verification_report.json").read_text())
    assert json.loads(reports.canonical_json(rep.to_dict())) == doc["metrics"]


def test_jobs_starts_no_thread(synth_dir, tmp_path, monkeypatch):
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    assert eval_id(synth_dir, tmp_path / "id", "--jobs", "4") == 0
    assert eval_verif(synth_dir, tmp_path / "verif", "--seeds", "0,1", "--jobs", "4") == 0
    code = run("matrix", "--inputs", *(str(synth_dir / f"view{v}.emb") for v in range(3)),
               "--seeds", "0,1", "--jobs", "4", "--out-dir", str(tmp_path / "mat"))
    assert code == 0
    assert started == []


def eval_verif(synth_dir, out_dir, *extra):
    return run(
        "eval-verif", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--seeds", "0", "--out-dir", str(out_dir), *extra,
    )


def test_eval_verif_cross_rejects_dump_splits(synth_dir, tmp_path, capsys):
    # the cross protocol never splits, so there is no split to write
    code = eval_verif(
        synth_dir, tmp_path / "out", "--dump-splits",
        "--train-source", str(synth_dir / "view0.emb"),
        "--train-target", str(synth_dir / "view2.emb"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "--dump-splits" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--train-source", "--train-target"])
def test_eval_verif_one_training_set_is_clean_error(synth_dir, tmp_path, capsys, flag):
    code = eval_verif(synth_dir, tmp_path / "out", flag, str(synth_dir / "view2.emb"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "--train-target" in err
    assert not (tmp_path / "out").exists()


def test_matrix_then_cluster(synth_dir, tmp_path):
    mat_dir = tmp_path / "mat"
    code = run(
        "matrix", "--inputs",
        str(synth_dir / "view0.emb"), str(synth_dir / "view1.emb"),
        str(synth_dir / "view2.emb"),
        "--seeds", "0", "--out-dir", str(mat_dir),
    )
    assert code == 0
    doc = json.loads((mat_dir / "compatibility_matrix.json").read_text())
    assert len(doc["metrics"]["rank1"]) == 3

    clu_dir = tmp_path / "clu"
    code = run(
        "cluster", "--matrix", str(mat_dir / "compatibility_matrix.json"),
        "--linkage", "complete", "--out-dir", str(clu_dir),
    )
    assert code == 0
    cdoc = json.loads((clu_dir / "cluster_report.json").read_text())
    assert len(cdoc["metrics"]["dendrogram"]["merges"]) == 2
    assert "mean_deviation" in cdoc["metrics"]["asymmetry"]
    assert (clu_dir / "dendrogram.newick").read_text().strip().endswith(";")


def test_matrix_reports_identical_across_jobs(synth_dir, tmp_path):
    # --jobs is accepted by matrix but changes nothing: cells run on one thread
    inputs = [str(synth_dir / f"view{v}.emb") for v in range(3)]
    for jobs in ("1", "2"):
        code = run("matrix", "--inputs", *inputs, "--seeds", "0,1", "--jobs", jobs,
                   "--out-dir", str(tmp_path / jobs))
        assert code == 0
    for name in ("compatibility_matrix.json", "compatibility_matrix.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_matrix_repeated_model_name_is_clean_error(synth_dir, tmp_path, capsys):
    other = tmp_path / "other"
    other.mkdir()
    for suffix in (".emb", ".labels.tsv"):
        (other / f"view0{suffix}").write_bytes((synth_dir / f"view0{suffix}").read_bytes())
    first, second = str(synth_dir / "view0.emb"), str(other / "view0.emb")
    code = run("matrix", "--inputs", first, second, str(synth_dir / "view1.emb"),
               "--seeds", "0", "--out-dir", str(tmp_path / "mat"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ")
    assert "'view0'" in err and first in err and second in err
    assert not (tmp_path / "mat").exists()


def test_sweep_outputs(synth_dir, tmp_path):
    code = run(
        "sweep", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--seeds", "0", "--fractions", "0.5,1.0",
        "--methods", "procrustes,linear", "--out-dir", str(tmp_path),
    )
    assert code == 0
    doc = json.loads((tmp_path / "sweep_report.json").read_text())
    assert len(doc["metrics"]["summary"]) == 4
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "method,fraction,rank1_mean,rank1_std"
    assert len(lines) == 5


def test_missing_file_is_clean_error(tmp_path, capsys):
    code = run(
        "eval-id", "--source", str(tmp_path / "nope.emb"),
        "--target", str(tmp_path / "nope.emb"), "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_fit_into_a_directory_is_clean_error_and_leaves_no_temp_file(synth_dir, tmp_path,
                                                                    capsys):
    out = tmp_path / "taken"
    out.mkdir()
    code = run(
        "fit", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"), "--out", str(out),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("embalign: error: ")
    assert os.listdir(tmp_path) == ["taken"] and os.listdir(out) == []


@pytest.mark.parametrize("extra", [
    ["--views", "0"], ["--views", "-2"], ["--noise", "-1"], ["--noise", "nan"],
    ["--spread", "inf"], ["--spread", "-0.5"], ["--center-scale", "nan"], ["--dim", "2"],
])
def test_synth_bad_argument_is_clean_error(tmp_path, capsys, extra):
    code = run(
        "synth", "--ids", "5", "--per-id", "2", "--dim", "8", "--intrinsic-dim", "4",
        *extra, "--out", str(tmp_path / "data"),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and extra[0][2:].replace("-", "_") in err
    assert os.listdir(tmp_path) == []


BAD_MATRICES = {
    "missing_file": None,
    "not_json": "{bad",
    "not_an_object": "[1, 2]",
    "no_fields": "{}",
    "no_rank1": '{"metrics": {"model_names": ["a", "b"]}}',
    "names_not_a_list": '{"model_names": "ab", "rank1": [[100, 1], [1, 100]]}',
    "short_row": '{"model_names": ["a", "b"], "rank1": [[100, 1], [1]]}',
    "string_entry": '{"model_names": ["a", "b"], "rank1": [[100, "x"], [1, 100]]}',
    "huge_int_entry": '{"model_names": ["a", "b"], "rank1": [[100, 1' + "0" * 400
                      + '], [1, 100]]}',
    "repeated_names": '{"model_names": ["a", "a"], "rank1": [[100, 1], [1, 100]]}',
}


@pytest.mark.parametrize("content", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
def test_cluster_bad_matrix_is_clean_error(tmp_path, capsys, content):
    path = tmp_path / "matrix.json"
    if content is not None:
        path.write_text(content)
    code = run("cluster", "--matrix", str(path), "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err.startswith("embalign: error: ")
    assert not (tmp_path / "out").exists()


def test_unknown_subcommand_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code != 0


@pytest.mark.parametrize("seeds", ["0,x", "", "1.5", "0,,1"])
def test_bad_seeds_flag_is_clean_error(synth_dir, tmp_path, capsys, seeds):
    assert eval_id(synth_dir, tmp_path, "--seeds", seeds) == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "--seeds" in err


def test_bad_env_seeds_is_clean_error(synth_dir, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EMBALIGN_SEEDS", "0,x")
    code = run(
        "eval-id", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"), "--out-dir", str(tmp_path),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "EMBALIGN_SEEDS" in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_clean_error(synth_dir, tmp_path, capsys, jobs):
    assert eval_id(synth_dir, tmp_path / "id", "--jobs", jobs) == 1
    assert capsys.readouterr().err.startswith("embalign: error: --jobs")
    code = run(
        "matrix", "--inputs", str(synth_dir / "view0.emb"), str(synth_dir / "view1.emb"),
        "--seeds", "0", "--jobs", jobs, "--out-dir", str(tmp_path / "mat"),
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("embalign: error: --jobs")
    assert not (tmp_path / "id").exists() and not (tmp_path / "mat").exists()


def negative_seed_commands(synth_dir, out):
    pair = ["--source", str(synth_dir / "view0.emb"), "--target", str(synth_dir / "view1.emb")]
    inputs = [str(synth_dir / f"view{v}.emb") for v in range(2)]
    return {
        "eval-id": ["eval-id", *pair, "--seeds=-1", "--out-dir", out],
        "eval-verif": ["eval-verif", *pair, "--out-dir", out],  # seeds from EMBALIGN_SEEDS
        "matrix": ["matrix", "--inputs", *inputs, "--seeds", "0,-1", "--out-dir", out],
        "sweep": ["sweep", *pair, "--seeds=-2", "--fractions", "0.5,1.0", "--out-dir", out],
        "fit": ["fit", *pair, "--seed", "-1", "--out", out],
        "synth": ["synth", "--ids", "4", "--seed", "-1", "--out", out],
    }


@pytest.mark.parametrize("command", ["eval-id", "eval-verif", "matrix", "sweep", "fit", "synth"])
def test_negative_seed_is_clean_error(synth_dir, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setenv("EMBALIGN_SEEDS", "-3")
    out = tmp_path / "out"
    assert run(*negative_seed_commands(synth_dir, str(out))[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "seed must be nonnegative" in err
    assert not out.exists()


def repeated_seed_commands(synth_dir, out):
    pair = ["--source", str(synth_dir / "view0.emb"), "--target", str(synth_dir / "view1.emb")]
    train = ["--train-source", str(synth_dir / "view0.emb"),
             "--train-target", str(synth_dir / "view1.emb")]
    inputs = [str(synth_dir / f"view{v}.emb") for v in range(2)]
    return {
        "eval-id": ["eval-id", *pair, "--seeds", "3,3", "--out-dir", out],
        "eval-verif": ["eval-verif", *pair, "--out-dir", out],  # seeds from EMBALIGN_SEEDS
        "eval-verif-cross": ["eval-verif", *pair, *train, "--seeds", "3,0,3", "--out-dir", out],
        "matrix": ["matrix", "--inputs", *inputs, "--seeds", "3,3", "--out-dir", out],
        "sweep": ["sweep", *pair, "--seeds", "3,3", "--fractions", "0.5,1.0", "--out-dir", out],
    }


@pytest.mark.parametrize("command",
                         ["eval-id", "eval-verif", "eval-verif-cross", "matrix", "sweep"])
def test_repeated_seed_is_clean_error(synth_dir, tmp_path, capsys, monkeypatch, command):
    # seed 3 used to run twice and enter the mean and std twice
    monkeypatch.setenv("EMBALIGN_SEEDS", "3,3")
    out = tmp_path / "out"
    with mock.patch.object(align, "fit_sides") as fit:
        assert run(*repeated_seed_commands(synth_dir, str(out))[command]) == 1
    fit.assert_not_called()
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "seed 3 is repeated" in err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--fractions", "0.5,0.5"], "fraction 0.5 is repeated"),
    (["--methods", "procrustes,procrustes"], "method 'procrustes' is repeated"),
])
def test_sweep_repeats_are_clean_errors(synth_dir, tmp_path, capsys, extra, message):
    code = run("sweep", "--source", str(synth_dir / "view0.emb"),
               "--target", str(synth_dir / "view1.emb"), "--seeds", "0",
               "--out-dir", str(tmp_path / "out"), *extra)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_scipy():
    # only the ridge solver and the clustering need scipy; they import it
    # on first use, so the other commands do not pay for the import
    src = os.path.dirname(os.path.dirname(os.path.abspath(align.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, embalign.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("extra", [
    ["--train-frac", "1.5"],
    ["--method", "ridge", "--alpha", "0"],
    ["--seeds", "-1"],
])
def test_matrix_argument_error_is_not_a_missing_cell(synth_dir, tmp_path, capsys, extra):
    args = ["matrix", "--inputs", str(synth_dir / "view0.emb"), str(synth_dir / "view1.emb"),
            "--seeds", "0", *extra, "--out-dir", str(tmp_path / "mat")]
    assert run(*args) == 1
    assert capsys.readouterr().err.startswith("embalign: error: ")
    assert not (tmp_path / "mat").exists()


def test_bad_fractions_is_clean_error(synth_dir, tmp_path, capsys):
    code = run(
        "sweep", "--source", str(synth_dir / "view0.emb"),
        "--target", str(synth_dir / "view1.emb"),
        "--seeds", "0", "--fractions", "0.5,half", "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "--fractions" in capsys.readouterr().err


_FIT_DEFAULTS = {"format": "binary", "method": "procrustes", "alpha": 0.1, "train_frac": 0.7}
_PAIR = {"source": "s", "target": "t", **_FIT_DEFAULTS}
_EVAL = {**_PAIR, "seeds": None, "out_dir": "o", "jobs": 1, "dump_splits": False}

#: minimal argv of each subcommand -> every parsed argument and its default
PARSED_DEFAULTS = {
    ("synth", "--out", "o"): {
        "ids": 100, "per_id": 10, "dim": 64, "intrinsic_dim": 16, "views": 2, "noise": 0.0,
        "center_scale": 1.0, "spread": 0.1, "map_kind": "orthogonal", "seed": 0, "out": "o",
    },
    ("fit", "--source", "s", "--target", "t", "--out", "o"): {**_PAIR, "seed": 0, "out": "o"},
    ("eval-id", "--source", "s", "--target", "t", "--out-dir", "o"): {
        **_EVAL, "exclude_self": False,
    },
    ("eval-verif", "--source", "s", "--target", "t", "--out-dir", "o"): {
        **_EVAL, "symmetric_score": False, "train_source": None, "train_target": None,
        "genuine_cap": 10000, "impostor_cap": 10000,
    },
    ("matrix", "--inputs", "a", "b", "--out-dir", "o"): {
        "inputs": ["a", "b"], **_FIT_DEFAULTS, "seeds": None, "out_dir": "o", "jobs": 1,
    },
    ("cluster", "--matrix", "m", "--out-dir", "o"): {
        "matrix": "m", "linkage": "average", "out_dir": "o",
    },
    ("sweep", "--source", "s", "--target", "t", "--out-dir", "o"): {
        **_PAIR, "seeds": None, "out_dir": "o",
        "fractions": "0.1,0.25,0.5,0.75,1.0", "methods": "procrustes,linear,ridge",
    },
}


@pytest.mark.parametrize("argv", PARSED_DEFAULTS, ids=[a[0] for a in PARSED_DEFAULTS])
def test_parsed_arguments_are_pinned(argv):
    # a report's config is vars(args): a helper that adds or drops an
    # argument would change every report of that subcommand
    parsed = vars(build_parser().parse_args(list(argv)))
    assert parsed.pop("func").__name__ == "cmd_" + argv[0].replace("-", "_")
    assert parsed == {"command": argv[0], **PARSED_DEFAULTS[argv]}
