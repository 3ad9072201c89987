import collections
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest

from embalign import (
    align, analysis, blas, embedstore, evaluate_verification, load_map, load_embeddings, prep,
    reports, splits,
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


def test_eval_id_ignores_a_seeds_environment_variable(synth_dir, tmp_path, monkeypatch):
    # EMBALIGN_SEEDS used to replace the default seeds, and the report's config said "seeds": null
    def outputs(out):
        assert run("eval-id", "--source", str(synth_dir / "view0.emb"),
                   "--target", str(synth_dir / "view1.emb"), "--out-dir", str(out)) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    plain = outputs(tmp_path / "plain")
    monkeypatch.setenv("EMBALIGN_SEEDS", "3")
    assert outputs(tmp_path / "env") == plain
    doc = json.loads(plain["identification_report.json"])
    assert [r["seed"] for r in doc["metrics"]["aligned"]["per_seed"]] == list(splits.DEFAULT_SEEDS)


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
    with mock.patch.object(align, "_solve", wraps=align._solve) as spy:
        rep = evaluate_verification(v0, v1, seeds=(0, 1), amap=amap, pair_caps=(200, 200))
    assert spy.call_count == 0
    doc = json.loads((tmp_path / "verification_report.json").read_text())
    assert json.loads(reports.canonical_json(rep.to_dict())) == doc["metrics"]


def _started_threads(monkeypatch, *argv):
    """The exit code of one CLI run, or the type of the bug it raised, and the names of the
    threads it starts, each checked to have ended with the run."""
    started = []
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    try:
        code = run(*argv)
    except TypeError as exc:  # a bug propagates out of main
        code = type(exc)
    monkeypatch.undo()
    assert not [t for t in started if t.is_alive()], "a thread outlived the command"
    return code, sorted(t.name for t in started)


def test_jobs_starts_the_same_threads(synth_dir, tmp_path, monkeypatch):
    views = [str(synth_dir / f"view{v}.emb") for v in range(3)]
    commands = {
        "eval-id": ["eval-id", "--source", views[0], "--target", views[1], "--seeds", "0,1"],
        "eval-verif": ["eval-verif", "--source", views[0], "--target", views[1], "--seeds", "0,1"],
        "matrix": ["matrix", "--inputs", *views, "--seeds", "0,1"],
    }
    # one thread per seed beside the main one: eval-id's and eval-verif's baseline, the
    # matrix's cells
    threads = {"eval-id": ["embalign-baseline"] * 2, "eval-verif": ["embalign-baseline"] * 2,
               "matrix": ["embalign-cells"] * 2}
    for name, argv in commands.items():
        one, four = (_started_threads(monkeypatch, *argv, "--jobs", jobs,
                                      "--out-dir", str(tmp_path / f"{name}{jobs}"))
                     for jobs in ("1", "4"))
        assert one == four == (0, threads[name] + ["embalign-hash"]), name


def _bug_in_a_cell(*args):
    raise TypeError("bug in a cell")


def test_a_failed_command_leaves_no_thread(synth_dir, tmp_path, monkeypatch):
    # the input hashing, slowed here, still runs when the command fails
    real_sha256 = reports.file_sha256
    view = str(synth_dir / "view0.emb")
    functions = blas._thread_functions()  # None without OpenBLAS
    count = functions[0] if functions else lambda: None
    before = count()
    cases = {
        # the target is missing: loading fails
        "eval-id": (["--source", view, "--target", str(tmp_path / "missing.emb")], 1, []),
        # every cell raises a bug, on the main thread and on the cell thread
        "matrix": (["--inputs", view, str(synth_dir / "view1.emb"), "--seeds", "0"], TypeError,
                   ["embalign-cells"]),
    }
    for command, (argv, failure, threads) in cases.items():
        monkeypatch.setattr(reports, "file_sha256",
                            lambda path: time.sleep(0.2) or real_sha256(path))
        if command == "matrix":
            monkeypatch.setattr(analysis, "map_rank1", _bug_in_a_cell)
        out = tmp_path / command
        code, names = _started_threads(monkeypatch, command, *argv, "--out-dir", str(out))
        assert code == failure and names == threads + ["embalign-hash"], command
        assert count() == before and not out.exists(), command


@pytest.mark.parametrize("command, flag", [
    ("eval-id", "--seeds"), ("eval-verif", "--seeds"), ("matrix", "--seeds"),
    ("sweep", "--seeds"), ("sweep", "--fractions"),
])
def test_a_bad_list_fails_before_any_input_is_read(synth_dir, tmp_path, monkeypatch, capsys,
                                                   command, flag):
    # the target is missing too: the list is parsed first, so its error is the one reported
    source, missing = str(synth_dir / "view0.emb"), str(tmp_path / "missing.emb")
    pair = (["--inputs", source, missing] if command == "matrix"
            else ["--source", source, "--target", missing])
    lists = {"--seeds": "0", "--fractions": "0.5", flag: "0,x"}
    if command != "sweep":
        del lists["--fractions"]
    argv = [command, *pair, *(a for item in lists.items() for a in item),
            "--out-dir", str(tmp_path / "out")]
    code, names = _started_threads(monkeypatch, *argv)
    assert code == 1 and names == []
    assert capsys.readouterr().err.startswith(f"embalign: error: {flag} must be")
    assert not (tmp_path / "out").exists()


def _input_hashes(report):
    return json.loads(report.read_text())["provenance"]["input_hashes"]


def _copy_set(synth_dir, name, directory):
    """Copy the binary set ``name`` and its label file into ``directory``; return its path."""
    directory.mkdir(exist_ok=True)
    for path in embedstore.set_files(str(synth_dir / name)):
        shutil.copy(path, directory)
    return directory / name


def test_rewriting_a_label_changes_the_report_hashes(synth_dir, tmp_path):
    sets = [_copy_set(synth_dir, f"view{v}.emb", tmp_path / "in") for v in range(2)]
    argv = ["eval-id", "--source", str(sets[0]), "--target", str(sets[1]), "--seeds", "0"]
    assert run(*argv, "--out-dir", str(tmp_path / "before")) == 0
    before = _input_hashes(tmp_path / "before" / "identification_report.json")
    labels = [embedstore.set_files(str(path))[1] for path in sets]
    for path in labels:  # the last image joins the first identity, in both sets
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
        lines[-1] = lines[-1].split("\t")[0] + "\t" + lines[0].split("\t")[1]
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
    assert run(*argv, "--out-dir", str(tmp_path / "after")) == 0
    after = _input_hashes(tmp_path / "after" / "identification_report.json")
    assert set(before) == set(after) == {*map(str, sets), *labels}
    assert [p for p in before if before[p] != after[p]] == labels


def test_a_cross_report_hashes_its_training_pair(synth_dir, tmp_path):
    views = [str(synth_dir / f"view{v}.emb") for v in range(3)]
    code = run("eval-verif", "--source", views[0], "--target", views[1],
               "--train-source", views[1], "--train-target", views[2],
               "--genuine-cap", "200", "--impostor-cap", "200", "--seeds", "0",
               "--out-dir", str(tmp_path))
    assert code == 0
    hashes = _input_hashes(tmp_path / "verification_report.json")
    files = [f for view in views for f in embedstore.set_files(view)]
    assert sorted(hashes) == sorted(files)
    assert all(hashes[f] == reports.file_sha256(f) for f in files)


def test_eval_id_on_csv_sets_equals_the_binary_run(synth_dir, tmp_path):
    binary = [str(synth_dir / f"view{v}.emb") for v in range(2)]
    csv = [str(tmp_path / f"view{v}.csv") for v in range(2)]
    for path, copy in zip(binary, csv):
        embedstore.save_embeddings(load_embeddings(path), copy, "csv")
    runs = {}
    for fmt, (source, target) in (("binary", binary), ("csv", csv)):
        out = tmp_path / fmt
        assert run("eval-id", "--format", fmt, "--source", source, "--target", target,
                   "--seeds", "0,1", "--out-dir", str(out)) == 0
        runs[fmt] = (json.loads((out / "identification_report.json").read_text()),
                     (out / "cmc.csv").read_bytes())
    (bin_doc, bin_cmc), (csv_doc, csv_cmc) = runs["binary"], runs["csv"]
    assert csv_doc["metrics"] == bin_doc["metrics"] and csv_cmc == bin_cmc
    assert sorted(bin_doc["provenance"]["input_hashes"]) == sorted(
        f for path in binary for f in embedstore.set_files(path))
    assert sorted(csv_doc["provenance"]["input_hashes"]) == csv


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


@pytest.mark.parametrize("fraction", ["0.3", "1.0"])
def test_eval_verif_cross_rejects_train_frac(synth_dir, tmp_path, capsys, fraction):
    # the cross map fits on every training row, so a fraction would be recorded and ignored
    train = ["--train-source", str(synth_dir / "view0.emb"),
             "--train-target", str(synth_dir / "view2.emb"),
             "--genuine-cap", "100", "--impostor-cap", "100"]
    code = eval_verif(synth_dir, tmp_path / "out", *train, "--train-frac", fraction)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "--train-frac" in err
    assert not (tmp_path / "out").exists()
    # the default, also when given, runs and is what the report records
    assert eval_verif(synth_dir, tmp_path / "ok", *train, "--train-frac", "0.7") == 0
    metrics = json.loads((tmp_path / "ok" / "verification_report.json").read_text())["metrics"]
    assert metrics["fraction"] == 0.7


@pytest.mark.parametrize("caps", [("--genuine-cap", "7", "--impostor-cap", "9"),
                                  ("--genuine-cap", "7"), ("--impostor-cap", "0")])
def test_eval_verif_intra_rejects_pair_caps(synth_dir, tmp_path, capsys, caps):
    # the intra protocol scores every genuine pair and as many impostors, whatever the caps
    code = eval_verif(synth_dir, tmp_path / "out", *caps)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "--genuine-cap/--impostor-cap" in err
    assert not (tmp_path / "out").exists()


def test_eval_verif_intra_accepts_the_default_caps(synth_dir, tmp_path):
    code = eval_verif(synth_dir, tmp_path, "--genuine-cap", "10000", "--impostor-cap", "10000")
    assert code == 0
    metrics = json.loads((tmp_path / "verification_report.json").read_text())["metrics"]
    assert metrics["metadata"]["pair_caps"] is None


def _shared_labels(*paths):
    """Identities of the images the label files share, in sorted image id order."""
    files = []
    for path in paths:
        lines = path.with_suffix(".labels.tsv").read_text(encoding="utf-8").splitlines()
        files.append(dict(line.split("\t") for line in lines))
    shared = sorted(set(files[0]).intersection(*files[1:]))
    return [files[0][iid] for iid in shared]


@pytest.mark.parametrize("command", ["eval-id", "eval-verif"])
def test_dump_splits_pairs_once_and_writes_the_scored_splits(synth_dir, tmp_path, command):
    # the dump used to pair both sets a second time and split them again
    source, target, out = synth_dir / "view0.emb", synth_dir / "view2.emb", tmp_path / "out"
    with mock.patch.object(align, "pair_sets", wraps=align.pair_sets) as pair:
        code = run(command, "--source", str(source), "--target", str(target), "--seeds", "3,0",
                   "--dump-splits", "--out-dir", str(out))
    assert code == 0
    assert pair.call_count == 1
    tag, report = {"eval-id": ("eval_id", "identification_report.json"),
                   "eval-verif": ("eval_verif", "verification_report.json")}[command]
    dumped = json.loads((out / f"{tag}_splits.json").read_text())
    per_seed = json.loads((out / report).read_text())["metrics"]["aligned"]["per_seed"]
    assert [r["seed"] for r in per_seed] == [3, 0] and set(dumped) == {"3", "0"}
    labels = _shared_labels(source, target)
    for r in per_seed:
        test = dumped[str(r["seed"])]["test_rows"]
        if command == "eval-id":
            assert len(test) == r["n_queries"]
        else:
            sizes = collections.Counter(labels[k] for k in test).values()
            assert sum(c * (c - 1) // 2 for c in sizes) == r["n_genuine"]


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
    # --jobs is accepted by matrix but changes nothing: cells run on two threads either way
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


def test_cluster_deeply_nested_matrix_is_one_error_line(tmp_path, capsys):
    # the JSON decoder recurses once per level: this depth exhausts Python's stack limit
    path = tmp_path / "matrix.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code = run("cluster", "--matrix", str(path), "--out-dir", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"embalign: error: {path}: not a JSON document")
    assert not (tmp_path / "out").exists()


def test_csv_field_over_the_reader_limit_is_one_error_line(tmp_path, capsys):
    # the csv module refuses a field longer than 131072 characters
    path = tmp_path / "big.csv"
    path.write_text("image_id,identity,e0\n" + "a,b," + "1" * 140000 + "\n")
    code = run("eval-id", "--format", "csv", "--source", str(path), "--target", str(path),
               "--out-dir", str(tmp_path / "out"))
    err = capsys.readouterr().err
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"embalign: error: {path}: line 2: field larger than field limit")
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
        "eval-verif": ["eval-verif", *pair, "--seeds=-3", "--out-dir", out],
        "matrix": ["matrix", "--inputs", *inputs, "--seeds", "0,-1", "--out-dir", out],
        "sweep": ["sweep", *pair, "--seeds=-2", "--fractions", "0.5,1.0", "--out-dir", out],
        "fit": ["fit", *pair, "--seed", "-1", "--out", out],
        "synth": ["synth", "--ids", "4", "--seed", "-1", "--out", out],
    }


@pytest.mark.parametrize("command", ["eval-id", "eval-verif", "matrix", "sweep", "fit", "synth"])
def test_negative_seed_is_clean_error(synth_dir, tmp_path, capsys, command):
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
        "eval-verif": ["eval-verif", *pair, "--seeds", "3,3", "--out-dir", out],
        "eval-verif-cross": ["eval-verif", *pair, *train, "--seeds", "3,0,3", "--out-dir", out],
        "matrix": ["matrix", "--inputs", *inputs, "--seeds", "3,3", "--out-dir", out],
        "sweep": ["sweep", *pair, "--seeds", "3,3", "--fractions", "0.5,1.0", "--out-dir", out],
    }


@pytest.mark.parametrize("command",
                         ["eval-id", "eval-verif", "eval-verif-cross", "matrix", "sweep"])
def test_repeated_seed_is_clean_error(synth_dir, tmp_path, capsys, command):
    # seed 3 used to run twice and enter the mean and std twice
    out = tmp_path / "out"
    with mock.patch.object(align, "_solve") as fit:
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


def ridge_commands(synth_dir, out, alpha):
    pair = ["--source", str(synth_dir / "view0.emb"), "--target", str(synth_dir / "view1.emb")]
    train = ["--train-source", str(synth_dir / "view0.emb"),
             "--train-target", str(synth_dir / "view1.emb")]
    inputs = [str(synth_dir / f"view{v}.emb") for v in range(2)]
    ridge = ["--method", "ridge", "--alpha", alpha]
    return {
        "fit": ["fit", *pair, *ridge, "--out", out],
        "eval-id": ["eval-id", *pair, *ridge, "--seeds", "0", "--out-dir", out],
        "eval-verif": ["eval-verif", *pair, *ridge, "--seeds", "0", "--out-dir", out],
        "eval-verif-cross": ["eval-verif", *pair, *train, *ridge, "--seeds", "0",
                             "--out-dir", out],
        "matrix": ["matrix", "--inputs", *inputs, *ridge, "--seeds", "0", "--out-dir", out],
        "sweep": ["sweep", *pair, "--methods", "ridge", "--alpha", alpha, "--seeds", "0",
                  "--fractions", "0.5,1.0", "--out-dir", out],
    }


@pytest.mark.parametrize("alpha", ["inf", "1e309", "nan", "0"])
@pytest.mark.parametrize("command",
                         ["fit", "eval-id", "eval-verif", "eval-verif-cross", "matrix", "sweep"])
def test_ridge_alpha_not_positive_and_finite_is_clean_error(synth_dir, tmp_path, capsys, command,
                                                           alpha):
    # an infinite alpha used to escape from scipy.linalg.solve as a raw ValueError
    out = tmp_path / "out"
    assert run(*ridge_commands(synth_dir, str(out), alpha)[command]) == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and "ridge alpha must be positive and finite" in err
    assert not out.exists()


def writing_commands(synth_dir, tmp_path, out):
    pair = ["--source", str(synth_dir / "view0.emb"), "--target", str(synth_dir / "view1.emb")]
    inputs = [str(synth_dir / f"view{v}.emb") for v in range(2)]
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"model_names": ["a", "b"], "rank1": [[100, 1], [1, 100]]}')
    return {
        "synth": ["synth", "--ids", "4", "--per-id", "2", "--dim", "8", "--intrinsic-dim", "4",
                  "--out", out],
        "eval-id": ["eval-id", *pair, "--seeds", "0", "--out-dir", out],
        "eval-verif": ["eval-verif", *pair, "--seeds", "0", "--out-dir", out],
        "matrix": ["matrix", "--inputs", *inputs, "--seeds", "0", "--out-dir", out],
        "cluster": ["cluster", "--matrix", str(matrix), "--out-dir", out],
        "sweep": ["sweep", *pair, "--seeds", "0", "--fractions", "0.5,1.0", "--out-dir", out],
    }


@pytest.mark.parametrize("where", ["a_file", "under_a_file"])
@pytest.mark.parametrize("command",
                         ["synth", "eval-id", "eval-verif", "matrix", "cluster", "sweep"])
def test_output_path_that_cannot_be_a_directory_is_clean_error(synth_dir, tmp_path, capsys,
                                                                 command, where):
    # makedirs used to escape as a raw FileExistsError or NotADirectoryError
    taken = tmp_path / "taken"
    taken.write_text("kept")
    out = taken if where == "a_file" else taken / "out"
    assert run(*writing_commands(synth_dir, tmp_path, str(out))[command]) == 1
    assert capsys.readouterr().err.startswith("embalign: error: ")
    assert taken.read_text() == "kept"


def _src_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(align.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_loads_no_scipy():
    # only the ridge solver and the clustering need scipy; they import it
    # on first use, so the other commands do not pay for the import
    code = ("import sys, embalign.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_cross_eval_verif_loads_no_masked_arrays(synth_dir, tmp_path):
    # numpy 2.4's np.unique imports numpy.ma; the impostor sampler merges its keys without it
    views = [str(synth_dir / f"view{v}.emb") for v in range(2)]
    argv = ["eval-verif", "--source", views[0], "--target", views[1], "--train-source", views[0],
            "--train-target", views[1], "--genuine-cap", "50", "--impostor-cap", "200",
            "--seeds", "0,1", "--out-dir", str(tmp_path / "out")]
    code = ("import sys\nfrom embalign.cli import main\n"
            f"print(main({argv!r}), 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("command", ["eval-id", "eval-verif"])
def test_a_near_constant_model_is_one_error_line(synth_dir, tmp_path, command):
    # every row equals the view's first row: centered with the train mean, each is rounding
    # noise, which used to be scored (aligned Rank-1 at chance level); run as a script, whose
    # exit code passes through the collector's freeze
    view = load_embeddings(str(synth_dir / "view0.emb"))
    rows = view.rows[[0] * view.n]
    path = str(tmp_path / "near_constant.emb")
    embedstore.save_embeddings(embedstore.EmbeddingSet("nc", "ds", rows, view.image_ids,
                                                       view.labels), path)
    for source, target, side in ((str(synth_dir / "view1.emb"), path, "target"),
                                 (path, str(synth_dir / "view1.emb"), "source")):
        out = tmp_path / f"{command}_{side}"
        done = subprocess.run([sys.executable, "-m", "embalign.cli", command, "--source", source,
                               "--target", target, "--seeds", "0", "--out-dir", str(out)],
                              env=_src_env(), capture_output=True, text=True)
        assert done.returncode == 1 and done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith(f"embalign: error: centered {side} row 0 has norm ")
        assert not out.exists()


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


# --- inputs refused where they enter ------------------------------------------

@pytest.mark.parametrize("caps, message", [
    (("0", "5"), "pair caps must be positive"),
    (("5", "0"), "pair caps must be positive"),
    (("-1", "5"), "pair caps must be nonnegative"),
])
def test_eval_verif_cross_checks_its_pair_caps_before_loading(synth_dir, tmp_path, capsys,
                                                              caps, message):
    # a bad cap used to be refused only after the cross map was fit, and a zero cap only
    # when the ROC found no scores of one class
    out = tmp_path / "out"
    with mock.patch.object(embedstore, "load_embeddings") as load, \
            mock.patch.object(align, "_solve") as fit:
        code = eval_verif(synth_dir, out, "--train-source", str(synth_dir / "view0.emb"),
                          "--train-target", str(synth_dir / "view2.emb"),
                          "--genuine-cap", caps[0], "--impostor-cap", caps[1])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("embalign: error: ") and message in err
    load.assert_not_called()
    fit.assert_not_called()
    assert not out.exists()


def test_a_failed_write_names_the_path_given(synth_dir, tmp_path, capsys):
    out = tmp_path / "missing_dir" / "m.map"
    code = run("fit", "--source", str(synth_dir / "view0.emb"),
               "--target", str(synth_dir / "view1.emb"), "--out", str(out))
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"embalign: error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "missing_dir").exists()


def _with_zero_row(synth_dir, tmp_path, row):
    """A copy of the first synth view, under its own name, whose ``row`` is all zero."""
    view = load_embeddings(str(synth_dir / "view0.emb"))
    rows = view.rows.copy()
    rows[row] = 0.0
    os.makedirs(tmp_path / f"zero{row}", exist_ok=True)
    path = str(tmp_path / f"zero{row}" / "zero.emb")
    embedstore.save_embeddings(embedstore.EmbeddingSet("zero", view.dataset_name, rows,
                                                       view.image_ids, view.labels), path)
    return path


def test_a_zero_shared_row_is_refused_where_it_is_gathered(synth_dir, tmp_path, capsys):
    # the synth ids sort in row order, so a row's pairing position is its row index
    row = 7
    zero = _with_zero_row(synth_dir, tmp_path, row)
    v1, v2 = (str(synth_dir / f"view{v}.emb") for v in (1, 2))
    caps = ["--genuine-cap", "50", "--impostor-cap", "50"]
    # an evaluation gathers each seed's train or test rows, the cross protocol every shared
    # row of both pairs; each names the row by its pairing position, not among the gathered
    cases = [
        ["eval-id", "--source", zero, "--target", v1],
        ["eval-verif", "--source", zero, "--target", v1],
        ["eval-verif", "--source", v1, "--target", v2, "--train-source", zero,
         "--train-target", v2, *caps],
        ["eval-verif", "--source", zero, "--target", v1, "--train-source", v1,
         "--train-target", v2, *caps],
        ["sweep", "--source", zero, "--target", v1, "--fractions", "1.0"],
    ]
    for k, argv in enumerate(cases):
        out = tmp_path / f"out{k}"
        assert run(*argv, "--seeds", "0", "--out-dir", str(out)) == 1, argv
        assert capsys.readouterr().err == f"embalign: error: zero-norm row at index {row}\n", argv
        assert not out.exists()
    # every cell of a pair that shares the row is missing, the zero model's self cell too
    assert run("matrix", "--inputs", zero, v1, v2, "--seeds", "0",
               "--out-dir", str(tmp_path / "matrix")) == 0
    rank1 = json.loads((tmp_path / "matrix" / "compatibility_matrix.json").read_text())
    got = [[v is not None for v in r] for r in rank1["metrics"]["rank1"]]
    assert got == [[False] * 3, [False, True, True], [False, True, True]]


def test_fit_and_sweep_pass_a_zero_row_they_never_gather(synth_dir, tmp_path):
    # the pairing no longer reads every shared row: a zero test row does not stop a fit on
    # the train rows, nor a zero train row the sweep points whose fractions leave it out
    v1 = str(synth_dir / "view1.emb")
    labels = list(load_embeddings(v1).labels)
    split = splits.identity_disjoint_split(labels, 0.7, 0)
    zero = _with_zero_row(synth_dir, tmp_path, int(split.test_rows[0]))
    assert run("fit", "--source", zero, "--target", v1, "--out", str(tmp_path / "m.map")) == 0
    assert load_map(str(tmp_path / "m.map")).n_train == len(split.train_rows)
    assert run("eval-id", "--source", zero, "--target", v1, "--seeds", "0",
               "--out-dir", str(tmp_path / "id")) == 1
    # the last identity of the seed's shuffled train pool: a point at fraction 0.25 leaves it out
    codes = splits.label_codes(labels)
    pool = np.unique(codes[split.train_rows])
    left_out = pool[splits._rng(analysis._TAG_SWEEP, 0).permutation(len(pool))[-1]]
    zero = _with_zero_row(synth_dir, tmp_path, int(np.flatnonzero(codes == left_out)[0]))
    sweep = ["sweep", "--source", zero, "--target", v1, "--seeds", "0", "--methods", "linear"]
    assert run(*sweep, "--fractions", "0.25", "--out-dir", str(tmp_path / "quarter")) == 0
    assert run(*sweep, "--fractions", "0.25,1.0", "--out-dir", str(tmp_path / "all")) == 1
