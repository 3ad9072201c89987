"""The report layer: summaries across seeds, the report envelope, the version.

The references below are copies of the summary and ``to_dict`` code that
each report type carried before they shared ``reports.mean_std`` and
``AlignedBaselineReport.to_dict``.  The verification reference reads each
seed's ROC grid from the public ``roc_curve`` and ``tmr_at_fmr`` of the
seed's scores, where the former code read the ROC points each seed kept.
"""

import json
import os
import re
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embalign
from embalign import (
    analysis, evaluate_identification, evaluate_verification, reports, roc_curve, tmr_at_fmr,
)
from embalign.errors import IoError
from embalign.ident_eval import RetrievalReport, SeedRetrieval
from embalign.splits import identity_disjoint_split
from embalign.verif_eval import (
    FMR_TARGETS,
    ROC_GRID,
    VerificationReport,
    _GRID_TARGETS,
    _seed_metrics,
)

from conftest import fit_alignment, unit_pair

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same(got, want):
    """Equal values, and equal to the last bit: ``json`` writes each float's exact repr."""
    return got == want and json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# --- references -------------------------------------------------------------

def ref_sections(report, summaries):
    """The aligned and the baseline section of ``report``, with their ``summaries``."""
    return {
        side: {"per_seed": [r.to_dict() for r in results], "summary": summary}
        for side, results, summary in zip(
            ("aligned", "baseline"), (report.per_seed, report.per_seed_baseline), summaries)
    }


def ref_retrieval_summary(results):
    ks = sorted(set.intersection(*(set(r.rank_k) for r in results)))
    out = {"rank_k": {}, "map": {}, "cmc": {}}
    for k in ks:
        vals = np.array([r.rank_k[k] for r in results])
        out["rank_k"][str(k)] = {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
        }
    maps = np.array([r.map_score for r in results])
    out["map"] = {
        "mean": float(maps.mean()),
        "std": float(maps.std(ddof=1)) if len(maps) > 1 else 0.0,
    }
    # test-set size varies with the seed; aggregate over the common prefix
    minlen = min(len(r.cmc) for r in results)
    cmc = np.array([r.cmc[:minlen] for r in results])
    out["cmc"] = {
        "mean": cmc.mean(axis=0).tolist(),
        "std": (cmc.std(axis=0, ddof=1) if cmc.shape[0] > 1 else np.zeros(cmc.shape[1])).tolist(),
    }
    return out


def ref_retrieval_to_dict(report):
    return {
        "method": report.method,
        "fraction": report.fraction,
        "seeds": list(report.seeds),
        "exclude_self": report.exclude_self,
        "metadata": report.metadata,
        **ref_sections(report, [ref_retrieval_summary(results) for results in
                                (report.per_seed, report.per_seed_baseline)]),
    }


def ref_verification_summary(results, rocs):
    """The summary of per-seed ``results`` whose ROCs (``roc_curve`` points) are ``rocs``."""
    def ms(vals):
        vals = np.asarray(vals)
        return {
            "mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
        }

    out = {
        "auc": ms([r.auc for r in results]),
        "eer": ms([r.eer for r in results]),
        "tmr_at_fmr": {
            str(t): ms([r.tmr_at_fmr[t] for r in results]) for t in FMR_TARGETS
        },
    }
    grid_tmr = np.array([[tmr_at_fmr(roc, t) for t in _GRID_TARGETS] for roc in rocs])
    out["roc_grid"] = {
        "fmr": ROC_GRID.tolist(),
        "tmr_mean": grid_tmr.mean(axis=0).tolist(),
        "tmr_std": (
            grid_tmr.std(axis=0, ddof=1)
            if grid_tmr.shape[0] > 1
            else np.zeros(grid_tmr.shape[1])
        ).tolist(),
    }
    return out


def ref_verification_to_dict(report, summaries):
    return {
        "method": report.method,
        "protocol": report.protocol,
        "fraction": report.fraction,
        "seeds": list(report.seeds),
        "symmetric_score": report.symmetric_score,
        "metadata": report.metadata,
        **ref_sections(report, summaries),
    }


def ref_sweep_summary(points, methods, fractions):
    summary = []
    for method in methods:
        for frac in fractions:
            vals = np.array(
                [p["rank1"] for p in points if p["method"] == method and p["fraction"] == frac]
            )
            summary.append(
                {
                    "method": method,
                    "fraction": frac,
                    "rank1_mean": float(vals.mean()),
                    "rank1_std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                }
            )
    return summary


def ref_metadata(source, target, method, alpha):
    return {
        "source_model": source.model_name,
        "target_model": target.model_name,
        "dataset": source.dataset_name,
        "alpha": alpha if method == "ridge" else 0.0,
    }


# --- strategies -------------------------------------------------------------

unit = st.floats(0.0, 1.0)


@st.composite
def seed_retrievals(draw, seeds):
    """Per-seed identification results; galleries, so CMC lengths and ks, differ."""
    out = []
    for seed in seeds:
        n_cmc = draw(st.integers(1, 12))
        ks = [k for k in (1, 5, 10) if k <= n_cmc] if draw(st.booleans()) else [1, 5, 10]
        out.append(SeedRetrieval(
            seed=seed,
            rank_k={k: draw(unit) for k in ks},
            map_score=draw(unit),
            cmc=tuple(draw(st.lists(unit, min_size=n_cmc, max_size=n_cmc))),
            n_queries=draw(st.integers(1, 100)),
            n_gallery=n_cmc,
        ))
    return tuple(out)


@st.composite
def seed_verifications(draw, seeds):
    """Per-seed verification results from drawn genuine and impostor scores, and their ROCs."""
    out, rocs = [], []
    for seed in seeds:
        n_gen, n_imp = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        values = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) if draw(st.booleans()) else \
            st.floats(-1.0, 1.0)
        scores = draw(st.lists(values, min_size=n_gen + n_imp, max_size=n_gen + n_imp))
        labels = np.array([True] * n_gen + [False] * n_imp)
        out.append(_seed_metrics(np.array(scores), labels, seed))
        rocs.append(roc_curve(scores, labels))
    return tuple(out), rocs


# --- the report types -------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seeds=st.integers(1, 5), exclude_self=st.booleans())
def test_retrieval_report_equals_its_former_code(data, n_seeds, exclude_self):
    report = RetrievalReport(
        method="linear", fraction=0.6, seeds=tuple(range(n_seeds)),
        per_seed=data.draw(seed_retrievals(range(n_seeds))),
        per_seed_baseline=data.draw(seed_retrievals(range(n_seeds))),
        exclude_self=exclude_self, metadata={"alpha": 0.0, "dataset": "d"},
    )
    assert same(report.summary, ref_retrieval_summary(report.per_seed))
    assert same(report.baseline_summary, ref_retrieval_summary(report.per_seed_baseline))
    assert same(report.to_dict(), ref_retrieval_to_dict(report))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_seeds=st.integers(1, 4), protocol=st.sampled_from(["intra", "cross"]))
def test_verification_report_equals_its_former_code(data, n_seeds, protocol):
    (aligned, aligned_rocs), (baseline, baseline_rocs) = (
        data.draw(seed_verifications(range(n_seeds))) for _ in range(2))
    report = VerificationReport(
        method="ridge", seeds=tuple(range(n_seeds)), per_seed=aligned,
        per_seed_baseline=baseline,
        protocol=protocol, fraction=0.5, symmetric_score=data.draw(st.booleans()),
        metadata={"alpha": 0.3, "pair_caps": None},
    )
    summaries = (ref_verification_summary(aligned, aligned_rocs),
                 ref_verification_summary(baseline, baseline_rocs))
    assert same(report.summary, summaries[0])
    assert same(report.baseline_summary, summaries[1])
    assert same(report.to_dict(), ref_verification_to_dict(report, summaries))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_seeds=st.integers(1, 4), fixed_map=st.booleans())
def test_from_seeds_builds_the_report_of_a_seed_loop(data, n_seeds, fixed_map):
    # a fixed map scores every seed on all shared rows, so its seeds have no split
    seeds = data.draw(st.permutations(range(n_seeds)))
    labels = ["a", "a", "b", "b", "c", "c"]
    splits = [None if fixed_map else identity_disjoint_split(labels, 0.5, s) for s in seeds]
    aligned, baseline = (data.draw(seed_retrievals(seeds)) for _ in range(2))
    fields = {"method": "linear", "fraction": 0.6, "exclude_self": True,
              "metadata": {"dataset": "d"}}
    ident = RetrievalReport.from_seeds(zip(aligned, baseline, splits), **fields)
    (v_aligned, v_rocs), (v_baseline, v_base_rocs) = (
        data.draw(seed_verifications(seeds)) for _ in range(2))
    verif = VerificationReport.from_seeds(
        list(zip(v_aligned, v_baseline, splits)), method="ridge", fraction=0.5,
        protocol="cross" if fixed_map else "intra", symmetric_score=True,
        metadata={"pair_caps": None})
    for report in (ident, verif):
        assert report.seeds == tuple(seeds)
        assert report.per_seed_split == (() if fixed_map else tuple(splits))
        assert [s.seed for s in report.per_seed_split] == ([] if fixed_map else seeds)
    assert ident == RetrievalReport(seeds=tuple(seeds), per_seed=aligned,
                                    per_seed_baseline=baseline, **fields)
    assert (ident.per_seed, ident.per_seed_baseline) == (aligned, baseline)
    assert (verif.per_seed, verif.per_seed_baseline) == (v_aligned, v_baseline)
    assert same(ident.to_dict(), ref_retrieval_to_dict(ident))
    summaries = (ref_verification_summary(v_aligned, v_rocs),
                 ref_verification_summary(v_baseline, v_base_rocs))
    assert same(verif.to_dict(), ref_verification_to_dict(verif, summaries))


def test_evaluators_keep_one_split_per_seed_in_seed_order(small_views):
    v0, v1 = small_views
    seeds = [3, 0, 1]
    ident = evaluate_identification(v0, v1, seeds=seeds)
    intra = evaluate_verification(v0, v1, seeds=seeds)
    cross = evaluate_verification(v0, v1, seeds=seeds, pair_caps=(20, 20),
                                  amap=fit_alignment(*unit_pair(v0, v1)[1:], "procrustes"))
    for report in (ident, intra, cross):
        assert report.seeds == tuple(seeds)
        assert [r.seed for r in report.per_seed + report.per_seed_baseline] == seeds * 2
    for report in (ident, intra):
        assert [s.seed for s in report.per_seed_split] == seeds
    assert cross.per_seed_split == ()


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
    fractions=st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=3,
                       unique=True).map(sorted),
    methods=st.lists(st.sampled_from(["procrustes", "linear", "ridge"]), min_size=1,
                     max_size=3, unique=True),
    values=st.lists(unit, min_size=27, max_size=27),
)
def test_sweep_summary_equals_its_former_code(small_views, seeds, fractions, methods, values):
    # each point's Rank-1 is the next drawn value, so the summary sees arbitrary floats
    drawn = iter(values)
    with mock.patch.object(analysis, "map_rank1", lambda *args: next(drawn)):
        table = analysis.training_size_sweep(*small_views, fractions, seeds=seeds,
                                             methods=methods)
    assert same(table["summary"], ref_sweep_summary(table["points"], methods, fractions))


@pytest.mark.parametrize("method, alpha", [("procrustes", 0.4), ("ridge", 0.4)])
def test_evaluators_give_the_pair_metadata(small_views, method, alpha):
    v0, v1 = small_views
    want = ref_metadata(v0, v1, method, alpha)
    assert reports.pair_metadata(v0, v1, method, alpha) == want
    ident = evaluate_identification(v0, v1, method=method, seeds=(0,), alpha=alpha)
    assert ident.metadata == {**want, "gallery_includes_self": True}
    verif = evaluate_verification(v0, v1, method=method, seeds=(0,), alpha=alpha)
    assert verif.metadata == {**want, "scoring_direction": "source_to_target",
                              "pair_caps": None}


@pytest.mark.parametrize("values, mean, std", [
    ([0.5], 0.5, 0.0),
    ([1.0, 3.0], 2.0, np.sqrt(2.0)),
    ([[1.0, 2.0], [3.0, 2.0]], [2.0, 2.0], [np.sqrt(2.0), 0.0]),
    ([[4.0, 5.0]], [4.0, 5.0], [0.0, 0.0]),
])
def test_mean_std_is_the_sample_std_over_seeds(values, mean, std):
    got_mean, got_std = reports.mean_std(values)
    assert np.array_equal(got_mean, mean) and np.array_equal(got_std, std)


def test_version_is_the_tool_version_and_the_package_version():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as f:
        declared = re.search(r'^version = "([^"]+)"$', f.read(), re.MULTILINE).group(1)
    assert embalign.__version__ == reports.TOOL_VERSION == declared


def test_hashing_an_unreadable_input_is_an_io_error(tmp_path):
    missing = str(tmp_path / "missing.emb")
    with pytest.raises(IoError), reports.Beside("hash", reports.file_sha256, missing) as hashes:
        hashes.result()
    with pytest.raises(IoError):
        reports.file_sha256(str(tmp_path))  # a directory


def test_a_failed_write_names_the_path_given_and_leaves_no_file(tmp_path):
    # the error used to name the temporary file, "<path>.tmp"
    path = str(tmp_path / "missing_dir" / "m.map")
    with pytest.raises(IoError) as err:
        reports.atomic_write(path, b"data")
    assert str(err.value) == f"cannot write {path}: No such file or directory"
    taken = tmp_path / "taken"
    taken.mkdir()
    with pytest.raises(IoError, match=f"cannot write {taken}: "):
        reports.atomic_write(str(taken), b"data")
    assert os.listdir(tmp_path) == ["taken"] and not os.listdir(taken)


def test_beside_gives_the_value_of_its_named_thread():
    job = reports.Beside("embalign-test", lambda a, b: (threading.current_thread().name, a + b),
                         1, 2)
    assert job.result() == ("embalign-test", 3)


def test_leaving_a_beside_block_waits_for_the_thread_and_raises_the_block_error():
    done = []

    def worker():
        time.sleep(0.1)
        done.append(True)
        raise IoError("the worker's error")

    with pytest.raises(ValueError, match="the block's error"), reports.Beside("t", worker):
        raise ValueError("the block's error")
    assert done
