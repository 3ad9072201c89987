"""The report layer: summaries across seeds, the report envelope, the version.

The references below are verbatim copies of the summary and ``to_dict``
code that each report type carried before they shared
``reports.mean_std`` and ``AlignedBaselineReport.to_dict``.
"""

import json
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import embalign
from embalign import analysis, evaluate_identification, evaluate_verification, reports
from embalign.errors import IoError
from embalign.ident_eval import RetrievalReport, SeedRetrieval
from embalign.verif_eval import (
    FMR_TARGETS,
    ROC_GRID,
    VerificationReport,
    _GRID_TARGETS,
    _points_to_arrays,
    _seed_metrics,
    _tmr_at,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def same(got, want):
    """Equal values, and equal to the last bit: ``json`` writes each float's exact repr."""
    return got == want and json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


# --- verbatim references ----------------------------------------------------

def ref_sections(report, summary):
    return {
        side: {"per_seed": [r.to_dict() for r in results], "summary": summary(results)}
        for side, results in (("aligned", report.per_seed),
                              ("baseline", report.per_seed_baseline))
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
        **ref_sections(report, ref_retrieval_summary),
    }


def ref_verification_summary(results):
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
    # each stored ROC is a sweep from `_roc`, already sorted by (FMR, TMR)
    grid_tmr = np.array(
        [_tmr_at(*_points_to_arrays(r.roc), _GRID_TARGETS) for r in results]
    )
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


def ref_verification_to_dict(report):
    return {
        "method": report.method,
        "protocol": report.protocol,
        "fraction": report.fraction,
        "seeds": list(report.seeds),
        "symmetric_score": report.symmetric_score,
        "metadata": report.metadata,
        **ref_sections(report, ref_verification_summary),
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
def seed_retrievals(draw, n_seeds):
    """Per-seed identification results; galleries, so CMC lengths and ks, differ."""
    out = []
    for seed in range(n_seeds):
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
def seed_verifications(draw, n_seeds):
    """Per-seed verification results from drawn genuine and impostor scores."""
    out = []
    for seed in range(n_seeds):
        n_gen, n_imp = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        values = st.sampled_from([-1.0, 0.0, 0.5, 1.0]) if draw(st.booleans()) else \
            st.floats(-1.0, 1.0)
        scores = draw(st.lists(values, min_size=n_gen + n_imp, max_size=n_gen + n_imp))
        labels = np.array([True] * n_gen + [False] * n_imp)
        out.append(_seed_metrics(np.array(scores), labels, seed))
    return tuple(out)


# --- the report types -------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_seeds=st.integers(1, 5), exclude_self=st.booleans())
def test_retrieval_report_equals_its_former_code(data, n_seeds, exclude_self):
    report = RetrievalReport(
        method="linear", fraction=0.6, seeds=tuple(range(n_seeds)),
        per_seed=data.draw(seed_retrievals(n_seeds)),
        per_seed_baseline=data.draw(seed_retrievals(n_seeds)),
        exclude_self=exclude_self, metadata={"alpha": 0.0, "dataset": "d"},
    )
    assert same(report.summary, ref_retrieval_summary(report.per_seed))
    assert same(report.baseline_summary, ref_retrieval_summary(report.per_seed_baseline))
    assert same(report.to_dict(), ref_retrieval_to_dict(report))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n_seeds=st.integers(1, 4), protocol=st.sampled_from(["intra", "cross"]))
def test_verification_report_equals_its_former_code(data, n_seeds, protocol):
    report = VerificationReport(
        method="ridge", seeds=tuple(range(n_seeds)),
        per_seed=data.draw(seed_verifications(n_seeds)),
        per_seed_baseline=data.draw(seed_verifications(n_seeds)),
        protocol=protocol, fraction=0.5, symmetric_score=data.draw(st.booleans()),
        metadata={"alpha": 0.3, "pair_caps": None},
    )
    assert same(report.summary, ref_verification_summary(report.per_seed))
    assert same(report.baseline_summary, ref_verification_summary(report.per_seed_baseline))
    assert same(report.to_dict(), ref_verification_to_dict(report))


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
    with pytest.raises(IoError):
        reports.provenance({}, [str(tmp_path / "missing.emb")])
    with pytest.raises(IoError):
        reports.file_sha256(str(tmp_path))  # a directory
