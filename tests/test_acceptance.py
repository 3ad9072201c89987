"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain ``pytest -v`` run.  Thresholds are deliberately conservative; the
configurations are small enough to run single-threaded in well under a
minute total.
"""

import json
import time

import numpy as np

from embalign import (
    agglomerative_cluster,
    auc,
    cmc_curve,
    eer,
    embed_view,
    evaluate_identification,
    evaluate_verification,
    generate_identity_cloud,
    identity_disjoint_split,
    mean_average_precision,
    rank_k_accuracy,
    roc_curve,
    sample_pairs_capped,
    save_embeddings,
    tmr_at_fmr,
    training_size_sweep,
)
from embalign.align import fit_linear, fit_procrustes, fit_ridge
from embalign.cli import main as cli_main


def verdict(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def synth_pair(map_kind, ids=100, per_id=10, intrinsic=16, dim=64,
               spread=0.1, noise=0.0, cloud_seed=7, view_seeds=(10, 20)):
    cloud = generate_identity_cloud(ids, per_id, intrinsic, spread=spread,
                                    seed=cloud_seed)
    return tuple(
        embed_view(cloud, dim, view_seed=s, noise=noise, map_kind=map_kind,
                   model_name=f"view{s}")
        for s in view_seeds
    )


# --- 1: synthetic recovery with orthogonal ground truth --------------------

def test_acceptance_1_synthetic_recovery_orthogonal():
    t0 = time.perf_counter()
    v0, v1 = synth_pair("orthogonal")
    ident = evaluate_identification(v0, v1, "procrustes", fraction=0.7)
    verif = evaluate_verification(v0, v1, "procrustes", fraction=0.7)
    elapsed = time.perf_counter() - t0

    r1 = ident.summary["rank_k"]["1"]["mean"]
    base_r1 = ident.baseline_summary["rank_k"]["1"]["mean"]
    a = verif.summary["auc"]["mean"]
    base_auc = verif.baseline_summary["auc"]["mean"]
    ok = (
        r1 >= 0.995
        and a >= 0.999
        and base_r1 <= 0.05
        and 0.40 <= base_auc <= 0.60
        and elapsed < 30.0
    )
    verdict(
        "1 synthetic recovery, orthogonal ground truth", ok,
        f"rank1={r1:.4f} auc={a:.4f} base_rank1={base_r1:.4f} "
        f"base_auc={base_auc:.4f} time={elapsed:.1f}s",
    )


# --- 2: general linear ground truth ----------------------------------------

def test_acceptance_2_synthetic_recovery_general_linear():
    v0, v1 = synth_pair("general_linear")
    linear = evaluate_identification(v0, v1, "linear", fraction=0.7)
    procrustes = evaluate_identification(v0, v1, "procrustes", fraction=0.7)
    lin_r1 = linear.summary["rank_k"]["1"]["mean"]
    pro_r1 = procrustes.summary["rank_k"]["1"]["mean"]
    ok = lin_r1 >= 0.99 and lin_r1 >= pro_r1 - 0.02
    verdict(
        "2 synthetic recovery, general linear ground truth", ok,
        f"linear_rank1={lin_r1:.4f} procrustes_rank1={pro_r1:.4f}",
    )


# --- 3: solver invariants over randomized instances ------------------------

def test_acceptance_3_solver_invariants():
    rng = np.random.default_rng(2024)
    worst_orth = 0.0
    worst_order = 0.0
    worst_agree = 0.0
    shrink_ok = True
    for trial in range(200):
        n = int(rng.integers(10, 2001))
        d = int(rng.integers(8, 257))
        rank_deficient = trial % 2 == 1
        cols = d - int(rng.integers(1, max(2, d // 3))) if rank_deficient else d
        x = np.zeros((n, d))
        x[:, :cols] = rng.standard_normal((n, cols))
        y = rng.standard_normal((n, d))

        w_p = fit_procrustes(x, y)
        worst_orth = max(worst_orth, np.linalg.norm(w_p.T @ w_p - np.eye(d)))

        w_l = fit_linear(x, y)
        w_r = fit_ridge(x, y, 0.1)
        res = lambda w: np.linalg.norm(x @ w - y)
        worst_order = max(worst_order, res(w_l) - res(w_p), res(w_l) - res(w_r))

        norms = [np.linalg.norm(fit_ridge(x, y, a)) for a in (1e-4, 1e-2, 1.0, 100.0)]
        shrink_ok = shrink_ok and all(
            b <= a + 1e-9 for a, b in zip(norms, norms[1:])
        )

        if not rank_deficient and n >= d and np.linalg.cond(x) <= 100.0:
            worst_agree = max(
                worst_agree, np.linalg.norm(fit_ridge(x, y, 1e-10) - w_l)
            )
    ok = (
        worst_orth <= 1e-8
        and worst_order <= 1e-9
        and shrink_ok
        and worst_agree <= 1e-6
    )
    verdict(
        "3 solver invariants, 200 random instances", ok,
        f"orth={worst_orth:.2e} order={worst_order:.2e} "
        f"shrinkage_monotone={shrink_ok} ridge_vs_linear={worst_agree:.2e}",
    )


# --- 4: metric oracles ------------------------------------------------------

def _mann_whitney(scores, labels):
    gen = [s for s, l in zip(scores, labels) if l]
    imp = [s for s, l in zip(scores, labels) if not l]
    total = sum(
        1.0 if g > i else (0.5 if g == i else 0.0) for g in gen for i in imp
    )
    return total / (len(gen) * len(imp))


def _brute_roc(scores, labels):
    gen = np.array([s for s, l in zip(scores, labels) if l])
    imp = np.array([s for s, l in zip(scores, labels) if not l])
    pts = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        pts.append((float((imp >= t).mean()), float((gen >= t).mean())))
    return pts


def _brute_eer(scores, labels):
    pts = _brute_roc(scores, labels)
    for (f1, t1), (f2, t2) in zip(pts, pts[1:]):
        g1, g2 = f1 - (1.0 - t1), f2 - (1.0 - t2)
        if g1 == 0.0:
            return f1
        if g1 < 0.0 <= g2:
            return f1 + (-g1 / (g2 - g1)) * (f2 - f1)
    return pts[-1][0]


def _brute_tmr(scores, labels, target):
    pts = _brute_roc(scores, labels)
    best = 0.0
    for k, (f, t) in enumerate(pts):
        if f <= target:
            best = max(best, t)
        else:
            f1, t1 = pts[k - 1]
            if f1 <= target:
                best = max(best, t1 + (target - f1) * (t - t1) / (f - f1))
            break
    return best


def _naive_order(row):
    return sorted(range(len(row)), key=lambda j: (-row[j], j))


def _naive_rank_k(scores, q_labels, g_labels, k):
    hits = sum(
        q_labels[i] in [g_labels[j] for j in _naive_order(row)[:k]]
        for i, row in enumerate(scores)
    )
    return hits / len(scores)


def _naive_map(scores, q_labels, g_labels):
    aps = []
    for i, row in enumerate(scores):
        seen, total = 0, 0.0
        n_rel = sum(1 for l in g_labels if l == q_labels[i])
        for rank, j in enumerate(_naive_order(row), start=1):
            if g_labels[j] == q_labels[i]:
                seen += 1
                total += seen / rank
        aps.append(total / n_rel)
    return float(np.mean(aps))


def test_acceptance_4_metric_oracles():
    rng = np.random.default_rng(4)
    worst_auc = worst_thresh = 0.0
    for _ in range(100):
        n_gen = int(rng.integers(2, 40))
        n_imp = int(rng.integers(2, 40))
        if rng.random() < 0.5:
            values = rng.choice(np.linspace(-1, 1, 7), size=n_gen + n_imp)
        else:
            values = rng.standard_normal(n_gen + n_imp)
            values[:n_gen] += 0.8
        scores = list(values)
        labels = [True] * n_gen + [False] * n_imp
        roc = roc_curve(scores, labels)
        worst_auc = max(worst_auc, abs(auc(roc) - _mann_whitney(scores, labels)))
        worst_thresh = max(worst_thresh, abs(eer(roc) - _brute_eer(scores, labels)))
        for target in (0.01, 0.001):
            worst_thresh = max(
                worst_thresh,
                abs(tmr_at_fmr(roc, target) - _brute_tmr(scores, labels, target)),
            )

    retrieval_ok = True
    cmc_ok = True
    for _ in range(100):
        q_n = int(rng.integers(2, 8))
        g_n = int(rng.integers(2, 10))
        g_labels = [str(rng.integers(0, 4)) for _ in range(g_n)]
        q_labels = [g_labels[int(rng.integers(0, g_n))] for _ in range(q_n)]
        scores = rng.choice([-0.5, 0.0, 0.25, 0.5, 0.75], size=(q_n, g_n))
        for k in (1, g_n):
            retrieval_ok = retrieval_ok and rank_k_accuracy(
                scores, q_labels, g_labels, k
            ) == _naive_rank_k(scores, q_labels, g_labels, k)
        retrieval_ok = retrieval_ok and abs(
            mean_average_precision(scores, q_labels, g_labels)
            - _naive_map(scores, q_labels, g_labels)
        ) <= 1e-12
        curve = cmc_curve(scores, q_labels, g_labels, g_n)
        cmc_ok = cmc_ok and all(a <= b + 1e-15 for a, b in zip(curve, curve[1:]))

    ok = worst_auc <= 1e-9 and worst_thresh <= 1e-9 and retrieval_ok and cmc_ok
    verdict(
        "4 metric oracles, 100+100 random instances", ok,
        f"auc_dev={worst_auc:.2e} eer_tmr_dev={worst_thresh:.2e} "
        f"retrieval_exact={retrieval_ok} cmc_monotone={cmc_ok}",
    )


# --- 5: protocol invariants and reproducibility ----------------------------

def test_acceptance_5_protocol_invariants(tmp_path):
    rng = np.random.default_rng(5)
    split_ok = True
    for _ in range(1000):
        n_ids = int(rng.integers(2, 40))
        per_id = int(rng.integers(1, 4))
        labels = [f"p{k}" for k in range(n_ids) for _ in range(per_id)]
        fraction = float(rng.uniform(0.05, 0.95))
        if not 1 <= int(n_ids * fraction) < n_ids:
            continue
        spec = identity_disjoint_split(labels, fraction, int(rng.integers(0, 10**6)))
        split_ok = split_ok and not (spec.train_identities & spec.test_identities)
        split_ok = split_ok and sorted(spec.train_rows + spec.test_rows) == list(
            range(len(labels))
        )

    labels = [f"p{k}" for k in range(25) for _ in range(4)]
    pair_ok = True
    for seed in range(20):
        pl = sample_pairs_capped(labels, 80, 80, seed)
        keys = [(i, j) for i, j, _ in pl.pairs]
        pair_ok = pair_ok and len(keys) == len(set(keys))
        for i, j, genuine in pl.pairs:
            pair_ok = pair_ok and (labels[i] == labels[j]) == genuine and i != j

    v0, v1 = synth_pair("orthogonal", ids=30, per_id=4, intrinsic=8, dim=24)
    src, tgt = tmp_path / "a.emb", tmp_path / "b.emb"
    save_embeddings(v0, str(src), "binary")
    save_embeddings(v1, str(tgt), "binary")
    blobs = []
    for run, jobs in (("r1", "1"), ("r2", "1"), ("r3", "8")):
        out = tmp_path / run
        code = cli_main([
            "eval-id", "--source", str(src), "--target", str(tgt),
            "--seeds", "0,1,2", "--jobs", jobs, "--out-dir", str(out),
        ])
        assert code == 0
        blobs.append((out / "identification_report.json").read_bytes())
    repro_ok = blobs[0] == blobs[1] == blobs[2]

    ok = split_ok and pair_ok and repro_ok
    verdict(
        "5 protocol invariants", ok,
        f"splits_disjoint={split_ok} pairs_clean={pair_ok} "
        f"reports_byte_identical={repro_ok}",
    )


# --- 6: clustering recovers planted families --------------------------------

def test_acceptance_6_clustering_planted_families():
    rng = np.random.default_rng(6)
    families = [{0, 1, 2}, {3, 4, 5}]
    s = np.empty((6, 6))
    for i in range(6):
        for j in range(i, 6):
            if i == j:
                s[i, j] = 100.0
                continue
            same = any(i in fam and j in fam for fam in families)
            base = 95.0 if same else 10.0
            s[i, j] = s[j, i] = base + rng.uniform(-2.0, 2.0)

    ok = True
    details = []
    for linkage in ("average", "single", "complete"):
        dend = agglomerative_cluster(s, linkage)
        within = all(
            any(dend.leaves_of(a) | dend.leaves_of(b) <= fam for fam in families)
            for a, b, _ in dend.merges[:4]
        )
        ok = ok and within
        details.append(f"{linkage}={within}")
    verdict("6 clustering recovers planted families", ok, " ".join(details))


# --- 7: training-size sweep ordering ----------------------------------------

def test_acceptance_7_training_size_sweep():
    v0, v1 = synth_pair(
        "general_linear", ids=100, per_id=5, intrinsic=32, dim=64, spread=0.25,
    )
    table = training_size_sweep(
        v0, v1, [0.1, 1.0], methods=("procrustes", "linear"), base_fraction=0.7,
    )
    by = {(r["method"], r["fraction"]): r["rank1_mean"] for r in table["summary"]}
    n_small = min(
        p["n_train_rows"] for p in table["points"] if p["fraction"] == 0.1
    )
    small_ok = n_small < 64 and by[("procrustes", 0.1)] > by[("linear", 0.1)]
    big_ok = by[("linear", 1.0)] >= by[("procrustes", 1.0)] - 0.01
    ok = small_ok and big_ok
    verdict(
        "7 training-size sweep ordering", ok,
        f"n_small={n_small} small: procrustes={by[('procrustes', 0.1)]:.4f} "
        f"linear={by[('linear', 0.1)]:.4f}; full: "
        f"procrustes={by[('procrustes', 1.0)]:.4f} linear={by[('linear', 1.0)]:.4f}",
    )


# --- 8: end-to-end smoke on user-format files -------------------------------

def test_acceptance_8_user_files_smoke(tmp_path):
    # stand-in for user-supplied embeddings: CSV files with differing dims
    rng = np.random.default_rng(8)
    n_ids, per_id = 30, 4
    labels = [f"person{k:03d}" for k in range(n_ids) for _ in range(per_id)]
    ids = [f"img{i:04d}" for i in range(len(labels))]
    centers = rng.standard_normal((n_ids, 12))
    base = np.repeat(centers, per_id, axis=0) + 0.1 * rng.standard_normal(
        (len(labels), 12)
    )
    paths = []
    for name, dim in (("model_a", 16), ("model_b", 24)):
        rows = np.zeros((len(labels), dim), dtype=np.float32)
        rows[:, :12] = base @ np.linalg.qr(rng.standard_normal((12, 12)))[0]
        rows[:, 12:] = 0.05 * rng.standard_normal((len(labels), dim - 12))
        path = tmp_path / f"{name}.csv"
        with open(path, "w", encoding="utf-8") as f:
            f.write("image_id,identity," + ",".join(f"e{j}" for j in range(dim)) + "\n")
            for i in range(len(labels)):
                f.write(ids[i] + "," + labels[i] + ","
                        + ",".join(f"{v:.7g}" for v in rows[i]) + "\n")
        paths.append(str(path))

    id_dir, ver_dir = tmp_path / "id", tmp_path / "verif"
    assert cli_main([
        "eval-id", "--source", paths[0], "--target", paths[1],
        "--format", "csv", "--out-dir", str(id_dir),
    ]) == 0
    assert cli_main([
        "eval-verif", "--source", paths[0], "--target", paths[1],
        "--format", "csv", "--out-dir", str(ver_dir),
    ]) == 0

    id_doc = json.loads((id_dir / "identification_report.json").read_text())
    ver_doc = json.loads((ver_dir / "verification_report.json").read_text())
    id_sum = id_doc["metrics"]["aligned"]["summary"]
    ver_sum = ver_doc["metrics"]["aligned"]["summary"]
    ok = True
    for k in ("1", "5", "10"):
        ok = ok and {"mean", "std"} <= set(id_sum["rank_k"][k])
    ok = ok and {"mean", "std"} <= set(id_sum["map"])
    for k in ("auc", "eer"):
        ok = ok and {"mean", "std"} <= set(ver_sum[k])
    for k in ("0.01", "0.001"):
        ok = ok and {"mean", "std"} <= set(ver_sum["tmr_at_fmr"][k])
    ok = ok and len(id_doc["metrics"]["aligned"]["per_seed"]) == 5
    ok = ok and len(ver_doc["metrics"]["aligned"]["per_seed"]) == 5
    verdict("8 end-to-end smoke on user-format files", ok)
