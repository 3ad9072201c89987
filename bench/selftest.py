"""Self-tests of the benchmark's own logic.

    python3 bench/selftest.py

Covers self-time arithmetic on nested and threaded spans, span parents
across a ``--jobs`` pool in a real traced CLI run, the output checker, and
the generator's determinism.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest
from concurrent.futures import ThreadPoolExecutor

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from embalign import embedstore, synth  # noqa: E402


def span(sid, parent, start, end, name="x"):
    return spans.Span(sid, name, parent, start, end)


class SelfTimeTest(unittest.TestCase):
    def test_nested(self):
        got = spans.self_times([span(0, None, 0, 10), span(1, 0, 1, 4), span(2, 1, 2, 3),
                                span(3, 0, 5, 6)])
        self.assertEqual(got, {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_overlapping_threaded_children_count_once(self):
        # two workers under one parent, busy over [1, 6] and [4, 9]
        got = spans.self_times([span(0, None, 0, 10), span(1, 0, 1, 6), span(2, 0, 4, 9)])
        self.assertEqual(got[0], 2.0)
        self.assertEqual(got[1] + got[2], 10.0)

    def test_child_clipped_to_parent(self):
        got = spans.self_times([span(0, None, 0, 4), span(1, 0, 3, 7)])
        self.assertEqual(got[0], 3.0)

    def test_worker_thread_spans_take_the_pool_owner_as_parent(self):
        rec = spans.Recorder()
        inner = rec.wrap("inner", lambda x: x * 2)

        def outer(xs):
            with ThreadPoolExecutor(max_workers=2) as pool:
                return list(pool.map(inner, xs))

        outer = rec.wrap("outer", outer)
        self.assertEqual(outer([1, 2, 3]), [2, 4, 6])
        (root,) = [s for s in rec.spans if s.name == "outer"]
        workers = [s for s in rec.spans if s.name == "inner"]
        self.assertEqual(len(workers), 3)
        self.assertTrue(all(s.parent == root.id for s in workers))
        self.assertIsNone(root.parent)

    def test_span_recorded_when_call_raises(self):
        rec = spans.Recorder()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            rec.wrap("boom", boom)()
        self.assertEqual([s.name for s in rec.spans], ["boom"])

    def test_layer_metrics_ratios(self):
        rows = [span(0, None, 0, 10, "cli.main"), span(1, 0, 1, 2, "prep.l2_normalize"),
                span(2, 0, 2, 3, "prep.l2_normalize"), span(3, 0, 3, 4, "ident_eval.score_matrix")]
        rows[1].counts = {"rows": 5, "content": "a"}
        rows[2].counts = {"rows": 5, "content": "a"}
        rows += [span(4 + k, 0, 4 + k, 4.5 + k, "ident_eval.rank_k_accuracy") for k in range(3)]
        m = spans.layer_metrics(rows)
        self.assertEqual(m["prep.l2_normalize.redundancy"], 2.0)
        self.assertEqual(m["ident_eval.rank_calls_per_score"], 3.0)
        self.assertEqual(m["cli.main.self_s"], 10 - 4.5)
        self.assertEqual(m["verif_eval.pair_scores.pairs"], 0.0)


class TracedCliTest(unittest.TestCase):
    def test_matrix_spans_cover_every_importer_and_thread(self):
        cloud = synth.generate_identity_cloud(20, 5, 4, seed=3)
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for k in range(3):
                p = os.path.join(tmp, f"v{k}.emb")
                embedstore.save_embeddings(synth.embed_view(cloud, 8, k), p)
                paths.append(p)
            spans_path = os.path.join(tmp, "spans.json")
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans_path,
                   "matrix", "--inputs", *paths, "--seeds", "0,1", "--jobs", "2",
                   "--out-dir", os.path.join(tmp, "out")]
            subprocess.run(cmd, env=run._child_env(ROOT), check=True, timeout=120)
            with open(spans_path, encoding="utf-8") as f:
                got = spans.spans_from_json(json.load(f))
        by_id = {s.id: s for s in got}
        names = {s.name for s in got}
        # evaluate_identification is reached through analysis's own import
        for name in ("cli.main", "analysis.build_compatibility_matrix",
                     "ident_eval.evaluate_identification", "ident_eval.score_matrix",
                     "ident_eval.rank_k_accuracy", "align.fit_map", "prep.l2_normalize"):
            self.assertIn(name, names)
        roots = [s for s in got if s.parent is None]
        self.assertEqual([s.name for s in roots], ["cli.main"])
        for s in got:
            if s.name == "ident_eval.score_matrix":
                self.assertEqual(by_id[s.parent].name, "ident_eval.evaluate_identification")
        m = spans.layer_metrics(got)
        self.assertEqual(m["ident_eval.evaluate_identification.calls"], 9)
        self.assertEqual(m["ident_eval.score_matrix.calls"], 36)
        self.assertEqual(m["prep.l2_normalize.redundancy"], 6.0)
        self.assertEqual(m["ident_eval.rank_calls_per_score"], 5.0)


def _matrix_doc():
    r = [[100.0] * 6 for _ in range(6)]
    for i in range(4):
        r[i][4] = 90.0
    for k in range(5):
        r[k][5] = r[5][k] = 5.0
    return {"metrics": {"rank1": r}}


def _ident_doc():
    def side(map_score, rank1):
        return {"per_seed": [{"n_queries": 3000}],
                "summary": {"map": {"mean": map_score}, "rank_k": {"1": {"mean": rank1}}}}

    return {"metrics": {"aligned": side(0.75, 1.0), "baseline": side(0.01, 0.003)}}


def _verif_doc():
    def side(auc):
        cap = workloads.VERIF_PAIR_CAP
        return {"per_seed": [{"n_genuine": cap, "n_impostor": cap}] * len(workloads.VERIF_SEEDS),
                "summary": {"auc": {"mean": auc}}}

    return {"metrics": {"protocol": "cross", "aligned": side(0.99), "baseline": side(0.5)}}


class CheckerTest(unittest.TestCase):
    def write(self, directory, workload, text):
        with open(os.path.join(directory, workload.report), "w", encoding="utf-8") as f:
            f.write(text)

    def test_planted_reports_pass_and_altered_ones_fail(self):
        for name, doc, alter in (
            ("matrix-m6", _matrix_doc(), lambda d: d["metrics"]["rank1"][2].__setitem__(2, 99.5)),
            ("matrix-m6", _matrix_doc(), lambda d: d["metrics"]["rank1"][1].__setitem__(0, None)),
            ("matrix-m6", _matrix_doc(), lambda d: d["metrics"]["rank1"][5].__setitem__(0, 60.0)),
            ("ident-10k", _ident_doc(),
             lambda d: d["metrics"]["aligned"]["summary"]["map"].__setitem__("mean", 1.0)),
            ("verif-cross", _verif_doc(),
             lambda d: d["metrics"]["aligned"]["summary"]["auc"].__setitem__("mean", 0.49)),
            ("verif-cross", _verif_doc(),
             lambda d: d["metrics"]["aligned"]["per_seed"].pop()),
            ("ident-10k", _ident_doc(),
             lambda d: d["metrics"]["baseline"]["summary"]["rank_k"]["1"].__setitem__("mean", 0.5)),
        ):
            w = workloads.WORKLOADS[name]
            with tempfile.TemporaryDirectory() as tmp:
                self.write(tmp, w, json.dumps(doc))
                self.assertEqual(workloads.check_report(w, tmp), [])
                bad = copy.deepcopy(doc)
                alter(bad)
                self.write(tmp, w, json.dumps(bad))
                self.assertNotEqual(workloads.check_report(w, tmp), [], name)

    def test_truncated_and_missing_reports_fail(self):
        w = workloads.WORKLOADS["matrix-m6"]
        with tempfile.TemporaryDirectory() as tmp:
            self.assertIn("missing", workloads.check_report(w, tmp)[0])
            self.write(tmp, w, json.dumps(_matrix_doc())[:-40])
            self.assertIn("does not parse", workloads.check_report(w, tmp)[0])
            self.write(tmp, w, json.dumps({"metrics": {}}))
            self.assertIn("expected field", workloads.check_report(w, tmp)[0])

    def test_nonzero_exit_fails(self):
        w = workloads.WORKLOADS["ident-10k"]
        inputs = workloads.Inputs(["eval-id", "--source", "no-such.emb",
                                   "--target", "no-such.emb"], [])
        with tempfile.TemporaryDirectory() as tmp:
            sample = run.run_cli(w, inputs, os.path.join(tmp, "out"), run._child_env(ROOT))
        self.assertTrue(sample.problems)
        self.assertIn("exit code 1", sample.problems[0])

    def test_differing_repeats_fail(self):
        samples = [run.Sample(1, 1, 1, digest="a"), run.Sample(1, 1, 1, digest="a"),
                   run.Sample(1, 1, 1, digest="b")]
        run.check_repeats(samples)
        self.assertEqual([bool(s.problems) for s in samples], [False, False, True])


def _file_bytes(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


class CompareTest(unittest.TestCase):
    def test_environment_change_and_regression_are_flagged(self):
        env = {"nproc": 2, "blas_threads": 2, "commit": "a", "source_digest": "x"}
        base = {"workload": "w", "trace": 0, "seconds": 30, "env": env,
                "metrics": {"wall_s": [10.0, "s"], "items_per_s": [5.0, "1/s"]}}
        bounds = {"wall_s": ("lower", 0.1), "items_per_s": ("higher", 0.1)}
        new = copy.deepcopy(base)
        new["env"]["commit"] = "b"
        new["metrics"]["wall_s"][0] = 10.5
        lines, regressed = compare.compare(base, new, bounds)
        self.assertFalse(regressed)
        self.assertFalse([l for l in lines if "WARNING" in l])
        new["env"]["blas_threads"] = 1
        new["metrics"]["items_per_s"][0] = 4.0
        lines, regressed = compare.compare(base, new, bounds)
        self.assertTrue(regressed)
        self.assertTrue([l for l in lines if "WARNING" in l and "blas_threads" in l])


class SpecTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(spans.LAYER_METRICS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.end_to_end([run.Sample(1, 1, 1, items=1)], [1])))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        w = workloads.WORKLOADS["matrix-m6"]
        with tempfile.TemporaryDirectory() as tmp:
            dirs = [os.path.join(tmp, d) for d in ("a", "b", "c")]
            for d, seed in zip(dirs, (4, 4, 5)):
                os.makedirs(d)
                w.generate(seed, d)
            a, b, c = (_file_bytes(d) for d in dirs)
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_overlapping_train_and_eval_sets_are_rejected(self):
        cloud = synth.generate_identity_cloud(4, 2, 2, seed=0)
        with tempfile.TemporaryDirectory() as tmp:
            a, b = os.path.join(tmp, "a.emb"), os.path.join(tmp, "b.emb")
            embedstore.save_embeddings(synth.embed_view(cloud, 4, 0), a)
            embedstore.save_embeddings(synth.embed_view(cloud, 4, 1), b)
            with self.assertRaises(ValueError):
                workloads.check_disjoint(a, b)


if __name__ == "__main__":
    unittest.main()
