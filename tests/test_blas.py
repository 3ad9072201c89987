"""The OpenBLAS thread split, work on two threads, and the identification that runs on them."""

import sys
import threading

import numpy as np
import pytest

from embalign import align, blas, evaluate_identification, ident_eval
from embalign.cli import main
from embalign.embedstore import EmbeddingSet
from embalign.errors import DegenerateRowError
from embalign.ident_eval import CMC_MAX_RANK, RetrievalReport
from embalign.reports import pair_metadata
from embalign.splits import identity_disjoint_split

FUNCTIONS = blas._thread_functions()
needs_openblas = pytest.mark.skipif(FUNCTIONS is None, reason="numpy's BLAS is not OpenBLAS")


@pytest.fixture
def blas_threads():
    """OpenBLAS at two threads, its ``set_num_threads`` for the test, and its count restored
    after it; ``None`` without OpenBLAS."""
    if FUNCTIONS is None:
        yield None
        return
    get, set_ = FUNCTIONS
    before = get()
    set_(2)
    try:
        yield set_
    finally:
        set_(before)


def _count():
    return FUNCTIONS[0]()


@needs_openblas
@pytest.mark.parametrize("n, inside", [(4, 2), (5, 2), (1, 1)])
def test_split_divides_the_threads_and_restores_them(blas_threads, n, inside):
    blas_threads(n)
    with blas.split_threads():
        assert _count() == inside
    assert _count() == n
    with pytest.raises(RuntimeError), blas.split_threads():
        assert _count() == inside
        raise RuntimeError("inside the block")
    assert _count() == n


@needs_openblas
def test_nested_splits_restore_the_outer_count(blas_threads):
    blas_threads(4)
    with blas.split_threads():
        with blas.split_threads():
            assert _count() == 1
        assert _count() == 2
    assert _count() == 4


@needs_openblas
def test_overlapping_splits_on_two_threads_restore_the_outer_count(blas_threads):
    # A opens, B opens, A closes, B closes: the count inside B follows the blocks still open
    blas_threads(4)
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def block_a():
        with blas.split_threads():
            seen["a"] = _count()
            a_in.set()
            b_in.wait(10)
        a_out.set()

    thread = threading.Thread(target=block_a)
    thread.start()
    assert a_in.wait(10)
    with blas.split_threads():
        seen["both"] = _count()
        b_in.set()
        assert a_out.wait(10)
        seen["b"] = _count()
    thread.join()
    assert seen == {"a": 2, "both": 1, "b": 2}
    assert _count() == 4


@needs_openblas
def test_many_threads_splitting_at_once_restore_the_outer_count(blas_threads):
    # more threads than cores, switching as often as they can: a lost update of the open
    # block count would leave OpenBLAS on another count at the end
    blas_threads(4)
    seen, interval = set(), sys.getswitchinterval()

    def split_often():
        for _ in range(200):
            with blas.split_threads():
                seen.add(_count())

    threads = [threading.Thread(target=split_often) for _ in range(6)]
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    assert seen <= {1, 2} and _count() == 4


def _where(item):
    """``item``, the name of the thread it ran on and the BLAS count there (``None`` without
    OpenBLAS)."""
    return item, threading.current_thread().name, FUNCTIONS and _count()


def _on_two_threads(monkeypatch, fn, items):
    """``blas.each_on_two_threads("embalign-test", fn, items)``, or the error it raised, and
    the names of the threads it started, each checked to have ended with it."""
    started, real_start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or real_start(self))
    try:
        got = blas.each_on_two_threads("embalign-test", fn, items)
    except Exception as exc:
        got = exc
    monkeypatch.undo()
    assert not [t for t in started if t.is_alive()], "a thread outlived the call"
    return got, [t.name for t in started]


@pytest.mark.parametrize("n_items", [0, 1, 2, 5])
def test_each_on_two_threads_keeps_the_item_order(blas_threads, monkeypatch, n_items):
    full = FUNCTIONS and 4
    if blas_threads is not None:
        blas_threads(4)
    got, threads = _on_two_threads(monkeypatch, _where, iter(range(n_items)))
    assert [item for item, _, _ in got] == list(range(n_items))
    if n_items < 2:  # alone on the calling thread, on every BLAS thread
        assert got == [(item, "MainThread", full) for item in range(n_items)] and threads == []
    else:  # the odd items on the worker, both halves on half of the BLAS threads
        assert got == [(item, ("MainThread", "embalign-test")[item % 2], FUNCTIONS and 2)
                       for item in range(n_items)]
        assert threads == ["embalign-test"]
    assert FUNCTIONS is None or _count() == 4


def test_each_on_two_threads_raises_the_callers_error_first(blas_threads, monkeypatch):
    if blas_threads is not None:
        blas_threads(4)

    def failing(item):
        raise ValueError(f"item {item} on {threading.current_thread().name}")

    def bug_on_the_worker(item):
        if threading.current_thread().name == "embalign-test":
            raise TypeError(f"bug on item {item}")
        return item

    for fn, items, error in ((failing, range(4), "item 0 on MainThread"),
                             (failing, range(1), "item 0 on MainThread"),
                             (bug_on_the_worker, range(3), "bug on item 1")):
        got, threads = _on_two_threads(monkeypatch, fn, items)
        assert str(got) == error and threads == ["embalign-test"] * (len(items) > 1)
        assert FUNCTIONS is None or _count() == 4


def _eval_id_outputs(views, out_dir):
    assert main(["eval-id", "--source", views[0], "--target", views[1], "--seeds", "0,1",
                 "--out-dir", str(out_dir)]) == 0
    return {name: (out_dir / name).read_bytes()
            for name in ("identification_report.json", "cmc.csv")}


@pytest.fixture(scope="module")
def views(tmp_path_factory):
    out = tmp_path_factory.mktemp("views")
    assert main(["synth", "--ids", "30", "--per-id", "5", "--dim", "24", "--intrinsic-dim", "8",
                 "--views", "2", "--spread", "0.3", "--seed", "3", "--out", str(out)]) == 0
    return [str(out / f"view{v}.emb") for v in range(2)]


def test_without_openblas_the_split_does_nothing(views, tmp_path, blas_threads, monkeypatch):
    want = _eval_id_outputs(views, tmp_path / "found")
    # the symbol lookup finds no OpenBLAS, as under another BLAS
    monkeypatch.setattr(blas, "_PREFIXES", ("no_such_blas_",))
    blas._thread_functions.cache_clear()
    try:
        with blas.split_threads():
            assert blas._thread_functions() is None
            assert FUNCTIONS is None or _count() == 2
        got = _eval_id_outputs(views, tmp_path / "missing")
    finally:
        blas._thread_functions.cache_clear()
    assert got == want


def _serial_report(source, target, method, seeds, exclude_self, set_threads):
    """The report of each seed's aligned side, then its baseline side, on one BLAS thread."""
    results = []
    for seed, split, amap, (x, y), codes in align.pair_sets(source, target).seed_maps(
            method, align.DEFAULT_RIDGE_ALPHA, 0.7, seeds):
        if set_threads is not None:
            set_threads(1)
        aligned, baseline = (
            ident_eval._metrics_from_rows(*align.project(x, y, m), codes, codes,
                                          min(CMC_MAX_RANK, len(codes)), seed, exclude_self)
            for m in (amap, None))
        if set_threads is not None:
            set_threads(2)  # the fits run on both threads, as in the evaluation
        results.append((aligned, baseline, split))
    return RetrievalReport.from_seeds(
        results, method=method, fraction=0.7, exclude_self=exclude_self,
        metadata={**pair_metadata(source, target, method, align.DEFAULT_RIDGE_ALPHA),
                  "gallery_includes_self": not exclude_self})


@pytest.mark.parametrize("method, exclude_self", [("procrustes", False), ("linear", True),
                                                  ("ridge", False)])
def test_side_by_side_report_equals_the_serial_one(small_views, blas_threads, monkeypatch,
                                                   method, exclude_self):
    # two BLAS threads split into one per side: the serial reference's setting
    monkeypatch.setattr(ident_eval, "_SCORE_BUDGET", 2000)  # several chunks per side
    seeds = (0, 1, 2)
    got = evaluate_identification(*small_views, method, seeds=seeds, exclude_self=exclude_self)
    want = _serial_report(*small_views, method, seeds, exclude_self, blas_threads)
    assert got == want
    assert repr(got.to_dict()) == repr(want.to_dict())
    assert [s.to_dict() for s in got.per_seed_split] == [s.to_dict() for s in want.per_seed_split]


LABELS = [f"p{k // 4}" for k in range(48)]  # 12 identities x 4 images
ZERO_AT = 2  # the third test row of the seed-0 split


def _sets_with_a_baseline_only_zero_row():
    """Sets 6 and 4 columns wide; one source row is zero in its first 4 columns only."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((48, 6)).astype(np.float32)
    x[identity_disjoint_split(LABELS, 0.7, 0).test_rows[ZERO_AT], :4] = 0.0
    y = rng.standard_normal((48, 4)).astype(np.float32)
    ids = [f"img{k:02d}" for k in range(48)]  # in sorted order: rows pair in place
    return EmbeddingSet("a", "d", x, ids, LABELS), EmbeddingSet("b", "d", y, ids, LABELS)


def test_a_baseline_failure_raises_its_typed_error_and_restores_the_threads(blas_threads):
    source, target = _sets_with_a_baseline_only_zero_row()
    # the aligned side alone scores: the row is not zero once centered and mapped
    seed, _, amap, (x, y), codes = next(
        align.pair_sets(source, target).seed_maps("procrustes", 0.0, 0.7, (0,)))
    assert ident_eval._side_metrics(x, y, amap, codes, seed, False).n_queries == len(codes)
    before = set(threading.enumerate())
    with pytest.raises(DegenerateRowError) as err:
        evaluate_identification(source, target, seeds=(0,))
    assert err.value.row_index == ZERO_AT
    assert FUNCTIONS is None or _count() == 2
    assert set(threading.enumerate()) <= before


def test_the_aligned_error_is_raised_before_the_baseline_error(small_views, monkeypatch):
    def failing(x, y, amap, *args):
        raise DegenerateRowError(0 if amap is not None else 1)

    monkeypatch.setattr(ident_eval, "_side_metrics", failing)
    with pytest.raises(DegenerateRowError) as err:
        evaluate_identification(*small_views, seeds=(0,))
    assert err.value.row_index == 0
