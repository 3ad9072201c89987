"""OpenBLAS's thread count, halved for work that runs on two threads at once.

numpy's OpenBLAS keeps one process-wide thread count.  Two Python threads
that each call a product on every BLAS thread contend for the same cores,
so :func:`split_threads` gives each of two concurrent callers half of
them for the length of a block, and :func:`each_on_two_threads` runs a
list of items on two such threads.  The open blocks are counted, so
blocks that nest or overlap on any threads leave the count they found.
The functions are found through numpy's linalg extension, whose symbol
lookup also searches the OpenBLAS that numpy bundles; where no OpenBLAS
symbol is found (another BLAS), the block runs with that BLAS's own
threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy.linalg._umath_linalg

from .reports import Beside

# numpy's own build first (scipy_openblas, 64-bit integers), then plain OpenBLAS
_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


@functools.cache
def _thread_functions():
    """``(get_num_threads, set_num_threads)`` of numpy's OpenBLAS, or ``None``."""
    try:
        lib = ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    except OSError:
        return None
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# the blocks of split_threads open now, and OpenBLAS's count when the first of them opened
_lock = threading.Lock()
_open = {"blocks": 0, "n": 0}


def _count_block(step, get, set_):
    """Count one block in (``step=1``) or out (``-1``) and set the count it leaves."""
    with _lock:
        if not _open["blocks"]:
            _open["n"] = get()
        _open["blocks"] += step
        set_(max(1, _open["n"] >> _open["blocks"]))


@contextlib.contextmanager
def split_threads():
    """Run the block on ``max(1, n // 2)`` of OpenBLAS's ``n`` threads; restore ``n`` on exit.

    The count is process-wide, so it holds for every thread that calls BLAS
    inside the block.  The open blocks are counted under a lock, nested or
    overlapping on any threads: the first to open reads ``n``, every open
    and close sets ``max(1, n >> open blocks)``, and the last to close
    restores ``n``.  Without OpenBLAS this does nothing.
    """
    functions = _thread_functions()
    if functions is None:
        yield
        return
    _count_block(1, *functions)
    try:
        yield
    finally:
        _count_block(-1, *functions)


def each_on_two_threads(name: str, fn, items) -> list:
    """``[fn(item) for item in items]``, in item order, on two threads from two items on.

    The even items run on the calling thread and the odd ones on a
    :class:`reports.Beside` worker named ``name``, both inside
    :func:`split_threads`: products, fits and sorts release the GIL.  The
    caller's error is raised before the worker's.  Fewer than two items run
    on the calling thread, on every BLAS thread, and start no thread.
    """
    items = list(items)
    if len(items) < 2:
        return [fn(item) for item in items]
    results = [None] * len(items)
    with split_threads(), Beside(name, lambda: [fn(item) for item in items[1::2]]) as odd:
        results[0::2] = [fn(item) for item in items[0::2]]
    results[1::2] = odd.result()
    return results
