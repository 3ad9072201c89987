"""OpenBLAS's thread count, divided among callers that run BLAS side by side.

numpy's OpenBLAS keeps one process-wide thread count.  Two Python threads
that each call a product on every BLAS thread contend for the same cores,
so :func:`split_threads` gives each of k concurrent callers an equal share
for the length of a block.  The functions are found through numpy's linalg
extension, whose symbol lookup also searches the OpenBLAS that numpy
bundles; where no OpenBLAS symbol is found (another BLAS), the block runs
with that BLAS's own threads.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy.linalg._umath_linalg

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


@contextlib.contextmanager
def split_threads(k: int):
    """Run the block on ``max(1, n // k)`` of OpenBLAS's ``n`` threads; restore ``n`` on exit.

    The count is process-wide, so it holds for every thread that calls BLAS
    inside the block.  Nested blocks on one thread restore in order; blocks
    that overlap on two threads can leave the count of whichever exits
    last.  Without OpenBLAS this does nothing.
    """
    functions = _thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    n = get()
    set_(max(1, n // k))
    try:
        yield
    finally:
        set_(n)
