"""One OpenBLAS thread for small matrix products.

A second OpenBLAS thread pays off on large GEMMs only.  On small ones the
hand-off costs more than it saves, and the woken worker spin-waits after
the call returns, so a training step on small matrices burns about twice
its wall time in CPU.  ``threads_for`` drops to one thread for such work
and restores the previous count afterwards.  It finds OpenBLAS among the
libraries the process has loaded and does nothing when there is none.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager

# Multiply-adds per GEMM below which BLAS runs on one thread.  On a 2-vCPU
# host a 64-wide tower's step took the same wall time on one thread as on
# two at batch 512 (2**21), 5% longer at batch 1024 (2**22) and 14% longer
# at batch 4096, while one thread always used about 40% less CPU.
SINGLE_THREAD_WORK = 1 << 22

_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def threads_for(work: int):
    """Run the block on one BLAS thread if ``work``, the multiply-adds of its
    largest GEMM, is below ``SINGLE_THREAD_WORK``."""
    lib = _openblas()
    before = lib[0]() if lib is not None else 1
    if work >= SINGLE_THREAD_WORK or before <= 1:
        yield
        return
    lib[1](1)
    try:
        yield
    finally:
        lib[1](before)
