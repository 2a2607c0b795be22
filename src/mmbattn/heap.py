"""Keep freed memory in the heap, so temporaries reuse warm pages.

glibc serves each allocation of 128 KiB or more with its own ``mmap`` and
hands free heap pages back to the kernel.  Each forward pass makes several
full-size temporaries per batch, so each of them starts on fresh pages,
and the first write to every 4 KiB page is a minor page fault: about 4 µs
on a 2-vCPU KVM host, some ten times the cost of the memory traffic.
``keep_freed_memory`` raises both thresholds once per process, so freed
blocks stay in the heap and the next temporary of the same size reuses
them.  It changes no arithmetic.  Without glibc's ``mallopt`` (macOS,
musl) it does nothing.
"""

from __future__ import annotations

import ctypes
import functools

M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
# glibc's own ceiling for its dynamic mmap threshold on 64-bit hosts.
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 1 << 30


def _libc():
    """The C library of the process, or None."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def keep_freed_memory() -> None:
    """Serve allocations below 32 MiB from the heap and keep up to 1 GiB of
    free heap, for the rest of the process."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
