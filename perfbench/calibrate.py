"""A fixed calibration kernel that measures how fast the machine runs now.

On a shared host the speed of a vCPU drifts by up to 2x over minutes, while
the ratio of a command's time to the time of a fixed kernel run just before
and just after it varies much less.  Each pass therefore runs `kernel` before
its first command and after each command, scales each command's time by
REFERENCE_S over the mean of the two kernel times around it, and scales its
other times (set-up, traced spans) by the same overall factor.

The kernel mixes the four kinds of work the workloads do, in about equal
time: interpreter-bound calls of numpy on tiny matrices (the audit's lattice
enumeration and determinants), a batched einsum over a codebook held in cache
(the ML decode at small |C|), batched slogdet/eigvalsh (the outage Gram
matrices) and a fresh candidate array larger than a core's caches (the
decode's per-chunk candidates).  On 2 vCPUs of a shared host the sum of the
four followed each workload's speed more closely than any one part did.
None of them starts a thread or calls a multithreaded BLAS routine, and the
kernel depends on numpy only, never on dmtlab, so no change to the program
can alter it.
"""

import os
import time

import numpy as np

# The median kernel time on the machine the reference figures were recorded
# on (2 vCPU Intel Xeon VM, Python 3.11, numpy with OpenBLAS), so that scaled
# times read as seconds at that machine's usual speed.
REFERENCE_S = 0.06
# At most this many CPUs of the process's mask are timed, to bound the cost.
MAX_CPUS = 4

_RNG = np.random.default_rng(7)
_SMALL = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
          for _ in range(16)]
_BATCH = _RNG.standard_normal((1500, 4, 4)) + 1j * _RNG.standard_normal((1500, 4, 4))
_CODEBOOK = _RNG.standard_normal((16, 4, 2)) + 1j * _RNG.standard_normal((16, 4, 2))
_GRAM = np.einsum("bji,bjk->bik", _BATCH.conj(), _BATCH) + 4.0 * np.eye(4)
_LARGE = _RNG.standard_normal((10000, 4, 2)) + 1j * _RNG.standard_normal((10000, 4, 2))


def kernel():
    """Mean seconds of one run of the work below pinned in turn to each of the
    first MAX_CPUS CPUs the calling thread may use.  The vCPUs of a shared
    host slow down independently, so a pass on several of them goes at about
    their mean speed.  The thread's CPU mask is restored before returning, so
    that the threads the program starts later may use every CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    times = []
    try:
        for cpu in cpus[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_work())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(times) / len(times)


def _work():
    start = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += abs(np.linalg.det(_SMALL[i & 15] + i))
    cand = np.einsum("bij,kjl->bkil", _BATCH, _CODEBOOK)
    acc += float(np.argmin((np.abs(cand) ** 2).sum(axis=(2, 3)), axis=1).sum())
    for _ in range(2):
        acc += float(np.linalg.slogdet(_GRAM)[1].sum())
        acc += float(np.linalg.eigvalsh(_GRAM)[:, 0].sum())
    cand = np.einsum("bjl,kjl->bkl", _LARGE, _CODEBOOK)  # 5 MB, allocated afresh
    acc += float((cand.real ** 2).sum())
    if acc != acc:  # keeps the work from being optimised away; never true
        raise ArithmeticError("calibration kernel produced NaN")
    return time.perf_counter() - start
