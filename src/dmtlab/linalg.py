"""Small dense matrix helpers.

Everything downstream (channel models, lattices, Monte Carlo checks) runs on
plain numpy arrays; this module owns the few primitives whose behavior we
need to control precisely: finite-matrix coercion, an order-independent
Frobenius norm, a square-checked determinant of one matrix or of an
(N, n, n) stack, and two batch-axis kernels for stacks of small real or
complex matrices, `bmm` (product) and `logdet_pd` (log-determinant), used by
the real and quaternionic mutual information and the received blocks of the
ML-error sweep.  numpy's stacked routines pay
a fixed dispatch per matrix, which for 2x2 matrices outweighs the arithmetic
many times over; the kernels instead run one vector operation over the batch
axis per matrix entry.  Other products and eigenvalues come straight from
numpy.
"""

from __future__ import annotations

import math

import numpy as np


def as_matrix(m):
    """Coerce to a 2-D complex numpy array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix has non-finite entries")
    return a


def frobenius_norm(m):
    """sqrt of the sum of squared entry moduli.

    Uses math.fsum so the result does not depend on the summation order of
    the entries; stacking real and imaginary parts into a real matrix leaves
    the norm bit-identical.
    """
    a = as_matrix(m)
    sq = (a.real * a.real).ravel().tolist() + (a.imag * a.imag).ravel().tolist()
    return math.sqrt(math.fsum(sq))


def determinant(m):
    """Determinant of a square matrix, or the (N,) determinants of an
    (N, n, n) stack (LAPACK LU with partial pivoting, matrix by matrix).

    Integer-entry lattice points up to 8x8 come out within ~1e-13 of an
    integer, well inside the 1e-9 the NVD audits allow.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or not np.all(np.isfinite(a)):
        raise ValueError(f"expected a finite matrix or (N, n, n) stack, got ndim={a.ndim}")
    n, c = a.shape[-2:]
    if n != c:
        raise ValueError(f"determinant needs a square matrix, got {n}x{c}")
    d = np.linalg.det(a)
    return complex(d) if a.ndim == 2 else d


def bmm(a, b):
    """a @ b for real or complex (N, i, j) and (N, j, k) stacks.

    Each output entry is one multiply and then one add per further inner
    index, each a vector operation over the batch axis, inner indices
    ascending, so every entry is rounded exactly as the plain ascending
    sum of its products.
    """
    if a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1] or a.shape[2] < 1:
        raise ValueError(f"cannot multiply stacks of shapes {a.shape} and {b.shape}")
    # batch axis last in memory, so that each entry is one contiguous vector
    out = np.empty((a.shape[1], b.shape[2], len(a)), np.result_type(a, b)).transpose(2, 0, 1)
    term = np.empty(len(a), dtype=out.dtype)
    for p in range(a.shape[1]):
        for q in range(b.shape[2]):
            entry = out[:, p, q]
            np.multiply(a[:, p, 0], b[:, 0, q], out=entry)
            for j in range(1, a.shape[2]):
                entry += np.multiply(a[:, p, j], b[:, j, q], out=term)
    return out


def logdet_pd(g):
    """(N,) log-determinants of a real symmetric or complex Hermitian
    positive definite (N, k, k) stack.

    Gaussian elimination without pivoting, which is stable on positive
    definite matrices, on a batch-last copy, so that every row operation is
    one vector operation over the batch; the logs of the pivots, which are
    real (of a complex pivot its real part is taken), are summed in order.
    A matrix that is not positive definite gives NaN or -inf.
    """
    t = np.array(np.moveaxis(g, 0, -1), dtype=np.result_type(g, float),
                 order="C")  # (k, k, N)
    logdet = np.zeros(t.shape[-1])
    for c in range(len(t)):
        pivot = t[c, c].real
        logdet += np.log(pivot)
        for r in range(c + 1, len(t)):
            t[r, c + 1:] -= (t[r, c] / pivot) * t[c, c + 1:]
    return logdet
