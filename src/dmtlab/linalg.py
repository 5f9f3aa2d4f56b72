"""Small dense matrix helpers.

Everything downstream (channel models, lattices, Monte Carlo checks) runs on
plain numpy arrays; this module owns the few primitives whose behavior we
need to control precisely: finite-matrix coercion, an order-independent
Frobenius norm, and a square-checked determinant of one matrix or of an
(N, n, n) stack.  Products, eigenvalues and log-determinants come straight
from numpy.
"""

from __future__ import annotations

import math

import numpy as np


def as_matrix(m, dtype=complex):
    """Coerce to a 2-D numpy array and reject non-finite entries."""
    a = np.asarray(m, dtype=dtype)
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
