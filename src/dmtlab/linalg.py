"""Small dense matrix helpers.

Everything downstream (channel models, lattices, Monte Carlo checks) runs on
plain numpy arrays; this module owns the few primitives whose behavior we
need to control precisely: finite-matrix coercion, an order-independent
Frobenius norm, a square-checked determinant of one matrix or of an
(N, n, n) stack, and two batch-axis kernels for stacks of small matrices,
`bmm` (product) and `logdet_pd` (log-determinant), used by the outage
rate of both code classes, the received blocks and the decoder's metric
features of the ML-error sweep.  `bmm` multiplies real or complex
matrices, or quaternion matrices held as their four real parts, so the
ML-error sweep decodes in the code's own algebra with no complex lift.
numpy's stacked routines pay a fixed dispatch per matrix, which for 2x2
matrices outweighs the arithmetic many times over; the kernels instead run
one vector operation over the batch axis per matrix entry.  Other products
and eigenvalues come straight from numpy.  Two rules of those stacks live
here too, for every layer: `adjoint`, the one conjugate transpose (of
quaternion parts it negates parts 1-3), which a product A^* B takes as
bmm(adjoint(a), b), and `sq_norms`, the squared norm of each matrix on its
real parts.
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


# The product of quaternion matrices (A1, A2)(B1, B2) = (A1 B1 - A2 conj(B2),
# A1 B2 + A2 conj(B1)), written on their real parts (Re A1, Im A1, Re A2,
# Im A2): per output part, its four (left part, right part, sign) terms.
# Each part's first term has left part 0, which `adjoint` does not negate,
# and mirrored terms (s, t), (t, s) are adjacent, so that when A has one row
# the parts of the diagonal of A^* A = bmm(adjoint(A), A) that vanish come
# out exactly 0.  With more rows each term is summed over the rows before its
# mirror is subtracted, and those parts keep the rounding residue.  The
# plain product of one stack is the one-part case.
PART_TERMS = {
    1: (((0, 0, 1),),),
    4: (((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
        ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
        ((0, 2, 1), (2, 0, 1), (1, 3, -1), (3, 1, 1)),
        ((0, 3, 1), (3, 0, 1), (1, 2, 1), (2, 1, -1))),
}


def bmm(a, b, out=None):
    """a @ b for real or complex (N, i, j) and (N, j, k) stacks, or the
    quaternion product of real (4, N, i, j) and (4, N, j, k) stacks of parts
    (Re M1, Im M1, Re M2, Im M2), the layout `channel.lift_parts` lifts.

    A product with a conjugate transpose is bmm(adjoint(a), b).  Each output
    entry is one multiply and then one signed add per further term
    (`PART_TERMS`) and inner index, each a vector operation over the batch
    axis, terms in table order and inner indices ascending, so every entry
    of a one-part product is rounded exactly as the plain ascending sum of
    its products.  The result is written into `out` when given, else into a
    new array with the batch axis last in memory.
    """
    one = a.ndim == 3
    if one:
        a, b = a[None], b[None]
    if (a.ndim != 4 or b.ndim != 4 or len(a) not in PART_TERMS or a.shape[:2] != b.shape[:2]
            or a.shape[3] != b.shape[2] or a.shape[3] < 1):
        raise ValueError(f"cannot multiply stacks of shapes {a.shape} and {b.shape}")
    parts, batch, rows, inner = a.shape
    if out is None:
        # batch axis last in memory, so that each entry is one contiguous vector
        out = np.empty((parts, rows, b.shape[3], batch),
                       np.result_type(a, b)).transpose(0, 3, 1, 2)
        out = out[0] if one else out
    term = np.empty(batch, dtype=out.dtype)
    for r, terms in enumerate(PART_TERMS[parts]):
        for p in range(rows):
            for q in range(b.shape[3]):
                entry = out[:, p, q] if one else out[r, :, p, q]
                for s, t, sign in terms:
                    add = np.subtract if sign < 0 else np.add
                    for j in range(inner):
                        if s == 0 and j == 0:
                            np.multiply(a[s, :, p, j], b[t, :, j, q], out=entry)
                        else:
                            add(entry, np.multiply(a[s, :, p, j], b[t, :, j, q], out=term),
                                out=entry)
    return out


def adjoint(x, out=None):
    """The conjugate transpose of each matrix of a real (N, i, j) stack or of
    quaternion (4, N, i, j) parts, whose conjugate negates parts 1-3: the one
    conjugate transpose of every layer, as bmm(adjoint(a), b) for A^* B.
    Written into `out` when given; else a real stack's adjoint is a view and
    parts go to a new array.  A complex stack, whose transpose alone is no
    adjoint, is rejected."""
    if x.dtype.kind == "c":
        raise ValueError(f"adjoint takes real stacks or parts, not {x.dtype} ones")
    t = x.swapaxes(-1, -2)
    if x.ndim == 3 and out is None:
        return t
    out = np.empty(t.shape, t.dtype) if out is None else out
    np.copyto(out, t)
    if x.ndim == 4:
        np.negative(out[1:], out=out[1:])
    return out


def sq_norms(x, out=None):
    """(N,) squared norms, on real parts, of the matrices of a real (N, i, j)
    stack or of quaternion (4, N, i, j) parts, written into `out` when
    given."""
    return np.einsum("abij,abij->b" if x.ndim == 4 else "bij,bij->b", x, x, out=out)


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
