"""Matrix lattices, the non-vanishing-determinant property, and shaping.

A lattice's flavor is one of FLAVORS, the two code classes the tradeoff
bounds cover: ``real`` (real generator matrices, bound d1) and
``quaternionic`` (generators of the [[A, -B*], [B, A*]] block structure,
bound d2).  Either structure spans n^2 real dimensions, which caps the rank.

Rank-4 orders in 2x2 matrices come from one builder, `quaternion_order(a, b)`:
the natural order Z<i, j> of the quaternion algebra (a, b)_Q, real when a > 0
or b > 0 and quaternionic when both are negative.  Its reduced norms are
integers, so an order of a division algebra has minimum determinant at least
1 over its nonzero points, which the enumeration-based audits verify.  The
built-in names (BUILTIN_LATTICES) are two such orders:

  * ``hamilton`` -- (a, b) = (-1, -1), the Lipschitz order of Hamilton's
    quaternions; det(image of x+yi+zj+wk) = x^2+y^2+z^2+w^2.
  * ``split``    -- (a, b) = (2, 3); det(image of (x, y, z, w)) =
    x^2 - 2y^2 - 3z^2 + 6w^2.

NVD audits (`audit`), shaped codebooks, fixed 16-word constellations and
the minimum norm (`minimum_norm`; the last two share one search for the
least shell that holds enough points) all take their points from one
breadth-first Cholesky branch-and-bound
(`shell_coordinates`), which holds its frontier as arrays, caps the integer
coordinates each level holds at SHELL_CAP, and fixes the leading coordinate
first, so that its points come out in lexicographic order of their
coordinates.

A set of matrices is one read-only complex (N, n, n) array: a lattice's
generators, a shell's points (`point_from_coordinates` of (N, k) coordinates)
and a codebook's words.  An audit decides the determinant of a 2 x 2 point
with the closed form ad - bc where its rounding bound settles the verdict
(`_det_screen`), and hands the few points it cannot decide, and every larger
point, to LAPACK in one stacked call.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import quaternionic_defect

FLAVORS = ("real", "quaternionic")

# Integer coordinates (candidates times fixed depth) one level of a shell
# enumeration may hold.
SHELL_CAP = 4_000_000


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed its candidate, pair or trial cap."""


@dataclass(frozen=True)
class MatrixLattice:
    """Integer span of real-linearly-independent n x n generator matrices,
    held as one read-only (k, n, n) complex array `basis`."""

    ambient_n: int
    basis: np.ndarray
    flavor: str
    gram: np.ndarray

    @property
    def rank(self):
        return len(self.basis)


@dataclass(frozen=True)
class Codebook:
    """Finite scaled constellation: points X/M for shell points X, |X| <= M,
    held as one read-only (|C|, n, n) complex array `points`."""

    points: np.ndarray
    radius_m: float
    source: MatrixLattice


def structure_check(x, flavor):
    """Exact structural predicate for a flavor (no tolerance)."""
    a = linalg.as_matrix(x)
    if flavor == "real":
        return bool(np.all(a.imag == 0.0))
    if flavor == "quaternionic":
        return quaternionic_defect(a) == 0.0
    raise ValueError(f"unknown flavor {flavor!r}")


def matrix_lattice(basis, flavor):
    """Validate generators, compute the Gram matrix, and freeze the lattice."""
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}")
    mats = [linalg.as_matrix(b) for b in basis]
    if not mats:
        raise ValueError("empty generator list")
    n = mats[0].shape[0]
    for b in mats:
        if b.shape != (n, n):
            raise ValueError("generators must be square matrices of equal size")
        if not structure_check(b, flavor):
            raise ValueError(f"generator violates the {flavor} structure")
    if len(mats) > n * n:
        raise ValueError(f"rank {len(mats)} exceeds n^2 = {n * n}")
    mats = np.stack(mats)
    gram = (np.einsum("kab,lab->kl", mats.real, mats.real)
            + np.einsum("kab,lab->kl", mats.imag, mats.imag))  # exactly symmetric
    spectrum = np.linalg.eigvalsh(gram)
    if spectrum[0] <= 1e-10 * max(spectrum[-1], 1e-300):
        raise ValueError("generators are linearly dependent (Gram not positive definite)")
    mats.flags.writeable = False
    gram.flags.writeable = False
    return MatrixLattice(ambient_n=n, basis=mats, flavor=flavor, gram=gram)


def quaternion_order(a, b):
    """The natural order Z<i, j> of (a, b)_Q (i^2 = a, j^2 = b, k = ij = -ji)
    under its standard embedding, for nonzero integers a and b, which make
    its reduced norms integers.  Real when a > 0 or b > 0: swapped so that
    a > 0, i -> diag(sqrt a, -sqrt a) and j -> [[0, 1], [b, 0]].  Otherwise
    quaternionic: i -> diag(i sqrt|a|, -i sqrt|a|), j -> sqrt|b| [[0, -1], [1, 0]]."""
    if not (isinstance(a, numbers.Integral) and isinstance(b, numbers.Integral)) or not a * b:
        raise ValueError(f"a and b must be nonzero integers, got a={a!r}, b={b!r}")
    if a > 0 or b > 0:
        a, b = (a, b) if a > 0 else (b, a)
        i_ = np.diag([math.sqrt(a), -math.sqrt(a)])
        j_, flavor = np.array([[0, 1], [b, 0]]), "real"
    else:
        i_ = np.diag([1j * math.sqrt(-a), -1j * math.sqrt(-a)])
        j_, flavor = math.sqrt(-b) * np.array([[0, -1], [1, 0]]), "quaternionic"
    return matrix_lattice([np.eye(2), i_, j_, i_ @ j_], flavor)


# The built-in orders, as the (a, b) of their algebra.
BUILTIN_LATTICES = {"hamilton": (-1, -1), "split": (2, 3)}


def shell_coordinates(lat, radius):
    """Integer coordinate vectors of all lattice points with norm <= radius,
    in lexicographic order, as the rows of a Fortran-ordered (N, k) array.

    Breadth-first branch-and-bound on a triangular factor of the Gram
    matrix (Fincke-Pohst): with G = A^T A for a lower-triangular A, level i
    fixes c_i from a[i, :i] and a[i, i].  The frontier is an (F, i) block of
    the leading coordinates fixed so far and an (F,) array of remaining
    squared-norm budgets, and each level appends one coordinate to every
    row at once, its children in ascending order, so the rows stay in
    lexicographic order without a sort.  The next frontier is filled one
    column at a time, so no gathered copy of the old one is held beside it.
    The radius comparison and the interval ends carry 1e-12 slacks so
    boundary shells like sqrt(2) do not depend on rounding luck.  A level
    whose candidates would hold more than SHELL_CAP coordinates raises
    ResourceLimitError before they are allocated.
    """
    radius = float(radius)
    if not math.isfinite(radius) or radius < 0:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")
    try:
        a = np.linalg.cholesky(lat.gram[::-1, ::-1]).T[::-1, ::-1]
    except np.linalg.LinAlgError:
        raise ValueError("Gram matrix is not positive definite")
    budget = radius * radius * (1.0 + 1e-12)
    fixed = np.zeros((1, 0), dtype=np.int64)
    remaining = np.array([budget])
    for level in range(lat.rank):
        y = fixed @ a[level, :level]
        aii = a[level, level]
        half = np.sqrt(np.maximum(remaining, 0.0))
        lo = np.ceil((-half - y) / aii - 1e-12)
        counts = np.maximum(np.floor((half - y) / aii + 1e-12) - lo + 1.0, 0.0)
        total = counts.sum()
        if total * (level + 1) > SHELL_CAP:
            raise ResourceLimitError(
                f"the radius-{radius:g} shell needs {total:.4g} candidates of {level + 1}"
                f" coordinates at level {level}, over SHELL_CAP = {SHELL_CAP} coordinates")
        counts = counts.astype(np.int64)
        parent = np.repeat(np.arange(len(fixed)), counts)
        first = np.cumsum(counts) - counts
        c = np.repeat(lo.astype(np.int64) - first, counts) + np.arange(int(total))
        step = aii * c + y[parent]
        rest = remaining[parent] - step * step
        keep = np.flatnonzero(rest >= -1e-12 * budget)
        parent = parent[keep]
        grown = np.empty((len(keep), level + 1), dtype=np.int64, order="F")
        for j in range(level):  # mode="clip" writes to `out` unbuffered; no index clips
            np.take(fixed[:, j], parent, out=grown[:, j], mode="clip")
        np.take(c, keep, out=grown[:, level], mode="clip")
        fixed, remaining = grown, rest[keep]
    return fixed


def point_from_coordinates(lat, coords):
    """The lattice point sum_k c_k B_k: (k,) coordinates give one (n, n)
    matrix, (N, k) coordinates an (N, n, n) stack.  The terms are added in
    basis order, so a row of a stack equals the point of that row alone,
    entry by entry (no stack-sized temporary) and only where B_k is nonzero."""
    c = np.asarray(coords)
    x = np.zeros(c.shape[:-1] + lat.basis.shape[1:], dtype=complex)
    for k, b in enumerate(lat.basis):
        for i, j in zip(*np.nonzero(b)):
            x[..., i, j] += c[..., k] * b[i, j]
    return x


# An NVD audit accepts a |det| within NVD_BAND of an integer >= 1.
NVD_BAND = 1e-9
# The moduli, besides 0, of the entries of a 2 x 2 point whose determinant
# `_det_screen` may decide without LAPACK: within them the products of the
# closed form and of LU stay far from underflow and overflow.
DET_SCREEN_RANGE = (2.0 ** -250, 2.0 ** 250)


def _in_nvd_band(dets):
    """Whether each |det| of an (N,) array lies within NVD_BAND of an integer >= 1."""
    nearest = np.round(dets)
    return (np.abs(dets - nearest) <= NVD_BAND) & (nearest >= 1)


def _det_screen(x):
    """(in_band, undecided) of a (N, 2, 2) stack [[a, b], [c, d]]: whether
    each |det| lies in the NVD band as the closed form est = |ad - bc|
    decides it, and which points it leaves to LAPACK (`linalg.determinant`):
    those that could hold the minimum |det|, those within tol of a band edge
    and those with an entry modulus outside DET_SCREEN_RANGE.

    tol = 1e-12 (|a||d| + |b||c|) bounds |est - LAPACK's |det||.  Within
    DET_SCREEN_RANGE the nonzero terms |a||d|, |b||c| and LU's |l||b| below
    lie in [2^-750, 2^501], so no rounding, underflow included, errs by
    more than a unit u = 2^-53 of its term (Higham, "Accuracy and Stability
    of Numerical Algorithms", SIAM 2002, section 3.6).  Both complex
    products and the subtraction and modulus leave est within a few u of
    |a||d| + |b||c| of the exact |det|.  LU with partial pivoting on 2 x 2
    matrices takes l = c / a (|l| <= sqrt 2 after the pivot), u22 = d - l b
    and det = a u22 with the same few u of |a||d| + |b||c| (ch. 9); numpy
    then forms exp(log|a| + log|u22|), whose terms are at most 920 in size
    (|u22| may be subnormal), which adds at most about 1850 u of |det|.  The
    two together stay below 1e-12 (about 9000 u) of |a||d| + |b||c|, with
    room for the rounding of est +- tol and of the band tests.

    Hence a point's LAPACK |det| lies in [est - tol, est + tol]: the least
    LAPACK |det| is held by a point with est - tol <= min(est + tol), and a
    point whose interval holds no band edge k +- NVD_BAND (k >= 1) has the
    band verdict of its est.  The screen reuses a few (N,) arrays in place,
    so that it stays under the peak memory the shell enumeration sets."""
    a, b, c, d = x[:, 0, 0], x[:, 0, 1], x[:, 1, 0], x[:, 1, 1]
    lo, hi = DET_SCREEN_RANGE
    undecided = np.zeros(len(x), dtype=bool)
    tol, mod = np.zeros(len(x)), np.empty((2, len(x)))
    with np.errstate(over="ignore", invalid="ignore"):
        for p, q in ((a, d), (b, c)):
            np.abs(p, out=mod[0])
            np.abs(q, out=mod[1])
            undecided |= np.any((mod != 0) & ((mod < lo) | (mod > hi)), axis=0)
            tol += np.multiply(mod[0], mod[1], out=mod[0])
        tol *= 1e-12
        est = np.abs(a * d - b * c)
        bound = np.add(est, tol, out=mod[0])
        bound[undecided] = np.inf
        least = bound.min(initial=np.inf)
        undecided |= np.subtract(est, tol, out=bound) <= least
        nearest = np.round(est, out=mod[1])
        in_band = nearest >= 1
        gap = np.abs(np.subtract(est, nearest, out=bound), out=bound)
        in_band &= gap <= NVD_BAND
        gap -= NVD_BAND
        undecided |= np.abs(gap, out=gap) <= tol
    return in_band, undecided


def audit(lat, radius):
    """NVD audit of the lattice points of norm <= radius: their number, the
    minimum |det| over the nonzero ones (None when there is none), and
    whether every such |det| lies within NVD_BAND of an integer >= 1 (false
    when there is none).

    2 x 2 points are screened by the closed form ad - bc (`_det_screen`);
    the points it leaves undecided, and all larger points, go to LAPACK in
    one stacked call, whose values give min_det and their verdicts."""
    coords = shell_coordinates(lat, radius)
    x = point_from_coordinates(lat, coords[np.any(coords != 0, axis=1)])
    if x.shape[1:] == (2, 2):
        in_band, undecided = _det_screen(x)
    else:
        in_band, undecided = np.empty(len(x), dtype=bool), slice(None)
    dets = np.abs(linalg.determinant(x[undecided]))
    in_band[undecided] = _in_nvd_band(dets)
    return {"points": len(coords), "min_det": float(dets.min()) if dets.size else None,
            "nvd": bool(in_band.size) and bool(np.all(in_band))}


def shape_codebook(lat, rho, r):
    """Spherically shaped code: radius M = rho^(r n / k), points scaled by 1/M."""
    if rho < 1:
        raise ValueError(f"rho must be >= 1 (--snr-db >= 0), got {rho:g}")
    if r < 0:
        raise ValueError("r must be >= 0")
    m_radius = float(rho) ** (r * lat.ambient_n / lat.rank)
    pts = point_from_coordinates(lat, shell_coordinates(lat, m_radius)) / m_radius
    pts.flags.writeable = False
    return Codebook(points=pts, radius_m=m_radius, source=lat)


def _short_vectors(lat, count):
    """The nonzero coordinate vectors of the least shell, from the norm of the
    shortest generator up by factors of 1.5, that holds at least `count` of
    them, and their squared norms."""
    radius = math.sqrt(float(np.min(np.diag(lat.gram))))
    while True:
        coords = shell_coordinates(lat, radius)
        nz = coords[np.any(coords != 0, axis=1)]
        if len(nz) >= count:
            return nz, np.einsum("pi,ij,pj->p", nz, lat.gram, nz)
        radius *= 1.5


def minimum_norm(lat):
    """lambda_1: the least norm of a nonzero lattice point, from the shell at
    the norm of the shortest generator, which holds that generator."""
    return math.sqrt(float(np.min(_short_vectors(lat, 1)[1])))


def fixed_codebook(lat):
    """A fixed constellation of 16 codewords for zero-multiplexing runs.

    Prefers the smallest norm shell that alone holds 16 points: keeping
    all codewords at equal norm maximizes the minimum distance relative to
    the scaling radius.  Falls back to a smallest-norm fill when no single
    shell is large enough.  Selection is deterministic (norm, then
    lexicographic coordinates); points are scaled by the largest norm so the
    power constraint holds.
    """
    nz, n2 = _short_vectors(lat, 32)
    order = np.argsort(n2, kind="stable")
    _, first, count = np.unique(np.round(n2[order], 9), return_index=True,
                                return_counts=True)
    shells = first[count >= 16]
    start = shells[0] if shells.size else 0
    pts = point_from_coordinates(lat, nz[order[start:start + 16]])
    m_fix = max(linalg.frobenius_norm(x) for x in pts)
    pts = pts / m_fix
    pts.flags.writeable = False
    return Codebook(points=pts, radius_m=m_fix, source=lat)


# ---------------------------------------------------------------------------
# JSON interchange: matrices as row-major [re, im] pairs.

def lattice_to_json(lat):
    """The lattice JSON document of `lat`, the format `load_lattice` reads."""
    return {"ambient_n": lat.ambient_n, "flavor": lat.flavor,
            "basis": [[[float(v.real), float(v.imag)] for v in b.ravel()] for b in lat.basis]}


def _generators_from_json(data):
    """Generator matrices and flavor of a lattice JSON; a malformed one names the key at fault."""
    if not isinstance(data, dict):
        raise ValueError(f"a lattice JSON must be an object, got {type(data).__name__}")
    n, basis = data.get("ambient_n"), data.get("basis")
    try:
        mats = [np.array([complex(re, im) for re, im in b]).reshape(n, n) for b in basis]
    except (TypeError, ValueError):
        key = "ambient_n" if type(n) is not int or n < 1 else "basis"
        raise ValueError(f"lattice JSON {key!r} is missing or malformed") from None
    return mats, data.get("flavor")


def load_lattice(name_or_path):
    """Resolve a built-in lattice name or read a lattice JSON file, naming the
    file if it is not JSON or not a lattice document."""
    if name_or_path in BUILTIN_LATTICES:
        return quaternion_order(*BUILTIN_LATTICES[name_or_path])
    with open(name_or_path, encoding="utf-8") as fh:
        try:
            mats, flavor = _generators_from_json(json.load(fh))
        except ValueError as exc:  # json's decode errors are ValueErrors too
            raise ValueError(f"lattice file {name_or_path}: {exc}") from None
    return matrix_lattice(mats, flavor)
