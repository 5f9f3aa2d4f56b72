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
and a codebook's words.  The determinant of a point of a lattice of 2 x 2
matrices is a quadratic form in its coordinates, whose coefficients are
integers for the orders above (the reduced norm; Voight, "Quaternion
Algebras", GTM 288, ch. 12 and 14).  An audit recovers that form
(`_det_form`) and, where it is integral, evaluates every determinant
exactly in int64, with no point built; every other lattice takes its
determinants from LAPACK in one stacked call, and a rounding bound decides
when their verdict is undecided.
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


def _det_form(lat):
    """The integer determinant form of a lattice of 2 x 2 matrices, as
    (i, j, U_ij) arrays over the nonzero U_ij, i <= j, with
    det(sum x_i B_i) = sum U_ij x_i x_j, or None where the lattice is larger
    or a coefficient is not integral.

    U_ii = det B_i and U_ij = det(B_i + B_j) - det B_i - det B_j come from
    one stacked LAPACK call.  A 2 x 2 |det| errs by at most 1e-12 of the
    squared norm of its matrix (see `audit`), so U_ij lies within
    e = 4e-12 (G_ii + G_jj) of its exact value, G being the Gram matrix; a
    coefficient is integral when it lies within e of an integer and e < 1/4.
    The test is relative: a scaled lattice's coefficients, whether tiny or
    huge floats with integer values, exceed their bound or fail e < 1/4."""
    if lat.basis.shape[1:] != (2, 2):
        return None
    i, j = np.triu_indices(lat.rank)
    off = i != j
    dets = linalg.determinant(lat.basis[i] + off[:, None, None] * lat.basis[j])
    own = dets[~off]  # det B_0, ..., det B_(k-1)
    coef = dets - off * (own[i] + own[j])
    g = np.diag(lat.gram)
    err = 4e-12 * (g[i] + g[j])
    nearest = np.round(coef.real)
    if err.max() >= 0.25 or np.any(np.abs(coef - nearest) > err):
        return None
    keep = nearest != 0
    return i[keep], j[keep], nearest[keep].astype(np.int64)


def audit(lat, radius):
    """NVD audit of the lattice points of norm <= radius: their number, the
    minimum |det| over the nonzero ones (None when there is none), and
    `nvd`, whether every such |det| lies within NVD_BAND of an integer >= 1:
    true, false (also when there is no nonzero point) or None, undecided.

    Where a 2 x 2 lattice's determinant form is integral (`_det_form`) and
    sum |U_ij| max|x|^2 < 2^62 over the shell, every |det| is evaluated
    exactly in int64 on the coordinates: min_det is an exact integer and nvd
    is whether every |det| is at least 1.  Every other lattice takes its
    determinants from LAPACK in one stacked call.  For a 2 x 2 point
    X = [[a, b], [c, d]], e = 1e-12 radius^2 bounds LAPACK's error: LU with
    partial pivoting errs by a few units u = 2^-53 of |a||d| + |b||c| <=
    |X|_F^2, and numpy's exp(log|a| + log|u22|) by at most about 1850 u of
    |det| (Higham, "Accuracy and Stability of Numerical Algorithms", SIAM
    2002, sections 3.6 and 9).  nvd is true when every |det| is in the band
    and e <= NVD_BAND, false when some |det| lies more than e outside the
    band, and undecided otherwise.  Larger points have no stated bound, so
    their band verdict false stands and true reads undecided."""
    coords = shell_coordinates(lat, radius)
    nonzero = coords[np.any(coords != 0, axis=1)]
    form = _det_form(lat)
    if form is not None and (int(np.abs(form[2]).sum())
                             * int(np.abs(nonzero).max(initial=0)) ** 2 < 2 ** 62):
        dets = np.zeros(len(nonzero), dtype=np.int64)
        for i, j, u in zip(*form):
            dets += u * nonzero[:, i] * nonzero[:, j]
        dets = np.abs(dets)
        nvd = bool(dets.size) and bool(dets.min() >= 1)
    else:
        dets = np.abs(linalg.determinant(point_from_coordinates(lat, nonzero)))
        gap = np.abs(dets - np.maximum(np.round(dets), 1)) - NVD_BAND  # distance outside the band
        worst = float(gap.max()) if gap.size else math.inf
        err = 1e-12 * float(radius) ** 2 if lat.ambient_n == 2 else 0.0
        decided = worst > err or (worst <= 0 and err <= NVD_BAND and lat.ambient_n == 2)
        nvd = worst <= 0 if decided else None
    return {"points": len(coords), "min_det": float(dets.min()) if dets.size else None,
            "nvd": nvd}


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
