"""Matrix lattices, the non-vanishing-determinant property, and shaping.

A lattice's flavor is one of FLAVORS, the two code classes the tradeoff
bounds cover: ``real`` (real generator matrices, bound d1) and
``quaternionic`` (generators of the [[A, -B*], [B, A*]] block structure,
bound d2).  Either structure spans n^2 real dimensions, which caps the rank.

Two concrete rank-4 orders in 2x2 matrices are built in:

  * ``hamilton`` -- the Lipschitz order of Hamilton's quaternions, embedded
    as quaternionic-structured complex matrices; det(image of a+bi+cj+dk)
    is the quaternion norm a^2+b^2+c^2+d^2.
  * ``split``    -- the order Z<i,j> of the rational quaternion algebra with
    i^2 = 2, j^2 = 3, embedded in real 2x2 matrices; det(image of
    (x, y, z, w)) = x^2 - 2y^2 - 3z^2 + 6w^2.

Both have minimum determinant 1 over the nonzero points (reduced norms of
an order are rational integers), which the enumeration-based audits verify.

NVD audits (`audit`), shaped codebooks and fixed 16-word constellations
all take their points from one breadth-first Cholesky branch-and-bound
(`shell_coordinates`), which holds its frontier as arrays, caps the integer
coordinates each level holds at SHELL_CAP, and fixes the leading coordinate
first, so that its points come out in lexicographic order of their
coordinates.

A set of matrices is one read-only complex (N, n, n) array: a lattice's
generators, a shell's points (`point_from_coordinates` of (N, k) coordinates)
and a codebook's words.  A shell's determinants come from one stacked call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import quaternionic_defect

FLAVORS = ("real", "quaternionic")

SQRT2 = math.sqrt(2.0)

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


def build_hamilton_order():
    """Lipschitz order: images of 1, i, j, k under the standard embedding."""
    one = np.array([[1, 0], [0, 1]], dtype=complex)
    i_ = np.array([[1j, 0], [0, -1j]], dtype=complex)
    j_ = np.array([[0, -1], [1, 0]], dtype=complex)
    k_ = np.array([[0, -1j], [-1j, 0]], dtype=complex)
    return matrix_lattice([one, i_, j_, k_], "quaternionic")


def build_split_order():
    """Order Z<i,j> of the (2, 3) rational quaternion algebra in real matrices.

    (x, y, z, w) maps to [[x + y*sqrt(2), z + w*sqrt(2)],
                          [3(z - w*sqrt(2)), x - y*sqrt(2)]].
    """
    one = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    i_ = np.array([[SQRT2, 0.0], [0.0, -SQRT2]], dtype=complex)
    j_ = np.array([[0.0, 1.0], [3.0, 0.0]], dtype=complex)
    k_ = np.array([[0.0, SQRT2], [-3.0 * SQRT2, 0.0]], dtype=complex)
    return matrix_lattice([one, i_, j_, k_], "real")


BUILTIN_LATTICES = {"hamilton": build_hamilton_order, "split": build_split_order}


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


def coordinates_of(lat, x):
    """Real coordinates of a matrix in the generator basis (via the Gram system)."""
    a = linalg.as_matrix(x)
    rhs = np.array([float(np.sum(a.real * b.real + a.imag * b.imag)) for b in lat.basis])
    return np.linalg.solve(lat.gram, rhs)


def audit(lat, radius):
    """NVD audit of the lattice points of norm <= radius: their number, the
    minimum |det| over the nonzero ones (None when there is none), and
    whether every such |det| lies within 1e-9 of an integer >= 1 (false
    when there is none)."""
    coords = shell_coordinates(lat, radius)
    nonzero = coords[np.any(coords != 0, axis=1)]
    dets = np.abs(linalg.determinant(point_from_coordinates(lat, nonzero)))
    nearest = np.round(dets)
    nvd = bool(dets.size) and bool(np.all((np.abs(dets - nearest) <= 1e-9) & (nearest >= 1)))
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


def fixed_codebook(lat):
    """A fixed constellation of 16 codewords for zero-multiplexing runs.

    Prefers the smallest norm shell that alone holds 16 points: keeping
    all codewords at equal norm maximizes the minimum distance relative to
    the scaling radius.  Falls back to a smallest-norm fill when no single
    shell is large enough.  Selection is deterministic (norm, then
    lexicographic coordinates); points are scaled by the largest norm so the
    power constraint holds.
    """
    radius = math.sqrt(float(np.min(np.diag(lat.gram))))
    while True:
        coords = shell_coordinates(lat, radius)
        nz = coords[np.any(coords != 0, axis=1)]
        if len(nz) >= 32:
            break
        radius *= 1.5
    n2 = np.einsum("pi,ij,pj->p", nz, lat.gram, nz)
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


def lattice_from_json(data):
    """Inverse of `lattice_to_json`."""
    return matrix_lattice(*_generators_from_json(data))


def load_lattice(name_or_path):
    """Resolve a built-in lattice name or read a lattice JSON file, naming the
    file if it is not JSON or not a lattice document."""
    if name_or_path in BUILTIN_LATTICES:
        return BUILTIN_LATTICES[name_or_path]()
    with open(name_or_path, encoding="utf-8") as fh:
        try:
            mats, flavor = _generators_from_json(json.load(fh))
        except ValueError as exc:  # json's decode errors are ValueErrors too
            raise ValueError(f"lattice file {name_or_path}: {exc}") from None
    return matrix_lattice(mats, flavor)
