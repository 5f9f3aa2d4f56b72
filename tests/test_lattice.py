import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dmtlab import lattice, linalg
from dmtlab.channel import lift_parts


HAMILTON = lattice.load_lattice("hamilton")
SPLIT = lattice.load_lattice("split")


def box_search_coordinates(lat, radius):
    """Independent shell oracle: scan the coordinate box implied by the dual
    Gram bounds and keep vectors with c^T G c <= radius^2."""
    g = lat.gram
    ginv = np.linalg.inv(g)
    bounds = [int(np.floor(radius * np.sqrt(ginv[i, i]) + 1e-9)) for i in range(lat.rank)]
    hits = []
    for c in itertools.product(*[range(-b, b + 1) for b in bounds]):
        v = np.array(c, dtype=float)
        if v @ g @ v <= radius * radius * (1 + 1e-12):
            hits.append(c)
    return sorted(hits)


# ---------------------------------------------------------------------------
# enumeration

def test_shell_zero_radius():
    pts = lattice.point_from_coordinates(HAMILTON, lattice.shell_coordinates(HAMILTON, 0.0))
    assert len(pts) == 1 and np.all(pts[0] == 0)


def test_shell_counts_match_box_oracle():
    for lat in (HAMILTON, SPLIT):
        # shaped radii rho^(rn/k): at 10 dB, r = 1 and at 20 dB, r = 1 the
        # squared radius is 10 and 100, which both orders reach exactly
        shaped = [lattice.shape_codebook(lat, 10.0 ** (db / 10.0), r).radius_m
                  for db, r in ((10, 1.0), (25, 0.5), (30, 0.5), (20, 1.0))]
        for radius in [0.5, np.sqrt(2), 2.0, 3.0] + shaped:
            mine = [tuple(c) for c in lattice.shell_coordinates(lat, radius)]
            assert mine == box_search_coordinates(lat, radius)


def test_hamilton_shell_sqrt2():
    # 0 plus the 8 unit quaternions: ||X||^2 = 2(a^2+b^2+c^2+d^2)
    assert len(lattice.shell_coordinates(HAMILTON, np.sqrt(2))) == 9


def test_hamilton_shell_radius2():
    # integer solutions of a^2+b^2+c^2+d^2 <= 2: 1 + 8 + 24 (box oracle)
    assert len(lattice.shell_coordinates(HAMILTON, 2.0)) == 33
    assert len(box_search_coordinates(HAMILTON, 2.0)) == 33


def test_shell_nesting():
    small = {tuple(c) for c in lattice.shell_coordinates(SPLIT, 2.0)}
    large = {tuple(c) for c in lattice.shell_coordinates(SPLIT, 3.5)}
    assert small <= large


def test_shell_negation_closure():
    coords = {tuple(c) for c in lattice.shell_coordinates(HAMILTON, 3.0)}
    assert all(tuple(-v for v in c) in coords for c in coords)


def test_shell_z16_radius2():
    # Z^16 from the 16 real 4x4 matrix units: the theta series of Z^16 gives
    # 1 + 32 + 480 + 4480 + 29152 vectors of squared norm 0..4
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    z16 = lattice.matrix_lattice(units, "real")
    coords = lattice.shell_coordinates(z16, 2.0)
    assert coords.shape == (34_145, 16)
    assert np.all(np.sum(coords ** 2, axis=1) <= 4)
    assert [tuple(c) for c in coords] == sorted(tuple(c) for c in coords)


@pytest.mark.parametrize("lat,radius", [
    (SPLIT, 15.0),
    (lattice.matrix_lattice(np.eye(16, dtype=complex).reshape(16, 4, 4), "real"), 2.0)],
    ids=["split", "z16"])
def test_shell_strictly_lexicographic(lat, radius):
    # the enumeration builds rows in lexicographic order, with no sort and
    # no repeated row
    coords = [tuple(c) for c in lattice.shell_coordinates(lat, radius)]
    assert len(coords) > 1 and all(a < b for a, b in zip(coords, coords[1:]))


def test_shell_peak_memory():
    # Z^16's radius-2.3 shell, 174,881 points of 16 coordinates (21.3 MiB):
    # a level holds the old frontier and the new one, which it fills a column
    # at a time, with no gathered copy of the old one (67.9 MiB when it had)
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    z16 = lattice.matrix_lattice(units, "real")
    tracemalloc.start()
    try:
        coords = lattice.shell_coordinates(z16, 2.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert coords.shape == (174_881, 16)
    assert peak <= 55 * 2**20


def test_shell_cap_counts_coordinates():
    # Z^16's radius-2.45 shell has 700,833 points, fewer than a million, but
    # of 16 coordinates each: over the 4,000,000 coordinates a level may hold
    units = np.eye(16, dtype=complex).reshape(16, 4, 4)
    z16 = lattice.matrix_lattice(units, "real")
    with pytest.raises(lattice.ResourceLimitError, match="SHELL_CAP"):
        lattice.shell_coordinates(z16, 2.45)


def test_shell_cap(monkeypatch):
    monkeypatch.setattr(lattice, "SHELL_CAP", 10)
    with pytest.raises(lattice.ResourceLimitError):
        lattice.shell_coordinates(HAMILTON, 100.0)


@pytest.mark.parametrize("radius", [1e150, 1e200])
def test_shell_huge_radius_hits_cap(radius):
    # at 1e200 the squared radius overflows to inf; the float-side count
    # check still raises before any coordinate becomes an integer
    with pytest.raises(lattice.ResourceLimitError, match="SHELL_CAP"):
        lattice.shell_coordinates(HAMILTON, radius)


# ---------------------------------------------------------------------------
# audit (min_det)

def test_min_det_hamilton():
    # an integral determinant form: min_det is the exact integer
    for radius in (np.sqrt(2), 3.0, 4.0, 9.5):
        report = lattice.audit(HAMILTON, radius)
        assert report["min_det"] == 1.0 and report["nvd"] is True


def test_min_det_split():
    for radius in (5.0, 15.0):  # LAPACK reads 0.9999999999999785 at radius 15
        report = lattice.audit(SPLIT, radius)
        assert report["min_det"] == 1.0 and report["nvd"] is True


def _audit_by_lapack(lat, radius):
    """The audit with every determinant from LAPACK and the 1e-9 band as
    the verdict, the reference that `lattice.audit` is compared with."""
    coords = lattice.shell_coordinates(lat, radius)
    nonzero = coords[np.any(coords != 0, axis=1)]
    dets = np.abs(linalg.determinant(lattice.point_from_coordinates(lat, nonzero)))
    nearest = np.round(dets)
    nvd = bool(dets.size) and bool(np.all((np.abs(dets - nearest) <= 1e-9) & (nearest >= 1)))
    return {"points": len(coords), "min_det": float(dets.min()) if dets.size else None,
            "nvd": nvd}


def _assert_audit_is(lat, radius, expect):
    """`lattice.audit` reports `expect`; where the lattice's determinant form
    is integral, its min_det is an exact integer within 1e-9 of expect's."""
    report = lattice.audit(lat, radius)
    if lattice._det_form(lat) is not None and report["min_det"] is not None:
        assert report["min_det"] == round(report["min_det"])
        assert report["min_det"] == pytest.approx(expect["min_det"], abs=1e-9)
        report = {**report, "min_det": expect["min_det"]}
    assert report == expect


SQUAREFREE = [n for n in range(-11, 12) if n and all(abs(n) % (p * p) for p in (2, 3))]
LATTICES = Path(__file__).resolve().parent.parent / "lattices"


def test_audit_equals_lapack_over_squarefree_orders():
    # the orders of all 136 algebras (a, b)_Q, a <= b squarefree in [-11, 11],
    # all with an integral determinant form
    for a, b in itertools.combinations_with_replacement(SQUAREFREE, 2):
        lat = lattice.quaternion_order(a, b)
        assert lattice._det_form(lat) is not None, (a, b)
        _assert_audit_is(lat, 12, _audit_by_lapack(lat, 12))


def test_det_form_of_controls():
    # M2(Z): det = x0 x3 - x1 x2; split_pi's coefficients involve pi
    m2z = lattice.load_lattice(str(LATTICES / "m2z.json"))
    i, j, u = lattice._det_form(m2z)
    assert {(a, b): c for a, b, c in zip(i, j, u)} == {(0, 3): 1, (1, 2): -1}
    assert lattice._det_form(lattice.load_lattice(str(LATTICES / "split_pi.json"))) is None
    i, j, u = lattice._det_form(SPLIT)
    assert {(a, b): c for a, b, c in zip(i, j, u)} == {(0, 0): 1, (1, 1): -2,
                                                     (2, 2): -3, (3, 3): 6}


@pytest.mark.parametrize("name,radius", [("split_pi", r) for r in (2, 4, 8, 12, 16, 24, 32, 48)]
                         + [("m2z", r) for r in range(1, 9)])
def test_audit_equals_lapack_on_controls(name, radius):
    lat = lattice.load_lattice(str(LATTICES / f"{name}.json"))
    _assert_audit_is(lat, radius, _audit_by_lapack(lat, radius))


def _random_basis(rng, flavor, integer):
    """Four 2 x 2 generators of a random real or quaternionic lattice,
    with small integer entries or normal ones."""
    draw = ((lambda: rng.integers(-3, 4, size=(2, 2)).astype(float)) if integer
            else (lambda: rng.normal(size=(2, 2))))
    if flavor == "real":
        return [draw() for _ in range(4)]
    return [np.array([[a, -np.conj(b)], [b, np.conj(a)]])
            for a, b in (draw()[0] + 1j * draw()[0] for _ in range(4))]


@pytest.mark.parametrize("scale", [1.0, 1e70, 1e-70, 1e150, 1e-150])
@pytest.mark.parametrize("flavor", ["real", "quaternionic"])
def test_audit_equals_lapack_on_random_lattices(flavor, scale):
    # scaled, no form is integral: its coefficients lie far from any integer
    # at 1e-70 and 1e-150, and their rounding bound passes 1/4 at 1e70 and
    # 1e150.  At those two LAPACK's error bound 1e-12 radius^2 spans many
    # integers, so the band decides nothing (every |det| of 2^52 or more is
    # an integer float, and the oracle reads true on every real normal
    # draw): the audit is undecided wherever the shell holds a nonzero point
    rng = np.random.default_rng(35)
    for trial in range(12):
        integer = trial % 2 == 1
        try:
            lat = lattice.matrix_lattice([scale * m for m in _random_basis(rng, flavor, integer)],
                                         flavor)
        except ValueError:  # dependent generators
            continue
        radius = scale * float(rng.uniform(2.0, 6.0))
        expect = _audit_by_lapack(lat, radius)
        if scale != 1:
            assert lattice._det_form(lat) is None
        if scale > 1:
            expect["nvd"] = None if expect["points"] > 1 else False
        _assert_audit_is(lat, radius, expect)


def test_audit_guards_int64():
    # an integral form whose shell reaches |det| = 2^32 x^2 = 2^64, which
    # int64 would wrap to 0: the guard sends it to LAPACK, whose error bound
    # 1e-12 radius^2 (3.7e7 here) exceeds NVD_BAND, so the audit is
    # undecided.  LAPACK's |det| of 2^16 I reads 2^32 - 3.3e-6, outside the
    # band, which the all-LAPACK oracle takes for false
    c, top = 2.0 ** 16, 2 ** 16
    lat = lattice.matrix_lattice([c * np.eye(2)], "real")
    radius = c * np.sqrt(2) * (top + 0.5)
    i, j, u = lattice._det_form(lat)
    assert u.tolist() == [2 ** 32]
    expect = _audit_by_lapack(lat, radius)
    assert expect["points"] == 2 * top + 1
    assert expect["min_det"] == pytest.approx(2.0 ** 32, rel=1e-12)
    assert lattice.audit(lat, radius) == {**expect, "nvd": None}


def test_audit_of_3x3_points_is_lapack():
    # points larger than 2 x 2 have no determinant form and no stated error
    # bound: LAPACK's band verdict false stands, and true reads undecided
    gens = [np.eye(3), np.diag([1.0, -1.0, 2.0]), np.roll(np.eye(3), 1, axis=0),
            np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])]
    lat = lattice.matrix_lattice(gens, "real")
    assert lattice.audit(lat, 5.0) == _audit_by_lapack(lat, 5.0)
    scalars = lattice.matrix_lattice([np.eye(3)], "real")  # det x^3
    assert _audit_by_lapack(scalars, 4.0)["nvd"] is True
    assert lattice.audit(scalars, 4.0) == {"points": 5, "min_det": 1.0, "nvd": None}


# ---------------------------------------------------------------------------
# built-in orders

def test_hamilton_generators_quaternionic():
    for b in HAMILTON.basis:
        assert lattice.structure_check(b, "quaternionic")


def test_hamilton_determinant_is_quaternion_norm():
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c, d = (int(v) for v in rng.integers(-9, 10, size=4))
        x = lattice.point_from_coordinates(HAMILTON, np.array([a, b, c, d]))
        expect = a * a + b * b + c * c + d * d
        assert linalg.determinant(x) == pytest.approx(expect, abs=1e-9)


def test_split_identity_element():
    x = lattice.point_from_coordinates(SPLIT, np.array([1, 0, 0, 0]))
    assert np.allclose(x, np.eye(2), atol=0)
    assert linalg.determinant(x) == pytest.approx(1.0, abs=1e-12)


def test_split_j_element():
    x = lattice.point_from_coordinates(SPLIT, np.array([0, 0, 1, 0]))
    assert np.allclose(x.real, [[0, 1], [3, 0]], atol=0)
    assert linalg.determinant(x) == pytest.approx(-3.0, abs=1e-12)


def test_split_determinant_form():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y, z, w = (int(v) for v in rng.integers(-9, 10, size=4))
        mat = lattice.point_from_coordinates(SPLIT, np.array([x, y, z, w]))
        expect = x * x - 2 * y * y - 3 * z * z + 6 * w * w
        assert linalg.determinant(mat).real == pytest.approx(expect, abs=1e-8)


def test_split_form_anisotropic_box20():
    # no nonzero integer quadruple with |.| <= 20 kills x^2-2y^2-3z^2+6w^2
    rng = np.arange(-20, 21, dtype=np.int64)
    xy = (rng[:, None] ** 2 - 2 * rng[None, :] ** 2).ravel()
    zw = (-3 * rng[:, None] ** 2 + 6 * rng[None, :] ** 2).ravel()
    vals = xy[:, None] + zw[None, :]
    zero_at = np.argwhere(vals == 0)
    # the only root of the form in the box is the origin
    assert all((xy_idx == 20 * 41 + 20 and zw_idx == 20 * 41 + 20)
               for xy_idx, zw_idx in zero_at)


def test_orders_ring_closure():
    # products of shell points have integer coordinates: orders are rings.
    # A product's coordinates solve the Gram system G c = (<x, b_i>), with
    # <x, b> = Re tr(x^* b) the dot product of the real parts
    for lat in (HAMILTON, SPLIT):
        pts = lattice.point_from_coordinates(lat, lattice.shell_coordinates(lat, 2.0))
        for a in pts[:12]:
            for b in pts[:12]:
                x = np.asarray(a) @ np.asarray(b)
                rhs = [np.sum(x.real * g.real + x.imag * g.imag) for g in lat.basis]
                coords = np.linalg.solve(lat.gram, rhs)
                assert np.max(np.abs(coords - np.round(coords))) <= 1e-9


def test_nvd_integrality():
    for lat in (HAMILTON, SPLIT):
        for c in lattice.shell_coordinates(lat, 3.0):
            if not np.any(c):
                continue
            d = abs(linalg.determinant(lattice.point_from_coordinates(lat, c)))
            assert abs(d - round(d)) <= 1e-9
            assert d >= 1 - 1e-9


def test_gram_consistency():
    rng = np.random.default_rng(2)
    for lat in (HAMILTON, SPLIT):
        coords = rng.integers(-5, 6, size=(100, lat.rank))
        stack = lattice.point_from_coordinates(lat, coords)
        assert stack.shape == (100, lat.ambient_n, lat.ambient_n)
        for c, row in zip(coords, stack):
            x = lattice.point_from_coordinates(lat, c)
            assert x.tobytes() == row.tobytes()  # a stack row is its point, bit for bit
            quad = float(c @ lat.gram @ c)
            assert linalg.frobenius_norm(x) ** 2 == pytest.approx(quad, abs=1e-9 * max(1, quad))


# ---------------------------------------------------------------------------
# construction validation

def test_matrix_lattice_rejects_dependent_generators():
    b = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        lattice.matrix_lattice([b, 2 * b], "real")


def test_matrix_lattice_rejects_flavor_violation():
    with pytest.raises(ValueError):
        lattice.matrix_lattice([np.array([[1j, 0], [0, 1j]])], "real")


def test_matrix_lattice_rejects_complex_flavor():
    # only the two bounded code classes, real and quaternionic, are lattices
    with pytest.raises(ValueError, match=r"flavor must be one of \('real', 'quaternionic'\)"):
        lattice.matrix_lattice([np.eye(2, dtype=complex)], "complex")


def test_matrix_lattice_rank_cap():
    gens = [np.zeros((1, 1), dtype=complex) for _ in range(2)]
    gens[0][0, 0] = 1.0
    gens[1][0, 0] = 0.5
    with pytest.raises(ValueError):
        lattice.matrix_lattice(gens, "real")  # rank 2 > n^2 = 1


# ---------------------------------------------------------------------------
# structure_check

def test_structure_check_examples():
    assert lattice.structure_check(np.eye(2), "real")
    assert not lattice.structure_check(np.array([[1j, 0], [0, 1j]]), "quaternionic")
    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    lifted = lift_parts((z[None, :, :2].real, z[None, :, :2].imag,
                         z[None, :, 2:].real, z[None, :, 2:].imag))[0]
    assert lattice.structure_check(lifted, "quaternionic")


# ---------------------------------------------------------------------------
# shaping

def test_shape_codebook_radius():
    cb = lattice.shape_codebook(HAMILTON, 100.0, 1.0)
    assert cb.radius_m == pytest.approx(10.0, abs=1e-12)


def test_shape_codebook_rho_one():
    cb = lattice.shape_codebook(HAMILTON, 1.0, 0.7)
    assert cb.radius_m == 1.0
    assert len(cb.points) == 1  # only the origin has norm <= 1


def test_shape_codebook_power_and_norms():
    for lat in (HAMILTON, SPLIT):
        cb = lattice.shape_codebook(lat, 60.0, 0.6)
        assert len(cb.points) > 1
        assert isinstance(cb.points, np.ndarray) and not cb.points.flags.writeable
        assert cb.points.shape == (len(cb.points), lat.ambient_n, lat.ambient_n)
        # every word has norm <= 1, so the average power
        # (1/|C|)(1/n^2) sum ||X||^2 is at most 1/n^2
        for p in cb.points:
            assert linalg.frobenius_norm(p) <= 1 + 1e-12
        # pairwise distinct
        keys = {tuple(np.round(np.asarray(p).ravel().view(float), 12)) for p in cb.points}
        assert len(keys) == len(cb.points)


def test_shape_codebook_validation(monkeypatch):
    with pytest.raises(ValueError):
        lattice.shape_codebook(HAMILTON, 0.5, 0.5)
    with pytest.raises(ValueError):
        lattice.shape_codebook(HAMILTON, 10.0, -0.1)
    monkeypatch.setattr(lattice, "SHELL_CAP", 1000)
    with pytest.raises(lattice.ResourceLimitError):
        lattice.shape_codebook(HAMILTON, 1e9, 2.0)


def test_fixed_codebook_equal_norm_shell():
    cb = lattice.fixed_codebook(HAMILTON)
    assert len(cb.points) == 16
    assert isinstance(cb.points, np.ndarray) and not cb.points.flags.writeable
    norms = {round(linalg.frobenius_norm(p), 9) for p in cb.points}
    assert norms == {1.0}  # one shell, scaled to the unit sphere
    again = lattice.fixed_codebook(HAMILTON)
    assert all(np.array_equal(a, b) for a, b in zip(cb.points, again.points))


def test_fixed_codebook_mixed_fallback():
    # a rank-1 lattice has two points per shell, so 16 words cannot come
    # from one shell: the smallest-norm fill kicks in and mixes norms
    rank1 = lattice.matrix_lattice([np.eye(2, dtype=complex)], "real")
    cb = lattice.fixed_codebook(rank1)
    assert len(cb.points) == 16
    norms = sorted(round(linalg.frobenius_norm(p), 9) for p in cb.points)
    assert len(set(norms)) == 8 and norms[-1] == 1.0


# ---------------------------------------------------------------------------
# JSON round trips

def test_lattice_json_roundtrip(tmp_path):
    for lat in (HAMILTON, SPLIT):
        path = tmp_path / f"{lat.flavor}.json"
        path.write_text(json.dumps(lattice.lattice_to_json(lat)), encoding="utf-8")
        back = lattice.load_lattice(str(path))
        assert back.flavor == lat.flavor and back.ambient_n == lat.ambient_n
        for a, b in zip(back.basis, lat.basis):
            assert np.array_equal(a, b)
        assert np.allclose(back.gram, lat.gram, atol=0)


@pytest.mark.parametrize("call,match", [
    (lambda: lattice.structure_check(np.eye(2), "banana"), "unknown flavor 'banana'"),
    (lambda: lattice.matrix_lattice([], "real"), "empty generator list"),
    (lambda: lattice.matrix_lattice([np.eye(2), np.eye(3)], "real"),
     "square matrices of equal size"),
    (lambda: lattice.shell_coordinates(
        lattice.MatrixLattice(ambient_n=1, basis=np.ones((1, 1, 1), dtype=complex),
                              flavor="real", gram=-np.ones((1, 1))), 1.0),
     "Gram matrix is not positive definite")],
    ids=["flavor", "no-generators", "unequal-sizes", "indefinite-gram"])
def test_lattice_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
