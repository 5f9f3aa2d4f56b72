import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dmtlab import channel, linalg


def cofactor_det(a):
    """Independent determinant oracle: Laplace expansion along the first row."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0j
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(minor)
    return total


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# frobenius_norm

def test_frobenius_zero():
    assert linalg.frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_identity():
    assert linalg.frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=0)


def test_frobenius_modulus():
    # |3+4i| = 5 by direct modulus
    assert linalg.frobenius_norm([[3 + 4j]]) == pytest.approx(5.0, abs=0)


def test_frobenius_zero_iff_zero():
    rng = np.random.default_rng(0)
    m = random_complex(rng, (3, 3))
    assert linalg.frobenius_norm(m) > 0


def test_frobenius_rejects_nan():
    with pytest.raises(ValueError):
        linalg.frobenius_norm([[np.nan]])


def test_frobenius_submultiplicative():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (3, 3))
        assert (linalg.frobenius_norm(a @ b)
                <= linalg.frobenius_norm(a) * linalg.frobenius_norm(b) + 1e-12)


# ---------------------------------------------------------------------------
# determinant

def test_determinant_identity():
    for n in (1, 3, 6):
        assert linalg.determinant(np.eye(n)) == pytest.approx(1.0, abs=1e-12)


def test_determinant_permutation_sign():
    assert linalg.determinant([[0, 1], [1, 0]]) == pytest.approx(-1.0, abs=1e-12)


def test_determinant_matches_cofactor_oracle():
    rng = np.random.default_rng(2)
    stack = rng.integers(-5, 6, size=(50, 3, 3)).astype(complex)
    for a in stack:
        expect = cofactor_det(a)
        got = linalg.determinant(a)
        assert got == pytest.approx(expect, abs=1e-9)
    stacked = linalg.determinant(stack)
    assert stacked.shape == (50,)
    assert all(d == linalg.determinant(a) for d, a in zip(stacked, stack))


def test_determinant_complex_vs_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_complex(rng, (4, 4))
        expect = cofactor_det(a)
        got = linalg.determinant(a)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def test_determinant_multiplicative():
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = random_complex(rng, (3, 3))
        b = random_complex(rng, (3, 3))
        lhs = linalg.determinant(a @ b)
        rhs = linalg.determinant(a) * linalg.determinant(b)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        linalg.determinant(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# bmm and logdet_pd

def loop_bmm(a, b):
    """Reference product: Python scalar sums over the inner index, ascending.

    Each product is numpy's elementwise product of the two entries; for
    complex entries that is what a vector multiply gives, whose rounding
    (it may fuse a multiply and an add) can differ from Python's own.
    """
    out = np.empty((a.shape[0], a.shape[1], b.shape[2]), dtype=np.result_type(a, b))
    for s in range(a.shape[0]):
        for p in range(a.shape[1]):
            for q in range(b.shape[2]):
                terms = [np.multiply(a[s, p, j:j + 1], b[s, j, q:q + 1])[0].item()
                         for j in range(a.shape[2])]
                acc = terms[0]
                for term in terms[1:]:
                    acc = acc + term
                out[s, p, q] = acc
    return out


@pytest.mark.parametrize("n_batch", [1, 1000])
@pytest.mark.parametrize("shape_a,shape_b", [((3, 1), (1, 2)), ((2, 2), (2, 2)),
                                             ((4, 2), (2, 3)), ((4, 1), (1, 4)),
                                             ((2, 4), (4, 2)), ((8, 8), (8, 8))])
def test_bmm_bit_identical_to_ascending_sum(n_batch, shape_a, shape_b):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((n_batch,) + shape_a)
    b = rng.standard_normal((n_batch,) + shape_b)
    got = linalg.bmm(a, b)
    assert np.array_equal(got[:100], loop_bmm(a[:100], b[:100]))
    # a transposed view, as in a Gram matrix H H^T
    assert np.array_equal(linalg.bmm(a, a.transpose(0, 2, 1))[:100],
                          loop_bmm(a[:100], a[:100].transpose(0, 2, 1)))
    # relative to |a| @ |b|, the scale of the rounding error of each entry
    scale = np.einsum("bij,bjk->bik", np.abs(a), np.abs(b))
    assert np.all(np.abs(got - np.einsum("bij,bjk->bik", a, b)) <= 1e-14 * scale)
    assert np.all(np.abs(got - a @ b) <= 1e-14 * scale)


@pytest.mark.parametrize("shape_a,shape_b", [((3, 1), (1, 2)), ((2, 2), (2, 2)),
                                             ((4, 2), (2, 3)), ((8, 8), (8, 8))])
def test_bmm_complex_bit_identical_to_ascending_sum(shape_a, shape_b):
    rng = np.random.default_rng(6)
    a = rng.standard_normal((300,) + shape_a) + 1j * rng.standard_normal((300,) + shape_a)
    b = rng.standard_normal((300,) + shape_b) + 1j * rng.standard_normal((300,) + shape_b)
    assert np.array_equal(linalg.bmm(a, b)[:100], loop_bmm(a[:100], b[:100]))
    # a conjugate-transposed view, as in a Gram matrix H^dag H
    ah = a.conj().transpose(0, 2, 1)
    assert np.array_equal(linalg.bmm(ah, a)[:100], loop_bmm(ah[:100], a[:100]))
    scale = np.einsum("bij,bjk->bik", np.abs(a), np.abs(b))
    assert np.all(np.abs(linalg.bmm(a, b) - a @ b) <= 1e-14 * scale)


def test_bmm_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        linalg.bmm(np.ones((2, 2, 3)), np.ones((2, 2, 2)))
    with pytest.raises(ValueError):
        linalg.bmm(np.ones((2, 2, 2)), np.ones((3, 2, 2)))


@pytest.mark.parametrize("conj", [False, True], ids=["plain", "conj"])
@pytest.mark.parametrize("i,j,k", list(itertools.product((1, 2), repeat=3)))
def test_bmm_quaternion_parts_match_lifted_product(i, j, k, conj):
    # the product of (4, N, i, j) and (4, N, j, k) parts lifts to the product
    # of the lifts (the left one conjugate-transposed with conj), to 1e-14 of
    # |A| |B| entry by entry
    rng = np.random.default_rng(7 + 8 * i + 4 * j + 2 * k + conj)
    a = rng.standard_normal((4, 300, j, i) if conj else (4, 300, i, j))
    b = rng.standard_normal((4, 300, j, k))
    la, lb = channel.lift_parts(a), channel.lift_parts(b)
    if conj:
        la = la.conj().transpose(0, 2, 1)
    ref = la @ lb
    got = channel.lift_parts(linalg.bmm(a, b, conj=conj))
    assert got.shape == ref.shape == (300, 2 * i, 2 * k)
    assert np.all(np.abs(got - ref) <= 1e-14 * (np.abs(la) @ np.abs(lb)))


def test_bmm_conj_of_one_stack_is_the_transpose():
    # a real stack's conjugate transpose is its transpose, bit for bit, and
    # `out` receives the product
    rng = np.random.default_rng(9)
    a, b = rng.standard_normal((200, 3, 2)), rng.standard_normal((200, 3, 4))
    out = np.empty((200, 2, 4))
    assert linalg.bmm(a, b, conj=True, out=out) is out
    assert np.array_equal(out, linalg.bmm(a.transpose(0, 2, 1).copy(), b))


@pytest.mark.parametrize("cols", [1, 3])
def test_bmm_one_row_gram_diagonal_parts_exactly_zero(cols):
    # A of one row: each diagonal entry of A^* A is |a|^2, whose three
    # imaginary parts are sums of mirrored products that cancel exactly
    a = np.random.default_rng(11).standard_normal((4, 1000, 1, cols))
    gram = linalg.bmm(a, a, conj=True)
    diag = gram[:, :, range(cols), range(cols)]
    assert np.all(diag[1:] == 0) and np.all(diag[0] > 0)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([(), (4,)]), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.integers(1, 5))
def test_adjoint_matches_bmm_conj_bit_for_bit(data, parts, i, j, k, batch):
    # bmm(adjoint(a), b) is bmm(a, b, conj=True), signed zeros included, on
    # real stacks and on quaternion parts, and the adjoint is an involution
    floats = st.floats(-1e6, 1e6, allow_subnormal=False)
    a = data.draw(hnp.arrays(float, (*parts, batch, j, i), elements=floats))
    b = data.draw(hnp.arrays(float, (*parts, batch, j, k), elements=floats))
    got, ref = linalg.bmm(linalg.adjoint(a), b), linalg.bmm(a, b, conj=True)
    assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))
    twice = linalg.adjoint(linalg.adjoint(a))
    assert np.array_equal(twice, a) and np.array_equal(np.signbit(twice), np.signbit(a))


def test_adjoint_of_a_real_stack_is_a_view_and_fills_out():
    a = np.random.default_rng(12).standard_normal((5, 2, 3))
    assert np.shares_memory(linalg.adjoint(a), a)
    out = np.empty((5, 3, 2))
    assert linalg.adjoint(a, out=out) is out and np.array_equal(out, a.transpose(0, 2, 1))
    parts = np.random.default_rng(13).standard_normal((4, 5, 2, 3))
    adj = linalg.adjoint(parts)
    assert not np.shares_memory(adj, parts)
    assert np.array_equal(adj[0], parts[0].transpose(0, 2, 1))
    assert np.array_equal(adj[1:], -parts[1:].transpose(0, 1, 3, 2))


@pytest.mark.parametrize("shape", [(6, 2, 3), (4, 6, 2, 3)], ids=["real", "parts"])
def test_sq_norms_sum_every_squared_entry_of_a_row(shape):
    x = np.random.default_rng(14).standard_normal(shape)
    rows = np.moveaxis(x, -3, 0).reshape(6, -1)
    assert np.allclose(linalg.sq_norms(x), (rows ** 2).sum(axis=1), rtol=1e-15, atol=0)


def test_bmm_rejects_bad_part_stacks():
    with pytest.raises(ValueError):  # three parts are no algebra
        linalg.bmm(np.ones((3, 2, 1, 1)), np.ones((3, 2, 1, 1)))
    with pytest.raises(ValueError):  # parts against a plain stack
        linalg.bmm(np.ones((4, 2, 1, 1)), np.ones((2, 1, 1)))
    with pytest.raises(ValueError):  # the conjugate of a complex stack
        linalg.bmm(np.ones((2, 2, 2), dtype=complex), np.ones((2, 2, 2)), conj=True)
    with pytest.raises(ValueError):  # conj transposes the left factor first
        linalg.bmm(np.ones((4, 2, 1, 3)), np.ones((4, 2, 3, 1)), conj=True)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize("rho", [1.0, 1e3, 1e6, 1e9])
def test_logdet_pd_matches_slogdet(k, rho):
    a = np.random.default_rng(k).standard_normal((500, k, k))
    g = np.eye(k) + rho * np.einsum("bij,bkj->bik", a, a)
    sign, expect = np.linalg.slogdet(g)
    assert np.all(sign == 1)
    # Beyond 1e-12 relative, allow a few units of roundoff times kappa, the
    # sensitivity of log det G to relative changes of G's entries: at rho =
    # 1e9 it reaches 1e7, and slogdet itself is off the exact value by up to
    # 1e-12 relative there.
    kappa = np.sum(np.abs(np.linalg.inv(g)) * np.abs(g), axis=(1, 2))
    tol = 1e-12 * np.abs(expect) + 4 * np.finfo(float).eps * kappa
    assert np.all(np.abs(linalg.logdet_pd(g) - expect) <= tol)


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("rho", [1.0, 1e3, 1e6])
def test_logdet_pd_complex_hermitian_matches_slogdet(k, rho):
    rng = np.random.default_rng(10 + k)
    a = rng.standard_normal((500, k, k)) + 1j * rng.standard_normal((500, k, k))
    g = np.eye(k) + rho * (a @ a.conj().transpose(0, 2, 1))
    sign, expect = np.linalg.slogdet(g)
    assert np.allclose(sign, 1.0)
    # the same allowance as for real stacks: 1e-12 relative plus a few
    # units of roundoff times the sensitivity kappa of log det G
    kappa = np.sum(np.abs(np.linalg.inv(g)) * np.abs(g), axis=(1, 2))
    tol = 1e-12 * np.abs(expect) + 4 * np.finfo(float).eps * kappa
    got = linalg.logdet_pd(g)
    assert got.dtype == float and np.all(np.abs(got - expect) <= tol)


def test_logdet_pd_rank_one_update_exact():
    # n = 1, m = 3: det(I + rho h h^T) = 1 + rho ||h||^2 exactly
    rng = np.random.default_rng(8)
    rho = 1e6
    h = rng.standard_normal((2000, 6, 1)) * np.sqrt(0.5)
    g = rho * linalg.bmm(h, h.transpose(0, 2, 1)) + np.eye(6)
    exact = np.array([math.log1p(rho * math.fsum(v * v for v in row)) for row in h[:, :, 0]])
    assert np.all(np.abs(linalg.logdet_pd(g) - exact) <= 5e-10 * exact)


def test_logdet_pd_leaves_input_and_flags_indefinite():
    g = np.array([[[1.0, 0.0], [0.0, -0.9]]])
    before = g.copy()
    with np.errstate(invalid="ignore"):
        assert np.isnan(linalg.logdet_pd(g)[0])
    assert np.array_equal(g, before)
