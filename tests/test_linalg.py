import numpy as np
import pytest

from dmtlab import linalg


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
