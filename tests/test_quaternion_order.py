"""The (a, b)_Q order builder: the built-in orders it reproduces, the input
it rejects, and the paper's classification over a family of algebras.

The corollary: a Q-central division algebra code with a standard embedding
meets d1 when the algebra splits at infinity and d2 when it ramifies there.
In degree 2 every such algebra is a quaternion algebra (a, b)_Q, and it is a
division algebra exactly when some Hilbert symbol (a, b)_v is -1 (Serre, "A
Course in Arithmetic", ch. III; Voight, "Quaternion Algebras", ch. 12).
"""

import itertools

import numpy as np
import pytest

from dmtlab import lattice

SQRT2 = np.sqrt(2.0)

# The images of 1, i, j, k as they were written out by hand before the
# builder, kept here as the reference it must reproduce bit for bit.
HAND_WRITTEN = {
    "hamilton": ([[[1, 0], [0, 1]], [[1j, 0], [0, -1j]],
                  [[0, -1], [1, 0]], [[0, -1j], [-1j, 0]]], "quaternionic"),
    "split": ([[[1.0, 0.0], [0.0, 1.0]], [[SQRT2, 0.0], [0.0, -SQRT2]],
               [[0.0, 1.0], [3.0, 0.0]], [[0.0, SQRT2], [-3.0 * SQRT2, 0.0]]], "real"),
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_builtin_orders_match_hand_written(name):
    mats, flavor = HAND_WRITTEN[name]
    ref = lattice.matrix_lattice([np.array(m, dtype=complex) for m in mats], flavor)
    built = lattice.load_lattice(name)
    assert built.flavor == ref.flavor
    assert np.array_equal(built.basis, ref.basis)
    assert np.array_equal(built.gram, ref.gram)
    # the benchmark's codebooks, down to the sign of every zero
    books = [(lattice.fixed_codebook(ref), lattice.fixed_codebook(built))]
    books += [(lattice.shape_codebook(ref, 10.0 ** (db / 10.0), 0.5),
               lattice.shape_codebook(built, 10.0 ** (db / 10.0), 0.5)) for db in (15, 20, 25)]
    for want, got in books:
        assert got.radius_m == want.radius_m
        assert got.points.shape == want.points.shape
        assert got.points.tobytes() == want.points.tobytes()


@pytest.mark.parametrize("a,b", [(0, 3), (2, 0), (2.5, 3)])
def test_quaternion_order_rejects_bad_input(a, b):
    with pytest.raises(ValueError, match=rf"a and b must be nonzero integers, got a={a}, b={b}"):
        lattice.quaternion_order(a, b)


def test_quaternion_order_relations():
    # i^2 = a, j^2 = b (after the swap that makes a > 0 in the real
    # flavor), ij = -ji, and the flavor follows from the signs
    for a, b in [(2, 3), (-1, -1), (-3, 5), (-7, -2), (1, 1)]:
        lat = lattice.quaternion_order(a, b)
        one, i, j, k = lat.basis
        ii, jj = (b, a) if a < 0 < b else (a, b)
        assert np.allclose(i @ i, ii * one) and np.allclose(j @ j, jj * one)
        assert np.allclose(k, -(j @ i))
        assert lat.flavor == ("quaternionic" if a < 0 and b < 0 else "real")


# ---------------------------------------------------------------------------
# the classification over a family

def _odd_primes(n):
    n, p, primes = abs(n), 3, []
    while n % 2 == 0:
        n //= 2
    while n > 1:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 2
    return primes


def _split_off(n, p):
    """(e, u) with n = p^e u and p not dividing u."""
    e = 0
    while n % p == 0:
        n, e = n // p, e + 1
    return e, n


def _legendre(u, p):
    """(u / p) for p an odd prime not dividing u, by Euler's criterion."""
    return 1 if pow(u % p, (p - 1) // 2, p) == 1 else -1


def hilbert_symbol(a, b, v):
    """(a, b)_v for nonzero integers a, b at v = "inf" or a prime v (Serre,
    ch. III, Theorem 1)."""
    if v == "inf":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split_off(a, v)
    beta, w = _split_off(b, v)
    if v == 2:
        eps = lambda x: ((x - 1) // 2) % 2
        omega = lambda x: ((x * x - 1) // 8) % 2
        return (-1) ** ((eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)) % 2)
    sign = (-1) ** (alpha * beta * ((v - 1) // 2) % 2)
    return sign * _legendre(u, v) ** beta * _legendre(w, v) ** alpha


SQUAREFREE = [n for n in range(-11, 12)
              if n and all(abs(n) % (p * p) for p in (2, 3))]
FAMILY = list(itertools.combinations_with_replacement(SQUAREFREE, 2))


def test_hilbert_symbol_reference():
    # the test's own reference: (-1, -1) ramifies at inf and 2 only, (2, 3)
    # (the built-in split order's algebra) at 2 and 3 only, and (-1, 2)
    # nowhere, since 2 = 1^2 + 1^2
    places = ["inf", 2, 3, 5]
    assert [hilbert_symbol(-1, -1, v) for v in places] == [-1, -1, 1, 1]
    assert [hilbert_symbol(2, 3, v) for v in places] == [1, -1, -1, 1]
    assert [hilbert_symbol(-1, 2, v) for v in places] == [1, 1, 1, 1]


def test_classification_over_squarefree_family():
    # all 136 pairs a <= b of squarefree integers in [-11, 11]
    assert len(SQUAREFREE) == 16 and len(FAMILY) == 136
    division = quaternionic = 0
    for a, b in FAMILY:
        places = ["inf", 2] + _odd_primes(a * b)
        symbols = [hilbert_symbol(a, b, v) for v in places]
        assert np.prod(symbols) == 1, (a, b, symbols)  # Hilbert reciprocity
        is_division = -1 in symbols
        lat = lattice.quaternion_order(a, b)
        report = lattice.audit(lat, 12)
        assert report["nvd"] == is_division, (a, b, report)
        if not is_division:  # a nonzero zero divisor lies within the shell
            assert report["min_det"] < 1e-12, (a, b, report)
        assert (lat.flavor == "quaternionic") == (a < 0 and b < 0)
        assert is_division or lat.flavor == "real"  # definite algebras are division
        division += is_division
        quaternionic += lat.flavor == "quaternionic"
    assert (division, quaternionic) == (91, 36)
