import numpy as np
import pytest

from dmtlab import channel, lattice, sim
from dmtlab.channel import SystemConfig, quaternionic_defect
from dmtlab.linalg import frobenius_norm


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def lift(m1, m2):
    """Lift of the b x m x p blocks (M1 M2), given as complex stacks."""
    return channel.lift_parts((m1.real, m1.imag, m2.real, m2.imag))


def lift_pairs(rng, count, m, p):
    """`count` random quaternionic-structured 2m x 2p matrices."""
    return lift(random_complex(rng, (count, m, p)), random_complex(rng, (count, m, p)))


def stacked(a):
    """Re over Im of each block of a stack: the 2m x n real form of m x n."""
    return np.concatenate([a.real, a.imag], axis=1)


def lift_blocks(a):
    """Lift each m x 2p block (A1 A2) of a stack."""
    p = a.shape[2] // 2
    return lift(a[:, :, :p], a[:, :, p:])


# ---------------------------------------------------------------------------
# SystemConfig

def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig("real", n=0, m=1)
    with pytest.raises(ValueError):
        SystemConfig("real", n=2, m=1, r=-0.5)
    # both bounds vanish at r = min(m, n/2), here 1 (not min(m, n) = 2)
    with pytest.raises(ValueError, match=r"r=1\.5 .*\[0, 1\]"):
        SystemConfig("quaternion", n=2, m=2, r=1.5)
    assert SystemConfig("real", n=3, m=2, r=1.5).r == 1.5
    with pytest.raises(ValueError, match="quaternion mode needs even n"):
        SystemConfig("quaternion", n=3, m=1)
    with pytest.raises(ValueError, match="banana"):
        SystemConfig("banana", n=2, m=1)
    assert SystemConfig("quaternion", n=4, m=2).p == 2


# ---------------------------------------------------------------------------
# channel draws

def test_sample_channel_moments():
    vals = channel.draw_complex(np.random.default_rng(42), (100_000, 1, 1))[:, 0, 0]
    assert abs(vals.mean()) <= 0.02
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.02)


def test_sample_channel_deterministic():
    a, b = (np.random.default_rng(7) for _ in range(2))
    ha, wa = channel.draw_complex(a, (5, 2, 3)), channel.draw_complex(a, (5, 2, 3))
    hb, wb = channel.draw_complex(b, (5, 2, 3)), channel.draw_complex(b, (5, 2, 3))
    assert np.array_equal(ha, hb) and np.array_equal(wa, wb)
    assert not np.array_equal(ha, wa)


def test_sample_channel_shapes():
    rng = np.random.default_rng(0)
    assert channel.draw_complex(rng, (7, 2, 4)).shape == (7, 2, 4)
    assert channel.draw_real(rng, (7, 4, 4)).dtype == float
    assert channel.lift_parts(channel.draw_real(rng, (4, 7, 2, 2))).shape == (7, 4, 4)


def test_draw_real_equals_scaled_normal():
    # one standard-normal fill scaled in place gives the variates of
    # rng.normal(0, sqrt(1/2)) bit for bit, and leaves the generator in the
    # same state (== also equates the two signs of zero, which may differ)
    a, b = (np.random.default_rng(8) for _ in range(2))
    x = channel.draw_real(a, (4, 100_000, 1, 1))
    ref = b.normal(0.0, np.sqrt(0.5), (4, 100_000, 1, 1))
    assert np.array_equal(x, ref)
    assert a.bit_generator.state == b.bit_generator.state


def test_sample_channel_is_batch_row_zero():
    # the draw order: h before w, the real part of a block before its
    # imaginary part
    rng = np.random.default_rng(21)
    h = channel.draw_complex(rng, (1, 2, 3))
    w = channel.draw_complex(rng, (1, 2, 3))
    ref = np.random.default_rng(21)
    parts = [ref.standard_normal((1, 2, 3)) for _ in range(4)]
    assert np.array_equal(h, (parts[0] + 1j * parts[1]) * np.sqrt(0.5))
    assert np.array_equal(w, (parts[2] + 1j * parts[3]) * np.sqrt(0.5))


# ---------------------------------------------------------------------------
# receive

def test_apply_channel_zero_codeword():
    rng = np.random.default_rng(1)
    h, w = channel.draw_complex(rng, (3, 2, 2)), channel.draw_complex(rng, (3, 2, 2))
    y = channel.receive(h, np.zeros((3, 2, 2)), np.sqrt(10.0 / 2), w)
    assert np.allclose(y, w, atol=0)


def test_apply_channel_identity_channel():
    h = np.eye(2, dtype=complex)[None]
    x = np.array([[[1.0, 2.0], [3.0, 4.0]]])
    y = channel.receive(h, x, np.sqrt(2.0 / 2), np.zeros((1, 2, 2), dtype=complex))
    assert np.allclose(y, x, atol=1e-15)


def test_apply_channel_matches_entrywise_oracle():
    rng = np.random.default_rng(2)
    h, w = channel.draw_complex(rng, (5, 2, 3)), channel.draw_complex(rng, (5, 2, 3))
    x = random_complex(rng, (5, 3, 3))
    scale = np.sqrt(7.0 / 3)
    y = channel.receive(h, x, scale, w)
    expect = np.array([[[scale * sum(h[b, i, k] * x[b, k, j] for k in range(3)) + w[b, i, j]
                         for j in range(3)] for i in range(2)] for b in range(5)])
    assert np.max(np.abs(y - expect)) <= 1e-12


def einsum_receive(h, x, scale, w):
    """The per-matrix einsum form of scale * H X + W."""
    return scale * np.einsum("bij,bjk->bik", h, x) + w


@pytest.mark.parametrize("m", [1, 2])
def test_receive_bit_equal_einsum_lifted(m):
    # the r = 0 error sweep's blocks: lifted channels and noise at n = 2 and
    # hamilton's fixed codewords, whose entry products are exact
    rng = np.random.default_rng(30)
    cwords = lattice.fixed_codebook(lattice.load_lattice("hamilton")).points
    h, w = (channel.lift_parts(channel.draw_real(rng, (4, 2000, m, 1))) for _ in range(2))
    x = cwords[rng.integers(0, len(cwords), 2000)]
    assert np.array_equal(channel.receive(h, x, 3.7, w), einsum_receive(h, x, 3.7, w))


def test_receive_bit_equal_einsum_real():
    rng = np.random.default_rng(31)
    h, x, w = (channel.draw_real(rng, (2000, 2, 2)) for _ in range(3))
    assert np.array_equal(channel.receive(h, x, 3.7, w), einsum_receive(h, x, 3.7, w))


@pytest.mark.parametrize("inner", [2, 4])
def test_receive_close_to_einsum_complex(inner):
    # complex products may round differently (fused multiply-add), so general
    # complex codewords agree to a few ulps of the largest entry
    rng = np.random.default_rng(32)
    h, w = random_complex(rng, (2000, 2, inner)), random_complex(rng, (2000, 2, 3))
    x = random_complex(rng, (2000, inner, 3))
    ref = einsum_receive(h, x, 3.7, w)
    assert np.abs(channel.receive(h, x, 3.7, w) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_receive_leaves_inputs():
    # Y is formed in place on a new H X product; H, X and W are not written
    rng = np.random.default_rng(33)
    h, x, w = (rng.standard_normal((50, 2, 2)) for _ in range(3))
    h0, x0, w0 = h.copy(), x.copy(), w.copy()
    y = channel.receive(h, x, 1.5, w)
    assert np.array_equal(y, einsum_receive(h, x, 1.5, w))
    assert np.array_equal(h, h0) and np.array_equal(x, x0) and np.array_equal(w, w0)


def test_ml_decode_batch_last_inputs():
    # H, W and X laid out batch-last, as `linalg.bmm` lays out its products,
    # decide as their C-ordered copies: 2 x 1 quaternion blocks (m = 2, one
    # column, 5 features) and 1 x 2 ones (p = 2, whose Gram H^* H from `bmm`
    # is batch-last too, against its C-ordered copy)
    rng = np.random.default_rng(34)
    hamilton = channel.quaternion_parts(
        lattice.fixed_codebook(lattice.load_lattice("hamilton")).points)
    for (m, p), cparts in (((2, 1), hamilton), ((1, 2), rng.standard_normal((4, 24, 2, 2)))):
        h, w = (channel.draw_real(rng, (4, 3000, m, p)) for _ in range(2))
        x = cparts[:, rng.integers(0, cparts.shape[1], 3000)]
        gb = sim._gram(h)
        feats = sim._codeword_features(cparts, 2.0)
        hb, wb, xb = (np.moveaxis(np.moveaxis(a, 1, -1).copy(), -1, 1) for a in (h, w, x))
        assert not (hb.flags.c_contiguous or wb.flags.c_contiguous)
        np.testing.assert_array_equal(sim._ml_decode(hb, gb, wb, xb, 2.0, feats),
                                      sim._ml_decode(h, np.ascontiguousarray(gb), w, x, 2.0,
                                                     feats))


@pytest.mark.parametrize("m,p", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_receive_parts_match_lifted(m, p):
    # on quaternion parts, lift_parts(Y) = scale lift(H) lift(X) + lift(W)
    rng = np.random.default_rng(35)
    h, w = (channel.draw_real(rng, (4, 500, m, p)) for _ in range(2))
    x = rng.standard_normal((4, 500, p, p))
    lift = channel.lift_parts
    ref = 3.7 * (lift(h) @ lift(x)) + lift(w)
    assert np.abs(lift(channel.receive(h, x, 3.7, w)) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_quaternion_parts_invert_lift():
    parts = np.random.default_rng(36).standard_normal((4, 50, 2, 3))
    assert np.array_equal(channel.quaternion_parts(channel.lift_parts(parts)), parts)


# ---------------------------------------------------------------------------
# the stacked-real channel

def test_realify_imaginary_scalar():
    h, x, w = np.array([[[1j]]]), np.ones((1, 1, 1)), np.zeros((1, 1, 1), dtype=complex)
    assert np.array_equal(stacked(channel.receive(h, x, 1.0, w)), [[[0.0], [1.0]]])
    assert np.array_equal(channel.receive(stacked(h), x, 1.0, stacked(w)), [[[0.0], [1.0]]])


def test_realify_real_matrix():
    h = np.arange(6.0).reshape(1, 2, 3).astype(complex)
    x = np.arange(9.0).reshape(1, 3, 3)
    out = stacked(channel.receive(h, x, 1.0, np.zeros((1, 2, 3), dtype=complex)))
    assert np.array_equal(out[:, :2], h.real @ x) and np.all(out[:, 2:] == 0)


def test_realify_identity_exact():
    # Re/Im of sqrt(rho/n) H X + W equals the stacked-real computation
    # bit-for-bit when X is real (shared real matrix products), and matches
    # an independent full-matrix evaluation to rounding.
    # n = 4 and 8 reach the vector width of numpy's real einsum loop.
    rng = np.random.default_rng(4)
    for n in (3, 4, 8):
        scale = np.sqrt(5.0 / n)
        h, w = channel.draw_complex(rng, (100, 2, n)), channel.draw_complex(rng, (100, 2, n))
        x = rng.standard_normal((100, n, n))
        lhs = stacked(channel.receive(h, x, scale, w))
        rhs = channel.receive(stacked(h), x, scale, stacked(w))
        assert np.array_equal(lhs, rhs)
        indep = scale * (stacked(h) @ x) + stacked(w)
        assert np.max(np.abs(lhs - indep)) <= 1e-12


def test_realify_norm_preserved_exactly():
    rng = np.random.default_rng(5)
    m = random_complex(rng, (100, 3, 4))
    for a, b in zip(stacked(m), m):
        assert frobenius_norm(a) == frobenius_norm(b)


# ---------------------------------------------------------------------------
# the quaternion lift

def test_lift_real_diagonal():
    assert np.array_equal(lift(np.ones((1, 1, 1)), np.zeros((1, 1, 1))), np.eye(2)[None])


def test_lift_block_substitution():
    out = lift(np.ones((1, 1, 1)), np.full((1, 1, 1), 1j))
    assert np.array_equal(out, np.array([[[1, 1j], [1j, 1]]]))


def test_lift_channel_block_identity():
    # lifted channel: lift(Y) = sqrt(rho/n) lift(H) X + lift(W) for
    # quaternionic X, recomputed from the plain channel output
    rng = np.random.default_rng(6)
    scale = np.sqrt(9.0 / 4)
    h, w = channel.draw_complex(rng, (50, 3, 4)), channel.draw_complex(rng, (50, 3, 4))
    x = lift_pairs(rng, 50, 2, 2)
    lhs = lift_blocks(channel.receive(h, x, scale, w))
    rhs = scale * (lift_blocks(h) @ x) + lift_blocks(w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_lift_closure_under_product():
    rng = np.random.default_rng(7)
    for a, b in zip(lift_pairs(rng, 100, 2, 2), lift_pairs(rng, 100, 2, 2)):
        assert quaternionic_defect(a @ b) <= 1e-12
        assert quaternionic_defect(a.conj().T) <= 1e-12


def slice_defect(a):
    """The block-slice formula of the quaternionic defect, max over
    |bottom-left + conj(top-right)| and |bottom-right - conj(top-left)|."""
    p = len(a) // 2
    d1 = np.abs(a[p:, :p] + a[:p, p:].conj()).max() if p else 0.0
    d2 = np.abs(a[p:, p:] - a[:p, :p].conj()).max() if p else 0.0
    return float(max(d1, d2))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_quaternionic_defect_equals_slice_formula(p):
    # the defect from the lift of the top blocks equals the slice formula bit
    # for bit, on lifts, on perturbed lifts and on unstructured matrices
    rng = np.random.default_rng(20 + p)
    lifts = lift_pairs(rng, 50, p, p) if p else np.zeros((50, 0, 0), dtype=complex)
    noise = random_complex(rng, lifts.shape) * 10.0 ** rng.integers(-16, 1, (50, 1, 1))
    for a in [*lifts, *(lifts + noise), *random_complex(rng, lifts.shape)]:
        assert quaternionic_defect(a) == slice_defect(a)


def test_lift_eigenvalue_pairing_1000():
    h = lift_pairs(np.random.default_rng(8), 1000, 2, 2)
    lam = np.linalg.eigvalsh(h.conj().transpose(0, 2, 1) @ h)[:, ::-1]
    gaps = lam[:, 0::2] - lam[:, 1::2]
    assert np.all(gaps.max(axis=1) <= 1e-8 * np.maximum(lam[:, 0], 1e-30))


# ---------------------------------------------------------------------------
# gram

@pytest.mark.parametrize("a,b", [(1, 3), (2, 3), (2, 2), (3, 2), (3, 1)])
@pytest.mark.parametrize("mode", ["real", "quaternion"])
def test_gram_matches_explicit_product(mode, a, b):
    # the Gram on the smaller side of H: h h^T (a <= b) or h^T h of a real
    # stack, L L^H or L^H L of the lift L of quaternion parts
    shape = (50, a, b) if mode == "real" else (4, 50, a, b)
    h = channel.draw_real(np.random.default_rng(40), shape)
    full = h if mode == "real" else channel.lift_parts(h)
    adj = full.conj().transpose(0, 2, 1)
    expect = full @ adj if a <= b else adj @ full
    got = channel.gram(h)
    side = min(a, b) * (1 if mode == "real" else 2)
    assert got.shape == expect.shape == (50, side, side)
    err = np.max(np.abs(got - expect), axis=(1, 2))
    assert np.all(err <= 1e-13 * np.max(np.abs(expect), axis=(1, 2)))


# ---------------------------------------------------------------------------
# mutual_info_real_batch

def test_mutual_info_zero_channel():
    assert channel.mutual_info_real_batch(np.zeros((1, 4, 2)), 10.0)[0] == 0.0


def test_mutual_info_rank_one_example():
    # 0.5 log2 det(I + H H^T) with H = (1, 0)^T is 0.5 log2(2)
    val = channel.mutual_info_real_batch(np.array([[[1.0], [0.0]]]), 1.0)[0]
    assert val == pytest.approx(0.5, abs=1e-12)


def test_mutual_info_identity_q_eigen_identity():
    # 0.5 sum log2(1 + (rho/n) lambda_i) over the eigenvalues of H H^T, on
    # 50 random 4x3 channels in one batch
    rng = np.random.default_rng(9)
    h = rng.standard_normal((50, 4, 3))
    lam = np.clip(np.linalg.eigvalsh(h @ h.transpose(0, 2, 1)), 0, None)
    for rho in (0.5, 50.0):
        expect = 0.5 * np.sum(np.log2(1.0 + (rho / 3.0) * lam), axis=1)
        assert np.allclose(channel.mutual_info_real_batch(h, rho), expect, rtol=0, atol=1e-9)


def test_mutual_info_monotone_in_rho():
    h = np.random.default_rng(10).standard_normal((1, 2, 2))
    vals = [channel.mutual_info_real_batch(h, rho)[0] for rho in (0.1, 1.0, 10.0, 100.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# quaternionic capacity

def test_capacity_zero():
    zero = np.zeros((4, 1, 1, 1))
    assert channel.mutual_info_quaternion_batch(zero, 10.0)[0] == 0.0


def test_capacity_identity():
    eye = np.zeros((4, 1, 1, 1))
    eye[0] = 1.0  # M1 = 1, M2 = 0: the lift is the 2 x 2 identity
    assert channel.mutual_info_quaternion_batch(eye, 3.0)[0] == pytest.approx(4.0, abs=1e-12)


def test_capacity_matches_full_determinant():
    rng = np.random.default_rng(12)
    parts = rng.standard_normal((4, 50, 2, 2))
    h = channel.lift_parts(parts)
    rho = rng.uniform(0.5, 20.0, size=50)
    g = np.eye(4) + rho[:, None, None] * (h.conj().transpose(0, 2, 1) @ h)
    _, logdet = np.linalg.slogdet(g)
    got = channel.mutual_info_quaternion_batch(parts, rho[:, None, None])
    assert got == pytest.approx(logdet / np.log(2.0), rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("m,p", [(1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (3, 2)])
def test_capacity_matches_distinct_eigenvalues(m, p):
    # the determinant counts every eigenvalue of the lifted Gram, and each
    # distinct one twice, on either Gram side (2m x 2m or 2p x 2p), with a
    # single quaternion on the smaller side (m or p = 1) or more
    # (the sampler draws the same parts from the same stream)
    parts = channel.draw_real(np.random.default_rng(13), (4, 200, m, p))
    lam = sim.sample_wishart_quaternion_batch(p, m, 200, np.random.default_rng(13))
    for rho in (0.5, 30.0, 1e4):
        expect = 2.0 * np.sum(np.log2(1.0 + rho * lam), axis=1)
        got = channel.mutual_info_quaternion_batch(parts, rho)
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))


@pytest.mark.parametrize("shape", [(3, 3), (2, 4)])
def test_quaternionic_defect_rejects_odd_or_non_square(shape):
    with pytest.raises(ValueError, match="even square matrix"):
        quaternionic_defect(np.zeros(shape))
