import numpy as np
import pytest

from dmtlab import channel, lattice
from dmtlab.channel import (ChannelSample, SystemConfig, apply_channel,
                            capacity_quaternion, mutual_info_real,
                            power_check, quaternion_lift, quaternionic_defect,
                            realify, sample_channel)
from dmtlab.linalg import frobenius_norm


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def lift_pair(rng, m, p):
    """Random quaternionic-structured 2m x 2p matrix."""
    return quaternion_lift(random_complex(rng, (m, 2 * p)))


# ---------------------------------------------------------------------------
# SystemConfig

def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n=0, m=1)
    with pytest.raises(ValueError):
        SystemConfig(n=2, m=1, rho=0.0)
    with pytest.raises(ValueError):
        SystemConfig(n=2, m=1, r=-0.5)
    with pytest.raises(ValueError):
        SystemConfig(n=3, m=1).p
    assert SystemConfig(n=4, m=2).p == 2


# ---------------------------------------------------------------------------
# sample_channel

def test_sample_channel_moments():
    cfg = SystemConfig(n=1, m=1)
    rng = np.random.default_rng(42)
    vals = np.array([sample_channel(cfg, rng).h[0, 0] for _ in range(100_000)])
    assert abs(vals.mean()) <= 0.02
    assert np.mean(np.abs(vals) ** 2) == pytest.approx(1.0, abs=0.02)


def test_sample_channel_deterministic():
    cfg = SystemConfig(n=3, m=2)
    a = sample_channel(cfg, np.random.default_rng(7))
    b = sample_channel(cfg, np.random.default_rng(7))
    assert np.array_equal(a.h, b.h) and np.array_equal(a.w, b.w)


def test_sample_channel_shapes():
    cfg = SystemConfig(n=4, m=2)
    s = sample_channel(cfg, np.random.default_rng(0))
    assert s.h.shape == (2, 4) and s.w.shape == (2, 4)


def test_sample_channel_is_batch_row_zero():
    cfg = SystemConfig(n=3, m=2)
    s = sample_channel(cfg, np.random.default_rng(21))
    rng = np.random.default_rng(21)
    h = channel.draw_complex(rng, (1, 2, 3))
    w = channel.draw_complex(rng, (1, 2, 3))
    assert np.array_equal(s.h, h[0]) and np.array_equal(s.w, w[0])


def test_per_sample_functions_match_batch_rows():
    rng = np.random.default_rng(22)
    cfg = SystemConfig(n=4, m=2, rho=6.0)
    scale = np.sqrt(cfg.rho / cfg.n)
    h = channel.draw_complex(rng, (20, 2, 4))
    w = channel.draw_complex(rng, (20, 2, 4))
    x = random_complex(rng, (20, 4, 4))
    y = channel.receive(h, x, scale, w)
    hr = channel.draw_real(rng, (20, 4, 4))
    info = channel.mutual_info_real_batch(hr, cfg.rho, cfg.n)
    hq = channel.draw_lifted(rng, 20, 2, 2)
    cap = channel.capacity_quaternion_batch(channel.lifted_gram_spectrum(hq), cfg.rho)
    for i in range(20):
        s = ChannelSample(h=h[i], w=w[i])
        assert np.max(np.abs(apply_channel(cfg, s, x[i]) - y[i])) <= 1e-12
        assert mutual_info_real(hr[i], np.eye(4), cfg.rho, cfg.n) == pytest.approx(
            info[i], abs=1e-12)
        assert capacity_quaternion(hq[i], cfg.rho) == pytest.approx(cap[i], abs=1e-12)
        assert np.array_equal(quaternion_lift(np.hstack([hq[i, :2, :2], hq[i, :2, 2:]])),
                              hq[i])


# ---------------------------------------------------------------------------
# apply_channel

def test_apply_channel_zero_codeword():
    cfg = SystemConfig(n=2, m=2, rho=10.0)
    s = sample_channel(cfg, np.random.default_rng(1))
    y = apply_channel(cfg, s, np.zeros((2, 2)))
    assert np.allclose(y, s.w, atol=0)


def test_apply_channel_identity_channel():
    cfg = SystemConfig(n=2, m=2, rho=2.0)
    s = ChannelSample(h=np.eye(2, dtype=complex), w=np.zeros((2, 2), dtype=complex))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(apply_channel(cfg, s, x), x, atol=1e-15)


def test_apply_channel_matches_entrywise_oracle():
    cfg = SystemConfig(n=3, m=2, rho=7.0)
    rng = np.random.default_rng(2)
    s = sample_channel(cfg, rng)
    x = random_complex(rng, (3, 3))
    y = apply_channel(cfg, s, x)
    scale = np.sqrt(cfg.rho / cfg.n)
    expect = np.array([[scale * sum(s.h[i, k] * x[k, j] for k in range(3)) + s.w[i, j]
                        for j in range(3)] for i in range(2)])
    assert np.max(np.abs(y - expect)) <= 1e-12


def test_apply_channel_dimension_error():
    cfg = SystemConfig(n=2, m=1)
    s = sample_channel(cfg, np.random.default_rng(3))
    with pytest.raises(ValueError):
        apply_channel(cfg, s, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# realify

def test_realify_imaginary_scalar():
    assert np.array_equal(realify([[1j]]), [[0.0], [1.0]])


def test_realify_real_matrix():
    m = np.arange(6.0).reshape(2, 3)
    out = realify(m)
    assert np.array_equal(out[:2], m) and np.all(out[2:] == 0)


def test_realify_identity_exact():
    # Re/Im of sqrt(rho/n) H X + W equals the stacked-real computation
    # bit-for-bit when X is real (shared real matrix products), and matches
    # an independent full-matrix evaluation to rounding.
    # n = 4 and 8 reach the vector width of numpy's real einsum loop.
    rng = np.random.default_rng(4)
    for n in (3, 4, 8):
        cfg = SystemConfig(n=n, m=2, rho=5.0)
        scale = np.sqrt(cfg.rho / cfg.n)
        for _ in range(100):
            s = sample_channel(cfg, rng)
            x = rng.standard_normal((n, n))
            lhs = realify(apply_channel(cfg, s, x))
            rhs = channel.apply_channel_real(cfg, s, x)
            assert np.array_equal(lhs, rhs)
            indep = scale * (realify(s.h) @ x) + realify(s.w)
            assert np.max(np.abs(lhs - indep)) <= 1e-12


def test_apply_channel_real_rejects_complex_codeword():
    cfg = SystemConfig(n=2, m=1)
    s = sample_channel(cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        channel.apply_channel_real(cfg, s, np.array([[1j, 0], [0, 0]]))


def test_realify_norm_preserved_exactly():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = random_complex(rng, (3, 4))
        assert frobenius_norm(realify(m)) == frobenius_norm(m)


# ---------------------------------------------------------------------------
# quaternion_lift

def test_lift_real_diagonal():
    assert np.array_equal(quaternion_lift([[1.0, 0.0]]), np.eye(2))


def test_lift_block_substitution():
    out = quaternion_lift([[1.0, 1j]])
    assert np.array_equal(out, np.array([[1, 1j], [1j, 1]]))


def test_lift_rejects_odd_columns():
    with pytest.raises(ValueError):
        quaternion_lift(np.ones((2, 3)))


def test_lift_channel_block_identity():
    # lifted channel: lift(Y) = sqrt(rho/n) lift(H) X + lift(W) for
    # quaternionic X, recomputed from the plain channel output
    cfg = SystemConfig(n=4, m=3, rho=9.0)
    rng = np.random.default_rng(6)
    for _ in range(50):
        s = sample_channel(cfg, rng)
        x = lift_pair(rng, 2, 2)
        y = apply_channel(cfg, s, x)
        lhs = quaternion_lift(y)
        rhs = np.sqrt(cfg.rho / cfg.n) * (quaternion_lift(s.h) @ x) + quaternion_lift(s.w)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_lift_closure_under_product():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = lift_pair(rng, 2, 2)
        b = lift_pair(rng, 2, 2)
        assert quaternionic_defect(a @ b) <= 1e-12
        assert quaternionic_defect(a.conj().T) <= 1e-12


def test_lift_eigenvalue_pairing_1000():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        h = lift_pair(rng, 2, 2)
        lam = np.linalg.eigvalsh(h.conj().T @ h)[::-1]
        gaps = lam[0::2] - lam[1::2]
        assert np.max(gaps) <= 1e-8 * max(lam[0], 1e-30)


# ---------------------------------------------------------------------------
# mutual_info_real

def test_mutual_info_zero_channel():
    assert mutual_info_real(np.zeros((4, 2)), np.eye(2), 10.0, 2) == 0.0


def test_mutual_info_rank_one_example():
    val = mutual_info_real([[1.0], [0.0]], [[1.0]], 1.0, 1)
    assert val == pytest.approx(0.5, abs=1e-12)


def test_mutual_info_identity_q_eigen_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        h = rng.standard_normal((4, 3))
        rho = float(rng.uniform(0.5, 50.0))
        lam = np.linalg.eigvalsh(h @ h.T)
        expect = 0.5 * np.sum(np.log2(1.0 + (rho / 3.0) * np.clip(lam, 0, None)))
        assert mutual_info_real(h, np.eye(3), rho, 3) == pytest.approx(expect, abs=1e-9)


def test_mutual_info_monotone_in_rho():
    rng = np.random.default_rng(10)
    h = rng.standard_normal((2, 2))
    vals = [mutual_info_real(h, np.eye(2), rho, 2) for rho in (0.1, 1.0, 10.0, 100.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_mutual_info_trace_warning():
    h = np.ones((2, 1))
    with pytest.warns(UserWarning):
        mutual_info_real(h, [[5.0]], 1.0, 1)


def test_mutual_info_rejects_non_psd_q():
    # log|det| of I + 5 diag(1, -0.9) would read 2.196 bits
    with pytest.raises(ValueError, match="positive semidefinite"):
        mutual_info_real(np.eye(2), np.diag([1.0, -0.9]), 10.0, 2)
    # a singular PSD Q is fine: 0.5 log2(1 + 5)
    assert mutual_info_real(np.eye(2), np.diag([1.0, 0.0]), 10.0, 2) == pytest.approx(
        0.5 * np.log2(6.0), abs=1e-12)


def test_mutual_info_bounded_by_full_power():
    # Psi(Q, H) <= Psi(n I, H) whenever trace(Q) <= n; the comparison point
    # n*I deliberately violates the trace budget, hence the warning filter.
    rng = np.random.default_rng(11)
    n = 3
    import warnings
    for _ in range(100):
        h = rng.standard_normal((4, n))
        a = rng.standard_normal((n, n))
        q = a @ a.T
        q *= n / np.trace(q) * rng.uniform(0.2, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            upper = mutual_info_real(h, n * np.eye(n), 5.0, n)
        assert mutual_info_real(h, q, 5.0, n) <= upper + 1e-9


# ---------------------------------------------------------------------------
# capacity_quaternion

def test_capacity_zero():
    assert capacity_quaternion(np.zeros((2, 2)), 10.0) == 0.0


def test_capacity_identity():
    assert capacity_quaternion(np.eye(2), 3.0) == pytest.approx(4.0, abs=1e-12)


def test_capacity_matches_full_determinant():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = lift_pair(rng, 2, 2)
        rho = float(rng.uniform(0.5, 20.0))
        g = np.eye(4) + rho * (h.conj().T @ h)
        _, logdet = np.linalg.slogdet(g)
        expect = logdet / np.log(2.0)
        got = capacity_quaternion(h, rho)
        assert got == pytest.approx(expect, rel=1e-8, abs=1e-8)


def test_capacity_rejects_structure_violation():
    with pytest.raises(ValueError):
        capacity_quaternion(np.array([[1j, 0], [0, 1j]]), 1.0)


# ---------------------------------------------------------------------------
# power_check

class _Book:
    def __init__(self, points):
        self.points = tuple(np.asarray(p, dtype=complex) for p in points)


def test_power_check_zero_codebook():
    avg, ok = power_check(_Book([np.zeros((2, 2))]))
    assert avg == 0.0 and ok


def test_power_check_scaled_identity():
    avg, ok = power_check(_Book([np.eye(2) / np.sqrt(2)]))
    assert avg == pytest.approx(0.25, abs=1e-15) and ok


def test_power_check_empty_errors():
    with pytest.raises(ValueError):
        power_check(_Book([]))


def test_power_check_shaped_codebooks_pass():
    lat = lattice.build_hamilton_order()
    cb = lattice.shape_codebook(lat, 50.0, 0.5)
    avg, ok = power_check(cb)
    assert ok and avg <= 1.0 / lat.ambient_n ** 2 + 1e-12
