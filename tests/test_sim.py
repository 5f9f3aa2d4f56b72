import math
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab import channel, lattice, linalg, sim
from dmtlab.channel import SystemConfig
from dmtlab.sim import (chi2_tail, check_mismatched_bound,
                        check_nvd_product_bound, estimate_error_prob,
                        estimate_outage, fit_slope)
from wishart_density import log_eigenvalue_density_real


HAMILTON = lattice.load_lattice("hamilton")
SPLIT = lattice.load_lattice("split")
LATTICES = Path(__file__).resolve().parent.parent / "lattices"


# ---------------------------------------------------------------------------
# Wishart samplers

def test_wishart_real_count_and_positivity():
    rng = np.random.default_rng(0)
    for n, m in ((2, 1), (4, 2), (2, 3), (6, 2)):
        lam = sim.sample_wishart_real_batch(n, m, 200, rng)
        assert lam.shape == (200, min(2 * m, n))
        assert np.all(lam >= -1e-10)
        assert np.all(np.diff(lam, axis=1) <= 0)


def test_wishart_real_trace_moment():
    rng = np.random.default_rng(1)
    lam = sim.sample_wishart_real_batch(2, 1, 100_000, rng)
    # E tr(H^T H) = (2m * n) * 1/2 = m*n
    assert lam.sum(axis=1).mean() == pytest.approx(2.0, rel=0.02)


def test_wishart_quaternion_trace_moment():
    rng = np.random.default_rng(2)
    lam = sim.sample_wishart_quaternion_batch(1, 2, 100_000, rng)
    # E tr(H^dag H) of the 2m x 2p lift with unit-variance complex entries
    assert (2.0 * lam.sum(axis=1)).mean() == pytest.approx(8.0, rel=0.02)


def test_wishart_quaternion_pairing_1000():
    rng = np.random.default_rng(3)
    lam = sim.sample_wishart_quaternion_batch(2, 2, 1000, rng)
    assert lam.shape == (1000, 2)
    assert np.all(np.diff(lam, axis=1) <= 0)


def test_wishart_quaternion_pairing_fault(monkeypatch):
    # a Gram spectrum whose top pair splits by more than 1e-8 of the top
    # eigenvalue is a fault, not a sample
    split = np.array([[0.5, 1.0]])
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: split)
    with pytest.raises(RuntimeError, match="pairing"):
        sim.sample_wishart_quaternion_batch(1, 1, 1, np.random.default_rng(0))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda g: np.array([[1.0 - 1e-9, 1.0]]))
    assert sim.sample_wishart_quaternion_batch(1, 1, 1, np.random.default_rng(0)).shape == (1, 1)


def test_wishart_quaternion_scalar_case():
    # p = m = 1: the single distinct eigenvalue is |h1|^2 + |h2|^2
    seed = 77
    lam = sim.sample_wishart_quaternion_batch(1, 1, 3, np.random.default_rng(seed))
    ref = np.random.default_rng(seed).standard_normal((4, 3)) * np.sqrt(0.5)
    expect = np.sum(ref ** 2, axis=0)
    assert lam[:, 0] == pytest.approx(expect, rel=1e-10)


# ---------------------------------------------------------------------------
# the eigenvalue density of the real spectrum (tests/wishart_density.py)

def test_density_ratio_coincident_sentinel():
    # a row with coincident eigenvalues has density 0 (log -inf), so its log
    # ratio against a drawn row is -inf, and +inf the other way round
    good = sim.sample_wishart_real_batch(2, 1, 3, np.random.default_rng(6))
    rows = np.vstack([good[:1], [[1.0, 1.0]], [[1.0, 2.0]], good[1:]])
    dens = log_eigenvalue_density_real(rows, 2, 1)
    assert dens.shape == (5,)
    assert list(np.isneginf(dens)) == [False, True, True, False, False]
    assert dens[1] - dens[0] == -math.inf
    assert dens[0] - dens[2] == math.inf


@pytest.mark.parametrize("n,expect", [(2, math.inf), (3, -2.0 + math.log(2.0)),
                                      (4, -math.inf)], ids=["delta0", "delta1", "delta2"])
def test_density_zero_eigenvalue(n, expect):
    # lam = 0 enters through lam^((Delta-1)/2): a pole at Delta = 0, the
    # factor 1 at Delta = 1 and a zero at Delta >= 2
    with np.errstate(divide="ignore"):
        assert log_eigenvalue_density_real([[2.0, 0.0]], n, 1)[0] == expect


def test_density_ratio_shape_mismatch():
    # (n, m) = (4, 2) has min(2m, n) = 4 eigenvalues, not the 2 of (2, 1)
    lam = sim.sample_wishart_real_batch(2, 1, 5, np.random.default_rng(7))
    assert log_eigenvalue_density_real(lam, 2, 1).shape == (5,)
    for bad in (lam, lam[0], lam[:, :1], np.float64(1.0)):
        with pytest.raises(ValueError, match="min\\(2m, n\\) = 4"):
            log_eigenvalue_density_real(bad, 4, 2)


@pytest.mark.parametrize("n,m", [(2, 1), (4, 2), (2, 3), (1, 2), (6, 2)])
def test_density_rows_match_scalar_form(n, m):
    # each row's value is the closed form of that one row, summed in a loop
    # (the summation order differs, hence the float64 tolerance), and a
    # stack of stacks keeps its leading shape
    lam = sim.sample_wishart_real_batch(n, m, 40, np.random.default_rng(10))
    l, delta = lam.shape[1], abs(n - 2 * m)
    dens = log_eigenvalue_density_real(lam, n, m)
    pairs = [(i, j) for i in range(l) for j in range(i + 1, l)]
    for k, row in enumerate(lam):
        vander = sum(math.log(row[i] - row[j]) for i, j in pairs)
        expect = -sum(row) + 0.5 * (delta - 1) * sum(math.log(x) for x in row) + vander
        assert dens[k] == pytest.approx(expect, rel=1e-12, abs=1e-12)
    stacked = log_eigenvalue_density_real(lam.reshape(4, 10, l), n, m)
    assert stacked.shape == (4, 10) and np.array_equal(stacked.ravel(), dens)


def test_density_ratio_1d_gamma_histogram():
    # n = 1: the single eigenvalue is Gamma(m, 1); binned log ratios must
    # match the closed-form log density differences within 3 standard errors
    n, m = 1, 2
    rng = np.random.default_rng(8)
    lam = sim.sample_wishart_real_batch(n, m, 1_000_000, rng)[:, 0]
    edges = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.histogram(lam, bins=edges)[0].astype(float)
    dens = counts / np.diff(edges)
    observed = np.diff(np.log(dens))
    expected = np.diff(log_eigenvalue_density_real(centers[:, None], n, m))
    se = np.sqrt(1.0 / counts[1:] + 1.0 / counts[:-1])
    # binning bias is second order; allow it alongside the 3-sigma band
    assert np.all(np.abs(observed - expected) <= 3.0 * se + 0.02)


# ---------------------------------------------------------------------------
# chi-square tail

def test_chi2_tail_at_zero():
    assert chi2_tail(0.0, 5) == 1.0


def test_chi2_tail_exponential_case():
    for x in (0.3, 1.0, 4.0):
        assert chi2_tail(x, 1) == pytest.approx(math.exp(-x), rel=1e-12)


def test_chi2_tail_k2_value():
    assert chi2_tail(1.0, 2) == pytest.approx(2.0 / math.e, rel=1e-12)


def test_chi2_tail_matches_known_sum():
    # K = 4, x = 2: e^-2 (1 + 2 + 2 + 4/3)
    assert chi2_tail(2.0, 4) == pytest.approx(math.exp(-2) * (1 + 2 + 2 + 4 / 3), rel=1e-12)


def test_chi2_tail_large_x_no_overflow():
    v = chi2_tail(800.0, 200)
    assert 0.0 <= v < 1e-100


def test_chi2_tail_at_infinity():
    # the tail of every K vanishes at x = inf; the log-space sum would read
    # -inf + 0 * inf = NaN there
    for k in (1, 2, 46):
        assert chi2_tail(math.inf, k) == 0.0


def test_chi2_tail_validation():
    with pytest.raises(ValueError):
        chi2_tail(-1.0, 2)
    # NaN fails every comparison, so `x < 0` alone let it through to a NaN tail
    with pytest.raises(ValueError, match="x must be nonnegative, got nan"):
        chi2_tail(math.nan, 2)
    with pytest.raises(ValueError):
        chi2_tail(1.0, 0)
    # K counts the terms of the sum, so 2.5 is not read as 2
    for half_dof in (2.5, 1.0001, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="half_dof must be a whole number"):
            chi2_tail(1.0, half_dof)


@settings(max_examples=100, deadline=None)
@given(st.floats(0.01, 50.0), st.floats(0.01, 50.0), st.integers(1, 50))
def test_chi2_tail_monotone(x1, x2, k):
    lo, hi = sorted((x1, x2))
    assert chi2_tail(hi, k) <= chi2_tail(lo, k) + 1e-15
    assert chi2_tail(lo, k + 1) >= chi2_tail(lo, k) - 1e-15


def test_chi2_tail_monotone_near_one():
    # below x = K the tail is one minus the small lower tail, so a tail near
    # 1 keeps its last bits; the direct K-term sum gave chi2_tail(11.0, 46) =
    # 0.9999999999999987 above chi2_tail(10.75, 46) = 0.9999999999999964
    assert chi2_tail(11.0, 46) <= chi2_tail(10.75, 46)
    xs = np.arange(0.0625, 50.0, 0.0625)
    for k in (5, 20, 46, 50):
        tails = [chi2_tail(float(x), k) for x in xs]
        assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:])), k


# ---------------------------------------------------------------------------
# fit_slope

def test_fit_slope_two_points():
    est = fit_slope([10.0, 20.0], [10_000, 1000], [100_000, 100_000])
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == 0.0


def test_fit_slope_collinear():
    est = fit_slope([10.0, 20.0, 30.0], [100_000, 10_000, 1000], [10**6] * 3)
    assert est.slope == pytest.approx(1.0, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-9)


def test_fit_slope_synthetic_noise():
    rng = np.random.default_rng(10)
    snr = [10.0, 15.0, 20.0, 25.0, 30.0]
    events = [round(10**9 * (10 ** (db / 10)) ** -1.5 * rng.uniform(0.95, 1.05)) for db in snr]
    est = fit_slope(snr, events, [10**9] * 5)
    assert est.slope == pytest.approx(1.5, abs=0.1)


def test_fit_slope_flags_sparse_points():
    est = fit_slope([10.0, 20.0, 30.0], [1000, 100, 0], [10**4] * 3)
    assert est.flagged == (False, False, True)
    assert est.slope == pytest.approx(1.0, abs=1e-9)


def test_fit_slope_insufficient_points():
    # one usable point: no slope, but the record and its flags stay
    est = fit_slope([10.0, 20.0], [100, 0], [1000, 1000])
    assert math.isnan(est.slope) and math.isnan(est.stderr)
    assert est.flagged == (False, True)
    assert est.probs == (0.1, 0.0) and est.events == (100, 0)


@pytest.mark.parametrize("weighting", ["events", "uniform"])
def test_fit_slope_usable_points_at_one_snr(weighting):
    # two usable points at one SNR span no slope: NaN, without dividing by
    # the zero spread (which would warn, an error in this suite)
    est = fit_slope([10.0, 10.0, 20.0], [100, 200, 0], [1000, 1000, 1000], weighting)
    assert math.isnan(est.slope) and math.isnan(est.stderr)
    assert est.flagged == (False, False, True) and est.probs == (0.1, 0.2, 0.0)


@pytest.mark.parametrize("events,trials", [([500, 2000], [1000, 1000]),
                                           ([60.7, 80.2], [1000, 1000]),
                                           ([100, 0], [1000, 0])],
                         ids=["events-over-trials", "fractional-events", "zero-trials"])
def test_fit_slope_rejects_impossible_counts(events, trials):
    with pytest.raises(ValueError, match="whole numbers"):
        fit_slope([10.0, 20.0], events, trials)


@pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf])
def test_fit_slope_rejects_non_finite_snr(snr):
    # a NaN SNR made the slope NaN with no word of why
    with pytest.raises(ValueError, match="snr_db values must be finite"):
        fit_slope([10.0, snr], [100, 60], [1000, 1000])


def test_fit_slope_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal length"):
        fit_slope([10.0, 20.0], [100], [1000, 1000])


# ---------------------------------------------------------------------------
# distance and eigenvalue-product checks

def test_nvd_product_bound_pair_cap(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("eigenvalues computed before the pair cap was checked")

    cb = lattice.shape_codebook(HAMILTON, 60.0, 0.6)
    monkeypatch.setattr(sim, "PAIR_CAP", 3)
    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    with pytest.raises(lattice.ResourceLimitError):
        check_nvd_product_bound(cb)


def test_nvd_product_bound_needs_two_codewords(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("eigenvalues computed before the codebook size was checked")

    cb = lattice.shape_codebook(HAMILTON, 1.0, 0.5)  # the zero word alone
    assert len(cb.points) == 1
    monkeypatch.setattr(np.linalg, "eigvalsh", never)
    with pytest.raises(ValueError, match="at least 2 codewords"):
        check_nvd_product_bound(cb)


def test_nvd_product_bound_reports_an_upper_violation():
    # a word of norm 3 at M = 1 lies outside the codebook's ball: the
    # difference's eigenvalues 9 pass the cap 4 M^2 = 4, and the first
    # offending pair is reported as an upper violation
    points = np.array([np.zeros((2, 2)), 3.0 * np.eye(2)], dtype=complex)
    bad = check_nvd_product_bound(lattice.Codebook(points=points, radius_m=1.0, source=SPLIT))
    assert bad == {"pair": (0, 1), "kind": "upper", "mu_max": 9.0, "cap": 4.0}


def test_mismatched_bound_zero_difference():
    rng = np.random.default_rng(12)
    h = rng.standard_normal((2, 2))
    assert check_mismatched_bound(h, np.zeros((2, 2)))


def test_mismatched_bound_opposed_diagonals_equality():
    h = np.diag([3.0, 1.0])
    dx = np.diag([1.0, 2.0])
    lhs = float(np.sum((h @ dx) ** 2))
    lam = np.array([9.0, 1.0])
    mu = np.array([1.0, 4.0])
    assert lhs == float(lam @ mu)
    assert check_mismatched_bound(h, dx)


def test_mismatched_bound_random_sweep():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        h = rng.standard_normal((2, 2))
        dx = rng.standard_normal((2, 2))
        assert check_mismatched_bound(h, dx)


def test_nvd_product_bound_split():
    cb = lattice.shape_codebook(SPLIT, 100.0, 0.5)
    assert check_nvd_product_bound(cb) is None


@pytest.mark.parametrize("name,ok", [("hamilton", True), ("split", True),
                                     ("m2z", False), ("split_pi", False)])
def test_nvd_product_bound_fixed_codebook(name, ok):
    # an r = 0 constellation has no (rho, r) behind its radius; the cap is
    # read from the radius it was scaled by
    path = LATTICES / f"{name}.json"
    lat = lattice.load_lattice(str(path) if path.exists() else name)
    assert (check_nvd_product_bound(lattice.fixed_codebook(lat)) is None) is ok


def test_nvd_product_bound_non_nvd_counterexample():
    gens = [np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 1.0]])]
    singular = lattice.matrix_lattice(gens, "real")
    cb = lattice.shape_codebook(singular, 16.0, 0.5)
    res = check_nvd_product_bound(cb)
    assert res is not None
    assert res["kind"] == "lower"
    # the first failing pair of a per-pair scan, row by row
    pts = cb.points * cb.radius_m
    cap = 4.0 * 16.0 ** 0.5

    def fails(dx):
        mu = np.clip(np.linalg.eigvalsh(dx @ dx.conj().T), 0.0, None)
        return bool(np.any(mu > cap * (1.0 + 1e-6))) or any(
            np.prod(mu[:k]) < cap ** -(mu.size - k) * (1.0 - 1e-6)
            for k in range(1, mu.size + 1))

    first = next((i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                 if fails(pts[i] - pts[j]))
    assert res["pair"] == first


# ---------------------------------------------------------------------------
# outage estimation

def test_outage_zero_rate_never_in_outage():
    cfg = SystemConfig("real", n=2, m=1, r=0.0)
    est = estimate_outage(cfg, [5.0, 15.0], 2000, 1234)
    assert est.probs == (0.0, 0.0)
    assert math.isnan(est.slope)


def test_outage_deterministic():
    cfg = SystemConfig("real", n=2, m=1, r=0.5)
    a = estimate_outage(cfg, [10.0, 20.0], 30_000, 99)
    b = estimate_outage(cfg, [10.0, 20.0], 30_000, 99)
    assert a.probs == b.probs and a.events == b.events


def _set_chunks(monkeypatch, rows):
    """Chunks of `rows` trials in both estimators."""
    monkeypatch.setattr(sim, "OUTAGE_CHUNK", rows)
    monkeypatch.setattr(sim, "ERROR_CHUNK", rows)


@pytest.mark.parametrize("estimate", [
    lambda *a: estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), *a),
    lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1, r=0.5),
                                   *a)], ids=["outage", "error"])
def test_outage_thread_count_invariance(monkeypatch, estimate):
    # no count is a chunk multiple, so chunks of different points interleave
    # in the one pool of the sweep; four CPUs are reported so that the pool
    # really has four workers on any machine
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    _set_chunks(monkeypatch, 2000)
    args = ([10.0, 13.0, 16.0], [7100, 4300, 2900], 7)
    monkeypatch.setenv("DMTLAB_THREADS", "1")
    a = estimate(*args)
    monkeypatch.setenv("DMTLAB_THREADS", "4")
    b = estimate(*args)
    assert a.events == b.events and all(a.events)


def test_outage_monotone_in_snr_and_rate():
    cfg_lo = SystemConfig("real", n=2, m=1, r=0.25)
    cfg_hi = SystemConfig("real", n=2, m=1, r=0.5)
    est_lo = estimate_outage(cfg_lo, [10.0, 20.0, 30.0], 50_000, 5)
    est_hi = estimate_outage(cfg_hi, [10.0, 20.0, 30.0], 50_000, 5)
    se = [math.sqrt(p * (1 - p) / t) for p, t in zip(est_lo.probs, est_lo.trials)]
    assert all(b <= a + 2 * (sa + 1e-9) for a, b, sa in
               zip(est_lo.probs, est_lo.probs[1:], se))
    assert all(hi >= lo - 2e-3 for lo, hi in zip(est_lo.probs, est_hi.probs))


def _point_stream(seed):
    """The stream of a one-point, one-chunk sweep: the point stream's first child."""
    return np.random.default_rng(seed).spawn(1)[0].spawn(1)[0]


@pytest.mark.parametrize("n,m,r", [(4, 2, 1.0), (2, 2, 1.0), (1, 1, 0.25)])
def test_outage_real_event_matches_mutual_info_op(n, m, r):
    # the batched event rule counts the outages of an independent slogdet of
    # the 2m x 2m I + (rho/n) H H^T on the point's own draws, also where
    # 2m > n and the rate takes the n x n Gram H^T H
    db, trials, seed = 12.0, 3000, 14
    est = estimate_outage(SystemConfig("real", n=n, m=m, r=r), [db], trials, seed)
    rho = 10.0 ** (db / 10.0)
    h = channel.draw_real(_point_stream(seed), (trials, 2 * m, n))
    _, logdet = np.linalg.slogdet(np.eye(2 * m) + (rho / n) * (h @ h.transpose(0, 2, 1)))
    expect = int(np.sum(logdet / (2 * math.log(2)) <= r * math.log2(rho)))
    assert est.events == (expect,) and 0 < expect < trials


@pytest.mark.parametrize("n,m,r", [(2, 1, 0.5), (4, 2, 2.0)])
def test_outage_quaternion_event_matches_capacity_op(n, m, r):
    # the batched event rule counts the outages of an independent slogdet of
    # I + rho H^dag H on the same lifted draws
    cfg = SystemConfig("quaternion", n=n, m=m, r=r)
    db, trials, seed = 12.0, 3000, 31
    est = estimate_outage(cfg, [db], trials, seed)
    rho = 10.0 ** (db / 10.0)
    hq = channel.lift_parts(channel.draw_real(_point_stream(seed), (4, trials, m, cfg.p)))
    _, logdet = np.linalg.slogdet(np.eye(n) + rho * (hq.conj().transpose(0, 2, 1) @ hq))
    expect = int(np.sum(logdet / math.log(2) <= 2 * cfg.r * math.log2(rho)))
    assert est.events == (expect,) and expect > 0


def test_outage_quaternion_runs():
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    est = estimate_outage(cfg, [10.0, 20.0], 50_000, 21)
    assert est.probs[1] < est.probs[0]


def test_outage_quaternion_matches_gamma_oracle():
    # Criterion 6's sweep against the exact outage probability: at n=2, m=1
    # the distinct lifted-Gram eigenvalue |h1|^2 + |h2|^2 is Gamma(2, 1), and
    # 2 log2(1 + rho lambda) <= 2 r log2 rho means lambda <= (rho^r - 1)/rho
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    snr = [10, 15, 20, 25, 30]
    est = estimate_outage(cfg, snr, 1_000_000, 20240, weighting="uniform")
    for db, p_hat, t in zip(snr, est.probs, est.trials):
        rho = 10.0 ** (db / 10.0)
        p = 1.0 - chi2_tail((rho ** cfg.r - 1.0) / rho, 2)
        assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / t), (db, p_hat, p)


def _real_outage_probability(rho, r):
    """Exact outage probability of the real mode at n = 2, m = 1.

    The eigenvalues of H^T H have the Delta = 0 density e^(-sum lam)
    prod lam^(-1/2) |lam1 - lam2|, and lam = u^2 turns it into
    e^(-u1^2 - u2^2) |u1^2 - u2^2| on the quadrant (up to a constant).  The
    outage set (1 + a u1^2)(1 + a u2^2) <= rho^(2r), a = rho/2, bounds u1 by
    b(u2); the u1-integral is closed form in erf, the u2-integral
    Gauss-Legendre on the pieces where b(u2) lies above and below u2, and
    the same integral without the bound normalizes the result.
    """
    a, cap = rho / 2.0, rho ** (2.0 * r)
    half_root_pi = 0.5 * math.sqrt(math.pi)

    def signed(x, v):  # int_0^x e^(-t^2) (t^2 - v^2) dt
        return (0.5 - v * v) * half_root_pi * math.erf(x) - 0.5 * x * math.exp(-x * x)

    def inner(x, v):  # int_0^x e^(-t^2) |t^2 - v^2| dt
        return signed(x, v) - 2.0 * signed(min(x, v), v)

    def bound(v):
        return math.sqrt(max((cap / (1.0 + a * v * v) - 1.0) / a, 0.0))

    nodes, weights = np.polynomial.legendre.leggauss(200)

    def quad(f, lo, hi):
        half = 0.5 * (hi - lo)
        return half * sum(w * f(lo + half * (1.0 + x)) for x, w in zip(nodes, weights))

    kink, edge = math.sqrt((math.sqrt(cap) - 1.0) / a), math.sqrt((cap - 1.0) / a)
    outage = sum(quad(lambda v: math.exp(-v * v) * inner(bound(v), v), lo, hi)
                 for lo, hi in ((0.0, kink), (kink, edge)))
    # erf(30) is 1 in double precision, and e^(-v^2) < 1e-27 past v = 8:
    # both cut-offs stand for infinity
    return outage / quad(lambda v: math.exp(-v * v) * inner(30.0, v), 0.0, 8.0)


def test_outage_real_matches_quadrature_oracle():
    # Criterion 5's sweep against the exact outage probability of each point
    cfg = SystemConfig("real", n=2, m=1, r=0.5)
    snr = [10, 15, 20, 25, 30]
    est = estimate_outage(cfg, snr, 1_000_000, 20240, weighting="uniform")
    for db, p_hat, t in zip(snr, est.probs, est.trials):
        p = _real_outage_probability(10.0 ** (db / 10.0), cfg.r)
        assert abs(p_hat - p) <= 4.0 * math.sqrt(p * (1.0 - p) / t), (db, p_hat, p)


@pytest.mark.parametrize("size", [1, sim.BLOCK_ROWS - 1, sim.BLOCK_ROWS, sim.BLOCK_ROWS + 1,
                                  50_000, 100_000])
def test_sum_blocks_splits_evenly(size):
    # ceil(size / BLOCK_ROWS) slices that cover the chunk in order, none over
    # BLOCK_ROWS rows and none two rows apart in length, so that no short
    # last block pays a block's fixed cost
    slices = []

    def events(rows):
        slices.append(rows)
        return rows.stop - rows.start

    assert sim._sum_blocks(size, events) == size
    assert len(slices) == -(-size // sim.BLOCK_ROWS)
    assert slices[0].start == 0 and slices[-1].stop == size
    assert all(a.stop == b.start for a, b in zip(slices, slices[1:]))
    lengths = [rows.stop - rows.start for rows in slices]
    assert max(lengths) <= sim.BLOCK_ROWS and max(lengths) - min(lengths) <= 1


def _assert_events_independent_of_block_rows(monkeypatch, chunk_name, events):
    """Rows are independent, so how a drawn chunk is split into blocks changes
    no event, at one worker or two: `events(chunk)`, run with `chunk_name`
    set to `chunk`, gives the same nonzero events whole-chunk as in 1- and
    7-row blocks on a chunk of 301 rows, which 7 does not divide, and as
    the default split on a chunk longer than the default block."""
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    default = sim.BLOCK_ROWS
    for chunk, splits in ((301, (1, 7)), (default + 808, (default,))):
        monkeypatch.setattr(sim, chunk_name, chunk)
        seen = set()
        for rows in (*splits, chunk):
            monkeypatch.setattr(sim, "BLOCK_ROWS", rows)
            for threads in ("1", "2"):
                monkeypatch.setenv("DMTLAB_THREADS", threads)
                seen.add(events(chunk))
        assert len(seen) == 1 and all(seen.pop()), chunk


@pytest.mark.parametrize("mode", ["real", "quaternion"])
def test_outage_events_independent_of_block_rows(monkeypatch, mode):
    cfg = SystemConfig(mode, n=2, m=1, r=0.5)
    _assert_events_independent_of_block_rows(
        monkeypatch, "OUTAGE_CHUNK",
        lambda chunk: estimate_outage(cfg, [10.0, 14.0], [chunk + 500, 3000], 8).events)


def test_outage_validation():
    with pytest.raises(ValueError):
        estimate_outage(SystemConfig("real", n=2, m=1, r=1.0), [10.0], 0, 1)
    with pytest.raises(ValueError):
        estimate_outage(SystemConfig("banana", n=2, m=1, r=0.5), [10.0], 10, 1)
    with pytest.raises(ValueError):
        estimate_outage(SystemConfig("quaternion", n=2, m=2, r=1.5), [10.0], 10, 1)


# ---------------------------------------------------------------------------
# error estimation

def test_error_noiseless_decodes_exactly(monkeypatch):
    # W is zeroed where the counter draws it, the second block drawn from a
    # chunk's stream, and the screen keeps every row, so the exhaustive
    # decoder decides every sent word
    draw, seen = channel.draw_real, set()

    def noiseless(stream, shape):
        x = draw(stream, shape)
        if stream in seen:
            x[...] = 0.0
        seen.add(stream)
        return x
    monkeypatch.setattr(channel, "draw_real", noiseless)
    monkeypatch.setattr(sim, "_screen", _keep_every_row)
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.0)
    est = estimate_error_prob(HAMILTON, cfg, [10.0, 20.0], 2000, 3)
    assert est.probs == (0.0, 0.0)


def test_error_deterministic():
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.0)
    a = estimate_error_prob(HAMILTON, cfg, [14.0], 20_000, 8)
    b = estimate_error_prob(HAMILTON, cfg, [14.0], 20_000, 8)
    assert a.events == b.events


@pytest.mark.parametrize("mode,name,r", [("quaternion", "hamilton", 0.0),
                                         ("quaternion", "hamilton", 0.5),
                                         ("real", "split", 0.5)])
def test_error_events_independent_of_decode_budget(monkeypatch, mode, name, r):
    # a budget of one byte decodes row by row; events must not change
    cfg = SystemConfig(mode, n=2, m=1, r=r)
    args = (lattice.load_lattice(name), cfg, [12.0, 18.0], 3000, 21)
    monkeypatch.setattr(sim, "ERROR_CHUNK", 1300)
    default = estimate_error_prob(*args)
    monkeypatch.setattr(sim, "DECODE_BUDGET_BYTES", 1)
    tiny = estimate_error_prob(*args)
    assert tiny.events == default.events and sum(default.events) > 0


def _spy_metric_rows(monkeypatch):
    """The (rows, |C|) shape of every metric the decoder takes an argmin of."""
    shapes = []
    argmin = np.argmin

    def spy(a, axis=None, **kwargs):
        if axis == 1:
            shapes.append(a.shape)
        return argmin(a, axis=axis, **kwargs)
    monkeypatch.setattr(sim.np, "argmin", spy)
    return shapes


def _spy_screen(monkeypatch):
    """The (kept, block) row counts and the threshold of every block the
    screen sees."""
    counts = []
    screen = sim._screen

    def spy(g, w, thresh):
        keep = screen(g, w, thresh)
        counts.append((len(keep), w.shape[-3], thresh))
        return keep
    monkeypatch.setattr(sim, "_screen", spy)
    return counts


def test_error_events_independent_of_decode_macs(monkeypatch):
    # DECODE_MACS = 1 leaves every product at the 64-row floor; events must
    # not change, and exactly the rows the screen keeps reach the metric
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    args = (HAMILTON, cfg, [12.0, 18.0], 3000, 21)
    monkeypatch.setattr(sim, "ERROR_CHUNK", 1300)
    default = estimate_error_prob(*args)
    monkeypatch.setattr(sim, "DECODE_MACS", 1)
    shapes = _spy_metric_rows(monkeypatch)
    kept = _spy_screen(monkeypatch)
    floor = estimate_error_prob(*args)
    assert floor.events == default.events and sum(default.events) > 0
    rows = [r for r, _ in shapes]
    assert sum(rows) == sum(k for k, _, _ in kept) and sum(b for _, b, _ in kept) == 6000
    assert max(rows) == 64
    assert sum(r < 64 for r in rows) <= 6  # one short product per chunk at most


@pytest.mark.parametrize("snr_db,words", [(None, 16), (20.0, 137), (25.0, 321)])
def test_metric_products_under_decode_macs(monkeypatch, snr_db, words):
    # rows x |C| x f stays below 2^19 multiply-adds, where OpenBLAS starts
    # threads of its own, for the benchmark's fixed and shaped codebooks
    cb = (lattice.fixed_codebook(HAMILTON) if snr_db is None
          else lattice.shape_codebook(HAMILTON, 10.0 ** (snr_db / 10.0), 0.5))
    assert len(cb.points) == words
    cparts = channel.quaternion_parts(cb.points)
    feats = sim._codeword_features(cparts, 3.0)
    assert feats.shape == (5, words)  # one quaternion column: f = 5
    rng = np.random.default_rng(5)
    h, w = (channel.draw_real(rng, (4, 5000, 1, 1)) for _ in range(2))
    x = cparts[:, rng.integers(0, words, size=5000)]
    shapes = _spy_metric_rows(monkeypatch)
    sim._ml_decode(h, sim._gram(h), w, x, 3.0, feats)
    assert sum(r for r, _ in shapes) == 5000 and len(shapes) > 1
    assert all(c == words and r * c * len(feats) < 2**19 for r, c in shapes)


def _code_parts(cb, mode):
    """A codebook's words as `estimate_error_prob` keeps them: real n x n
    words, or the (4, |C|, p, p) parts of quaternion ones."""
    if mode == "real":
        return np.ascontiguousarray(cb.points.real)
    return channel.quaternion_parts(cb.points)


@pytest.mark.parametrize("lat,mode", [(HAMILTON, "quaternion"), (SPLIT, "real")])
def test_codeword_features_in_one_array(lat, mode):
    # the features are written into one preallocated (f, |C|) array: they
    # are bit-identical to an independent reference of that layout (one
    # column a word: the parts of scale^2 C C^* over those of -2 scale C,
    # and for a 1 x 1 quaternion word c the one number scale^2 |c|^2 over
    # the parts of -2 scale c), and at 40 dB, r = 0.5 (hamilton: 12,577 words) the allocations peak
    # within 1.6 times the result
    cb = lattice.shape_codebook(lat, 1e4, 0.5)
    cparts = _code_parts(cb, mode)
    scale = math.sqrt(1e4 / 2)
    tracemalloc.start()
    try:
        feats = sim._codeword_features(cparts, scale)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if mode == "real":  # C C^T entry (i, j): the ascending sum over l of C_il C_jl
        cols = [cparts[:, :, None, l] * cparts[:, None, :, l] for l in range(cparts.shape[2])]
        gram = sum(cols[1:], cols[0])
        lin = cparts
    else:  # a 1 x 1 quaternion word c: c c^* = |c|^2, a real number
        c1, c2 = cb.points[:, 0, 0], cb.points[:, 0, 1]
        lin = np.stack([c1.real, c1.imag, c2.real, c2.imag], axis=1)
        gram = ((c1.real * c1.real + c1.imag * c1.imag) + c2.real * c2.real) \
            + c2.imag * c2.imag
    ref = np.concatenate([(scale ** 2 * gram).reshape(len(lin), -1),
                          (-2.0 * scale * lin).reshape(len(lin), -1)], axis=1).T
    f = 8 if mode == "real" else 5
    assert feats.shape == ref.shape == (f, len(cb.points)) and feats.dtype == ref.dtype
    assert np.array_equal(feats.view(np.uint64), ref.view(np.uint64))
    assert peak <= 1.6 * feats.nbytes


@settings(max_examples=200, deadline=None)
@given(st.integers(1, lattice.SHELL_CAP), st.sampled_from([5, 8, 16, 32, 64]))
def test_decode_rows_within_budget(words, f):
    # a codebook no larger than SHELL_CAP points gets a metric within the byte
    # budget, and at least one row
    rows = sim._decode_rows(words, f)
    assert rows >= 1 and rows * words * 8 <= sim.DECODE_BUDGET_BYTES


@pytest.mark.parametrize("mode,name,r", [("quaternion", "hamilton", 0.0),
                                         ("quaternion", "hamilton", 0.5),
                                         ("real", "split", 0.5)])
def test_error_events_independent_of_block_rows(monkeypatch, mode, name, r):
    cfg = SystemConfig(mode, n=2, m=1, r=r)
    lat = lattice.load_lattice(name)
    _assert_events_independent_of_block_rows(
        monkeypatch, "ERROR_CHUNK",
        lambda chunk: estimate_error_prob(lat, cfg, [12.0, 18.0], [chunk + 500, 700], 8).events)


# ---------------------------------------------------------------------------
# packing-radius screen

def _quaternion_matrix_lattice():
    """M_2 of the Lipschitz order: the 16 lifts of a 2 x 2 quaternion matrix
    with one unit part, a quaternionic lattice of 4 x 4 words (p = 2)."""
    return lattice.matrix_lattice(channel.lift_parts(np.eye(16).reshape(16, 4, 2, 2)
                                                     .transpose(1, 0, 2, 3)), "quaternionic")


SCREEN_CASES = [("quaternion", 2, 1, HAMILTON, 0.0), ("quaternion", 2, 1, HAMILTON, 0.5),
                ("real", 2, 1, SPLIT, 0.5),
                ("real", 2, 1, lattice.load_lattice(str(LATTICES / "m2z.json")), 0.5),
                ("real", 2, 1, lattice.load_lattice(str(LATTICES / "split_pi.json")), 0.5),
                ("quaternion", 4, 2, _quaternion_matrix_lattice(), 0.0)]
SCREEN_IDS = ["hamilton-r0", "hamilton-r0.5", "split-r0.5", "m2z", "split_pi", "p2"]


def _keep_every_row(g, w, thresh):
    return np.arange(w.shape[-3])


@pytest.mark.parametrize("mode,n,m,lat,r", SCREEN_CASES, ids=SCREEN_IDS)
@pytest.mark.parametrize("threads", ["1", "2"])
def test_screened_events_equal_unscreened(monkeypatch, mode, n, m, lat, r, threads):
    # the screen changes no event: every row decoded, at 1 and 2 threads
    monkeypatch.setenv("DMTLAB_THREADS", threads)
    cfg = SystemConfig(mode, n=n, m=m, r=r)
    args = (lat, cfg, [14.0, 20.0, 26.0], [3000, 3000, 2000], 17)
    monkeypatch.setattr(sim, "ERROR_CHUNK", 1100)
    counts = _spy_screen(monkeypatch)
    screened = estimate_error_prob(*args)
    assert sum(k for k, _, _ in counts) < sum(b for _, b, _ in counts)
    monkeypatch.setattr(sim, "_screen", _keep_every_row)
    assert estimate_error_prob(*args).events == screened.events


def test_screen_decodes_every_row_below_0_db(monkeypatch):
    # below 0 dB the threshold is 0 and every row reaches the decoder; at 0
    # and 3 dB it is not, and the events equal an unscreened sweep's
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.0)
    args = (HAMILTON, cfg, [-3.0, 0.0, 3.0], 3000, 13)
    seen = _spy_screen(monkeypatch)
    screened = estimate_error_prob(*args)
    below = [(k, b) for k, b, t in seen if t == 0.0]
    assert sum(b for _, b in below) == 3000 and all(k == b for k, b in below)
    assert sum(t > 0 for _, _, t in seen) == 2
    monkeypatch.setattr(sim, "_screen", _keep_every_row)
    assert estimate_error_prob(*args).events == screened.events


def test_screen_refused_when_rounding_bound_fails(monkeypatch):
    # a kappa so small that 16 c u (M / lambda_1)^2 >= delta kappa: no SNR
    # gets a threshold, and every row of every block is decoded
    monkeypatch.setattr(sim, "SCREEN_KAPPA", 2.0 ** -60)
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    seen = _spy_screen(monkeypatch)
    est = estimate_error_prob(HAMILTON, cfg, [14.0, 20.0], 2000, 13)
    assert seen and all(t == 0.0 and k == b for k, b, t in seen)
    assert sum(b for _, b, _ in seen) == 4000 and sum(est.events) > 0


@pytest.mark.parametrize("mode,n,m,lat,r", SCREEN_CASES, ids=SCREEN_IDS)
def test_screened_rows_decide_the_sent_word(mode, n, m, lat, r):
    # trial for trial: every row the screen skips is one the exhaustive
    # decoder decides correctly; the second quarter of the rows is
    # noiseless, and the third has near-singular channels (the last column
    # the first plus 1e-6 of itself; one quaternion column scaled by 1e-3)
    # with the noise scaled by 1e-6
    cfg, rho, size = SystemConfig(mode, n=n, m=m, r=r), 100.0, 8000
    cb = lattice.fixed_codebook(lat) if r == 0 else lattice.shape_codebook(lat, rho, r)
    cparts = _code_parts(cb, mode)
    rng = np.random.default_rng(29)
    h, w = (channel.draw_real(rng, cfg.block_shape(size)) for _ in range(2))
    q1, q2, q3 = size // 4, size // 2, 3 * size // 4
    w[..., q1:q2, :, :] = 0.0
    w[..., q2:q3, :, :] *= 1e-6
    if h.shape[-1] > 1:
        h[..., q2:q3, :, -1] = h[..., q2:q3, :, 0] + 1e-6 * h[..., q2:q3, :, -1]
    else:
        h[..., q2:q3, :, :] *= 1e-3
    tx = rng.integers(0, len(cb.points), size=size)
    scale = math.sqrt(rho / n)
    thresh = sim._screen_threshold(cfg, rho, cb, lattice.minimum_norm(lat))
    g = sim._gram(h)
    keep = sim._screen(g, w, thresh)
    skipped = np.setdiff1d(np.arange(size), keep)
    got = sim._ml_decode(h, g, w, cparts.take(tx, axis=-3), scale,
                         sim._codeword_features(cparts, scale))
    np.testing.assert_array_equal(got[skipped], tx[skipped])
    assert np.sum(got != tx) > 0
    for lo, hi in ((0, q1), (q1, q2)):
        assert np.sum((skipped >= lo) & (skipped < hi)) > 0


def _parts_norm_min_distance(cparts):
    """The least distance between two words, on real parts, pair by pair."""
    flat = np.moveaxis(cparts, -3, 0).reshape(cparts.shape[-3], -1)
    return min(np.sqrt(np.min(np.sum((flat[i + 1:] - flat[i]) ** 2, axis=1)))
               for i in range(len(flat) - 1))


@pytest.mark.parametrize("name,mode", [("hamilton", "quaternion"), ("split", "real"),
                                       ("m2z.json", "real"), ("split_pi.json", "real")])
@pytest.mark.parametrize("r", [0.0, 0.5])
def test_screen_distance_below_codebook_minimum(name, mode, r):
    # d = lambda_1 / M (over sqrt 2 on quaternion parts) is at most the exact
    # pairwise minimum distance of every built-in and JSON codebook, up to
    # the relative rounding that half of SCREEN_DELTA covers: shaped
    # codebooks hold 0 and a shortest lattice point, where d is attained
    lat = lattice.load_lattice(name if mode == "quaternion" or name == "split"
                               else str(LATTICES / name))
    cfg = SystemConfig(mode, n=2, m=1, r=r)
    lam1 = lattice.minimum_norm(lat)
    for db in (10.0, 20.0, 30.0):
        rho = 10.0 ** (db / 10.0)
        cb = lattice.fixed_codebook(lat) if r == 0 else lattice.shape_codebook(lat, rho, r)
        thresh = sim._screen_threshold(cfg, rho, cb, lam1)
        d = math.sqrt(thresh / ((1 - sim.SCREEN_DELTA) ** 2 * rho / cfg.n))
        assert 0 < d <= _parts_norm_min_distance(_code_parts(cb, mode)) * (1 + 1e-12)


def test_minimum_norm_is_shortest_nonzero_point():
    for lat, lam1 in ((HAMILTON, math.sqrt(2)), (SPLIT, math.sqrt(2)),
                      (lattice.load_lattice(str(LATTICES / "m2z.json")), 1.0)):
        assert lattice.minimum_norm(lat) == pytest.approx(lam1, rel=1e-15)
        pts = lattice.point_from_coordinates(lat, lattice.shell_coordinates(lat, 3.0))
        norms = np.sqrt(np.sum(np.abs(pts) ** 2, axis=(1, 2)))
        assert np.min(norms[norms > 0]) == pytest.approx(lattice.minimum_norm(lat), rel=1e-12)


@pytest.mark.parametrize("mode,m,cols", [("real", 1, 2), ("real", 2, 2), ("real", 3, 4),
                                         ("real", 2, 1), ("quaternion", 1, 1),
                                         ("quaternion", 3, 1), ("quaternion", 2, 2),
                                         ("quaternion", 3, 2)])
def test_gram_floor_below_least_eigenvalue(mode, m, cols):
    # lambda_lb <= lambda_min(H^* H) on random rows and on near-singular ones
    # (the last column nearly the first), and it is not vacuous on random rows
    rng = np.random.default_rng(31)
    size = 4000
    shape = (size, 2 * m, cols) if mode == "real" else (4, size, m, cols)
    h = channel.draw_real(rng, shape)
    near = slice(size // 2, None)
    if cols > 1:
        h[..., near, :, -1] = h[..., near, :, 0] * (1 + 1e-7 * h[..., near, :, -1])
    lb = sim._gram_floor(sim._gram(h))
    lifted = h if mode == "real" else channel.lift_parts(h)
    lam = np.linalg.eigvalsh(np.conj(lifted.swapaxes(-1, -2)) @ lifted)[:, 0]
    tr = linalg.sq_norms(h)
    assert np.all(lb <= lam + 1e-13 * tr)
    assert np.all(lb >= 0) and np.mean(lb[: size // 2] > 0) > 0.9
    if cols > 1:
        assert np.mean(lb[near] > 0) < 0.1


def test_gram_floor_zero_for_singular_gram():
    # fewer rows than columns: H^* H is singular and no row is screened
    rng = np.random.default_rng(3)
    h, w = (channel.draw_real(rng, (500, 2, 3)) for _ in range(2))
    assert not np.any(sim._gram_floor(sim._gram(h)))
    assert len(sim._screen(sim._gram(h), 0.0 * w, 1e6)) == 500


def _bruteforce_decode(h, y, scale, cwords):
    dist = np.sum(np.abs(y[:, None] - scale * np.einsum("bij,kjl->bkil", h, cwords)) ** 2,
                  axis=(-2, -1))
    return np.argmin(dist, axis=1)


@pytest.mark.parametrize("mode,name,r", [("quaternion", "hamilton", 0.0),
                                         ("quaternion", "hamilton", 0.5),
                                         ("real", "split", 0.5)])
def test_ml_decode_matches_bruteforce(mode, name, r):
    # the expanded metric on the code's parts decides as the exhaustive sum
    # of |y - s H C|^2 over the lifted (complex) blocks, trial for trial; the
    # first half of the rows is noiseless
    lat, n, m, size = lattice.load_lattice(name), 2, 1, 4000
    rho = 10.0 ** 1.5
    cb = lattice.fixed_codebook(lat) if r == 0 else lattice.shape_codebook(lat, rho, r)
    cparts = _code_parts(cb, mode)
    rng = np.random.default_rng(23)
    if mode == "real":
        h, w = (channel.draw_real(rng, (size, 2 * m, n)) for _ in range(2))
        lift, cwords = (lambda a: a), cparts
    else:
        h, w = (channel.draw_real(rng, (4, size, m, 1)) for _ in range(2))
        lift, cwords = channel.lift_parts, cb.points
    w[..., : size // 2, :, :] = 0.0
    tx = rng.integers(0, len(cb.points), size=size)
    scale = math.sqrt(rho / n)
    x = cparts[..., tx, :, :]
    y = channel.receive(h, x, scale, w)
    got = sim._ml_decode(h, sim._gram(h), w, x, scale, sim._codeword_features(cparts, scale))
    np.testing.assert_array_equal(got, _bruteforce_decode(lift(h), lift(y), scale, cwords))
    np.testing.assert_array_equal(got[: size // 2], tx[: size // 2])
    assert np.sum(got != tx) > 50


def _gram_hy_decode(h, w, x, scale, cparts):
    """The 2 n^2-feature decisions, [H^* H | H^* y] with y from
    `channel.receive`, on real blocks or quaternion parts: the received-block
    arithmetic that every code was decoded with before the decoder took
    s G X + H^* W for H^* y, and one quaternion column its own 5 features."""
    y = channel.receive(h, x, scale, w)
    rows = np.stack([linalg.bmm(h, h, conj=True), linalg.bmm(h, y, conj=True)])
    rows = np.moveaxis(rows, -3, -1).reshape(-1, h.shape[-3])
    adj = linalg.adjoint(cparts)
    words = np.stack([scale ** 2 * linalg.bmm(adj, adj, conj=True), -2.0 * scale * cparts])
    words = np.moveaxis(words, -3, -1).reshape(-1, cparts.shape[-3])
    step = sim._decode_rows(words.shape[1], len(rows))
    return np.concatenate([np.argmin(rows[:, lo:lo + step].T @ words, axis=1)
                           for lo in range(0, h.shape[-3], step)])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("snr_db,r", [(15.0, 0.5), (14.0, 0.0)])
def test_one_column_decisions_equal_gram_hy_decode(m, snr_db, r):
    # ||H||^2 and H^* W in place of the received block change the rounding
    # but no decision: every row of a 50,000-row chunk, none screened, the
    # sent word drawn as the counter draws it
    rho = 10.0 ** (snr_db / 10.0)
    cb = (lattice.fixed_codebook(HAMILTON) if r == 0
          else lattice.shape_codebook(HAMILTON, rho, r))
    cparts, scale = channel.quaternion_parts(cb.points), math.sqrt(rho / 2)
    rng = np.random.default_rng(int(snr_db) + 100 * m)
    h, w = (channel.draw_real(rng, (4, sim.ERROR_CHUNK, m, 1)) for _ in range(2))
    tx = rng.integers(0, len(cb.points), size=sim.ERROR_CHUNK)
    x = cparts.take(tx, axis=-3)
    got = sim._ml_decode(h, sim._gram(h), w, x, scale, sim._codeword_features(cparts, scale))
    np.testing.assert_array_equal(got, _gram_hy_decode(h, w, x, scale, cparts))
    assert np.sum(got != tx) > 100


@pytest.mark.parametrize("mode,n,m,lat,r", SCREEN_CASES[2:], ids=SCREEN_IDS[2:])
def test_gram_decisions_equal_gram_hy_decode(mode, n, m, lat, r):
    # s G X + H^* W in place of H^* y changes the rounding but no decision
    # of the real codes and of p = 2: every row of a 50,000-row chunk at
    # 15 dB, none screened, the sent word drawn as the counter draws it
    rho = 10.0 ** 1.5
    cb = lattice.fixed_codebook(lat) if r == 0 else lattice.shape_codebook(lat, rho, r)
    cparts, scale = _code_parts(cb, mode), math.sqrt(rho / n)
    rng = np.random.default_rng(61)
    shape = SystemConfig(mode, n=n, m=m, r=r).block_shape(sim.ERROR_CHUNK)
    h, w = (channel.draw_real(rng, shape) for _ in range(2))
    tx = rng.integers(0, len(cb.points), size=sim.ERROR_CHUNK)
    x = cparts.take(tx, axis=-3)
    got = sim._ml_decode(h, sim._gram(h), w, x, scale, sim._codeword_features(cparts, scale))
    np.testing.assert_array_equal(got, _gram_hy_decode(h, w, x, scale, cparts))
    assert np.sum(got != tx) > 100


@pytest.mark.parametrize("mode,n,m,lat,r", SCREEN_CASES, ids=SCREEN_IDS)
def test_error_sweep_forms_no_received_block(monkeypatch, mode, n, m, lat, r):
    # every code class is screened and decoded on its Gram and H^* W alone:
    # a sweep that counts errors calls neither `receive` nor `gram`
    def never(*args, **kwargs):
        raise AssertionError("the error counter called channel.receive or channel.gram")
    monkeypatch.setattr(channel, "receive", never)
    monkeypatch.setattr(channel, "gram", never)
    est = estimate_error_prob(lat, SystemConfig(mode, n=n, m=m, r=r), [14.0, 20.0], 3000, 5)
    assert sum(est.events) > 0


@pytest.mark.parametrize("m", [1, 2])
def test_ml_decode_matches_bruteforce_p2(m):
    # no built-in lattice has 4 x 4 quaternion words yet, so a synthetic
    # codebook of 24 random 2 x 2 quaternion words runs the decoder's p = 2
    # loops; it decides as the lifted exhaustive sum, trial for trial, and
    # the first half of the rows is noiseless
    rng = np.random.default_rng(40 + m)
    size, scale, lift = 3000, 0.3, channel.lift_parts
    cparts = rng.standard_normal((4, 24, 2, 2))
    h, w = (channel.draw_real(rng, (4, size, m, 2)) for _ in range(2))
    w[:, : size // 2] = 0.0
    tx = rng.integers(0, 24, size=size)
    y = channel.receive(h, cparts[:, tx], scale, w)
    got = sim._ml_decode(h, sim._gram(h), w, cparts[:, tx], scale,
                         sim._codeword_features(cparts, scale))
    np.testing.assert_array_equal(got, _bruteforce_decode(lift(h), lift(y), scale, lift(cparts)))
    np.testing.assert_array_equal(got[: size // 2], tx[: size // 2])
    assert np.sum(got != tx) > 50


@pytest.mark.parametrize("estimate", [
    lambda *a: estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), *a),
    lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1, r=0.5),
                                   *a)], ids=["outage", "error"])
def test_trial_cap(monkeypatch, estimate):
    def never(*args, **kwargs):
        raise AssertionError("spawned or shaped before the trial cap was checked")

    monkeypatch.setattr(sim, "TRIAL_CAP", 10_000)
    monkeypatch.setattr(sim, "shape_codebook", never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(lattice.ResourceLimitError, match="10001 trials"):
        estimate([10.0, 20.0], [5000, 5001], 5)


@pytest.mark.parametrize("estimate", [
    lambda *a, **k: estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), *a, **k),
    lambda *a, **k: estimate_error_prob(HAMILTON,
                                        SystemConfig("quaternion", n=2, m=1, r=0.5), *a, **k)],
    ids=["outage", "error"])
def test_bad_weighting_rejected_before_sampling(monkeypatch, estimate):
    def never(*args, **kwargs):
        raise AssertionError("spawned or shaped before the weighting was checked")

    monkeypatch.setattr(sim, "shape_codebook", never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match="banana"):
        estimate([10.0, 20.0], 200_000, 1, weighting="banana")


@pytest.mark.parametrize("estimate", [
    lambda *a: estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), *a),
    lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1, r=0.5),
                                   *a)], ids=["outage", "error"])
def test_empty_snr_grid_rejected_before_sampling(monkeypatch, estimate):
    def never(*args, **kwargs):
        raise AssertionError("spawned or shaped before the SNR grid was checked")

    monkeypatch.setattr(sim, "shape_codebook", never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match="SNR grid"):
        estimate([], 100, 1)


@pytest.mark.parametrize("db", [4000.0, 3083.0, 3082.0, 3001.0, -3237.0, -4000.0])
@pytest.mark.parametrize("estimate", [
    lambda *a: estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), *a),
    lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1, r=0),
                                   *a)], ids=["outage", "error"])
def test_snr_out_of_float_range_rejected_before_sampling(monkeypatch, estimate, db):
    # rho = 10^(dB/10) over RHO_MAX (3000 dB), where the rates overflow, or
    # beyond the float range (from about 3082.55 dB), or 0 (below about
    # -3236.07 dB) is refused naming --snr-db before any draw
    def never(*args, **kwargs):
        raise AssertionError("spawned or built a codebook before the SNR grid was checked")

    monkeypatch.setattr(sim, "fixed_codebook", never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match="--snr-db"):
        estimate([10.0, db], 100, 1)


def test_snr_near_the_float_range_ends_runs():
    # a subnormal rho is finite and > 0: the sweep runs
    est = estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), [-3236.0, 10.0], 100, 1)
    assert est.trials == (100, 100) and est.events[0] == 0


@pytest.mark.parametrize("mode", ["real", "quaternion"])
def test_outage_at_the_largest_snr_runs_clean(mode):
    # at RHO_MAX (3000 dB) neither rate overflows: no warning (the suite
    # raises on one), and r log2 rho = 498 bits is no outage
    assert 10.0 ** (3000.0 / 10.0) == sim.RHO_MAX
    est = estimate_outage(SystemConfig(mode, n=2, m=1, r=0.5), [3000.0], 2000, 1)
    assert est.events == (0,)


@pytest.mark.parametrize("env,workers", [("5000", 3), ("2", 2), ("", 3)])
def test_pool_capped_at_cpu_count(monkeypatch, env, workers):
    # a stand-in executor records the pool size and its submissions and runs
    # each at once, so no thread is started; the calling thread is the last
    # worker, so the pool gets one submission fewer than there are workers
    seen, submitted = [], []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            submitted.append(fn)
            done = Future()
            done.set_result(fn())
            return done

    monkeypatch.setattr(sim, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(sim, "OUTAGE_CHUNK", 100)
    monkeypatch.setenv("DMTLAB_THREADS", env)
    cfg = SystemConfig("real", n=2, m=1, r=0.5)
    est = estimate_outage(cfg, [10.0, 13.0], 3000, 7)
    assert seen == [workers] and len(submitted) == workers - 1
    assert est.trials == (3000, 3000)


def _chunk_draws(monkeypatch, raise_on=None):
    """Record (spawn key, thread) of each chunk that `channel.draw_real`
    draws.  With `raise_on` ("caller" or "helper") set, the first chunk drawn
    on that kind of thread raises; the calling thread first waits until a
    helper has begun a chunk, where one runs."""
    seen = []
    helper_began = threading.Event()
    draw_real, calling = channel.draw_real, threading.get_ident()

    def draw(st, shape):
        caller = threading.get_ident() == calling
        if not caller:
            helper_began.set()
        elif sim._thread_cap() > 1:
            assert helper_began.wait(60)
        if raise_on == ("caller" if caller else "helper") and not any(
                t == threading.get_ident() for _, t in seen):
            raise ArithmeticError(f"chunk on the {raise_on} thread")
        seen.append((st.bit_generator.seed_seq.spawn_key, threading.get_ident()))
        return draw_real(st, shape)

    monkeypatch.setattr(channel, "draw_real", draw)
    return seen


@pytest.fixture
def short_switch_interval():
    """Threads trade the interpreter lock every microsecond, not every 5 ms,
    so that the sweep's threads interleave often while they take tasks."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads,raise_on", [("1", "caller"), ("2", "caller"),
                                              ("2", "helper")])
def test_failing_chunk_raises_from_the_sweep(monkeypatch, short_switch_interval, threads,
                                             raise_on):
    # a chunk that raises, on the calling thread or on a pool thread, ends
    # the sweep with its error, and the other thread takes no new chunk
    # after it: of the 32 chunks, about 1 runs (31 if the other went on)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("DMTLAB_THREADS", threads)
    _set_chunks(monkeypatch, 500)
    seen = _chunk_draws(monkeypatch, raise_on)
    with pytest.raises(ArithmeticError, match=f"on the {raise_on} thread"):
        estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), [10.0, 14.0], 8000, 3)
    assert len(seen) < 16


@pytest.mark.parametrize("threads", ["2", "4"])
def test_every_chunk_runs_once(monkeypatch, short_switch_interval, threads):
    # each chunk of every point runs exactly once, on the calling thread or
    # on one of threads - 1 others, with the events of a one-thread sweep
    # (four threads on a 2-vCPU box: more workers than cores)
    monkeypatch.setattr(sim.os, "cpu_count", lambda: 4)
    _set_chunks(monkeypatch, 300)
    cfg = SystemConfig("real", n=2, m=1, r=0.5)
    args = ([10.0, 13.0, 16.0], [7100, 4300, 2900], 7)
    monkeypatch.setenv("DMTLAB_THREADS", "1")
    one = estimate_outage(cfg, *args)
    monkeypatch.setenv("DMTLAB_THREADS", threads)
    seen = _chunk_draws(monkeypatch)
    many = estimate_outage(cfg, *args)
    keys = sorted(key for key, _ in seen)
    assert keys == sorted((p, c) for p, t in enumerate(args[1]) for c in range(-(-t // 300)))
    ran_on = {t for _, t in seen}
    assert threading.get_ident() in ran_on and 1 < len(ran_on) <= int(threads)
    assert many.events == one.events


def test_error_flavor_mode_mismatch():
    with pytest.raises(ValueError):
        estimate_error_prob(HAMILTON, SystemConfig("real", n=2, m=1), [10.0], 100, 1)
    with pytest.raises(ValueError):
        estimate_error_prob(SPLIT, SystemConfig("quaternion", n=2, m=1), [10.0], 100, 1)


@pytest.mark.parametrize("mode,lat,n,r", [("quaternion", HAMILTON, 4, 0.0),
                                          ("quaternion", HAMILTON, 4, 0.5),
                                          ("real", SPLIT, 3, 0.0)])
def test_error_n_lattice_mismatch(monkeypatch, mode, lat, n, r):
    def never(*args, **kwargs):
        raise AssertionError("codebook built for a mismatched --n")

    monkeypatch.setattr(sim, "fixed_codebook", never)
    monkeypatch.setattr(sim, "shape_codebook", never)
    with pytest.raises(ValueError, match=r"--n=\d.* not \w+ 2x2"):
        estimate_error_prob(lat, SystemConfig(mode, n=n, m=1, r=r), [10.0, 20.0], 1000, 1)


@pytest.mark.parametrize("estimate,row_bytes", [
    (lambda *a: estimate_outage(SystemConfig("real", n=2, m=1), *a), 32),
    (lambda *a: estimate_outage(SystemConfig("quaternion", n=2, m=1), *a), 64),
    (lambda *a: estimate_error_prob(SPLIT, SystemConfig("real", n=2, m=1), *a), 64),
    (lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1), *a), 64)],
    ids=["outage-real", "outage-quaternion", "error-real", "error-quaternion"])
def test_sweep_array_budget(monkeypatch, estimate, row_bytes):
    # the largest chunk (here 700 rows) must fit ARRAY_BUDGET_BYTES; at the
    # exact fit the events equal those of the default budget
    _set_chunks(monkeypatch, 700)
    args = ([10.0, 13.0], [1500, 300], 4)
    default = estimate(*args)
    monkeypatch.setattr(sim, "ARRAY_BUDGET_BYTES", 700 * row_bytes)
    assert estimate(*args).events == default.events
    monkeypatch.setattr(sim, "ARRAY_BUDGET_BYTES", 700 * row_bytes - 1)
    with pytest.raises(lattice.ResourceLimitError, match="--n/--m"):
        estimate(*args)
    # fewer trials than a chunk make a smaller array
    assert estimate([10.0], 699, 4).trials == (699,)


def test_wishart_array_budget(monkeypatch):
    # 2 x 2 real blocks take 32 bytes a draw, lifted 2 x 2 complex ones 64
    monkeypatch.setattr(sim, "ARRAY_BUDGET_BYTES", 1000 * 32)
    rng = np.random.default_rng(3)
    assert sim.sample_wishart_real_batch(2, 1, 1000, rng).shape == (1000, 2)
    assert sim.sample_wishart_quaternion_batch(1, 1, 500, rng).shape == (500, 1)
    with pytest.raises(lattice.ResourceLimitError, match="--samples"):
        sim.sample_wishart_real_batch(2, 1, 1001, rng)
    with pytest.raises(lattice.ResourceLimitError, match="--samples"):
        sim.sample_wishart_quaternion_batch(1, 1, 501, rng)


def _price_run(kind, cfg, rows):
    """Run one sweep of `rows` trials at one SNR point, or one Wishart draw of
    `rows` samples, for `cfg`; error sweeps use a lattice of cfg.n x cfg.n
    words: hamilton or split at n = 2, else M_n(Z) or the quaternion M_2."""
    if kind == "outage":
        return estimate_outage(cfg, [10.0], rows, 4)
    if kind == "error":
        if cfg.n == 2:
            lat = SPLIT if cfg.mode == "real" else HAMILTON
        elif cfg.mode == "real":
            lat = lattice.matrix_lattice(np.eye(cfg.n ** 2).reshape(-1, cfg.n, cfg.n), "real")
        else:
            lat = _quaternion_matrix_lattice()
        return estimate_error_prob(lat, cfg, [10.0], rows, 4)
    if cfg.mode == "real":
        return sim.sample_wishart_real_batch(cfg.n, cfg.m, rows, np.random.default_rng(4))
    return sim.sample_wishart_quaternion_batch(cfg.p, cfg.m, rows, np.random.default_rng(4))


@pytest.mark.parametrize("mode,n,m", [("real", 2, 2), ("real", 2, 1), ("real", 3, 1),
                                      ("quaternion", 2, 2), ("quaternion", 2, 1),
                                      ("quaternion", 4, 1)])
@pytest.mark.parametrize("kind", ["outage", "error", "wishart"])
def test_array_price_matches_the_draw(monkeypatch, kind, mode, n, m):
    # each run is priced at 8 bytes times the larger of a drawn row's entries
    # and the reals of the widest array derived from a row: the Gram on the
    # smaller side l of a block (l x l, or for quaternion blocks the
    # 2l x 2l complex lift) in outage sweeps and Wishart draws, and in error
    # sweeps the 2 n^2 of the decoder's features and of the lifted Gram of
    # the screen.  So the price is at least the drawn bytes of a row, and
    # equal to them where no derived array is wider.  A budget of exactly
    # rows x price passes, one byte less refuses the run before any draw;
    # at n < 2m, n = 2m and n > 2m
    cfg, rows = SystemConfig(mode, n=n, m=m), 300
    drawn = []
    draw_real = channel.draw_real

    def spy(rng, shape):
        drawn.append(shape)
        return draw_real(rng, shape)

    monkeypatch.setattr(channel, "draw_real", spy)
    _price_run(kind, cfg, rows)
    assert drawn and set(drawn) == {cfg.block_shape(rows)}
    row = 8 * math.prod(drawn[0]) // rows
    l = min(2 * m, n) if mode == "real" else min(m, n // 2)
    derived = 2 * n * n if kind == "error" else l * l if mode == "real" else 8 * l * l
    price = max(row, 8 * derived)
    monkeypatch.setattr(sim, "ARRAY_BUDGET_BYTES", rows * price)
    _price_run(kind, cfg, rows)
    monkeypatch.setattr(sim, "ARRAY_BUDGET_BYTES", rows * price - 1)
    drawn.clear()
    flag = "--samples" if kind == "wishart" else "--n/--m"
    with pytest.raises(lattice.ResourceLimitError, match=flag):
        _price_run(kind, cfg, rows)
    assert not drawn


@pytest.mark.parametrize("estimate", [
    lambda *a: estimate_outage(SystemConfig("quaternion", n=2, m=1, r=0.5), *a),
    lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1, r=0.0),
                                   *a)], ids=["outage", "error"])
def test_error_trials_per_point(estimate):
    est = estimate([14.0, 20.0], [5000, 10_000], 5)
    assert est.trials == (5000, 10_000)
    # one count, alone or as a one-entry list, serves every point
    one, scalar = estimate([14.0, 20.0], [5000], 5), estimate([14.0, 20.0], 5000, 5)
    assert one.trials == scalar.trials == (5000, 5000) and one.events == scalar.events
    with pytest.raises(ValueError):
        estimate([14.0, 20.0], [5000, 6000, 7000], 5)
    with pytest.raises(ValueError):
        estimate([14.0, 20.0], [5000, 0], 5)


@pytest.mark.parametrize("trials", [1000.7, [1000.0, 999.5], [math.nan], math.inf])
@pytest.mark.parametrize("estimate", [
    lambda *a: estimate_outage(SystemConfig("real", n=2, m=1, r=0.5), *a),
    lambda *a: estimate_error_prob(HAMILTON, SystemConfig("quaternion", n=2, m=1, r=0.5),
                                   *a)], ids=["outage", "error"])
def test_non_whole_trials_rejected_before_sampling(monkeypatch, estimate, trials):
    # a fractional count is an error, not a count rounded down
    def never(*args, **kwargs):
        raise AssertionError("spawned or shaped before the trial count was checked")

    monkeypatch.setattr(sim, "shape_codebook", never)
    monkeypatch.setattr(np.random, "default_rng", never)
    with pytest.raises(ValueError, match="whole numbers"):
        estimate([10.0, 20.0], trials, 1)


def test_m2z_slope_below_split_at_r0():
    # M2(Z) has singular codeword differences, so its r = 0 real-mode slope
    # stays at 1 while the NVD order split climbs toward d1 = 2; 25-40 dB
    # and growing trials keep every split point above MIN_EVENTS
    cfg = SystemConfig("real", n=2, m=1, r=0.0)
    snr, trials = [25.0, 30.0, 35.0, 40.0], [100_000, 300_000, 1_000_000, 3_000_000]
    m2z, split = (estimate_error_prob(lat, cfg, snr, trials, 20240, weighting="uniform")
                  for lat in (lattice.load_lattice(str(LATTICES / "m2z.json")), SPLIT))
    assert not any(m2z.flagged) and not any(split.flagged)
    assert abs(m2z.slope - 1.0) <= 0.2
    assert split.slope >= 1.5
    assert split.slope - m2z.slope > 2.0 * math.hypot(split.stderr, m2z.stderr)


def test_error_rate_at_least_outage():
    # ML error of a code cannot beat outage at the code's actual rate
    # (log2 |C| / n bits; the nominal r log2(rho) is only asymptotic)
    cfg = SystemConfig("real", n=2, m=1, r=0.5)
    snr = [16.0]
    rho = 10.0 ** (snr[0] / 10.0)
    cb = lattice.shape_codebook(SPLIT, rho, cfg.r)
    rate_bits = math.log2(len(cb.points)) / cfg.n
    r_matched = rate_bits / math.log2(rho)
    out = estimate_outage(SystemConfig("real", n=2, m=1, r=r_matched), snr, 40_000, 17)
    err = estimate_error_prob(SPLIT, cfg, snr, 40_000, 17)
    se = math.sqrt(out.probs[0] * (1 - out.probs[0]) / out.trials[0])
    assert err.probs[0] >= out.probs[0] - 2 * se


def test_error_shaped_codebook_grows_with_snr():
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    est = estimate_error_prob(HAMILTON, cfg, [10.0, 18.0], 4000, 9)
    assert all(0.0 <= p <= 1.0 for p in est.probs)


def test_shaped_words_over_one_shell_rejected_before_sampling(monkeypatch):
    # the cap is what one shell may list, SHELL_CAP // rank words, summed
    # over the points built so far: here two 20 dB codebooks fit, three do not
    words = len(lattice.shape_codebook(HAMILTON, 100.0, 0.5).points)

    def never(*args, **kwargs):
        raise AssertionError("a chunk ran before the codebooks were counted")

    monkeypatch.setattr(sim, "SHELL_CAP", 2 * words * HAMILTON.rank)
    monkeypatch.setattr(channel, "draw_real", never)
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    with pytest.raises(lattice.ResourceLimitError, match=f"hold {3 * words} words"):
        estimate_error_prob(HAMILTON, cfg, [20.0, 20.0, 20.0], 100, 1)


def test_fit_slope_uniform_weighting():
    # uneven event counts tilt the weighted fit; the uniform fit does not
    snr = [10.0, 20.0, 30.0]
    events = [200_000, 11_000, 1200]
    weighted = fit_slope(snr, events, [10**6] * 3).slope
    uniform = fit_slope(snr, events, [10**6] * 3, weighting="uniform").slope
    x = np.array(snr) / 10
    y = -np.log10(np.array(events) / 10**6)
    expect = np.polyfit(x, y, 1)[0]
    assert uniform == pytest.approx(float(expect), abs=1e-9)
    assert weighted != pytest.approx(uniform, abs=1e-3)
    with pytest.raises(ValueError):
        fit_slope(snr, events, [10**6] * 3, weighting="banana")
