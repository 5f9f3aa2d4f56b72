"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The Monte Carlo criteria use fixed seeds and are
bit-reproducible.
"""

import json
import math
import time

import numpy as np

from dmtlab import channel, dmt, lattice, linalg, sim
from dmtlab.channel import SystemConfig, quaternionic_defect
from dmtlab.cli import run as cli_run


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------

def test_criterion_1_curve_family(tmp_path):
    start = time.time()
    out = tmp_path / "curves.csv"
    rc = cli_run(["curves", "--n", "4", "--m", "2", "--out", str(out)])
    elapsed = time.time() - start
    assert rc == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "r,d_star,d1,d2"
    rows = {}
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        rows[vals[0]] = vals[1:]
    expected_d1 = {0.0: 8.0, 0.5: 4.5, 1.0: 2.0, 1.5: 0.5, 2.0: 0.0}
    expected_d2 = {0.0: 8.0, 1.0: 2.0, 2.0: 0.0}
    expected_ds = {0.0: 8.0, 1.0: 3.0, 2.0: 0.0}
    ok = True
    for r, v in expected_d1.items():
        ok &= abs(rows[r][1] - v) <= 1e-12
    for r, v in expected_d2.items():
        ok &= abs(rows[r][2] - v) <= 1e-12
    for r, v in expected_ds.items():
        ok &= abs(rows[r][0] - v) <= 1e-12
    anchors_ok = (dmt.d1_curve(4, 2).anchors == ((0.0, 8.0), (0.5, 4.5), (1.0, 2.0),
                                                 (1.5, 0.5), (2.0, 0.0))
                  and dmt.d2_curve(4, 2).anchors == ((0.0, 8.0), (1.0, 2.0), (2.0, 0.0))
                  and dmt.classical_dmt(4, 2).anchors == ((0.0, 8.0), (1.0, 3.0),
                                                          (2.0, 0.0)))
    order_ok = all(v[1] <= v[2] + 1e-12 and v[2] <= v[0] + 1e-12 for v in rows.values())
    ok = ok and anchors_ok and order_ok and elapsed < 1.0
    report(1, ok, f"curve family n=4 m=2, ordering row-wise, {elapsed:.2f}s (< 1s)")


def test_criterion_2_lemma2_oracle_equivalence():
    start = time.time()
    step = 0.02
    worst = 0.0
    cases = 0
    ok = True
    for l in range(1, 5):
        for q in range(1, 7):
            if q < l:   # constructor invariant: coefficients stay positive
                continue
            s = 0.0
            while s <= l + 1e-9:
                prob = dmt.Lemma2Problem(float(q), l, min(s, float(l)))
                value, alpha = dmt.lemma2_closed_form(prob)
                brute = dmt.lemma2_bruteforce(prob, step)
                tol = l * (q + l) * step
                gap = abs(value - brute)
                worst = max(worst, gap / tol)
                feas = dmt.a0_membership(alpha, prob.s, tol=1e-12)
                attained = abs(float(prob.coefficients() @ alpha) - value) <= 1e-12
                ok &= gap <= tol and feas and attained
                cases += 1
                s += 0.25
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    report(2, ok, f"{cases} (q,l,s) cases, worst gap/tol={worst:.3f}, "
                  f"{elapsed:.1f}s (< 120s)")


def test_criterion_3_exponent_curve_identity():
    start = time.time()
    worst = 0.0
    for n in (2, 4, 6):
        for m in range(1, 5):
            c1 = dmt.d1_curve(n, m)
            for r in np.linspace(0.0, c1.r_max, 201):
                worst = max(worst, abs(dmt.exponent_real(n, m, r) - c1(r)))
            c2 = dmt.d2_curve(n, m)
            for r in np.linspace(0.0, c2.r_max, 201):
                worst = max(worst, abs(dmt.exponent_quaternion(n, m, r) - c2(r)))
    elapsed = time.time() - start
    ok = worst <= 1e-12
    report(3, ok, f"exponent == curve at 201 r for even n<=6, m<=4; "
                  f"worst |diff|={worst:.2e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_4_nvd_audits(tmp_path):
    start = time.time()
    ok = True
    details = []
    for name in ("hamilton", "split"):
        out = tmp_path / f"{name}.json"
        rc = cli_run(["lattice-audit", "--lattice", name, "--radius", "4",
                      "--out", str(out)])
        data = json.loads(out.read_text(encoding="utf-8"))
        ok &= rc == 0 and data["nvd"] is True
        ok &= abs(data["min_det"] - 1.0) <= 1e-9
        details.append(f"{name}: {data['points']} pts min_det={data['min_det']:.3g}")
    # determinant integrality over the audited shells
    for lat in (lattice.build_hamilton_order(), lattice.build_split_order()):
        for c in lattice.shell_coordinates(lat, 4.0):
            if not np.any(c):
                continue
            d = abs(linalg.determinant(lattice.point_from_coordinates(lat, c)))
            ok &= abs(d - round(d)) <= 1e-9 and round(d) >= 1
    # the split norm form has no nonzero root in the |.| <= 20 box
    grid = np.arange(-20, 21, dtype=np.int64)
    xy = (grid[:, None] ** 2 - 2 * grid[None, :] ** 2).ravel()
    zw = (-3 * grid[:, None] ** 2 + 6 * grid[None, :] ** 2).ravel()
    roots = np.argwhere(xy[:, None] + zw[None, :] == 0)
    center = 20 * 41 + 20
    ok &= all(i == center and j == center for i, j in roots)
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(4, ok, f"{'; '.join(details)}; box-20 form anisotropic, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_5_outage_slope_real():
    start = time.time()
    cfg = SystemConfig("real", n=2, m=1, r=0.5)
    est = sim.estimate_outage(cfg, [10, 15, 20, 25, 30], 1_000_000,
                              20240, weighting="uniform")
    elapsed = time.time() - start
    target = dmt.d1_curve(2, 1)(0.5)
    ok = abs(est.slope - target) <= 0.2 and elapsed < 300.0
    report(5, ok, f"real outage slope {est.slope:.3f} vs d1(0.5)={target} "
                  f"(tol 0.2), {elapsed:.0f}s (< 300s)")


def test_criterion_6_outage_slope_quaternion():
    start = time.time()
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.5)
    est = sim.estimate_outage(cfg, [10, 15, 20, 25, 30], 1_000_000,
                              20240, weighting="uniform")
    elapsed = time.time() - start
    target = dmt.d2_curve(2, 1)(0.5)
    ok = abs(est.slope - target) <= 0.25 and elapsed < 300.0
    report(6, ok, f"quaternion outage slope {est.slope:.3f} vs d2(0.5)={target} "
                  f"(tol 0.25), {elapsed:.0f}s (< 300s)")


def test_criterion_7_error_slope_zero_multiplexing():
    start = time.time()
    lat = lattice.build_hamilton_order()
    cfg = SystemConfig("quaternion", n=2, m=1, r=0.0)
    snr = [14, 17, 20, 23, 26]
    # >= 1e5 trials everywhere; the geometric ramp equalizes the relative
    # error across the sweep instead of starving the steep high-SNR end
    trials = [100_000, 400_000, 1_600_000, 6_400_000, 25_600_000]
    est = sim.estimate_error_prob(lat, cfg, snr, trials, 20240, weighting="uniform")
    elapsed = time.time() - start
    target = 2.0  # m*n, the zero-multiplexing quaternionic bound
    within = abs(est.slope - target) <= 0.4
    not_above = est.slope <= target + 2 * est.stderr + 0.2
    ok = within and not_above and elapsed < 600.0
    report(7, ok, f"ML error slope {est.slope:.3f} vs {target} (tol 0.4), "
                  f"events={est.events}, {elapsed:.0f}s (< 600s)")


def test_criterion_8_structural_suites():
    start = time.time()
    rng = np.random.default_rng(88)
    ok = True

    # realify algebraic identity, exact, 1e3 instances: Re over Im of the
    # complex received blocks against the stacked-real channel
    def stacked(a):
        return np.concatenate([a.real, a.imag], axis=1)

    h = channel.draw_complex(rng, (1000, 2, 3))
    w = channel.draw_complex(rng, (1000, 2, 3))
    x = rng.standard_normal((1000, 3, 3))
    scale = math.sqrt(4.0 / 3)
    identity_ok = np.array_equal(stacked(channel.receive(h, x, scale, w)),
                                 channel.receive(stacked(h), x, scale, stacked(w)))
    ok &= identity_ok

    # quaternion lift closure + eigenvalue pairing, 1e3 instances
    def lift(shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        m1, m2 = z[:, :, :2], z[:, :, 2:]
        return channel.lift_parts((m1.real, m1.imag, m2.real, m2.imag))

    a, b = lift((1000, 2, 4)), lift((1000, 2, 4))
    closure_ok = all(quaternionic_defect(ab) <= 1e-12 for ab in a @ b)
    lam = np.linalg.eigvalsh(a.conj().transpose(0, 2, 1) @ a)[:, ::-1]
    pairing_ok = bool(np.all(np.max(lam[:, 0::2] - lam[:, 1::2], axis=1)
                             < 1e-8 * np.maximum(lam[:, 0], 1e-30)))
    ok &= closure_ok and pairing_ok

    # mismatched eigenvalue bound, 1e4 instances
    mismatched_ok = True
    for _ in range(10_000):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h = rng.standard_normal((rows, cols))
        dx = rng.standard_normal((cols, cols))
        mismatched_ok &= sim.check_mismatched_bound(h, dx)
    ok &= mismatched_ok

    # NVD eigenvalue-product bounds for both built-in orders
    nvd_ok = True
    for build in (lattice.build_hamilton_order, lattice.build_split_order):
        lat = build()
        cb = lattice.shape_codebook(lat, 100.0, 0.5)
        nvd_ok &= sim.check_nvd_product_bound(cb) is None
    ok &= nvd_ok

    # chi-square tail against Monte Carlo at 3 sigma
    chi_ok = True
    mc = np.random.default_rng(99)
    for k in (1, 2, 4):
        samples = mc.chisquare(2 * k, size=10_000_000)
        for x in (0.5, 1.0, 2.0):
            p_hat = float(np.mean(samples > 2 * x))
            p = sim.chi2_tail(x, k)
            se = math.sqrt(p * (1 - p) / samples.size)
            chi_ok &= abs(p_hat - p) <= 3 * se
    ok &= chi_ok

    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    report(8, ok, f"realify={identity_ok} lift_closure={closure_ok} "
                  f"pairing={pairing_ok} mismatched={mismatched_ok} "
                  f"nvd={nvd_ok} chi2_mc={chi_ok}, {elapsed:.0f}s (< 60s)")


def test_criterion_9_laplace_estimator():
    start = time.time()
    grid = [1e6, 1e9, 1e12]
    est_a = dmt.laplace_exponent_estimate([1.0], 0.0, grid)   # forced alpha >= 1
    est_b = dmt.laplace_exponent_estimate([1.0], 1.0, grid)   # unconstrained corner
    prob = dmt.Lemma2Problem(2.0, 2, 0.5)
    target_c, _ = dmt.lemma2_closed_form(prob)
    est_c = dmt.laplace_exponent_estimate(prob.coefficients(), 0.5, grid)
    elapsed = time.time() - start
    ok = (abs(est_a - 1.0) <= 0.05 and abs(est_b - 0.0) <= 0.05
          and abs(est_c - target_c) <= 0.1 and elapsed < 120.0)
    report(9, ok, f"l=1: {est_a:.3f}/1.0, {est_b:.3f}/0.0 (tol 0.05); "
                  f"l=2: {est_c:.3f}/{target_c} (tol 0.1), {elapsed:.0f}s (< 120s)")


def test_criterion_10_error_slope_shaped():
    # ML error at r = 0.5 over the shaped codebooks: the quaternionic order
    # should approach d2 and the real one d1, and d2 > d1 should show as a
    # gap of more than 2 combined standard errors
    start = time.time()
    snr = [25, 30, 35, 40]
    trials = [20_000, 40_000, 80_000, 160_000]
    quat = sim.estimate_error_prob(lattice.build_hamilton_order(),
                                   SystemConfig("quaternion", n=2, m=1, r=0.5),
                                   snr, trials, 20240, weighting="uniform")
    real = sim.estimate_error_prob(lattice.build_split_order(),
                                   SystemConfig("real", n=2, m=1, r=0.5),
                                   snr, trials, 20240, weighting="uniform")
    elapsed = time.time() - start
    d2, d1 = dmt.d2_curve(2, 1)(0.5), dmt.d1_curve(2, 1)(0.5)
    within = abs(quat.slope - d2) <= 0.25 and abs(real.slope - d1) <= 0.2
    not_above = (quat.slope <= d2 + 2 * quat.stderr + 0.2
                 and real.slope <= d1 + 2 * real.stderr + 0.2)
    gap = quat.slope - real.slope
    separated = gap > 2 * math.hypot(quat.stderr, real.stderr)
    ok = within and not_above and separated and elapsed < 60.0
    report(10, ok, f"r=0.5 ML error slopes: quaternion {quat.slope:.3f} ± "
                   f"{quat.stderr:.3f} vs d2={d2} (tol 0.25), real {real.slope:.3f} ± "
                   f"{real.stderr:.3f} vs d1={d1} (tol 0.2), gap {gap:.3f} > "
                   f"{2 * math.hypot(quat.stderr, real.stderr):.3f}, {elapsed:.0f}s (< 60s)")
