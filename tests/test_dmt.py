import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtlab import dmt
from dmtlab.dmt import (Lemma2Problem, a0_membership, classical_dmt, d1_curve,
                        d2_curve, exponent_quaternion, exponent_real,
                        laplace_exponent_estimate, lemma2_bruteforce,
                        lemma2_closed_form)
from lemma2_grid import _ascending_grid, lemma2_grid


# ---------------------------------------------------------------------------
# curves

def test_classical_anchors():
    assert classical_dmt(4, 2).anchors == ((0.0, 8.0), (1.0, 3.0), (2.0, 0.0))
    assert classical_dmt(1, 1).anchors == ((0.0, 1.0), (1.0, 0.0))
    assert classical_dmt(2, 2).anchors == ((0.0, 4.0), (1.0, 1.0), (2.0, 0.0))


def test_d1_anchors():
    assert d1_curve(4, 2).anchors == ((0.0, 8.0), (0.5, 4.5), (1.0, 2.0),
                                      (1.5, 0.5), (2.0, 0.0))
    assert d1_curve(2, 1).anchors == ((0.0, 2.0), (0.5, 0.5), (1.0, 0.0))


def test_d2_anchors():
    assert d2_curve(4, 2).anchors == ((0.0, 8.0), (1.0, 2.0), (2.0, 0.0))
    assert d2_curve(2, 1).anchors == ((0.0, 2.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        d2_curve(3, 2)


def test_curve_interpolation():
    assert d1_curve(4, 2)(0.25) == pytest.approx(6.25, abs=1e-12)
    assert d2_curve(4, 2)(0.5) == pytest.approx(5.0, abs=1e-12)
    assert d2_curve(4, 2)(1.5) == pytest.approx(1.0, abs=1e-12)
    assert classical_dmt(4, 2)(0.5) == pytest.approx(5.5, abs=1e-12)


def test_curve_domain_errors():
    c = d1_curve(2, 1)
    with pytest.raises(ValueError):
        c(-0.1)
    with pytest.raises(ValueError):
        c(1.1)
    with pytest.raises(ValueError):
        c(np.array([0.0, 0.5, 1.1]))


def test_curve_array_matches_scalar_calls():
    # one np.interp over an array gives each point's scalar value bit for bit,
    # clamp within 1e-12 of the domain included
    for c in (classical_dmt(5, 3), d1_curve(6, 4), d2_curve(8, 3)):
        rs = np.concatenate([np.linspace(c.r_min, c.r_max, 257),
                             [c.r_min - 1e-13, c.r_max + 1e-13, 0.37, 1.0]])
        values = c(rs)
        assert isinstance(values, np.ndarray) and values.shape == rs.shape
        assert values.tolist() == [c(float(r)) for r in rs]
        assert isinstance(c(0.5), float)


def test_curve_anchor_validation():
    with pytest.raises(ValueError):
        dmt.PiecewiseLinearCurve(((0.0, 1.0),))
    with pytest.raises(ValueError):
        dmt.PiecewiseLinearCurve(((0.0, 1.0), (1.0, 2.0), (2.0, 0.0)))
    with pytest.raises(ValueError):
        dmt.PiecewiseLinearCurve(((0.0, 1.0), (1.0, 0.5)))


def test_anchor_identity_sweep():
    # every anchor value equals max(0, (m-r)(n-2r)) exactly
    for n in range(1, 9):
        for m in range(1, 9):
            for r, d in d1_curve(n, m).anchors:
                assert d == max(0.0, (m - r) * (n - 2 * r))
            if n % 2 == 0:
                for r, d in d2_curve(n, m).anchors:
                    assert d == max(0.0, (m - r) * (n - 2 * r))


def test_curve_ordering_d1_d2_dstar():
    for n in (2, 4, 6, 8):
        for m in range(1, 9):
            fam = dmt.curve_family(n, m)
            r_max = min(c.r_max for c in fam.values())
            for r in np.linspace(0.0, r_max, 101):
                v1 = fam["d1"](r)
                v2 = fam["d2"](r)
                vs = fam["d_star"](r)
                assert v1 <= v2 + 1e-12
                assert v2 <= vs + 1e-12


# ---------------------------------------------------------------------------
# lemma2

def test_lemma2_problem_validation():
    with pytest.raises(ValueError):
        Lemma2Problem(q=1.0, l=3, s=0.5)  # q < l diverges
    with pytest.raises(ValueError):
        Lemma2Problem(q=3.0, l=2, s=2.5)  # s out of range
    with pytest.raises(ValueError):
        Lemma2Problem(q=3.0, l=0, s=0.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_lemma2_problem_rejects_non_finite_q(q):
    # a NaN or infinite q is named before any closed form or oracle sees it
    with pytest.raises(ValueError, match=r"q=.* must be finite"):
        Lemma2Problem(q=q, l=2, s=1.0)


def test_lemma2_closed_form_examples():
    v, a = lemma2_closed_form(Lemma2Problem(2.0, 2, 0.0))
    assert v == pytest.approx(4.0, abs=1e-12) and np.allclose(a, [1, 1], atol=0)
    v, a = lemma2_closed_form(Lemma2Problem(2.0, 2, 2.0))
    assert v == pytest.approx(0.0, abs=1e-12) and np.allclose(a, [0, 0], atol=0)
    v, a = lemma2_closed_form(Lemma2Problem(2.0, 2, 0.5))
    assert v == pytest.approx(2.5, abs=1e-12) and np.allclose(a, [0.5, 1.0], atol=1e-15)


def test_lemma2_bruteforce_examples():
    # the grid oracle of the tests, within its resolution
    assert lemma2_grid(Lemma2Problem(2.0, 2, 0.0), 0.01) == pytest.approx(4.0, abs=0.05)
    # 1-D exhaustive scan: value (-3-1+1)*0.5 + 3 = 1.5
    assert lemma2_grid(Lemma2Problem(3.0, 1, 0.5), 0.001) == pytest.approx(1.5, abs=0.01)
    v, _ = lemma2_closed_form(Lemma2Problem(4.0, 3, 1.5))
    assert lemma2_grid(Lemma2Problem(4.0, 3, 1.5), 0.02) == pytest.approx(v, abs=0.3)


@pytest.mark.parametrize("step", [math.inf, math.nan, 0.0, -0.1])
def test_lemma2_bruteforce_rejects_bad_step(step):
    # at an infinite step the grid's only tick is 0 * inf = nan
    with pytest.raises(ValueError, match="grid_step must be positive and finite"):
        lemma2_grid(Lemma2Problem(2.0, 2, 1.0), step)


def test_lemma2_oracle_exact_examples():
    # vertex values by hand: v_2 = (1, 1) has f = 4 at q = l = 2; at s = 0.5
    # the edge [v_1, v_2] meets sum(a) = 1.5 at (0.5, 1), f = 1.5 + 1 = 2.5
    assert lemma2_bruteforce(Lemma2Problem(2.0, 2, 0.0)) == 4.0
    assert lemma2_bruteforce(Lemma2Problem(2.0, 2, 0.5)) == 2.5
    assert lemma2_bruteforce(Lemma2Problem(2.0, 2, 2.0)) == 0.0
    assert lemma2_bruteforce(Lemma2Problem(3.0, 1, 0.5)) == 1.5
    # q and s need not be integers or dyadic: at l = 1, f = q a_1 is least at
    # a_1 = 1 - s, rounded once from the exact rational
    assert lemma2_bruteforce(Lemma2Problem(2.5, 1, 0.1)) == float(
        Fraction(2.5) * (1 - Fraction(0.1)))


def test_lemma2_oracle_exact_sweep():
    # criterion 2's 178 cases and every s on the 1/8 grid for l <= 12,
    # q < 30: 13,980 cases, where the closed form and the oracle agree to
    # 1e-12 (in fact exactly)
    start = time.perf_counter()
    cases = [(l, q, 0.25 * i) for l in range(1, 5) for q in range(l, 7)
             for i in range(4 * l + 1)]
    cases += [(l, q, i / 8) for l in range(1, 13) for q in range(l, 30)
              for i in range(8 * l + 1)]
    assert len(cases) == 178 + 13_802
    for l, q, s in cases:
        prob = Lemma2Problem(float(q), l, s)
        assert abs(lemma2_bruteforce(prob) - lemma2_closed_form(prob)[0]) <= 1e-12, (q, l, s)
    assert time.perf_counter() - start < 2.0


def test_lemma2_cases_lie_on_the_step_grid():
    # each s is one product min(k sstep, l), so at sstep 0.1 every l ends at
    # s = l exactly; summing 0.1 drifts (to 11.999999999999973 at l = 12)
    cases = dmt.lemma2_cases(12, 12, 0.1)
    assert len(cases) == sum((13 - l) * (10 * l + 1) for l in range(1, 13)) == 3718
    sweeps = {}
    for prob in cases:
        sweeps.setdefault((prob.l, prob.q), []).append(prob.s)
    assert list(sweeps) == [(l, float(q)) for l in range(1, 13) for q in range(l, 13)]
    for (l, _), ss in sweeps.items():
        assert ss == [min(k * 0.1, float(l)) for k in range(10 * l + 1)] and ss[-1] == l
    # the benchmark's 0.25 grid is exact in binary: criterion 2's 178 cases
    assert [(p.q, p.l, p.s) for p in dmt.lemma2_cases(6, 4, 0.25)] == [
        (float(q), l, 0.25 * i) for l in range(1, 5) for q in range(l, 7)
        for i in range(4 * l + 1)]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 10), st.floats(0.0, 20.0), st.floats(0.0, 1.0))
def test_lemma2_oracle_matches_closed_form_off_grid(l, excess, share):
    # any float q >= l and s in [0, l]: the closed form, rounded a few times
    # in floats, stays within a relative 1e-12 of the exact oracle
    prob = Lemma2Problem(l + excess, l, share * l)
    value, _ = lemma2_closed_form(prob)
    assert abs(lemma2_bruteforce(prob) - value) <= 1e-12 * max(1.0, prob.q * l)


# the criterion-2 values of s and some off the quarter grid
S_SWEEP = [0.25 * i for i in range(17)] + [0.1, 0.33, 0.9, 1.37, 2.71, 3.9]


@pytest.mark.parametrize("step", [0.02, 0.05, 0.07, 0.3, 0.5, 1.0])
def test_ascending_grid_matches_itertools(step):
    # the lexicographic tuples, as small-integer tick indices, and their
    # totals, the cumsum of (1 - a); the permutation sorts the totals, and
    # the rows up to s are those of total at most s, ties included.  At 0.07
    # and 0.3 the last tick falls short of 1 and 1.0 is appended
    ticks = [i * step for i in range(int(1.0 / step) + 1)]
    if ticks[-1] < 1.0:
        ticks.append(1.0)
    for l in range(1, 5):
        ref = np.array(list(itertools.combinations_with_replacement(ticks, l)))
        ref_total = np.cumsum(1.0 - ref, axis=1)[:, -1]
        grid_ticks, rows, order, totals = _ascending_grid(l, step)
        assert rows.dtype == np.uint8 and np.array_equal(grid_ticks[rows], ref)
        assert np.array_equal(np.sort(order), np.arange(len(ref)))
        lex_total = np.empty_like(totals)
        lex_total[order] = totals
        assert np.array_equal(lex_total, ref_total) and np.all(np.diff(totals) >= 0)
        for s in (s for s in S_SWEEP if s <= l):
            taken = order[:np.searchsorted(totals, s + 1e-9, "right")]
            assert np.array_equal(np.sort(taken), np.flatnonzero(ref_total <= s + 1e-9))


def test_lemma2_bruteforce_matches_masked_min():
    # the criterion-2 sweep, s off the quarter grid, and grids with the
    # appended 1.0 tick (0.07, 0.3): the running minimum read at the end of
    # the feasible prefix is the minimum over the rows of total at most s
    for step, l in itertools.product([0.02, 0.05, 0.07, 0.3], range(1, 5)):
        ticks, rows, order, totals = _ascending_grid(l, step)
        pts = ticks[rows]
        lex_total = np.empty_like(totals)
        lex_total[order] = totals
        for q in range(l, 7):
            for s in (s for s in S_SWEEP if s <= l):
                prob = Lemma2Problem(float(q), l, s)
                ref = float((pts[lex_total <= s + 1e-9] @ prob.coefficients()).min())
                assert lemma2_grid(prob, step) == ref


def test_lemma2_oracle_agreement_sweep():
    step = 0.05
    for l in range(1, 4):
        for q in range(l, 5):
            for s in [0.25 * i for i in range(4 * l + 1)]:
                prob = Lemma2Problem(float(q), l, s)
                value, alpha = lemma2_closed_form(prob)
                brute = lemma2_grid(prob, step)
                assert abs(value - brute) <= l * (q + l) * step
                assert a0_membership(alpha, s)
                assert float(prob.coefficients() @ alpha) == pytest.approx(value, abs=1e-12)


def test_lemma2_boundary_continuity():
    # both floor branches agree at integer s
    for q in (2.0, 3.0, 5.0):
        for l in (2, 3, 4):
            if q < l:
                continue
            for j in range(1, l + 1):
                left = (-q - l + 2 * (j - 1) + 1) * j + q * l - (j - 1) * j
                right = (-q - l + 2 * j + 1) * j + q * l - j * (j + 1)
                assert left == pytest.approx(right, abs=1e-12)
                v, _ = lemma2_closed_form(Lemma2Problem(q, l, float(j)))
                assert v == pytest.approx(right, abs=1e-12)


def test_box_reduction_preserves_feasibility():
    # clipping feasible coordinates above 1 down to 1 stays feasible and
    # cannot increase the objective (all coefficients positive when q >= l)
    rng = np.random.default_rng(0)
    for _ in range(200):
        l = int(rng.integers(1, 5))
        q = float(rng.integers(l, l + 4))
        s = float(rng.uniform(0, l))
        alpha = np.sort(rng.uniform(0, 3, size=l))
        if not a0_membership(alpha, s):
            continue
        clipped = np.minimum(alpha, 1.0)
        coeffs = Lemma2Problem(q, l, s).coefficients()
        assert a0_membership(clipped, s)
        assert coeffs @ clipped <= coeffs @ alpha + 1e-12


# ---------------------------------------------------------------------------
# a0_membership

def test_a0_membership_examples():
    assert a0_membership([1.0, 1.0, 1.0], 0.0)
    assert not a0_membership([-0.1, 1.0], 5.0)
    _, alpha = lemma2_closed_form(Lemma2Problem(2.0, 2, 0.5))
    assert a0_membership(alpha, 0.5)


def test_a0_membership_needs_ordering():
    assert not a0_membership([1.0, 0.5], 5.0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5), st.floats(0.0, 5.0))
def test_a0_membership_two_characterizations(values, s):
    alpha = np.sort(np.array(values))
    # second form: sum of clipped shortfalls (valid for ascending nonnegative)
    form_b = float(np.sum(np.clip(1.0 - alpha, 0.0, None))) <= s + 1e-12
    assert a0_membership(alpha, s) == form_b


# ---------------------------------------------------------------------------
# exponents

def test_exponent_real_examples():
    assert exponent_real(2, 1, 0.0) == pytest.approx(2.0, abs=1e-12)
    assert exponent_real(2, 1, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert exponent_real(4, 2, 0.75) == pytest.approx(d1_curve(4, 2)(0.75), abs=1e-12)
    with pytest.raises(ValueError):
        exponent_real(2, 1, 1.2)


def test_exponent_quaternion_examples():
    assert exponent_quaternion(4, 2, 0.0) == pytest.approx(8.0, abs=1e-12)
    assert exponent_quaternion(4, 2, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert exponent_quaternion(4, 2, 1.0) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        exponent_quaternion(3, 2, 0.5)


def test_exponent_matches_curves_small():
    curve = d1_curve(2, 1)
    for r in np.linspace(0.0, curve.r_max, 51):
        assert exponent_real(2, 1, r) == pytest.approx(curve(r), abs=1e-12)
    qcurve = d2_curve(2, 1)
    for r in np.linspace(0.0, qcurve.r_max, 51):
        assert exponent_quaternion(2, 1, r) == pytest.approx(qcurve(r), abs=1e-12)


def test_exponent_closed_form_certified_by_oracle(monkeypatch):
    # criterion 3's exponent == curve identity rests on the closed form: it
    # equals the exact vertex oracle on every (q, l, s) that exponent_real
    # and exponent_quaternion reach at 201 r per curve, for every n and m up
    # to 12 (quaternion: p = n / 2 up to 12), which gives every l <= 12
    seen = set()
    closed_form = dmt.lemma2_closed_form

    def spy(prob):
        seen.add(prob)
        return closed_form(prob)
    monkeypatch.setattr(dmt, "lemma2_closed_form", spy)
    for k, m in itertools.product(range(1, 13), repeat=2):
        for r in np.linspace(0.0, min(2 * m, k) / 2, 201):
            exponent_real(k, m, r)
        for r in np.linspace(0.0, min(m, k), 201):
            exponent_quaternion(2 * k, m, r)
    assert {(p.q, p.l) for p in seen} >= {(q, l) for l in range(1, 13) for q in range(l, 13)}
    worst = max(abs(closed_form(p)[0] - lemma2_bruteforce(p)) for p in seen)
    assert worst <= 1e-12


def test_exponent_weights_consistency():
    # dbar(2r)/2 equals sum N_i alpha*_i with N_i = (Delta + 2l - 2i + 1)/2
    for n, m in ((2, 1), (4, 2), (6, 2), (4, 3)):
        l = min(2 * m, n)
        delta = abs(n - 2 * m)
        weights = np.array([(delta + 2 * l - 2 * i + 1) / 2.0 for i in range(1, l + 1)])
        for r in np.linspace(0.0, l / 2.0, 21):
            value, alpha = lemma2_closed_form(Lemma2Problem(float(delta + l), l, 2 * r))
            assert float(weights @ alpha) == pytest.approx(value / 2.0, abs=1e-12)


# ---------------------------------------------------------------------------
# laplace estimator

def test_laplace_forced_infimum():
    grid = [1e6, 1e9, 1e12]
    assert laplace_exponent_estimate([1.0], 0.0, grid) == pytest.approx(1.0, abs=0.05)


def test_laplace_unconstrained_zero():
    grid = [1e6, 1e9, 1e12]
    assert laplace_exponent_estimate([1.0], 1.0, grid) == pytest.approx(0.0, abs=0.05)


def test_laplace_two_point_grid():
    est = laplace_exponent_estimate([1.0], 0.0, [1e8, 1e12])
    assert est == pytest.approx(1.0, abs=0.06)


def test_laplace_three_dimensional():
    prob = Lemma2Problem(q=5.0, l=3, s=1.5)
    target, _ = lemma2_closed_form(prob)
    est = laplace_exponent_estimate(prob.coefficients(), 1.5, [1e6, 1e9, 1e12])
    assert est == pytest.approx(target, abs=0.1)


def test_laplace_validation():
    with pytest.raises(ValueError):
        laplace_exponent_estimate([1.0, 1.0, 1.0, 1.0], 0.5, [1e6, 1e9])
    with pytest.raises(ValueError):
        laplace_exponent_estimate([1.0], 0.5, [1e6])
    with pytest.raises(ValueError):
        laplace_exponent_estimate([1.0], 0.5, [10.0, 100.0])


# ---------------------------------------------------------------------------
# export

def test_sample_curves_rows():
    fam, rows = dmt.sample_curves(4, 2)
    assert fam == dmt.curve_family(4, 2)
    assert rows.shape == (201, 4)
    assert rows[::50].tolist() == [[0.0, 8.0, 8.0, 8.0], [0.5, 5.5, 4.5, 5.0],
                                   [1.0, 3.0, 2.0, 2.0], [1.5, 1.5, 0.5, 1.0],
                                   [2.0, 0.0, 0.0, 0.0]]
    # the grid steps by CURVE_STEP and ends at min(m, n/2) exactly
    for n, m in ((2, 1), (6, 3), (8, 1), (40, 7)):
        _, rows = dmt.sample_curves(n, m)
        assert rows[:, 0].tolist() == [k * dmt.CURVE_STEP for k in range(len(rows))]
        assert rows[-1, 0] == min(m, n / 2)


def test_curve_to_json():
    data = d2_curve(4, 2).to_json("d2")
    assert data == {"curve": "d2", "anchors": [[0.0, 8.0], [1.0, 2.0], [2.0, 0.0]]}


@pytest.mark.parametrize("call,match", [
    (lambda: dmt.PiecewiseLinearCurve(((0.0, 2.0), (0.0, 1.0))), "strictly increasing"),
    (lambda: a0_membership([[0.1, 0.2]], 1.0), "nonempty 1-D"),
    (lambda: a0_membership([], 1.0), "nonempty 1-D"),
    (lambda: dmt.exponent_quaternion(4, 2, 2.5), r"r=2.5 outside \[0, 2\]"),
    (lambda: dmt.laplace_exponent_estimate([1.0], -5.0, [1e6, 1e9]),
     "integration domain is empty")],
    ids=["anchors-r", "alpha-2d", "alpha-empty", "quaternion-r", "laplace-empty"])
def test_dmt_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()
