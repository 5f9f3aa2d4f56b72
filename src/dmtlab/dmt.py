"""Closed-form diversity-multiplexing tradeoff curves and the exponent
minimization that generates them.

The central object is the linear program

    minimize  f(alpha) = sum_i (q + l + 1 - 2i) * alpha_i
    over      A0(s) = { 0 <= alpha_1 <= ... <= alpha_l,
                        sum_{i<=j} (1 - alpha_i) <= s for every j }

whose closed-form value dbar(s) and minimizer are implemented next to an
independent exact oracle, which enumerates the vertices of A0(s) on the unit
box.  The real-code bound d1 uses s = 2r and halves the value; the
quaternionic bound d2 uses s = r and doubles it.  All coefficients are
positive only when q >= l, which every channel-derived instance satisfies
(q = Delta + l); the problem constructor enforces it, and the oracle's
restriction to the unit box needs it.

The curves d* (c = 1, integer r), d1 (c = 2, half-integer r) and d2 (c = 2,
integer r) share one anchor rule, (r, (m - r)(n - c r)) up to its first zero.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PiecewiseLinearCurve:
    """Anchor list (r_i, d_i) evaluated by linear interpolation."""

    anchors: tuple

    def __post_init__(self):
        if len(self.anchors) < 2:
            raise ValueError("need at least 2 anchors")
        rs = [a[0] for a in self.anchors]
        ds = [a[1] for a in self.anchors]
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("anchor r values must be strictly increasing")
        if any(b > a + 1e-12 for a, b in zip(ds, ds[1:])):
            raise ValueError("anchor d values must be nonincreasing")
        if abs(ds[-1]) > 1e-12:
            raise ValueError("final anchor must have d = 0")

    @property
    def r_min(self):
        return self.anchors[0][0]

    @property
    def r_max(self):
        return self.anchors[-1][0]

    def __call__(self, r):
        """d at a scalar r (as a float) or at each point of an array r."""
        r = np.asarray(r, dtype=float)
        if r.size and (r.min() < self.r_min - 1e-12 or r.max() > self.r_max + 1e-12):
            raise ValueError(f"r={r} outside the curve domain "
                             f"[{self.r_min}, {self.r_max}]")
        rs, ds = np.array(self.anchors).T
        d = np.interp(np.clip(r, self.r_min, self.r_max), rs, ds)
        return float(d) if d.ndim == 0 else d

    def to_json(self, name):
        return {"curve": name, "anchors": [[float(r), float(d)] for r, d in self.anchors]}


def _anchor_curve(n, m, c, step):
    """Anchors (k step, (m - k step)(n - c k step)) for k = 0 ... min(m, n/c)/step."""
    if n < 1 or m < 1:
        raise ValueError(f"--n/--m must be >= 1, got n={n}, m={m}")
    if n * m > sys.float_info.max:  # the first anchor's d, m n, must be a float
        raise ValueError("--n/--m give n * m beyond the float range")
    anchors = [(float(k * step), float((m - k * step) * (n - c * (k * step))))
               for k in range(int(min(c * m, n) / (c * step)) + 1)]
    return PiecewiseLinearCurve(tuple(anchors))


def classical_dmt(n, m):
    """Optimal tradeoff of the unconstrained channel: (k, (m-k)(n-k)) anchors."""
    return _anchor_curve(n, m, 1, 1)


def d1_curve(n, m):
    """Upper bound for real-matrix codes: (r, [(m-r)(n-2r)]+) at half-integer r."""
    return _anchor_curve(n, m, 2, 0.5)


def d2_curve(n, m):
    """Upper bound for quaternionic codes: (r, [(m-r)(n-2r)]+) at integer r."""
    if n % 2:
        raise ValueError(f"--n: the quaternionic bound d2 needs even n, got {n}")
    return _anchor_curve(n, m, 2, 1)


@dataclass(frozen=True)
class Lemma2Problem:
    """Exponent-minimization instance (q, l, s); q >= l keeps all the
    objective coefficients positive, which the closed form requires, and q
    must be finite."""

    q: float
    l: int
    s: float

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if not math.isfinite(self.q):
            raise ValueError(f"q={self.q} must be finite")
        if self.q < self.l:
            raise ValueError(f"q={self.q} < l={self.l}: objective coefficients "
                             "would go negative and the infimum diverges")
        if not 0 <= self.s <= self.l:
            raise ValueError(f"s={self.s} outside [0, l={self.l}]")

    def coefficients(self):
        return np.array([self.q + self.l + 1 - 2 * i for i in range(1, self.l + 1)])


def lemma2_closed_form(prob):
    """Closed-form minimum and minimizer of f over A0(s).

    Value: (-q - l + 2*floor(s) + 1)*s + q*l - floor(s)*(floor(s)+1).
    Minimizer: zeros up to index k-1, then k - s, then ones, with
    k = floor(s) + 1 (all zeros when s = l).
    """
    q, l, s = prob.q, prob.l, prob.s
    fs = math.floor(s + 1e-12)
    value = (-q - l + 2 * fs + 1) * s + q * l - fs * (fs + 1)
    alpha = np.zeros(l)
    k = fs + 1
    if k <= l:
        alpha[k - 1] = k - s
        alpha[k:] = 1.0
    return float(value), alpha


# Entries (rows x columns) a curve sample may hold.
GRID_CAP = 4 * 10**6
# r spacing of the sampled curve rows; the anchors give each curve exactly.
CURVE_STEP = 0.01
# (q, l, s) cases one `lemma2-verify` run may check, each an exact oracle call.
CASE_CAP = 10**4


def lemma2_cases(qmax, lmax, sstep):
    """The (q, l, s) problems of a Lemma-2 sweep, for l in 1..lmax, q in
    l..qmax and s = min(k sstep, l) for k = 0 .. floor((l + 1e-12) / sstep),
    in that order.  Each s is one product, so no sum drifts off the grid.
    Bounds that leave no case, a step that is not positive and finite, or
    about more than CASE_CAP cases are rejected before any case is built."""
    if qmax < 1 or lmax < 1:
        raise ValueError(f"--qmax/--lmax must be >= 1 (an empty sweep checks nothing), "
                         f"got {qmax}, {lmax}")
    if not (sstep > 0 and math.isfinite(sstep)):
        raise ValueError(f"--sstep must be positive and finite, got {sstep:g}")
    # about l / sstep + 1 values of s for each q in l..qmax; no case has l > qmax
    ls = range(1, min(lmax, qmax) + 1)
    if len(ls) > CASE_CAP or sum((qmax - l + 1) * (l / sstep + 1) for l in ls) > CASE_CAP:
        raise ValueError(f"--sstep/--qmax/--lmax give more than {CASE_CAP} cases")
    return [Lemma2Problem(float(q), l, min(k * sstep, float(l))) for l in ls
            for q in range(l, qmax + 1) for k in range(math.floor((l + 1e-12) / sstep) + 1)]


def lemma2_bruteforce(prob):
    """Exact minimum of f over A0(s), by enumerating the vertices of the
    feasible polytope; independent of the closed form's floor formula.

    Any feasible coordinate above 1 can be lowered to 1 without losing
    feasibility or increasing f (all coefficients positive for q >= l), so
    the minimum is taken on the unit box.  There every addend 1 - a_i is
    nonnegative, the prefix sums never decrease and A0(s) is the chain
    simplex 0 <= a_1 <= ... <= a_l <= 1 cut by sum(a) >= t = l - s.  The
    simplex's vertices v_j have j trailing ones (sum j), and every two of
    them span an edge, so the cut polytope's vertices are the v_j with
    j >= t and the points where an edge [v_j, v_k], j < t < k, crosses
    sum(a) = t; the linear f attains its minimum at one of them.  A float q
    or s is a ratio of integers, so every candidate is evaluated exactly, in
    integers, and the least is rounded to a float once.
    """
    l = prob.l
    # q = qn / qd and s = sn / sd exactly; f(v_j) and t are kept times d
    qn, qd = float(prob.q).as_integer_ratio()
    sn, sd = float(prob.s).as_integer_ratio()
    d = qd * sd
    t = l * d - sn * qd
    # f(v_j): the last j coefficients q + l + 1 - 2i, i = l, l - 1, ...
    f = [0]
    for i in range(l, 0, -1):
        f.append(f[-1] + qn * sd + (l + 1 - 2 * i) * d)
    # v_j lies in A0(s) from j = lo on, and strictly beyond the cut from j = hi on
    lo, hi = -(-t // d), t // d + 1
    # [v_j, v_k] crosses the cut at f(v_j) + (t - j)(f(v_k) - f(v_j)) / (k - j):
    # times d^2 m, with m = lcm(1, ..., l), every candidate is an integer
    m = math.lcm(*range(1, l + 1))
    best = min(f[lo:]) * d * m  # never empty: t <= l
    for j in range(lo):
        for k in range(hi, l + 1):
            best = min(best, f[j] * d * m + (t - j * d) * (f[k] - f[j]) * (m // (k - j)))
    return best / (d * d * m)  # int / int rounds once, correctly


def a0_membership(alpha, s):
    """True iff alpha is ascending, nonnegative, with all prefix sums of
    (1 - alpha_i) at most s, each within 1e-12."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alpha must be a nonempty 1-D sequence")
    # on Python floats, which for a few entries cost less than numpy calls;
    # accumulate adds in order, as cumsum does, so every verdict is the same
    a = a.tolist()
    return (all(v >= -1e-12 for v in a) and all(y - x >= -1e-12 for x, y in zip(a, a[1:]))
            and all(p <= s + 1e-12 for p in itertools.accumulate(1.0 - v for v in a)))


def exponent_real(n, m, r):
    """Real-code outage exponent dbar(2r)/2; equals d1_curve(n, m) at r."""
    l = min(2 * m, n)
    delta = abs(n - 2 * m)
    if not 0 <= 2 * r <= l:
        raise ValueError(f"r={r} outside [0, {l / 2}]")
    value, _ = lemma2_closed_form(Lemma2Problem(q=delta + l, l=l, s=2 * r))
    return value / 2.0


def exponent_quaternion(n, m, r):
    """Quaternionic-code outage exponent 2*dbar(r); equals d2_curve(n, m) at r."""
    if n % 2:
        raise ValueError("quaternionic exponent needs even n")
    p = n // 2
    l = min(m, p)
    delta = abs(p - m)
    if not 0 <= r <= l:
        raise ValueError(f"r={r} outside [0, {l}]")
    value, _ = lemma2_closed_form(Lemma2Problem(q=delta + l, l=l, s=float(r)))
    return 2.0 * value


def laplace_exponent_estimate(coeffs, s, rho_grid):
    """SNR exponent of the integral of rho^(-sum N_i alpha_i) over A0(s).

    Midpoint rule over A0(s) intersected with [0, 2]^l (step 0.01 per
    dimension, l <= 3), then a regression of -log(integral) on
    log(rho).  With three or more grid points a log(log rho) regressor is
    included: the integral carries a polylog-in-rho prefactor whose slope
    bias decays only logarithmically, and modeling it out recovers the
    infimum exponent already at moderate SNR.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    l = coeffs.size
    if l > 3:
        raise ValueError("estimator caps the dimension at l = 3")
    rho_grid = [float(r) for r in rho_grid]
    if len(rho_grid) < 2 or any(b <= a for a, b in zip(rho_grid, rho_grid[1:])):
        raise ValueError("rho_grid must be increasing with >= 2 entries")
    if rho_grid[0] < 1e3:
        raise ValueError("rho_grid entries must be >= 1e3")

    centers = (np.arange(200) + 0.5) * 0.01  # midpoints spanning [0, 2]
    # exponents coeffs . alpha of the grid points in A0(s), by first coordinate
    rest = np.array(list(itertools.product(centers, repeat=l - 1)))
    exps = []
    for c in centers:
        g = np.column_stack([np.full(len(rest), c), rest])
        mem = (np.all(np.diff(g, axis=1) >= 0, axis=1)
               & np.all(np.cumsum(1.0 - g, axis=1) <= s, axis=1))
        exps.append(g[mem] @ coeffs)
    exps = np.concatenate(exps)
    if not exps.size:
        raise ValueError("integration domain is empty")

    def log_integral(rho):
        # max-shifted accumulation: rho^(-f) underflows for steep exponents
        vals = -math.log(rho) * exps
        peak = vals.max()
        return peak + math.log(np.exp(vals - peak).sum()) + l * math.log(0.01)

    x = np.log(np.array(rho_grid))
    y = np.array([-log_integral(r) for r in rho_grid])
    if len(rho_grid) >= 3:
        design = np.stack([x, np.log(x), np.ones_like(x)], axis=1)
        sol, *_ = np.linalg.lstsq(design, y, rcond=None)
        return float(sol[0])
    return float((y[1] - y[0]) / (x[1] - x[0]))


# ---------------------------------------------------------------------------
# Curve export

def curve_family(n, m):
    """The three curves of one antenna configuration (needs even n for d2)."""
    return {"d_star": classical_dmt(n, m), "d1": d1_curve(n, m), "d2": d2_curve(n, m)}


def sample_curves(n, m):
    """The curve family of (n, m) and its rows (r, d_star, d1, d2) at r = 0,
    CURVE_STEP, 2 CURVE_STEP, ... up to min(m, n/2), where d1 and d2 reach 0.
    The grid is bounded before any curve is built."""
    r_max = min(2 * m, n, 2 * GRID_CAP) / 2  # min in ints: --n/--m may exceed a float
    rows = round(r_max / CURVE_STEP) + 1
    if rows * 4 > GRID_CAP:
        raise ValueError(f"--n/--m give a curve grid of more than {GRID_CAP} entries")
    fam = curve_family(n, m)
    # r_max is a half-integer, which (rows - 1) CURVE_STEP rounds to exactly
    grid = np.arange(rows) * CURVE_STEP
    return fam, np.column_stack([grid] + [fam[name](grid) for name in ("d_star", "d1", "d2")])
