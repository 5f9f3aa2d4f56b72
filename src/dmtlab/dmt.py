"""Closed-form diversity-multiplexing tradeoff curves and the exponent
minimization that generates them.

The central object is the linear program

    minimize  f(alpha) = sum_i (q + l + 1 - 2i) * alpha_i
    over      A0(s) = { 0 <= alpha_1 <= ... <= alpha_l,
                        sum_{i<=j} (1 - alpha_i) <= s for every j }

whose closed-form value dbar(s) and minimizer are implemented next to an
independent brute-force grid oracle.  The real-code bound d1 uses s = 2r and
halves the value; the quaternionic bound d2 uses s = r and doubles it.  All
coefficients are positive only when q >= l, which every channel-derived
instance satisfies (q = Delta + l); the problem constructor enforces it.

The curves d* (c = 1, integer r), d1 (c = 2, half-integer r) and d2 (c = 2,
integer r) share one anchor rule, (r, (m - r)(n - c r)) up to its first zero.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

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
        raise ValueError("need n, m >= 1")
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
        raise ValueError("quaternionic bound needs even n")
    return _anchor_curve(n, m, 2, 1)


@dataclass(frozen=True)
class Lemma2Problem:
    """Exponent-minimization instance (q, l, s); q >= l keeps all the
    objective coefficients positive, which the closed form requires."""

    q: float
    l: int
    s: float

    def __post_init__(self):
        if self.l < 1:
            raise ValueError("l must be >= 1")
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


# Entries (rows x columns) a brute-force grid or a curve sample may hold.
GRID_CAP = 4 * 10**6
# r spacing of the sampled curve rows; the anchors give each curve exactly.
CURVE_STEP = 0.01
# (q, l, s) cases one `lemma2-verify` run may check, each a brute-force sweep.
CASE_CAP = 10**4


@lru_cache(maxsize=8)
def _ascending_grid(l, step):
    """All ascending l-tuples over the [0, 1] grid and their full sums of
    (1-a), accumulated in prefix order (the last prefix sum), the rows
    stably sorted by that sum from the lexicographic order."""
    if math.comb(int(min(1.0 / step, GRID_CAP)) + l + 1, l) * l > GRID_CAP:
        raise ValueError(f"--gridstep gives a grid of more than {GRID_CAP} entries")
    ticks = np.array([i * step for i in range(int(1.0 / step) + 1)])
    if ticks[-1] < 1.0:
        ticks = np.append(ticks, 1.0)
    # tick indices column by column, one level at a time: each row is
    # followed by every index from its last one up, so the order stays lexicographic
    cols = [np.arange(len(ticks))]
    for _ in range(1, l):
        counts = len(ticks) - cols[-1]
        starts = np.cumsum(counts) - counts
        cols = [np.repeat(c, counts) for c in cols]
        cols.append(np.arange(len(cols[0])) - np.repeat(starts, counts) + cols[-1])
    gap = 1.0 - ticks
    total = sum(gap[c] for c in cols)  # added left to right, as cumsum rounds
    order = np.argsort(total, kind="stable")
    pts = np.empty((len(order), l))
    for j, c in enumerate(cols):
        pts[:, j] = ticks[c[order]]
    return pts, total[order]


def lemma2_bruteforce(prob, grid_step):
    """Grid-search oracle over A0(s) restricted to the unit box.

    Any feasible coordinate above 1 can be lowered to 1 without losing
    feasibility or increasing f (all coefficients positive for q >= l), so
    the box restriction is exact up to the grid resolution; the result is
    within l*(q+l)*grid_step of the true infimum.  On the box every
    addend 1 - a_i is nonnegative, so the prefix sums never decrease and
    only the last one needs testing against s; the grid is sorted by it, so
    the feasible points are a prefix.
    """
    if not grid_step > 0:
        raise ValueError("grid_step must be positive")
    pts, total = _ascending_grid(prob.l, float(grid_step))
    feasible = pts[:np.searchsorted(total, prob.s + 1e-9, "right")]
    return float((feasible @ prob.coefficients()).min())


def a0_membership(alpha, s):
    """True iff alpha is ascending, nonnegative, with all prefix sums of
    (1 - alpha_i) at most s, each within 1e-12."""
    a = np.asarray(alpha, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("alpha must be a nonempty 1-D sequence")
    return bool(np.all(a >= -1e-12) and np.all(np.diff(a) >= -1e-12)
                and np.all(np.cumsum(1.0 - a) <= s + 1e-12))


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
