"""Grid-search oracle for the Lemma-2 exponent minimization, kept for the
tests: criterion 2 reports its worst gap to the closed form as a share of
the grid's tolerance l (q + l) step.  `dmt.lemma2_bruteforce`, the library's
oracle, is exact; this one is an independent check of a different kind.
"""

import math
from functools import lru_cache

import numpy as np

from dmtlab import dmt

# Rows of the oracle's grid whose floats are gathered for one product: 2 MiB at l = 4.
ORACLE_BLOCK_ROWS = 2**16


@lru_cache(maxsize=8)
def _ascending_grid(l, step):
    """The ascending l-tuples over the [0, 1] grid at `step`: (ticks, rows,
    order, totals).  `rows` holds tick indices in lexicographic order, in
    the smallest integer type that indexes `ticks`.  A row's total is its
    sum of (1 - a), added left to right as cumsum adds (its last prefix
    sum); `order` sorts the rows by total and `totals` is sorted.  Tie order
    is left to argsort: the oracle takes every row up to a bound, ties
    included, so the rows it reads are the same set whatever their order."""
    ticks = np.array([i * step for i in range(int(1.0 / step) + 1)])
    if ticks[-1] < 1.0:
        ticks = np.append(ticks, 1.0)
    index = np.min_scalar_type(len(ticks) - 1)
    # tick indices column by column, one level at a time: each row is
    # followed by every index from its last one up, so the order stays lexicographic
    cols = [np.arange(len(ticks), dtype=index)]
    for _ in range(1, l):
        counts = len(ticks) - cols[-1].astype(np.intp)
        starts = np.cumsum(counts) - counts
        cols = [np.repeat(c, counts) for c in cols]
        cols.append((np.arange(len(cols[0])) - np.repeat(starts, counts)
                     + cols[-1]).astype(index))
    rows = np.column_stack(cols)
    del cols
    gap = 1.0 - ticks
    total = gap[rows[:, 0]]
    for j in range(1, l):  # added left to right, as cumsum rounds
        total += gap[rows[:, j]]
    order = np.argsort(total)
    return ticks, rows, order, total[order]


@lru_cache(maxsize=1)
def _running_min(step, coefficients):
    """Running minimum of f over the grid's rows in the order of their
    totals, for the objective `coefficients` (a tuple): entry k is the
    least f of the k + 1 rows of smallest total.  Each row is evaluated
    once, `ORACLE_BLOCK_ROWS` at a time; one entry is cached, since a sweep
    walks s innermost for each (l, q)."""
    ticks, rows, order, _ = _ascending_grid(len(coefficients), step)
    coefficients = np.array(coefficients)
    values = np.empty(len(rows))
    for lo in range(0, len(rows), ORACLE_BLOCK_ROWS):
        block = rows[lo:lo + ORACLE_BLOCK_ROWS]
        values[lo:lo + len(block)] = ticks[block] @ coefficients
    values = values[order]
    return np.minimum.accumulate(values, out=values)


def lemma2_grid(prob, grid_step):
    """Grid-search oracle over A0(s) restricted to the unit box.

    Any feasible coordinate above 1 can be lowered to 1 without losing
    feasibility or increasing f (all coefficients positive for q >= l), so
    the box restriction is exact up to the grid resolution; the result is
    within l*(q+l)*grid_step of the true infimum.  On the box every
    addend 1 - a_i is nonnegative, so the prefix sums never decrease and
    only the last one needs testing against s; the feasible points are the
    rows of total at most s, a prefix of the grid sorted by total, and the
    minimum over them is one entry of the running minimum of f over that
    order.  The prefix is never empty: the all-ones row has total 0.
    """
    step = float(grid_step)
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"grid_step must be positive and finite, got {step:g}")
    # counted on every call, before any cached grid is looked up
    if math.comb(int(min(1.0 / step, dmt.GRID_CAP)) + prob.l + 1, prob.l) * prob.l > dmt.GRID_CAP:
        raise ValueError(f"--gridstep gives a grid of more than {dmt.GRID_CAP} entries")
    totals = _ascending_grid(prob.l, step)[3]
    best = _running_min(step, tuple(prob.coefficients().tolist()))
    return float(best[np.searchsorted(totals, prob.s + 1e-9, "right") - 1])
