"""Monte Carlo machinery: Wishart spectra, outage and ML-error estimation,
tail bounds, and log-log slope fits that turn probability sweeps into
empirical diversity estimates.  Channel draws, the rates' and spectra's
Grams, log-determinants and capacities all come from the batched layer in
`channel`.

A spectrum is an (N, l) array of descending eigenvalues, one draw per row,
as the Wishart samplers return it.

Both estimators read mode, antenna counts and multiplexing gain from one
`channel.SystemConfig`, which validated them when it was built.  Both run
through `_sweep`, which alone checks the thread cap, the SNR grid, the
trial counts and a chunk's array budget, runs the chunks of every SNR
point on the calling thread and workers - 1 pool threads, and fits the
slope to the summed integer events
(`fit_slope`, NaN below two usable SNRs); an estimator supplies only its
per-point event counter, which draws a chunk whole in the shape
`SystemConfig.block_shape` gives and returns the events of any rows of it,
and the price of a row's arrays.  That price is stated once, from the block
shape (`_row_bytes`): 8 times the larger of a drawn row's entries and the
reals of the widest array derived from a row.  Outage sweeps and the
Wishart samplers hold one draw and its Gram (`channel.gram`); an ML-error
chunk holds two draws, channel and noise, and the decoder's 2 n^2
features, so its row costs 8 max(2 drawn entries, 2 n^2) bytes.  A budget
thus refuses no input whose arrays fit it, and admits none whose draws
together exceed it.  The driver takes every chunk in equal blocks of at
most `BLOCK_ROWS` rows (`_sum_blocks`), whose temporaries the allocator
reuses from block to block, and from chunk to chunk since `_sweep` raises
glibc's trim threshold, and whose fixed cost in numpy calls is spread over
as many rows as that memory allows.  The ML decoder works in the code's own
algebra: channel, noise, Grams and codewords stay real matrices, or
quaternion matrices as their four real parts (`linalg.bmm` multiplies
both), never lifted to complex ones (the screen lifts a p x p quaternion
Gram for its log-determinant).  The error counter forms each block's Gram
G = H^* H once (`_gram`: on one quaternion column, p = 1 as in every
quaternion code at n = 2, the real number ||H||^2).  It first screens the
block's rows on G (`_screen`): a row whose noise lies inside the code's
packing radius, by a margin that rounding cannot cross, decides its sent
word and is skipped, so the screen changes no event.  It scores the other
rows against the whole codebook on [G | s G X + H^* W], from G, H, the
noise W and the sent word X, with real matrix products (`_ml_decode`),
`_decode_rows` rows each, small enough that OpenBLAS runs them on the
calling thread (DECODE_MACS); no received block is formed.  The rows' and
the codewords' features share one layout (`_feature_array`), so that their
product is the metric.

Determinism: every sweep takes a root generator (or integer seed) and
derives one substream per SNR point and per work chunk of `OUTAGE_CHUNK`
or `ERROR_CHUNK` trials with ``Generator.spawn``.  Chunk results are
integers summed per point, and rows are independent, so the outcome is
bit-identical regardless of the block and product sizes and of how many
worker threads (at most the CPUs of the process's affinity mask, fewer
when ``DMTLAB_THREADS`` asks for fewer) execute the chunks or in which order.
The calling thread is one of them, so a sweep starts one thread fewer than
it has workers, none at one: that saves a thread start and the fresh malloc
arena a new thread faults in, a fixed 2-6 ms a sweep, in a process whose
heap already holds freed memory (a library caller, a script, the
benchmark's child), but not in a one-shot CLI run, whose heap holds none.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, linalg
from .lattice import (SHELL_CAP, ResourceLimitError, fixed_codebook, minimum_norm,
                      shape_codebook)

# A point with fewer events is flagged and left out of the slope fit.
MIN_EVENTS = 50

# Codeword pairs the eigenvalue-product check may visit.
PAIR_CAP = 10_000_000

# Most rows of a drawn chunk whose rates (outage) or decisions (ML error)
# are taken at once.  `_sum_blocks` splits a chunk into ceil(size /
# BLOCK_ROWS) blocks whose sizes differ by at most one row: a 50,000-row
# error chunk into 4 of 12,500, a 100,000-row outage chunk into 7 of about
# 14,286.  The blocks bound the memory of the temporaries, which the
# allocator then reuses from block to block: whole-chunk rates raise the
# peak RSS of the benchmark's outage commands (n = 2, m = 1) from 43 to
# 59 MB (real) and from 42 to 47 MB (quaternion).  A block also pays a fixed
# cost, about 100 short numpy calls at quaternion n = 2 between which two
# workers trade the interpreter lock, so blocks are as long as they can be
# short of where their temporaries fault more pages: under glibc's default
# trim threshold a 1M-trial quaternion outage command faulted 1,984 pages at
# 16384 rows, 1,994 at 8192 and 2,528 at 32768 (after import, at one
# thread).  Events do not depend on it.
BLOCK_ROWS = 16384

# Trials one sweep may run, summed over its SNR points: every chunk's
# substream is spawned before any sampling, at about 1.3 KB each.
TRIAL_CAP = 10**9

# Trials of one work chunk of an outage and of an ML-error sweep.  Each
# chunk draws from its own substream, so these fix the events of a seed.
OUTAGE_CHUNK = 100_000
ERROR_CHUNK = 50_000

# The largest SNR rho a sweep accepts (3000 dB).  From about 3075 dB, short
# of the float range's end at about 3082.55 dB, the rates overflow: rho/n G
# turns inf, its log-determinant NaN, and a NaN rate counts as no outage.
RHO_MAX = 1e300

# Slope-fit weightings `fit_slope` knows.
WEIGHTINGS = ("events", "uniform")


@dataclass(frozen=True)
class SlopeEstimate:
    """Per-SNR probability estimates plus the fitted log-log slope.

    Points with fewer than the minimum event count are flagged and excluded
    from the fit, never dropped from the record.  slope/stderr are NaN when
    fewer than two points are usable or all of them share one SNR, stderr
    also when exactly two are.
    """

    snr_db: tuple
    probs: tuple
    trials: tuple
    events: tuple
    slope: float
    stderr: float
    flagged: tuple


def _thread_cap():
    """The worker-thread cap: the CPUs this process may run on (its affinity
    mask where the platform has one, else os.cpu_count()), lowered to
    DMTLAB_THREADS when that is set.  A value that is not an integer >= 1
    is rejected."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    env = os.environ.get("DMTLAB_THREADS", "").strip()
    if not env:
        return cpus
    if not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"DMTLAB_THREADS must be an integer >= 1, got {env!r}")
    return min(int(env), cpus)


def _check_array_bytes(rows, row_bytes, flag):
    """Reject `rows` rows of `row_bytes` each (the price of a row's arrays,
    `_row_bytes`) when they exceed ARRAY_BUDGET_BYTES."""
    if rows * row_bytes > ARRAY_BUDGET_BYTES:
        raise ResourceLimitError(f"{flag}: {rows} rows of {row_bytes} bytes exceed "
                                 f"the array budget {ARRAY_BUDGET_BYTES}")


def _row_bytes(cfg, derived):
    """Bytes a row of the widest array a sweep or sampler holds: 8 times the
    larger of a drawn row's entries (`SystemConfig.block_shape`) and the
    `derived` reals of the widest array it computes from one row."""
    return 8 * max(math.prod(cfg.block_shape(1)), derived)


def _gram_row_bytes(cfg):
    """`_row_bytes` where the widest derived array is the Gram `channel.gram`
    forms on the smaller side l of a block: l^2 reals, or for quaternion
    blocks the 2l x 2l complex lift, 8 l^2 reals."""
    l = min(cfg.block_shape(1)[-2:])
    return _row_bytes(cfg, l * l if cfg.mode == "real" else 8 * l * l)


def _sum_blocks(size, events):
    """Sum of events(rows) over the ceil(size / BLOCK_ROWS) contiguous row
    slices of a chunk of `size` rows, in order, whose sizes differ by at most
    one row, so that no short last block pays a block's fixed cost."""
    blocks = -(-size // BLOCK_ROWS)
    return sum(int(events(slice(size * b // blocks, size * (b + 1) // blocks)))
               for b in range(blocks))


def _sweep(snr_grid_db, trials, rng, chunk, row_bytes, counter, weighting):
    """Run one Monte Carlo SNR sweep and fit its slope.

    `trials` is one whole count per SNR point or one for all (a scalar or a
    one-entry sequence).  counter(rho) returns the chunk draw
    draw(stream, size) -> events, which draws `chunk` or fewer trials at that
    point, whose arrays are priced at `row_bytes` a row, and whose
    events(rows) counts the events of a slice of them; the driver alone sums
    it over the chunk's blocks (`_sum_blocks`).  A bad DMTLAB_THREADS,
    weighting, SNR grid (empty, or a point whose rho is not in (0, RHO_MAX]),
    trial count or trial total, or a largest chunk over ARRAY_BUDGET_BYTES,
    is rejected before any substream or counter (or codebook) is made.
    The chunks of every point form one task list, largest first, which
    this thread and workers - 1 pool threads drain: each takes the next
    task left until none is.  Counts are stored by task and summed in list
    order.  An error in a task ends the sweep after the tasks already begun;
    a pool thread's error is raised from its future once this thread's
    drain is done.
    """
    threads = _thread_cap()
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    snr_db = [float(v) for v in snr_grid_db]
    if not snr_db:
        raise ValueError("the SNR grid --snr-db is empty")
    try:
        rhos = [10.0 ** (db / 10.0) for db in snr_db]
    except OverflowError:  # a rho over the float range, refused as inf
        rhos = [math.inf]
    if not all(0 < rho <= RHO_MAX for rho in rhos):
        raise ValueError(f"--snr-db values must be finite and give an SNR 10^(dB/10) "
                         f"that is > 0 in floats and at most {RHO_MAX:g} (3000 dB), "
                         f"got {snr_db}")
    trials_t = [trials] if np.ndim(trials) == 0 else list(trials)
    if len(trials_t) == 1:
        trials_t *= len(snr_db)
    if len(trials_t) != len(snr_db):
        raise ValueError(f"--trials gives {len(trials_t)} counts for the "
                         f"{len(snr_db)} points of --snr-db")
    if not all(t % 1 == 0 and t >= 1 for t in trials_t):
        raise ValueError(f"--trials must be whole numbers >= 1, got {trials}")
    trials_t = [int(t) for t in trials_t]
    if sum(trials_t) > TRIAL_CAP:
        raise ResourceLimitError(f"{sum(trials_t)} trials exceed the cap {TRIAL_CAP}")
    _check_array_bytes(min(chunk, max(trials_t)), row_bytes, "--n/--m")
    counters = [counter(rho) for rho in rhos]
    # glibc's malloc maps a block of at least its mmap threshold on its own,
    # and freeing one raises that threshold to the block's size and the
    # heap's trim threshold to twice it (mallopt(3)).  While the trim
    # threshold lies below the heap top that a chunk's draws and temporaries
    # free (about 6 MB at n = 2), that memory goes back to the system after
    # each chunk and the next chunk faults it in again: 1,770 to 1,850 pages
    # for a second error-shaped run in one process, by where imports left
    # holes in the heap.  Freeing one untouched 8 MiB block raises the two
    # thresholds to 8 and 16 MiB, so that the chunks reuse their memory (2
    # or 3 pages a run).  Where they stand higher already, the block comes
    # from the heap and changes nothing.  Events do not depend on it.
    np.empty(2**20)
    tasks = []
    for point, (stream, t) in enumerate(
            zip(np.random.default_rng(rng).spawn(len(snr_db)), trials_t)):
        sizes = [chunk] * (t // chunk) + ([t % chunk] if t % chunk else [])
        tasks += [(point, st, size) for st, size in zip(stream.spawn(len(sizes)), sizes)]
    tasks.sort(key=lambda task: -task[2])
    counts = [0] * len(tasks)
    order, lock = iter(range(len(tasks))), threading.Lock()

    def drain():
        """Take the next task index and run its task until none is left.  A
        thread whose task raises first takes every index left, so that the
        other threads stop after the task they run."""
        try:
            while True:
                with lock:
                    i = next(order, None)
                if i is None:
                    return
                point, stream, size = tasks[i]
                counts[i] = _sum_blocks(size, counters[point](stream, size))
        finally:
            with lock:
                for _ in order:
                    pass

    # The calling thread is one of the workers.  Its heap already holds the
    # memory that imports and set-up freed, where a new thread faults in a
    # malloc arena of its own (about 1,000 pages at error-r0).  The pool
    # starts a thread per submission, so none at one worker (max_workers
    # must be >= 1), where a pool thread's arena would add 4-5 MB to the
    # benchmark child's peak RSS.
    workers = min(threads, len(tasks))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    events = [0] * len(snr_db)
    for (point, _, _), count in zip(tasks, counts):
        events[point] += count
    return fit_slope(snr_db, events, trials_t, weighting)


# ---------------------------------------------------------------------------
# Wishart spectra

def sample_wishart_real_batch(n, m, count, rng):
    """Nonzero eigenvalues of H^T H for `count` stacked-real 2m x n channels
    with N(0, 1/2) entries (descending rows of min(2m, n) values of the Gram
    `channel.gram` takes on the smaller side of H)."""
    cfg = channel.SystemConfig("real", n, m)
    _check_array_bytes(count, _gram_row_bytes(cfg), "--samples")
    lam = np.linalg.eigvalsh(channel.gram(channel.draw_real(rng, cfg.block_shape(count))))
    return lam[:, ::-1]


def sample_wishart_quaternion_batch(p, m, count, rng):
    """Distinct eigenvalues of H^dag H for `count` lifted 2m x 2p quaternionic
    channels (descending rows of l = min(m, p) values).

    Each is a multiplicity-2 eigenvalue of the lifted 2l x 2l Gram that
    `channel.gram` takes on the smaller side of H; a pairing gap beyond 1e-8
    relative to the top eigenvalue is a fault.
    """
    cfg = channel.SystemConfig("quaternion", 2 * p, m)
    _check_array_bytes(count, _gram_row_bytes(cfg), "--samples")
    lam = np.linalg.eigvalsh(channel.gram(channel.draw_real(rng, cfg.block_shape(count))))[:, ::-1]
    top, bot = lam[:, 0::2], lam[:, 1::2]
    if np.any((top - bot) > 1e-8 * np.maximum(lam[:, :1], 1e-30)):
        raise RuntimeError("quaternionic eigenvalue pairing violated")
    return top


# ---------------------------------------------------------------------------
# Tail bound

def chi2_tail(x, half_dof):
    """P{chi^2(2K) > 2x} = e^(-x) sum_{j<K} x^j / j! for a whole K = half_dof >= 1.

    Summed in log space, shifted by the largest term, so nothing under- or
    overflows and K up to a few hundred stays accurate at any x.  Below
    x = K, where the tail lies above about 1/2, it is one minus the lower
    tail e^(-x) sum_{j>=K} x^j / j!, whose terms are positive and shrink by
    x / j < 1: a tail near 1 then keeps its last bits, and stays monotone
    in x and K, where the direct sum of K terms can err by a few 1e-15.
    x = inf gives 0; a negative or NaN x is rejected.
    """
    if not x >= 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if not (half_dof >= 1 and float(half_dof).is_integer()):
        raise ValueError(f"half_dof must be a whole number >= 1, got {half_dof}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    k = int(half_dof)
    if x < k:
        total = term = 1.0
        j = k
        while term > 1e-17 * total:
            j += 1
            term *= x / j
            total += term
        return max(1.0 - math.exp(-x + k * math.log(x) - math.lgamma(k + 1)) * total, 0.0)
    logs = [-x + j * math.log(x) - math.lgamma(j + 1) for j in range(k)]
    peak = max(logs)
    return min(math.exp(peak + math.log(sum(math.exp(v - peak) for v in logs))), 1.0)


# ---------------------------------------------------------------------------
# Distance and eigenvalue-product checks

def check_mismatched_bound(h, dx):
    """trace(H dX dX^T H^T) >= sum of ascending-mu times descending-lambda.

    lambda are the nonzero eigenvalues of H^T H, mu the eigenvalues of
    dX dX^dag; the product pairs the weakest difference directions with the
    strongest channel directions.  The comparison allows 1e-9.
    """
    h = linalg.as_matrix(h)
    dx = linalg.as_matrix(dx)
    hdx = h @ dx
    lhs = float(np.sum(hdx.real ** 2 + hdx.imag ** 2))
    l = min(h.shape)
    lam = np.linalg.eigvalsh(h.conj().T @ h)[::-1][:l]
    mu = np.linalg.eigvalsh(dx @ dx.conj().T)
    rhs = float(np.sum(mu[:l] * lam))
    return lhs >= rhs - 1e-9


def check_nvd_product_bound(cb):
    """Eigenvalue-product bounds behind the NVD error-exponent argument.

    For every distinct pair of unscaled shell points, with mu the ascending
    eigenvalues of dX dX^dag (distinct values in the quaternionic case,
    where the spectrum is doubled and prod(mu) = |det dX| >= 1):

        prod_{i<=k} mu_i  >=  (4 M^2)^-(n_mu - k)      for each k,
        mu_i             <=  4 M^2                      for each i,

    each to a relative 1e-6, with M the codebook's radius and n its ambient
    size.  Each upper factor 4 M^2 comes from mu_i <= ||dX||^2 <= (2M)^2;
    dropping them (keeping only the rho^(2r/n) scale they carry) is false at
    finite SNR, so the exact constants are kept.  Returns None when every
    bound holds, else a dict describing the first offending pair.  Fewer
    than 2 codewords, or more than PAIR_CAP pairs, is rejected first.
    """
    n_pairs = len(cb.points) * (len(cb.points) - 1) // 2
    if n_pairs < 1:
        raise ValueError("need at least 2 codewords")
    if n_pairs > PAIR_CAP:
        raise ResourceLimitError(f"{n_pairs} pairs exceed the cap {PAIR_CAP}")
    pts = cb.points * cb.radius_m
    lat = cb.source
    quat = lat.flavor == "quaternionic"
    cap = 4.0 * cb.radius_m ** 2
    n_mu = lat.ambient_n // 2 if quat else lat.ambient_n
    bounds = np.array([cap ** -(n_mu - k) for k in range(1, n_mu + 1)])
    # row i against every later point: one eigvalsh on the (N-i-1, n, n) stack
    for i in range(len(pts) - 1):
        dx = pts[i] - pts[i + 1:]
        mu = np.clip(np.linalg.eigvalsh(dx @ dx.conj().transpose(0, 2, 1)), 0.0, None)
        if quat:
            mu = mu[:, 0::2]
        upper = np.any(mu > cap * (1.0 + 1e-6), axis=1)
        prods = np.cumprod(mu, axis=1)
        lower = prods < bounds * (1.0 - 1e-6)
        bad = upper | np.any(lower, axis=1)
        if not np.any(bad):
            continue
        j = int(np.argmax(bad))
        pair = (i, i + 1 + j)
        if upper[j]:
            return {"pair": pair, "kind": "upper", "mu_max": float(mu[j].max()), "cap": cap}
        k = int(np.argmax(lower[j]))
        return {"pair": pair, "kind": "lower", "k": k + 1,
                "product": float(prods[j, k]), "bound": float(bounds[k])}
    return None


# ---------------------------------------------------------------------------
# Slope fitting

def fit_slope(snr_db, events, trials, weighting="events"):
    """Least squares of -log10(events / trials) on log10(rho), from the
    integer event and trial counts of each SNR point.

    weighting="events" weights each point by its event count (the variance
    of log p-hat scales like 1/events); "uniform" fits unweighted, which
    leans less on the shallow low-SNR region and tracks the asymptotic
    slope better when the sweep is still curving.  Points with fewer than
    MIN_EVENTS events are flagged and left out of the fit; with fewer than
    two usable points, or all of them at one SNR, slope and stderr are NaN,
    and with exactly two, which leave no residual degree of freedom, stderr
    alone is NaN.
    Every SNR must be finite, and every count a whole number with
    trials >= 1 and 0 <= events <= trials.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    snr_db = tuple(float(v) for v in snr_db)
    if not all(map(math.isfinite, snr_db)):
        raise ValueError(f"snr_db values must be finite, got {snr_db}")
    events, trials = tuple(events), tuple(trials)
    if not len(snr_db) == len(events) == len(trials):
        raise ValueError("snr_db, events and trials must have equal length")
    if not all(float(e).is_integer() and float(t).is_integer() and 0 <= e <= t and t >= 1
               for e, t in zip(events, trials)):
        raise ValueError("events and trials must be whole numbers with trials >= 1 "
                         f"and 0 <= events <= trials, got {events} and {trials}")
    events, trials = tuple(map(int, events)), tuple(map(int, trials))
    probs = tuple(e / t for e, t in zip(events, trials))
    flagged = tuple(e < MIN_EVENTS for e in events)
    usable = [i for i, f in enumerate(flagged) if not f]
    slope = stderr = math.nan
    if len(usable) >= 2:
        x = np.array([snr_db[i] / 10.0 for i in usable])
        y = np.array([-math.log10(probs[i]) for i in usable])
        w = (np.array([events[i] for i in usable], dtype=float)
             if weighting == "events" else np.ones(len(usable)))
        wsum = w.sum()
        xb = (w * x).sum() / wsum
        yb = (w * y).sum() / wsum
        sxx = (w * (x - xb) ** 2).sum()
        if sxx > 0:  # else every usable point lies at one SNR
            slope = float((w * (x - xb) * (y - yb)).sum() / sxx)
            intercept = yb - slope * xb
            resid = y - slope * x - intercept
            dof = len(usable) - 2
            sigma2 = float((w * resid ** 2).sum() / dof) if dof > 0 else math.nan
            stderr = math.sqrt(sigma2 / sxx)
    return SlopeEstimate(snr_db=snr_db, probs=probs, trials=trials,
                         events=events, slope=slope, stderr=stderr, flagged=flagged)


# ---------------------------------------------------------------------------
# Outage estimation

def estimate_outage(cfg, snr_grid_db, trials, rng, weighting="events"):
    """Outage probability sweep and its fitted slope.

    Both modes count P{ log2 det(I + c G) <= 2 r log2 rho }
    (`channel.log2_det_eye_plus`) with the identity input covariance, G the
    Gram of the stacked-real channel H H^T or of the lifted one H^dag H.
    Real mode takes c = rho/n, quaternion mode c = rho (see `channel`): the
    quaternion rate at rho is the rate of the ML-error sweeps' 1/sqrt(n)
    convention at n rho, 10 log10(n) dB higher, against the threshold at
    rho, and the slope is the same.  `trials` is one count for every SNR
    point or one per point.
    """
    def counter(rho):
        c = rho / cfg.n if cfg.mode == "real" else rho  # the SNR convention of `channel`
        thresh = 2 * cfg.r * math.log2(rho)

        def draw(st, size):
            h = channel.draw_real(st, cfg.block_shape(size))
            return lambda rows: np.count_nonzero(
                channel.log2_det_eye_plus(h[..., rows, :, :], c) <= thresh)
        return draw

    return _sweep(snr_grid_db, trials, rng, OUTAGE_CHUNK, _gram_row_bytes(cfg), counter,
                  weighting)


# ---------------------------------------------------------------------------
# ML error-rate estimation

# Bytes of the (rows, |C|) float64 metric one decode sub-batch may build,
# per worker; the argmin over it adds no array of that size.  Sub-batches
# split an RNG chunk's rows after it is drawn, so events do not depend on
# this value.
DECODE_BUDGET_BYTES = 64 * 2**20
# Multiply-adds of one metric product, rows x |C| x f, below which
# OpenBLAS runs it on the calling thread: numpy's scipy-openblas 0.3.31
# kept (M, 16) @ (16, 16) at a CPU/wall ratio of 1.00 up to M = 1536 and
# woke its own threads from M = 2048 (2^19), which then took the CPUs of
# the sweep's other workers.  The quaternion n = 2 product is (M, 5) @ (5, 16)
# at |C| = 16, which this allows 3276 rows; its 8-feature form (M, 8) @
# (8, 16) kept a ratio of 1.00 on a 2-vCPU box up to M = 6144 and woke
# threads at M = 8192.  A sub-batch keeps at least 64 rows, so a large
# codebook is not scored row by row.
DECODE_MACS = 2**18
# Bytes of the other arrays one sweep chunk or Wishart draw may hold, per
# worker, as its rows times their price (`_row_bytes`): larger inputs are
# rejected before any draw; chunks never shrink.
ARRAY_BUDGET_BYTES = 128 * 2**20


def _one_column(a):
    """Whether `a` holds the quaternion parts (4, N, ., 1) of one-column
    blocks (p = 1), whose Gram A^* A = ||A||^2 is one real number a row."""
    return a.ndim == 4 and a.shape[-1] == 1


def _gram(a, out=None):
    """The Gram A^* A of each block of a real (N, ., k) stack or of
    quaternion (4, N, ., k) parts: on one quaternion column (`_one_column`)
    the (N,) real numbers ||A||^2 (Alamouti's decoupling, IEEE JSAC 1998),
    else the (N, k, k) stack or parts bmm(adjoint(A), A).  Written into
    `out` when given."""
    if _one_column(a):
        return linalg.sq_norms(a, out=out)
    return linalg.bmm(linalg.adjoint(a), a, out=out)


def _feature_array(like, count):
    """The (f, count) array of the real metric features of `count` blocks
    laid out as `like` (a decoded block's rows, or codewords), one column a
    block, and two views of it: the Gram rows, shaped as `_gram` returns
    `count` Grams, and the linear rows, shaped as `count` k x k blocks, k
    the columns of `like`.  On one quaternion column f = 5, one Gram number
    over the four parts of a 1 x 1 block; otherwise f = 2 k^2, and both
    views keep the count axis last in memory, as `linalg.bmm` writes."""
    if _one_column(like):
        feats = np.empty((5, count))
        return feats, feats[0], feats[1:, :, None, None]
    k = like.shape[-1]
    feats = np.empty((2, *like.shape[:-3], k, k, count))
    gram, lin = np.moveaxis(feats, -1, -3)
    return feats.reshape(-1, count), gram, lin


def _codeword_features(cparts, scale):
    """(f, |C|) real features of the codewords C sent at amplitude `scale`,
    one column a word, laid out as `_ml_decode`'s row features
    (`_feature_array`): the Grams s^2 C C^* over the parts of -2 s C.
    `cparts` holds real n x n words as an (|C|, n, n) stack or quaternion
    p x p words as (4, |C|, p, p) parts.  C^* is first written where -2 s C
    goes, and C C^* = (C^*)^* C^* is its Gram (`_gram`), so beside the result
    at most one |C|-vector of `linalg.bmm` and, of quaternion parts, the
    adjoint's copy of C are allocated."""
    feats, gram, lin = _feature_array(cparts, cparts.shape[-3])
    linalg.adjoint(cparts, out=lin)
    _gram(lin, out=gram)
    gram *= scale ** 2
    np.copyto(lin, cparts)  # a ufunc from cparts into the strided lin would buffer
    lin *= -2.0 * scale
    return feats


def _decode_rows(words, f):
    """Rows of one metric product against `words` codewords of `f` features:
    under DECODE_MACS multiply-adds but at least 64 rows, and under
    DECODE_BUDGET_BYTES of metric but at least 1 row."""
    return min(max(64, DECODE_MACS // (words * f)), max(1, DECODE_BUDGET_BYTES // (8 * words)))


def _ml_decode(h, g, w, x, scale, cword_feats):
    """Exhaustive-ML decisions argmin_k ||y - s H C_k||^2 per row (lowest
    index on ties) for the received blocks y = s H X + W of the sent words
    X, at the amplitude s = `scale` that `cword_feats` was built for; H, W
    and X are real (N, ., .) stacks or (4, N, ., .) quaternion parts, and g
    is the block's Gram G = H^* H as `_gram` returns it.

    ||y - s H C||^2 = ||y||^2 - 2s <H^* y, C> + s^2 <G, C C^*>, where
    <A, B> = Re tr(A^* B) is the dot product of the real parts (for
    quaternion matrices half that of their lifts), and H^* y = s G X + H^* W.
    ||y||^2 is the same for every codeword and dropped, so the metric is the
    real product of the row features [G | s G X + H^* W] (`_feature_array`)
    with `cword_feats`, sub-batched under DECODE_MACS (64 rows at least) and
    DECODE_BUDGET_BYTES; y is never formed.  On one column G is a real
    number and s G X the product (s ||H||^2) X.
    """
    batch = h.shape[-3]
    feats, gram, hy = _feature_array(h, batch)
    np.copyto(gram, g)
    linalg.bmm(linalg.adjoint(h), w, out=hy)
    hy += (scale * g)[:, None, None] * x if g.ndim == 1 else scale * linalg.bmm(g, x)
    rows = _decode_rows(cword_feats.shape[1], len(feats))
    return np.concatenate([np.argmin(feats[:, lo:lo + rows].T @ cword_feats, axis=1)
                           for lo in range(0, batch, rows)])


# The packing-radius screen (`_screen`): the share of the noise radius^2 a
# skipped row may use, (1 - SCREEN_DELTA)^2, the least ratio of the Gram
# floor to the Gram trace of a skipped row, and the least trace.  All three
# follow from the rounding bound in `_screen`'s docstring; none is tuned.
SCREEN_DELTA = 0.125
SCREEN_KAPPA = 2.0 ** -20
SCREEN_TINY = 2.0 ** -900


def _gram_floor(g):
    """A lower bound lambda_lb on the least eigenvalue of each Gram of
    `_ml_decode`'s g (for quaternion parts, of the p x p quaternion Gram), or
    0 where lambda_lb < SCREEN_KAPPA tr G or where tr G < SCREEN_TINY.

    The (N,) Grams ||H||^2 of one quaternion column are their own bound.
    Otherwise, of the k distinct eigenvalues (k columns), AM-GM on all but
    the least gives lambda_min >= det ((k - 1) / tr)^(k - 1), taken from
    `linalg.logdet_pd` of G or of its lift (`channel.lift_parts`, which
    doubles each eigenvalue of a quaternion Gram).  Singular and
    near-singular Grams (fewer rows than columns), whose elimination leaves
    a last pivot of rounding size or carries it below zero, fail the trace
    ratio and get 0."""
    if g.ndim == 1:
        tr = lb = g
    else:
        cols = g.shape[-1]
        mult = g.ndim - 2  # of each eigenvalue in the lift: 1 real, 2 quaternion
        g = channel.lift_parts(g) if mult == 2 else g
        tr = np.einsum("bii->b", g).real / mult
        with np.errstate(divide="ignore", invalid="ignore"):
            log_lb = linalg.logdet_pd(g) / mult
            if cols > 1:
                log_lb += (cols - 1) * np.log((cols - 1) / tr)
            lb = np.exp(log_lb)
    return np.where((lb >= SCREEN_KAPPA * tr) & (tr >= SCREEN_TINY), lb, 0.0)


def _screen_threshold(cfg, rho, cb, lam1):
    """`_screen`'s thresh = (1 - SCREEN_DELTA)^2 s^2 d^2 for codebook `cb` at
    SNR rho, s^2 = rho / n, or 0, which decodes every row, when rho < 1 or
    the rounding bound 16 c u (M / lambda_1)^2 < SCREEN_DELTA SCREEN_KAPPA,
    c = 2 n^2 + 4 m + 2 n + 3, fails; c bounds the roundings of the
    decoder's metric (`_screen`).

    Every codeword difference is a nonzero lattice point over M, so
    d = lambda_1 / M (`lattice.minimum_norm`) bounds the codebook's minimum
    distance from below with no pass over its pairs; on the parts of
    quaternion words, whose lift has twice the parts norm, d^2 is halved."""
    rounds = 2 * cfg.n ** 2 + 4 * cfg.m + 2 * cfg.n + 3
    if rho < 1 or (16 * rounds * 2.0 ** -53 * (cb.radius_m / lam1) ** 2
                   >= SCREEN_DELTA * SCREEN_KAPPA):
        return 0.0
    d2 = (lam1 / cb.radius_m) ** 2 / (1 if cfg.mode == "real" else 2)
    return (1 - SCREEN_DELTA) ** 2 * (rho / cfg.n) * d2


def _screen(g, w, thresh):
    """Indices of the rows of a block that the exhaustive decoder must decide;
    every other row decides its sent word, and adds no error.  g holds the
    block's Grams in `_ml_decode`'s layout, w its noise.

    A row y = s H X + W is skipped when 4 ||W||^2 < thresh lambda_lb, with
    thresh = (1 - delta)^2 s^2 d^2 (`_screen_threshold`), norms on real parts,
    d a lower bound on the codebook's minimum distance and lambda_lb a lower
    bound on lambda_min(G), G = H^* H, that is at least kappa tr G
    (`_gram_floor`).  Any other word X + D, ||D|| >= d, then scores a metric
    larger by

        ||W - s H D||^2 - ||W||^2 >= s||HD|| (s||HD|| - 2||W||)
                                  >= delta s^2 ||HD||^2 >= delta s^2 lambda_min d^2,

    as ||HD||^2 >= lambda_min ||D||^2, so ML decides X with a margin and no
    tie can arise (the bounded-distance argument: Agrell, Eriksson, Vardy
    and Zeger, IEEE Trans. IT 2002).

    Rounding, u = 2^-53.  Every word has norm at most 1 in the lattice's
    norm, so its norm R over d is M / lambda_1 in both modes.  The decoder
    scores [G | s G X + H^* W] against [s^2 C C^* | -2 s C], and no path
    from an input to a metric passes more than c = 2 n^2 + 4 m + 2 n + 3
    roundings: an entry of G or of H^* W sums 4m products (2m on real
    blocks), G X adds 2n (n real), the scaling and the sum with H^* W add 2,
    -2 s C takes 1 (the 2n + 2 of s^2 C C^* meet only G's 4m), and the
    metric's product and sum of f <= 2 n^2 terms add f.  One column has
    ||H||^2 X, one product, for G X and f = 5: 4m + 11.  The terms add in
    magnitude to at most 4 s^2 tr G R^2 (Cauchy-Schwarz: ||G|| <= tr G,
    ||C C^*|| <= R^2, ||X|| <= R and ||W|| <= 0.5 s sqrt(tr G) R on a
    skipped row), so a computed gap is within 8 c u s^2 tr G R^2 of the
    exact one.  lambda_lb, lambda_1 and the screen's own products err by a
    relative O(c u / kappa) at most; half of delta covers these, which
    leaves a gap of at least (delta / 2) s^2 lambda_min d^2 >= (delta / 2)
    kappa s^2 tr G d^2.  It exceeds the rounding while
    16 c u (M / lambda_1)^2 < delta kappa: at delta = 1/8, kappa = 2^-20
    and n = 2, m = 1 (c = 19), while M / lambda_1 < 1879, against about 21
    at the largest rank-4 shell SHELL_CAP admits.  A codebook beyond it, or
    an SNR below 0 dB, screens no row; rows with tr G < 2^-900 are decoded,
    so that no feature underflows.  delta costs (7/8)^2 of the noise
    radius^2, and kappa decodes only rows whose least Gram eigenvalue lies
    under 1e-6 of the trace.
    """
    return np.flatnonzero(4.0 * linalg.sq_norms(w) >= thresh * _gram_floor(g))


def estimate_error_prob(lat, cfg, snr_grid_db, trials, rng, weighting="events"):
    """Block error rate of exhaustive-ML decoding with its fitted slope.

    Per SNR point the codebook is the spherically shaped shell at that SNR,
    except at r = 0 where one `fixed_codebook` constellation is reused
    across the sweep (constant rate).  Rows inside the packing radius skip
    the decoder (`_screen`), which would decide them correctly.  `trials` is
    one count for every SNR point or one per point.  The counters keep their
    codewords, as real parts, and features (at n = 2, 96 B a real word:
    2 n^2 floats of features and n^2 of parts; 72 B a quaternion one: 5 and
    4), so before any chunk runs a zero-word codebook, or codebooks over the
    SHELL_CAP // rank words of one shell, fail.  A chunk holds two draws,
    channel and noise, beside the decoder's 2 n^2 features a row, so a row
    is priced at twice `_row_bytes` of n^2.
    """
    mode, n = cfg.mode, cfg.n
    flavor = "real" if mode == "real" else "quaternionic"
    if (lat.flavor, lat.ambient_n) != (flavor, n):
        raise ValueError(f"{mode} mode at --n={n} needs a {flavor} lattice of {n}x{n} "
                         f"codewords, not {lat.flavor} {lat.ambient_n}x{lat.ambient_n}")
    fixed = functools.cache(lambda: fixed_codebook(lat))
    lam1 = functools.cache(lambda: minimum_norm(lat))

    words = 0  # in the points' codebooks so far, whose features the counters hold

    def counter(rho):
        nonlocal words
        cb = fixed() if cfg.r == 0 else shape_codebook(lat, rho, cfg.r)
        words += len(cb.points)
        at = f"--snr-db/--r: at {10 * math.log10(rho):g} dB and r = {cfg.r:g}"
        if len(cb.points) < 2:
            raise ValueError(f"{at} the codebook holds only the zero word")
        if words > SHELL_CAP // lat.rank:
            raise ResourceLimitError(f"{at} the sweep's codebooks hold {words} words, "
                                     f"over the {SHELL_CAP // lat.rank} one shell may list")
        cparts = (np.ascontiguousarray(cb.points.real) if mode == "real"
                  else channel.quaternion_parts(cb.points))
        scale = math.sqrt(rho / n)
        feats = _codeword_features(cparts, scale)
        thresh = _screen_threshold(cfg, rho, cb, lam1())

        def draw(st, size):
            hs, ws = (channel.draw_real(st, cfg.block_shape(size)) for _ in range(2))
            tx = st.integers(0, feats.shape[1], size=size)

            def errors(rows):
                h, w, t = hs[..., rows, :, :], ws[..., rows, :, :], tx[rows]
                g = _gram(h)
                keep = _screen(g, w, thresh)
                if len(keep) < len(t):
                    if not len(keep):
                        return 0
                    g, h, w, t = (a.take(keep, axis=-3) if a.ndim > 1 else a[keep]
                                  for a in (g, h, w, t))
                x = cparts.take(t, axis=-3)
                return np.count_nonzero(_ml_decode(h, g, w, x, scale, feats) != t)
            return errors
        return draw

    return _sweep(snr_grid_db, trials, rng, ERROR_CHUNK, 2 * _row_bytes(cfg, n * n), counter,
                  weighting)
