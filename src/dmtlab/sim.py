"""Monte Carlo machinery: Wishart spectra, outage and ML-error estimation,
tail bounds, and log-log slope fits that turn probability sweeps into
empirical diversity estimates.  Channel draws, lifts, received blocks,
log-determinants and capacities all come from the batched layer in
`channel`.

A spectrum is an (N, l) array of descending eigenvalues, one draw per row:
the samplers return one, and the eigenvalue and exponent densities take
(..., l) arrays and return one value per row.

Both estimators read mode, antenna counts and multiplexing gain from one
`channel.SystemConfig`, which validated them when it was built.  Both run
through `_sweep`, which alone checks the thread cap, the SNR grid, the
trial counts and a chunk's array budget, runs the chunks of every SNR
point in one pool and fits the slope to the summed integer events
(`fit_slope`, NaN below two usable points); an estimator supplies only its
per-point event counter and the bytes of a row of its widest array.  Both
counters draw a chunk whole and take it in equal blocks of at most
`BLOCK_ROWS` rows (`_sum_blocks`), whose temporaries the allocator reuses
from block to block and whose fixed cost in numpy calls is spread over as
many rows as that memory allows.  The ML decoder works in the code's own
algebra: channel, noise, received blocks and codewords stay real matrices,
or quaternion matrices as their four real parts (`linalg.bmm` multiplies
both), never lifted to complex ones.  It scores a block against the whole
codebook with real matrix products (`_ml_decode`) of 2 n^2 features a row,
`_decode_rows` rows each, small enough that OpenBLAS runs them on the
calling thread (DECODE_MACS).

Determinism: every sweep takes a root generator (or integer seed) and
derives one substream per SNR point and per work chunk of `OUTAGE_CHUNK`
or `ERROR_CHUNK` trials with ``Generator.spawn``.  Chunk results are
integers summed per point, and rows are independent, so the outcome is
bit-identical regardless of the block and product sizes and of how many
worker threads (at most ``os.cpu_count()``, fewer when
``DMTLAB_THREADS`` asks for fewer) execute the chunks or in which order.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, linalg
from .lattice import SHELL_CAP, ResourceLimitError, fixed_codebook, shape_codebook

# A point with fewer events is flagged and left out of the slope fit.
MIN_EVENTS = 50

# Codeword pairs the eigenvalue-product check may visit.
PAIR_CAP = 10_000_000

# Most rows of a drawn chunk whose rates (outage) or decisions (ML error)
# are taken at once.  `_sum_blocks` splits a chunk into ceil(size /
# BLOCK_ROWS) blocks whose sizes differ by at most one row: a 50,000-row
# error chunk into 4 of 12,500, a 100,000-row outage chunk into 7 of about
# 14,286.  The blocks bound the memory of the temporaries, which the
# allocator then reuses from block to block: whole-chunk rates raised the
# peak RSS of the benchmark's outage commands (n = 2, m = 1) from 43 to
# 59 MB (real) and from 42 to 47 MB (quaternion).  A block also pays a fixed
# cost, about 100 short numpy calls at quaternion n = 2 between which two
# pool workers trade the interpreter lock, so blocks are long, short of
# where their temporaries fault more pages.  The size was 8192 while
# quaternion outage blocks of 12,288 rows or more crossed glibc's dynamic
# trim threshold, so that every chunk faulted its pages in again
# (15,000-17,000 minor faults per 1M-trial command); today's rate
# temporaries do not: that command faults 1,984 pages at 16384 rows, 1,994
# at the old 8192-row split and 2,528 at 32768 (after import, at one
# thread).  Events do not depend on it.
BLOCK_ROWS = 16384

# Trials one sweep may run, summed over its SNR points: every chunk's
# substream is spawned before any sampling, at about 1.3 KB each.
TRIAL_CAP = 10**9

# Trials of one work chunk of an outage and of an ML-error sweep.  Each
# chunk draws from its own substream, so these fix the events of a seed.
OUTAGE_CHUNK = 100_000
ERROR_CHUNK = 50_000

# Slope-fit weightings `fit_slope` knows.
WEIGHTINGS = ("events", "uniform")


@dataclass(frozen=True)
class SlopeEstimate:
    """Per-SNR probability estimates plus the fitted log-log slope.

    Points with fewer than the minimum event count are flagged and excluded
    from the fit, never dropped from the record.  slope/stderr are NaN when
    fewer than two points are usable.
    """

    snr_db: tuple
    probs: tuple
    trials: tuple
    events: tuple
    slope: float
    stderr: float
    flagged: tuple


def _thread_cap():
    """The worker-thread cap: the available parallelism, lowered to
    DMTLAB_THREADS when that is set.  A value that is not an integer >= 1
    is rejected."""
    cpus = os.cpu_count() or 1
    env = os.environ.get("DMTLAB_THREADS", "").strip()
    if not env:
        return cpus
    if not (env.isdecimal() and int(env) >= 1):
        raise ValueError(f"DMTLAB_THREADS must be an integer >= 1, got {env!r}")
    return min(int(env), cpus)


def _check_array_bytes(rows, row_bytes, flag):
    """Reject `rows` rows of the widest per-row array (channel, Gram or
    received block) when they exceed ARRAY_BUDGET_BYTES."""
    if rows * row_bytes > ARRAY_BUDGET_BYTES:
        raise ResourceLimitError(f"{flag}: {rows} rows of {row_bytes} bytes exceed "
                                 f"the array budget {ARRAY_BUDGET_BYTES}")


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
    one-entry sequence); counter(rho) returns the chunk function
    count(stream, size) -> events of `chunk` or fewer trials at that point,
    whose widest array takes `row_bytes` a row.  A bad DMTLAB_THREADS,
    weighting, SNR grid (empty or not finite), trial count or trial total,
    or a largest chunk over ARRAY_BUDGET_BYTES, is rejected before any
    substream or counter (or codebook) is made.  Every chunk of every point
    runs in one pool, largest first (in turn on this thread at one worker).
    """
    threads = _thread_cap()
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    snr_db = [float(v) for v in snr_grid_db]
    if not snr_db:
        raise ValueError("the SNR grid --snr-db is empty")
    if not all(math.isfinite(db) for db in snr_db):
        raise ValueError(f"--snr-db values must be finite, got {snr_db}")
    trials_t = [trials] if np.ndim(trials) == 0 else list(trials)
    if len(trials_t) == 1:
        trials_t *= len(snr_db)
    if len(trials_t) != len(snr_db):
        raise ValueError("trials list must match the SNR grid")
    if not all(t % 1 == 0 and t >= 1 for t in trials_t):
        raise ValueError(f"--trials must be whole numbers >= 1, got {trials}")
    trials_t = [int(t) for t in trials_t]
    if sum(trials_t) > TRIAL_CAP:
        raise ResourceLimitError(f"{sum(trials_t)} trials exceed the cap {TRIAL_CAP}")
    _check_array_bytes(min(chunk, max(trials_t)), row_bytes, "--n/--m")
    counters = [counter(10.0 ** (db / 10.0)) for db in snr_db]
    tasks = []
    for point, (stream, t) in enumerate(
            zip(np.random.default_rng(rng).spawn(len(snr_db)), trials_t)):
        sizes = [chunk] * (t // chunk) + ([t % chunk] if t % chunk else [])
        tasks += [(point, st, size) for st, size in zip(stream.spawn(len(sizes)), sizes)]
    tasks.sort(key=lambda task: -task[2])

    def run(task):
        point, stream, size = task
        return counters[point](stream, size)

    workers = min(threads, len(tasks))
    if workers == 1:  # a pool thread's own malloc arena adds 2-4 MB to the peak RSS
        counts = map(run, tasks)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(run, tasks))
    events = [0] * len(snr_db)
    for (point, _, _), count in zip(tasks, counts):
        events[point] += count
    return fit_slope(snr_db, events, trials_t, weighting)


# ---------------------------------------------------------------------------
# Wishart spectra

def sample_wishart_real_batch(n, m, count, rng):
    """Nonzero eigenvalues of H^T H for `count` stacked-real 2m x n channels
    with N(0, 1/2) entries (descending rows of min(2m, n) values; the Gram
    is taken on the smaller side of H)."""
    _check_array_bytes(count, 16 * m * n, "--samples")
    h = channel.draw_real(rng, (count, 2 * m, n))
    if n <= 2 * m:
        g = np.einsum("bji,bjk->bik", h, h)
    else:
        g = np.einsum("bij,bkj->bik", h, h)
    lam = np.linalg.eigvalsh(g)
    return lam[:, ::-1]


def sample_wishart_quaternion_batch(p, m, count, rng):
    """Distinct eigenvalues of H^dag H for `count` lifted 2m x 2p quaternionic
    channels (descending rows of min(m, p) values).

    Each is a multiplicity-2 eigenvalue of the lifted Gram; a pairing gap
    beyond 1e-8 relative to the top eigenvalue is a fault.
    """
    _check_array_bytes(count, 32 * p * max(2 * m, 2 * p), "--samples")
    h = channel.draw_lifted(rng, count, m, p)
    lam = np.linalg.eigvalsh(np.einsum("bji,bjk->bik", h.conj(), h))[:, ::-1]
    l = min(m, p)
    top, bot = lam[:, 0:2 * l:2], lam[:, 1:2 * l:2]
    if np.any((top - bot) > 1e-8 * np.maximum(lam[:, :1], 1e-30)):
        raise RuntimeError("quaternionic eigenvalue pairing violated")
    return top


# ---------------------------------------------------------------------------
# Eigenvalue densities (unnormalized; constants cancel in ratios)

def _add_log_vandermonde(val, lam):
    """val + sum_{i<j} log(lam_i - lam_j) per row, -inf on a row with a
    non-positive gap."""
    i, j = np.triu_indices(lam.shape[-1], 1)
    gaps = lam[..., i] - lam[..., j]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.all(gaps > 0, axis=-1), val + np.log(gaps).sum(axis=-1), -np.inf)


def log_eigenvalue_density_real(lambdas, n, m):
    """log of e^(-sum lam) * prod lam^((Delta-1)/2) * prod_{i<j}(lam_i - lam_j)
    per row of descending eigenvalues, up to the normalization constant.
    -inf when eigenvalues coincide; a row whose length is not min(2m, n) is
    rejected."""
    lam = np.asarray(lambdas, dtype=float)
    l, delta = min(2 * m, n), abs(n - 2 * m)
    if lam.shape[-1:] != (l,):
        raise ValueError(f"eigenvalue rows must have min(2m, n) = {l} entries, "
                         f"got shape {lam.shape}")
    val = -lam.sum(axis=-1)
    if delta != 1:  # at Delta = 1 the factor is lam^0 = 1, also at lam = 0
        val = val + 0.5 * (delta - 1) * np.log(lam).sum(axis=-1)
    return _add_log_vandermonde(val, lam)


def log_alpha_density_real(alphas, n, m, rho):
    """Exponent-domain density of the stacked-real spectrum (unnormalized)
    per row of ascending exponents alpha = -log(lambda)/log(rho)."""
    a = np.asarray(alphas, dtype=float)
    delta = abs(n - 2 * m)
    logr = math.log(rho)
    lam = rho ** (-a)
    return _add_log_vandermonde(a.shape[-1] * math.log(logr) - lam.sum(axis=-1)
                                - logr * 0.5 * (delta + 1) * a.sum(axis=-1), lam)


def log_alpha_density_upper(alphas, n, m, rho):
    """Dominating exponent-domain density per row: the Vandermonde factors
    are bounded by rho^(-alpha_i) per pair, giving weights (Delta+2l-2i+1)/2."""
    a = np.asarray(alphas, dtype=float)
    l = a.shape[-1]
    delta = abs(n - 2 * m)
    logr = math.log(rho)
    weights = (delta + 2 * l - 2 * np.arange(1, l + 1) + 1) / 2.0
    lam = rho ** (-a)
    return l * math.log(logr) - lam.sum(axis=-1) - logr * (a @ weights)


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
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    if not (half_dof >= 1 and float(half_dof).is_integer()):
        raise ValueError(f"half_dof must be a whole number >= 1, got {half_dof}")
    if x == 0.0:
        return 1.0
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
    two usable points slope and stderr are NaN.  Every count must be a
    whole number with trials >= 1 and 0 <= events <= trials.
    """
    if weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}, got {weighting!r}")
    snr_db = tuple(float(v) for v in snr_db)
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
        slope = float((w * (x - xb) * (y - yb)).sum() / sxx)
        intercept = yb - slope * xb
        resid = y - slope * x - intercept
        dof = len(usable) - 2
        sigma2 = float((w * resid ** 2).sum() / dof) if dof > 0 else 0.0
        stderr = math.sqrt(sigma2 / sxx)
    return SlopeEstimate(snr_db=snr_db, probs=probs, trials=trials,
                         events=events, slope=slope, stderr=stderr, flagged=flagged)


# ---------------------------------------------------------------------------
# Outage estimation

def estimate_outage(cfg, snr_grid_db, trials, rng, weighting="events"):
    """Outage probability sweep and its fitted slope.

    Real mode: P{ 0.5 log2 det(I + (rho/n) H H^T) <= r log2 rho } with the
    identity input covariance.  Quaternion mode: P{ log2 det(I + rho H^dag
    H) <= 2 r log2 rho } for the lifted channel H, i.e. 2 sum log2(1 + rho
    lambda_i) over the distinct Gram eigenvalues.  `trials` is one count
    for every SNR point or one per point.
    """
    mode, n, m = cfg.mode, cfg.n, cfg.m
    row_bytes = 16 * m * max(n, 2 * m) if mode == "real" else 16 * n * max(2 * m, n)

    def counter(rho):
        thresh = (1 if mode == "real" else 2) * cfg.r * math.log2(rho)

        def count(st, size):
            if mode == "real":
                h = channel.draw_real(st, (size, 2 * m, n))

                def rate(rows):
                    return channel.mutual_info_real_batch(h[rows], rho)
            else:
                parts = channel.draw_real(st, (4, size, m, cfg.p))

                def rate(rows):
                    return channel.mutual_info_quaternion_batch(parts[:, rows], rho)
            return _sum_blocks(size, lambda rows: np.count_nonzero(rate(rows) <= thresh))
        return count

    return _sweep(snr_grid_db, trials, rng, OUTAGE_CHUNK, row_bytes, counter, weighting)


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
# the pool's other workers.  The quaternion n = 2 product is (M, 8) @ (8, 16)
# at |C| = 16, which this allows 2048 rows; on a 2-vCPU box it kept a ratio
# of 1.00 up to M = 6144 and woke threads at M = 8192.  A sub-batch keeps at
# least 64 rows, so a large codebook is not scored row by row.
DECODE_MACS = 2**18
# Bytes of any other array one sweep chunk or Wishart draw may build, per
# worker: larger inputs are rejected before any draw; chunks never shrink.
ARRAY_BUDGET_BYTES = 128 * 2**20


def _codeword_features(cparts, scale):
    """(f, |C|) real features of the codewords C sent at amplitude `scale`,
    one column a word: the parts of scale^2 C C^* over those of -2 scale C,
    laid out as `_ml_decode`'s row features.  `cparts` holds real n x n words
    as an (|C|, n, n) stack or quaternion p x p words as (4, |C|, p, p)
    parts, so f = 2 n^2 in both modes.  C^* is first written where -2 scale C
    goes, as both factors of C C^* = (C^*)^* C^*, so beside the result only
    one |C|-vector of `linalg.bmm` is allocated."""
    k, words = cparts.shape[-1], cparts.shape[-3]
    feats = np.empty((2, *cparts.shape[:-3], k, k, words))
    gram, lin = np.moveaxis(feats, -1, -3)  # the word axis last in memory
    np.copyto(lin, cparts.swapaxes(-1, -2))
    if lin.ndim == 4:  # the conjugate negates a quaternion's parts 1-3
        np.negative(lin[1:], out=lin[1:])
    linalg.bmm(lin, lin, conj=True, out=gram)
    gram *= scale ** 2
    np.copyto(lin, cparts)  # a ufunc from cparts into the strided lin would buffer
    lin *= -2.0 * scale
    return feats.reshape(-1, words)


def _decode_rows(words, f):
    """Rows of one metric product against `words` codewords of `f` features:
    under DECODE_MACS multiply-adds but at least 64 rows, and under
    DECODE_BUDGET_BYTES of metric but at least 1 row."""
    return min(max(64, DECODE_MACS // (words * f)), max(1, DECODE_BUDGET_BYTES // (8 * words)))


def _ml_decode(h, y, cword_feats):
    """Exhaustive-ML decisions argmin_k ||y - scale H C_k||^2 per row (lowest
    index on ties), `scale` being the amplitude `cword_feats` was built for;
    H and y are real (N, ., .) stacks or (4, N, ., .) quaternion parts.

    ||y - s H C||^2 = ||y||^2 - 2s <H^* y, C> + s^2 <H^* H, C C^*>, where
    <A, B> = Re tr(A^* B) is the dot product of the real parts (for
    quaternion matrices half that of their lifts).  ||y||^2 is the same for
    every codeword and dropped, so the metric is the real product of the row
    features, the parts of [H^* H | H^* y], with `cword_feats`, sub-batched
    under DECODE_MACS (64 rows at least) and DECODE_BUDGET_BYTES.
    """
    k, batch = h.shape[-1], h.shape[-3]
    feats = np.empty((2, *h.shape[:-3], k, k, batch))
    gram, hy = np.moveaxis(feats, -1, -3)  # the batch axis last in memory
    linalg.bmm(h, h, conj=True, out=gram)
    linalg.bmm(h, y, conj=True, out=hy)
    feats = feats.reshape(-1, batch)
    rows = _decode_rows(cword_feats.shape[1], len(feats))
    return np.concatenate([np.argmin(feats[:, lo:lo + rows].T @ cword_feats, axis=1)
                           for lo in range(0, batch, rows)])


def estimate_error_prob(lat, cfg, snr_grid_db, trials, rng, weighting="events"):
    """Block error rate of exhaustive-ML decoding with its fitted slope.

    Per SNR point the codebook is the spherically shaped shell at that SNR,
    except at r = 0 where one `fixed_codebook` constellation is reused
    across the sweep (constant rate).  `trials` is one count for every SNR
    point or one per point.  The counters keep their codewords, as real
    parts, and features (96 B a word at n = 2: 2 n^2 floats of features and
    n^2 of parts), so before any chunk runs a zero-word codebook, or
    codebooks over the SHELL_CAP // rank words of one shell, fail.
    """
    mode, n, m = cfg.mode, cfg.n, cfg.m
    flavor = "real" if mode == "real" else "quaternionic"
    if (lat.flavor, lat.ambient_n) != (flavor, n):
        raise ValueError(f"{mode} mode at --n={n} needs a {flavor} lattice of {n}x{n} "
                         f"codewords, not {lat.flavor} {lat.ambient_n}x{lat.ambient_n}")
    row_bytes = (16 if mode == "real" else 32) * n * max(2 * m, n)
    fixed = functools.cache(lambda: fixed_codebook(lat))
    # a chunk's channel or noise: real 2m x n blocks, or the parts of m x p
    # quaternion blocks
    lead, block = ((), (2 * m, n)) if mode == "real" else ((4,), (m, cfg.p))

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

        def count(st, size):
            hs, ws = (channel.draw_real(st, (*lead, size, *block)) for _ in range(2))
            tx = st.integers(0, feats.shape[1], size=size)

            def errors(rows):
                h = hs[..., rows, :, :]
                y = channel.receive(h, cparts[..., tx[rows], :, :], scale, ws[..., rows, :, :])
                return np.count_nonzero(_ml_decode(h, y, feats) != tx[rows])
            return _sum_blocks(size, errors)
        return count

    return _sweep(snr_grid_db, trials, rng, ERROR_CHUNK, row_bytes, counter, weighting)
