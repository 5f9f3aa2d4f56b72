"""The unnormalized eigenvalue density of the stacked-real Wishart spectrum,
kept for the tests, where it checks `sim.sample_wishart_real_batch` against
its closed form.  No command reads it.  ROADMAP items 10 and 11 (exact
finite-SNR outage oracles, importance sampling on the spectrum) take it
back into `sim` when they need it.
"""

import numpy as np


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
