"""MIMO channel model, its stacked-real and quaternionic equivalents,
and the mutual-information / power-constraint functionals.

Conventions fixed here and used everywhere else:
  * received block  Y = sqrt(rho/n) H X + W, noise entries unit variance;
  * rates in bits (log base 2), so a rate threshold is r*log2(rho);
  * the quaternionic equivalent channel also carries the 1/sqrt(n) factor.

`SystemConfig` alone validates a run's mode, antenna counts and gain.

Each channel computation is defined once, on a leading batch axis, and the
Monte Carlo estimators in `sim` call it.  Draws consume the generator in a
fixed order: h before w, the real part of a block before its imaginary part.
Both mutual informations are log-determinants at the identity input
covariance, the one behind the outage event of both bounds, taken with no
eigensolver.  Eigenvalue spectra of the channel Gram are `sim`'s (the
Wishart samplers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, bmm, logdet_pd

LOG2 = np.log(2.0)
# The two code classes: real (bound d1) and quaternionic (bound d2).
MODES = ("real", "quaternion")


@dataclass(frozen=True)
class SystemConfig:
    """Code class, antenna counts and multiplexing gain of one simulated system.

    mode is one of MODES (quaternion needs even n), n transmit antennas
    (= block length), m receive antennas, multiplexing gain r in
    [0, min(m, n/2)], where both bounds d1 and d2 reach 0.
    """

    mode: str
    n: int
    m: int
    r: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.n < 1 or self.m < 1:
            raise ValueError(f"antenna counts --n/--m must be >= 1, "
                             f"got n={self.n}, m={self.m}")
        if self.mode == "quaternion" and self.n % 2:
            raise ValueError("quaternion mode needs even n")
        bound = min(self.m, self.n / 2)
        if not 0 <= self.r <= bound:
            raise ValueError(f"r={self.r} outside [0, min(m, n/2)] = [0, {bound:g}]")

    @property
    def p(self):
        """Half the transmit count: the quaternion columns of a lifted block."""
        return self.n // 2


def draw_real(rng, shape):
    """i.i.d. real N(0, 1/2) entries: the stacked-real channel or noise."""
    return rng.normal(0.0, math.sqrt(0.5), shape)


def draw_complex(rng, shape):
    """i.i.d. circularly symmetric CN(0, 1) entries (variance 1/2 per part)."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5)


def lift_parts(parts):
    """Lift the real parts (Re M1, Im M1, Re M2, Im M2) of b x m x p blocks,
    stacked as a (4, b, m, p) array, to [[M1, M2], [-conj(M2), conj(M1)]].

    The lift is multiplicative against quaternionic codewords, which is what
    turns the plain channel into its quaternionic equivalent form.
    """
    re1, im1, re2, im2 = parts
    b, m, p = re1.shape
    # batch axis last in memory, as `linalg.bmm` lays out its products
    out = np.empty((2 * m, 2 * p, b), dtype=complex).transpose(2, 0, 1)
    top_l, top_r, bot_l, bot_r = out[:, :m, :p], out[:, :m, p:], out[:, m:, :p], out[:, m:, p:]
    top_l.real, top_l.imag, top_r.real, top_r.imag = re1, im1, re2, im2
    np.negative(re2, out=bot_l.real)
    bot_l.imag, bot_r.real = im2, re1
    np.negative(im1, out=bot_r.imag)
    return out


def draw_lifted(rng, count, m, p):
    """`count` lifted 2m x 2p quaternionic channels (or noise blocks)."""
    return lift_parts(draw_real(rng, (4, count, m, p)))


def receive(h, x, scale, w):
    """Received blocks scale * H X + W, for H, X and W of one dtype, formed
    in place on the `linalg.bmm` product (batch axis last in memory)."""
    y = bmm(h, x)
    y *= scale
    y += w
    return y


def mutual_info_real_batch(h, rho):
    """0.5 * log2 det(I + (rho/n) H H^T) per stacked-real channel (identity
    input covariance), n being the column count of H."""
    g = bmm(h, h.transpose(0, 2, 1))
    g *= rho / h.shape[2]
    g += np.eye(h.shape[1])
    return logdet_pd(g) / (2.0 * LOG2)


def mutual_info_quaternion_batch(parts, rho):
    """log2 det(I + rho H^dag H) per lifted channel H = lift_parts(parts), that
    is 2 sum log2(1 + rho lambda_i) over the distinct Gram eigenvalues, with
    no pairing assumed; the Gram is taken on the smaller side of H
    (Sylvester).  With one quaternion on that side (m or p = 1) the Gram is
    (|M1|^2 + |M2|^2) I, which needs no lift and no elimination."""
    if min(parts.shape[2:]) == 1:
        g = np.einsum("abij,abij->b", parts, parts)
        g *= rho
        return 2.0 * np.log2(1.0 + g)
    hq = lift_parts(parts)
    hh = hq.conj().transpose(0, 2, 1)
    g = bmm(hh, hq) if hq.shape[2] <= hq.shape[1] else bmm(hq, hh)
    del hh  # a block's temporaries stay few, so the allocator keeps reusing them
    g *= rho
    g += np.eye(g.shape[1])
    return logdet_pd(g) / LOG2


def quaternionic_defect(m):
    """Max entry deviation from the [[A, -B*], [B, A*]] block structure."""
    a = as_matrix(m)
    rows, cols = a.shape
    if rows != cols or rows % 2:
        raise ValueError("quaternionic structure needs an even square matrix")
    p = rows // 2
    top_l, top_r = a[:p, :p], a[:p, p:]
    bot_l, bot_r = a[p:, :p], a[p:, p:]
    d1 = np.abs(bot_l + top_r.conj()).max() if p else 0.0
    d2 = np.abs(bot_r - top_l.conj()).max() if p else 0.0
    return float(max(d1, d2))


def power_check(cb):
    """Average power (1/|C|)(1/n^2) sum ||X||^2 and whether it is <= 1 + 1e-12."""
    if not len(cb.points):
        raise ValueError("empty codebook")
    avg = float(np.mean(np.abs(cb.points) ** 2))
    return avg, avg <= 1.0 + 1e-12
