"""MIMO channel model, its stacked-real and quaternionic equivalents,
and the outage rate of both.

Conventions fixed here and used everywhere else:
  * received block  Y = sqrt(rho/n) H X + W, noise entries unit variance;
  * rates in bits (log base 2);
  * one outage event for both code classes (the outage formulation of
    Zheng and Tse, IEEE Trans. IT 2003): log2 det(I + c G) <= 2 r log2 rho
    (`log2_det_eye_plus`), G the Gram of the stacked-real channel (bound
    d1) or of the lifted quaternionic one (bound d2);
  * the quaternionic equivalent channel also carries the 1/sqrt(n) factor
    of `receive` into the ML-error sweeps.  The outage event does not:
    `sim.estimate_outage` takes c = rho/n for real codes and c = rho for
    quaternionic ones.  A quaternion outage curve at rho thus has the rate
    of the 1/sqrt(n) convention at n rho, 10 log10(n) dB higher, against
    the threshold of rho; the fitted slopes do not change.

`SystemConfig` alone validates a run's mode, antenna counts and gain.

Each channel computation is defined once, on a leading batch axis, and the
Monte Carlo estimators in `sim` call it.  Draws consume the generator in a
fixed order: h before w, the real part of a block before its imaginary part.
A run's draw shape is `SystemConfig.block_shape`.  `gram` alone forms the
channel Gram behind a rate or a spectrum, on the smaller side of H: the
outage rate is the log-determinant of I + c G at the identity input
covariance, taken with no eigensolver, and the Wishart samplers of `sim`
take eigenvalues of G.
Quaternion blocks are drawn as their real parts (`draw_real` of a
(4, N, m, p) array) and every consumer keeps them so: `receive` and `gram`
multiply parts, and only `gram` lifts, and only the l x l Gram, to a
complex 2l x 2l matrix (`lift_parts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import adjoint, as_matrix, bmm, logdet_pd, sq_norms

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

    def block_shape(self, size):
        """Shape of `size` channel (or noise) draws: real 2m x n blocks, or the
        (4, size, m, p) real parts of m x p quaternion blocks."""
        return (size, 2 * self.m, self.n) if self.mode == "real" else (4, size, self.m, self.p)


def draw_real(rng, shape):
    """i.i.d. real N(0, 1/2) entries: the stacked-real channel or noise.

    One standard-normal fill scaled in place by sqrt(1/2): bit-equal to
    ``rng.normal(0.0, sqrt(1/2), shape)``, which adds 0.0 to each scaled
    variate, except that an exact -0.0 keeps its sign here."""
    x = rng.standard_normal(shape)
    x *= math.sqrt(0.5)
    return x


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


def quaternion_parts(lifted):
    """The (4, b, m, p) real parts (Re M1, Im M1, Re M2, Im M2) of lifted
    b x 2m x 2p blocks [[M1, M2], [-conj(M2), conj(M1)]]: the real and
    imaginary parts of their top-left and top-right blocks, which
    `lift_parts` lifts back."""
    m, p = lifted.shape[1] // 2, lifted.shape[2] // 2
    top_l, top_r = lifted[:, :m, :p], lifted[:, :m, p:]
    return np.stack([top_l.real, top_l.imag, top_r.real, top_r.imag])


def receive(h, x, scale, w):
    """Received blocks scale * H X + W, the model's definition (the ML-error
    sweep never forms them), for H, X and W of one dtype, formed
    in place on the `linalg.bmm` product (batch axis last in memory): real or
    complex (N, ., .) stacks, or quaternion blocks as (4, N, ., .) real
    parts, which is lift_parts(Y) = scale lift(H) lift(X) + lift(W)."""
    y = bmm(h, x)
    y *= scale
    y += w
    return y


def gram(h):
    """The Gram of a real (N, a, b) stack or of quaternion (4, N, a, b) parts,
    taken on the smaller side of H: H H^* when a <= b, else H^* H, with the
    same nonzero eigenvalues (Sylvester).  A quaternion Gram, l x l with
    l = min(a, b), is lifted to a complex (N, 2l, 2l) stack (`lift_parts`);
    H itself never is.  Batch axis last in memory (`linalg.bmm`)."""
    g = bmm(h, adjoint(h)) if h.shape[-2] <= h.shape[-1] else bmm(adjoint(h), h)
    return lift_parts(g) if g.ndim == 4 else g


def log2_det_eye_plus(h, c):
    """log2 det(I + c G) per channel of a real (N, a, b) stack or of quaternion
    (4, N, a, b) parts, G its `gram`: the rate of the outage event of both
    code classes at the identity input covariance.  Of a stacked-real 2m x n
    channel it is twice the real mutual information at c = rho/n; of a lifted
    channel it is 2 sum log2(1 + c lambda_i) over the distinct Gram
    eigenvalues, with no pairing assumed.  With one quaternion on the smaller
    side of H (m or p = 1) the lifted Gram is (|M1|^2 + |M2|^2) I, so the
    rate is 2 log2(1 + c ||H||^2), with no lift and no elimination."""
    if h.ndim == 4 and min(h.shape[2:]) == 1:
        return 2.0 * np.log2(1.0 + c * sq_norms(h))
    g = gram(h)
    g *= c
    g += np.eye(g.shape[1])
    return logdet_pd(g) / np.log(2.0)


def quaternionic_defect(m):
    """Max entry deviation from the [[A, -B*], [B, A*]] block structure: from
    the lift (`lift_parts`) of the matrix's own top blocks."""
    a = as_matrix(m)
    rows, cols = a.shape
    if rows != cols or rows % 2:
        raise ValueError("quaternionic structure needs an even square matrix")
    return float(np.abs(a - lift_parts(quaternion_parts(a[None]))[0]).max(initial=0.0))
