"""Diversity-multiplexing tradeoff laboratory for real and quaternionic
lattice space-time codes: closed-form tradeoff curves with independent
oracles, concrete non-vanishing-determinant orders, and Monte Carlo
outage / ML-error slope estimation."""

from .channel import SystemConfig, power_check
from .dmt import (Lemma2Problem, PiecewiseLinearCurve, a0_membership,
                  classical_dmt, d1_curve, d2_curve, exponent_quaternion,
                  exponent_real, laplace_exponent_estimate,
                  lemma2_bruteforce, lemma2_closed_form)
from .lattice import (Codebook, MatrixLattice, ResourceLimitError, audit,
                      build_hamilton_order, build_split_order,
                      fixed_codebook, lattice_from_json,
                      lattice_to_json, load_lattice,
                      matrix_lattice, shape_codebook, structure_check)
from .linalg import determinant, frobenius_norm
from .sim import (SlopeEstimate, check_mismatched_bound,
                  check_nvd_product_bound, chi2_tail, estimate_error_prob,
                  estimate_outage, fit_slope)

__version__ = "0.1.0"
