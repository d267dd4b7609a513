"""
Error bounds for lattice pricing with fixed-point quantum arithmetic.

Four sources contribute to the final price error, each expressed relative
to the normalized payoff range f_delta:

- truncation: probability mass dropped outside the w-sigma box;
- discretization: midpoint-rule quadrature error of the path lattice;
- arithmetic: fixed-point roundoff propagated through the density or
  price computation;
- amplitude estimation: the target half-width eps_amp of the interval
  (for the Riemann method, on the amplitude after the P_max^T
  normalization, so eps_amp * P_max^T is the price-level half-width).

The normalized Riemann-summation method additionally multiplies
everything by the normalization scale P_max^T, which is what renders it
impractical whenever P_max exceeds one.  ``circuit_estimator.end_to_end``
builds the :class:`ErrorBudget` for each method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qarith_resources import FixedPointFormat


@dataclass(frozen=True)
class ErrorBudget:
    """Per-source error components (payoff-normalized) and their scale.

    ``scale`` is the factor converting the normalized component sum into
    currency: P_max^T * f_delta for the normalized Riemann method, f_delta
    for the methods that apply no normalization.
    """

    eps_trunc: float
    eps_disc: float
    eps_arith: float
    eps_amp: float
    scale: float

    def __post_init__(self):
        for name in ("eps_trunc", "eps_disc", "eps_arith", "eps_amp", "scale"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def components_sum(self) -> float:
        return self.eps_trunc + self.eps_disc + self.eps_arith + self.eps_amp

    @property
    def eps_total(self) -> float:
        """Total error in currency units."""
        return self.scale * self.components_sum

    def as_dict(self) -> dict:
        return {
            "eps_trunc": self.eps_trunc,
            "eps_disc": self.eps_disc,
            "eps_arith": self.eps_arith,
            "eps_amp": self.eps_amp,
            "scale": self.scale,
            "eps_total": self.eps_total,
        }


def truncation_error(d: int, T: int, w: float) -> float:
    """Mass dropped by truncating each of the dT registers at w sigmas.

    Bound: 2 d T e^{-w^2/2}.
    """
    return 2.0 * d * T * math.exp(-0.5 * w * w)


def discretization_error(
    beta: float, w: float, sigma_max: float, d: int, T: int, n: int
) -> float:
    """Midpoint-rule quadrature error of the dT-dimensional path sum.

    Bound: beta * (2 w sigma_max)^{dT+2} / (24 * 2^{2n}) where beta bounds
    the integrand's second derivatives and n is the per-register width.
    sigma_max bounds every asset's marginal standard deviation
    sqrt(Sigma_jj), the return-space scale of one register's [-w, w].
    """
    exponent = d * T + 2
    return beta * (2 * w * sigma_max) ** exponent / (24.0 * 4.0**n)


def riemann_pmax(d: int, w: float, cov: np.ndarray | None = None) -> float:
    """Peak of the scaled one-step density under the Riemann normalization.

    The peak step density times the volume of the per-asset box
    mu_j +- w * sqrt(Sigma_jj), the image of each standard register's
    [-w, w] under that asset's marginal.  Uncorrelated assets give
    (2w / sqrt(2 pi))^d.  With a covariance matrix the peak becomes
    (2w)^d * prod_j sigma_j / ((2 pi)^{d/2} det(Sigma)^{1/2}), which
    reduces to the uncorrelated form when Sigma is diagonal.
    """
    if cov is None:
        return (2.0 * w / math.sqrt(2.0 * math.pi)) ** d
    cov = np.asarray(cov, dtype=float)
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("covariance must be positive-definite")
    log_p = (
        d * math.log(2.0 * w)
        + 0.5 * float(np.sum(np.log(np.diag(cov))))
        - 0.5 * d * math.log(2.0 * math.pi)
        - 0.5 * float(logdet)
    )
    return math.exp(log_p)


def reparam_arith_error(
    w: float, d: int, T: int, eps_dens: float, eps_f: float
) -> float:
    """Arithmetic error of the re-parameterization method.

    2 w d T eps_dens + eps_f, keeping only the linear terms: eps_dens is
    the per-register loader density error, eps_f the payoff-circuit error.
    """
    return 2.0 * w * d * T * eps_dens + eps_f


# Fixed-point propagation rules.  Each returns an absolute error bound on
# the stage output given bounds on its inputs.


def eps_add(fmt: FixedPointFormat) -> float:
    """Roundoff of one fixed-point addition: one unit in the last place."""
    return fmt.resolution


def eps_mul_roundoff(fmt: FixedPointFormat) -> float:
    """Roundoff of one fixed-point multiplication: n truncated partials."""
    return fmt.n * fmt.resolution


def eps_mul(b: float, eps_x: float, eps_y: float, fmt: FixedPointFormat) -> float:
    """Error of X*Y with |X|,|Y| <= b and input errors eps_x, eps_y."""
    return b * (eps_x + eps_y) + eps_mul_roundoff(fmt) + eps_x * eps_y


def eps_exp(eps_in: float, eps_exp0: float) -> float:
    """Error after the exponential stage: polynomial error plus input error."""
    return eps_exp0 + eps_in


def eps_sqrt(eps_in: float, fmt: FixedPointFormat) -> float:
    """Error after the square-root stage: 2^{-(n-p)/2} + sqrt(eps_in)."""
    return 2.0 ** (-(fmt.n - fmt.p) / 2.0) + math.sqrt(eps_in)


def eps_arcsin(eps_in: float, eps_arcsin0: float) -> float:
    """Error after arcsine, using its worst slope on [0, 1/2]."""
    if eps_in > 0.5:
        raise ValueError("input error too large for the arcsine bound")
    return eps_arcsin0 + math.asin(0.5) - math.asin(0.5 - eps_in)


def riemann_sum_error(
    fmt: FixedPointFormat, w: float, sigma_max: float, d: int, T: int
) -> float:
    """Fixed-point error of summing the quadratic form over d assets, T steps.

    The form has d squared and C(d, 2) cross terms per step.  Each is one
    multiplication (``eps_mul``) of centered returns bounded by
    w * sigma_max, each carrying one adder rounding (``eps_add``), so the
    bound is (d + C(d, 2)) * T times that product's error:
    ((2 w sigma_max + n) / 2^{n-p} + 1 / 4^{n-p}) * (d + C(d, 2)) * T.
    """
    eps_centered = eps_add(fmt)
    term = eps_mul(w * sigma_max, eps_centered, eps_centered, fmt)
    return term * (d + math.comb(d, 2)) * T


def riemann_density_error(
    eps_sum: float, fmt: FixedPointFormat, eps_exp0: float, eps_arcsin0: float
) -> float:
    """Error of the density amplitude after the exp, sqrt and arcsin stages.

    The propagation rules composed on the quadratic-form error eps_sum,
    with polynomial allocations eps_exp0 and eps_arcsin0.  The closing sine
    passes its input error through (|sin(a+b) - sin(a)| <= |b|), so the
    bound ends at the arcsine.
    """
    return eps_arcsin(eps_sqrt(eps_exp(eps_sum, eps_exp0), fmt), eps_arcsin0)
