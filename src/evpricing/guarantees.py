"""Welfare-guarantee functions for fixed-price policies in large markets.

The central object is the k-unit guarantee for Frechet-type tails with shape
alpha > 1:

    value(alpha, k) = Gamma(k)/Gamma(k + 1 - 1/alpha)
                      * max_{x > 0} x * sum_{j=1..k} P(Poisson(x^-alpha) >= j)

The Poisson-tail form is an exact rewrite of the defining double series
sum_{j<=k} sum_{s>=j} x^{-s*alpha}/s! * exp(-x^-alpha); it removes truncation
error, and E min(k, Poisson(y)) is one walk over the Poisson masses below k.

Gumbel-type and bounded-support (reversed-Weibull-type) tails need no
optimization: their guarantee is identically 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .distributions import DistributionModel, EvtFamily
from .errors import DomainError
from .kernel import _capped_sum, find_root, lambert_w_minus1, maximize_1d, poisson_cdf

__all__ = [
    "Method",
    "GuaranteeResult",
    "phi_k",
    "u_star",
    "phi_1_closed",
    "minimize_phi_1",
    "sqrt_bound",
    "kennedy_kertz_nu",
    "adaptivity_gap",
    "x_k_root",
    "phi_k_alpha2_closed",
    "guarantee_value",
]

#: Scalar optimizations over the shape parameter stop here; both objectives
#: tend to 1 monotonically well before this point.  The phi_1 minimum sits at
#: alpha ~= 1.6566 and the nu/phi_1 maximum at alpha ~= 2.5603.
ALPHA_SEARCH_HI = 50.0


class Method(Enum):
    CLOSED_FORM = "closed-form"
    NUMERIC_MAX = "numeric-max"


@dataclass(frozen=True)
class GuaranteeResult:
    """Guarantee value for (k, alpha) with the optimizer that produced it."""

    k: int
    alpha: float
    value: float
    argmax_x: float
    method: Method

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0 + 1e-12:
            raise DomainError(f"guarantee value {self.value} outside (0, 1]")
        if self.value < sqrt_bound(self.k) - 1e-9:
            raise DomainError(
                f"guarantee {self.value:.12g} below the k-unit floor "
                f"{sqrt_bound(self.k):.12g}")


def _check_alpha(alpha: float) -> None:
    # Frechet shapes at or below 1 have infinite mean; the ratio is undefined.
    if not alpha > 1:
        raise DomainError(f"guarantee requires alpha > 1, got {alpha}")


def _gamma_ratio(k: int, alpha: float) -> float:
    return math.exp(math.lgamma(k) - math.lgamma(k + 1.0 - 1.0 / alpha))


def _poisson_tail_sum(y: float, k: int) -> float:
    """E min(k, Poisson(y)) = sum_{m<k} m P(m) + k P(N >= k); k at y = inf."""
    return _capped_sum(-y, lambda m: y / (m + 1), 1, k)


def phi_k(alpha: float, k: int, numeric: bool = False) -> GuaranteeResult:
    """k-unit guarantee for Frechet-type tails of shape alpha.

    Closed forms are used when available (k = 1 via the Lambert-W optimizer;
    alpha = 2 via the Poisson-tail stationary point); pass numeric=True to
    force the bracketing-scan maximization instead.
    """
    _check_alpha(alpha)
    if k < 1:
        raise DomainError(f"phi_k requires k >= 1, got {k}")
    if not numeric:
        if k == 1:
            u = u_star(alpha)
            return GuaranteeResult(1, alpha, phi_1_closed(alpha), u, Method.CLOSED_FORM)
        if alpha == 2.0:
            x = x_k_root(k)
            return GuaranteeResult(k, alpha, phi_k_alpha2_closed(k), x,
                                   Method.CLOSED_FORM)

    def objective(x: float) -> float:
        log_y = -alpha * math.log(x)
        y = math.inf if log_y > 700.0 else math.exp(log_y)
        return x * _poisson_tail_sum(y, k)

    x_star, val = maximize_1d(objective, 0.0, math.inf, tol=1e-10)
    return GuaranteeResult(k, alpha, _gamma_ratio(k, alpha) * val, x_star,
                           Method.NUMERIC_MAX)


def u_star(alpha: float) -> float:
    """Optimizer of x (1 - exp(-x^-alpha)): the smallest nonnegative solution
    of U^alpha + alpha = U^alpha exp(U^-alpha), through the W_{-1} branch."""
    _check_alpha(alpha)
    w = lambert_w_minus1(-(1.0 / alpha) * math.exp(-1.0 / alpha))
    return (-(1.0 / alpha) * (alpha * w + 1.0)) ** (-1.0 / alpha)


def phi_1_closed(alpha: float) -> float:
    """Single-unit guarantee alpha / Gamma(2 - 1/alpha) * U/(U^alpha + alpha)."""
    _check_alpha(alpha)
    u = u_star(alpha)
    return alpha / math.gamma(2.0 - 1.0 / alpha) * u / (u ** alpha + alpha)


def minimize_phi_1() -> tuple[float, float]:
    """Worst shape for the single-unit guarantee: the unique interior minimum
    of phi_1 on (1, ALPHA_SEARCH_HI).  Returns (alpha_star, value)."""
    alpha_star, neg = maximize_1d(lambda a: -phi_1_closed(a), 1.0, ALPHA_SEARCH_HI,
                                  tol=1e-9)
    return alpha_star, -neg


def sqrt_bound(k: int) -> float:
    """Universal k-unit floor 1 - 1/sqrt(2 pi k)."""
    if k < 1:
        raise DomainError(f"sqrt_bound requires k >= 1, got {k}")
    return 1.0 - 1.0 / math.sqrt(2.0 * math.pi * k)


def kennedy_kertz_nu(alpha: float) -> float:
    """Large-market guarantee of the optimal dynamic policy for shape alpha."""
    _check_alpha(alpha)
    inv = 1.0 / alpha
    return (1.0 - inv) ** (1.0 - inv) / math.gamma(2.0 - inv)


def adaptivity_gap() -> tuple[float, float]:
    """Maximize nu/phi_1 over (1, ALPHA_SEARCH_HI): the worst-case advantage
    of the optimal dynamic policy over the best fixed price.

    Returns (alpha_at_max, gap).  At a smooth maximum the ratio is flat to
    second order, so double-precision values place alpha_at_max only to about
    sqrt(machine eps): it is accurate to about 1e-8 (2.560311026 against the
    exact 2.560311013), while gap is accurate to about 1e-15.
    """
    alpha_at_max, gap = maximize_1d(
        lambda a: kennedy_kertz_nu(a) / phi_1_closed(a),
        # Requested bracket width; the achievable accuracy in alpha is ~1e-8
        # (see above).  Changing it moves the golden-section path and so the
        # printed digits of alpha.
        1.0, ALPHA_SEARCH_HI, tol=1e-9)
    return alpha_at_max, gap


def _objective_derivative_alpha2(y: float, k: int) -> float:
    """d/dx of the alpha=2 objective, written with Poisson CDFs."""
    m = y ** -2.0
    return k * (1.0 - poisson_cdf(m, k)) - m * poisson_cdf(m, k - 1)


def x_k_root(k: int) -> float:
    """Stationary point of the alpha=2 objective, bracketed in
    [(k+1)^-1/2, k^-1/2]."""
    if k < 1:
        raise DomainError(f"x_k_root requires k >= 1, got {k}")
    lo = (k + 1.0) ** -0.5
    hi = k ** -0.5
    return find_root(lambda y: _objective_derivative_alpha2(y, k), lo, hi,
                     tol=1e-14)


def phi_k_alpha2_closed(k: int) -> float:
    """Closed form of the k-unit guarantee at alpha = 2, evaluated at x_k."""
    x = x_k_root(k)
    m = x ** -2.0
    return _gamma_ratio(k, 2.0) * (poisson_cdf(m, k - 1) / x + k * x * (1.0 - poisson_cdf(m, k)))


def guarantee_value(d: DistributionModel, k: int) -> float:
    """Guarantee of the best fixed price for distribution d and k units.

    Frechet-type models route through phi_k; Gumbel-type and bounded-support
    models achieve 1 with no optimization.
    """
    ev = d.evt_index()
    if ev.family is EvtFamily.FRECHET:
        return phi_k(1.0 / ev.gamma, k).value
    return 1.0
