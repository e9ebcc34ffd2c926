"""Welfare-guarantee functions for fixed-price policies in large markets.

The central object is the k-unit guarantee for Frechet-type tails with shape
alpha > 1:

    value(alpha, k) = Gamma(k)/Gamma(k + 1 - 1/alpha)
                      * max_{x > 0} x * sum_{j=1..k} P(Poisson(x^-alpha) >= j)

The Poisson-tail form is an exact rewrite of the defining double series
sum_{j<=k} sum_{s>=j} x^{-s*alpha}/s! * exp(-x^-alpha); it removes truncation
error, and E min(k, Poisson(y)) is one walk over the Poisson masses below k.
The maximum is the Lambert-W closed form at k = 1 and, for k >= 2, the root of
its first-order condition in y = x^-alpha.

Gumbel-type and bounded-support (reversed-Weibull-type) tails need no
optimization: their guarantee is identically 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError
from .kernel import _capped_sum, _mass_walk, find_root, lambert_w_minus1, maximize_1d

if TYPE_CHECKING:
    from .distributions import DistributionModel

__all__ = [
    "GuaranteeResult",
    "phi_k",
    "u_star",
    "phi_1_closed",
    "minimize_phi_1",
    "sqrt_bound",
    "kennedy_kertz_nu",
    "adaptivity_gap",
    "guarantee_value",
]

#: Scalar optimizations over the shape parameter stop here; both objectives
#: tend to 1 monotonically well before this point.  The phi_1 minimum sits at
#: alpha ~= 1.6566 and the nu/phi_1 maximum at alpha ~= 2.5603.
ALPHA_SEARCH_HI = 50.0

#: Doublings of y out of [k, k + 1]; y in [2**-64 k, 2**64 k] holds the
#: stationary point of every double alpha > 1.
ROOT_DOUBLINGS = 64


@dataclass(frozen=True)
class GuaranteeResult:
    """Guarantee value for (k, alpha) and its maximizer argmax_x."""

    k: int
    alpha: float
    value: float
    argmax_x: float

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise DomainError(f"guarantee value {self.value} outside (0, 1]")
        if self.value < sqrt_bound(self.k) - 1e-9:
            raise DomainError(
                f"guarantee {self.value:.12g} below the k-unit floor "
                f"{sqrt_bound(self.k):.12g}")


def _check_alpha(alpha: float) -> None:
    # Shapes at or below 1 have infinite mean, and an infinite shape is no Frechet law.
    if not 1 < alpha < math.inf:
        raise DomainError(f"guarantee requires 1 < alpha < inf, got alpha={alpha}")


def _gamma_ratio(k: int, alpha: float) -> float:
    """Gamma(k)/Gamma(k + 1 - g), g = 1/alpha, by the product of its ratios: a
    difference of lgammas is off by 1.6e-12 at k = 2000, putting phi_k above 1."""
    g = 1.0 / alpha
    return math.prod(j / (j + 1.0 - g) for j in range(1, k)) / math.gamma(2.0 - g)


def _poisson_tail_sum(y: float, k: int) -> float:
    """E min(k, Poisson(y)) = sum_{m<k} m P(m) + k P(N >= k); k at y = inf."""
    return _capped_sum(-y, lambda m: y / (m + 1), 1, k)


def phi_k(alpha: float, k: int) -> GuaranteeResult:
    """k-unit guarantee for Frechet-type tails of shape alpha.

    k = 1 is the Lambert-W closed form; every k >= 2 is the root of the
    first-order condition (``_stationary_point``).  At alpha = 2 the maximizer
    is the paper's x_k, with x_k^-2 in [k, k + 1].
    """
    _check_alpha(alpha)
    if k == 1:
        return GuaranteeResult(1, alpha, phi_1_closed(alpha), u_star(alpha))
    x, value = _stationary_point(alpha, k)
    return GuaranteeResult(k, alpha, value, x)


def _stationary_point(alpha: float, k: int) -> tuple[float, float]:
    """(x, value) at the maximum of x E min(k, N), N ~ Poisson(y), y = x^-alpha.

    The root in y of the first-order condition E min(k, N) = alpha y P(N <= k-1),
    written as k P(N > k) - (alpha - 1) y P(N < k) since y P(m) = (m + 1) P(m + 1):
    negative below the root, positive above.  The bracket [k, k + 1], which
    holds the root at alpha = 2, doubles outward until the sign changes.
    """
    if k < 1:
        raise DomainError(f"the k-unit guarantee requires k >= 1, got {k}")

    def condition(y: float) -> float:
        masses, tail = _mass_walk(-y, lambda m: y / (m + 1), k + 1)
        return k * tail - (alpha - 1.0) * y * math.fsum(masses[:k])

    lo, hi = float(k), k + 1.0
    for _ in range(ROOT_DOUBLINGS):
        if condition(lo) > 0.0:
            lo, hi = 0.5 * lo, lo
        elif condition(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
        else:
            break
    else:
        raise ConvergenceError(
            f"first-order condition of phi_k(alpha={alpha!r}, k={k}) not bracketed "
            f"within {ROOT_DOUBLINGS} doublings", math.nan, math.inf)
    y = find_root(condition, lo, hi, tol=0.0)
    x = y ** (-1.0 / alpha)
    # The guarantee is at most 1; at huge shapes the product rounds a few ulps above.
    return x, min(1.0, _gamma_ratio(k, alpha) * x * _poisson_tail_sum(y, k))


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
    alpha_star, neg = maximize_1d(lambda xs: [-phi_1_closed(a) for a in xs],
                                  1.0, ALPHA_SEARCH_HI, tol=1e-9)
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
        lambda xs: [kennedy_kertz_nu(a) / phi_1_closed(a) for a in xs],
        # Requested bracket width; the achievable accuracy in alpha is ~1e-8
        # (see above).  Changing it moves the golden-section path and so the
        # printed digits of alpha.
        1.0, ALPHA_SEARCH_HI, tol=1e-9)
    return alpha_at_max, gap


def guarantee_value(d: DistributionModel, k: int) -> float:
    """Guarantee of the best fixed price for distribution d and k units.

    Frechet-type models route through phi_k; Gumbel-type and bounded-support
    models achieve 1 with no optimization.
    """
    if k < 1:
        raise DomainError(f"the k-unit guarantee requires k >= 1, got {k}")
    # imported here so that the guarantee functions above never load the models
    from .distributions import EvtFamily
    ev = d.evt_index()
    if ev.family is EvtFamily.FRECHET:
        return phi_k(1.0 / ev.gamma, k).value
    return 1.0
