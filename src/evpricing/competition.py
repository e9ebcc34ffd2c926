"""Optimal dynamic-pricing policy value and large-market competition complexity.

The dynamic-programming value sequence G_0 = 0, G_{n+1} = E max(X, G_n) is
extended through its tail-integral form G_{n+1} = G_n + I(G_n), with
I(g) = int_g^{omega_1} (1 - F(u)) du.  The tail I is carried along the
sequence: I(G_{n+1}) = I(G_n) - int_{G_n}^{G_{n+1}} (1 - F(u)) du, so a step
costs one short finite quadrature, and a full semi-infinite one is needed only
to start the sequence and to re-anchor the running tail after cancellation
has eaten into it.  The empirical competition complexity
of a distribution at market size n is the least m with G_m >= E max of n
draws, reported as m/n next to the closed-form constant
(1 - gamma) * Gamma(1 - gamma)^(1/gamma).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .distributions import DistributionModel, EvtFamily, _moment_integral, _tail_options
from .errors import ConvergenceError, DivergenceError, DomainError
from .kernel import Interval, integrate

__all__ = [
    "PolicySequence",
    "CompetitionRecord",
    "extend_policy",
    "expected_max",
    "empirical_competition_complexity",
    "theoretical_cc",
    "cc_family_bounds",
    "quantile_policy_approx",
    "expected_max_approx",
    "competition_to_csv",
]

EULER_MASCHERONI = float(np.euler_gamma)

#: Each finite piece int_{G_n}^{G_{n+1}} (1 - F) is integrated to this
#: tolerance relative to the step G_{n+1} - G_n.  A piece's error stays in
#: every later value until the next anchor; at 1e-12 the first Pareto(3)
#: piece, across the kink at 1, left 2.5e-13 relative error in G_n.
_PIECE_RTOL = 1e-13

#: Subtracting pieces from the running tail loses its leading digits; once it
#: falls below this fraction of the last anchored tail, a fresh semi-infinite
#: quadrature replaces it, which bounds the cancellation to three digits.
_REANCHOR_FRACTION = 1e-3


@dataclass
class PolicySequence:
    """Append-only dynamic-programming values G_0..G_N for one model.

    Single writer: extension mutates the list in place and owns the running
    tail integral kept for the last value; reading an already computed prefix
    from other threads is safe.
    """

    model: DistributionModel
    values: list[float] = field(default_factory=lambda: [0.0])
    #: (n, I(G_n), last anchored tail) for n = len(values) - 1, or None;
    #: a sequence whose values were set from outside re-anchors.
    _tail: tuple[int, float, float] | None = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.model.evt_index().gamma >= 1:
            raise DivergenceError(
                "policy sequence diverges: the model has an infinite mean")
        if not self.values or self.values[0] != 0.0:
            raise DomainError("policy sequence must start at G_0 = 0")

    def value(self, n: int) -> float:
        """G_n, extending the sequence as needed."""
        extend_policy(self, n)
        return self.values[n]


def _policy_step(d: DistributionModel, g: float) -> float:
    """The anchor: the full tail int_g^{omega_1} (1 - F(u)) du."""
    hi = d.support.hi
    tail_mass = float(d.sf(g))
    if tail_mass <= 0.0 or g >= hi:
        return 0.0
    return integrate(d.sf, Interval(g, hi), tol=1e-12, rtol=1e-12,
                     **_tail_options(d, g, d.evt_index().gamma))


def extend_policy(seq: PolicySequence, up_to: int) -> PolicySequence:
    """Fill the value sequence through index up_to; returns the same object."""
    if up_to < 0:
        raise DomainError(f"extend_policy requires up_to >= 0, got {up_to}")
    if len(seq.values) > up_to:
        return seq
    d = seq.model
    g = seq.values[-1]
    if seq._tail is not None and seq._tail[0] == len(seq.values) - 1:
        _, tail, anchor = seq._tail
    else:
        tail = anchor = _policy_step(d, g)
    while len(seq.values) <= up_to:
        g_next = g + tail
        seq.values.append(g_next)
        # The step vanishes at the top of a bounded support, or when it is
        # below one ulp of g; the tail at an unmoved g is unchanged.
        if g_next > g:
            tail -= integrate(d.sf, Interval(g, g_next), tol=_PIECE_RTOL * (g_next - g))
            if tail < _REANCHOR_FRACTION * anchor:
                tail = anchor = _policy_step(d, g_next)
        g = g_next
    seq._tail = (len(seq.values) - 1, tail, anchor)
    return seq


def _survival_power(s: np.ndarray, n: int) -> np.ndarray:
    """1 - (1 - s)^n for survival values s, without cancellation."""
    with np.errstate(divide="ignore"):
        return -np.expm1(n * np.log1p(-np.clip(s, 0.0, 1.0)))


def expected_max(d: DistributionModel, n: int) -> float:
    """E max of n i.i.d. draws, as int over t >= 0 of (1 - F(t)^n)."""
    if n < 1:
        raise DomainError(f"expected_max requires n >= 1, got {n}")
    gamma = d.evt_index().gamma
    if gamma >= 1:
        raise DivergenceError(f"E(max) diverges for gamma={gamma:.4g}")

    def integrand(t: np.ndarray) -> np.ndarray:
        return _survival_power(d.sf(t), n)

    return _moment_integral(d, integrand, gamma, n)


@dataclass(frozen=True)
class CompetitionRecord:
    """Empirical and theoretical competition complexity at one market size."""

    n: int
    m_star: int
    empirical_ratio: float
    theoretical: float
    gamma: float


def theoretical_cc(gamma: float) -> float:
    """Closed-form large-market competition complexity for index gamma < 1.

    At gamma = 0 the formula is taken in the limit: exp of the
    Euler-Mascheroni constant, about 1.781.
    """
    if gamma >= 1:
        raise DomainError(f"competition complexity requires gamma < 1, got {gamma}")
    if abs(gamma) <= 1e-8:
        return math.exp(EULER_MASCHERONI)
    return (1.0 - gamma) * math.exp(math.lgamma(1.0 - gamma) / gamma)


def empirical_competition_complexity(d: DistributionModel, n: int,
                                     seq: PolicySequence | None = None,
                                     ) -> CompetitionRecord:
    """Least m with G_m >= E(max of n draws), as a CompetitionRecord.

    Pass a PolicySequence to amortize the dynamic-programming extension
    across calls with increasing n; it must belong to the same model.
    """
    if n < 1:
        raise DomainError(f"requires n >= 1, got {n}")
    gamma = d.evt_index().gamma
    if gamma >= 1:
        raise DivergenceError(f"competition complexity needs gamma < 1, got {gamma}")
    if seq is None:
        seq = PolicySequence(d)
    elif seq.model != d:
        raise DomainError("policy sequence belongs to a different model")
    target = expected_max(d, n)
    theoretical = theoretical_cc(gamma)
    cap = int(math.ceil(10.0 * n * theoretical))
    m = 1
    while seq.value(m) < target:
        m += 1
        if m > cap:
            raise ConvergenceError(
                f"policy sequence failed to reach E(max of {n}) within {cap} steps",
                seq.values[-1], target - seq.values[-1])
    return CompetitionRecord(n, m, m / n, theoretical, gamma)


def cc_family_bounds(family: EvtFamily) -> tuple[float, float]:
    """Range of the competition complexity over one extreme-value family."""
    e_gamma = math.exp(EULER_MASCHERONI)
    if family is EvtFamily.FRECHET:
        return 1.0, e_gamma
    if family is EvtFamily.GUMBEL:
        return e_gamma, e_gamma
    return e_gamma, math.e


def quantile_policy_approx(d: DistributionModel, n: int) -> float:
    """Quantile approximation F^{-1}(1 - (1 - gamma)/(n + 1)) of G_n."""
    gamma = d.evt_index().gamma
    if gamma >= 1:
        raise DomainError(f"approximation requires gamma < 1, got {gamma}")
    return float(d.quantile(1.0 - (1.0 - gamma) / (n + 1.0)))


def expected_max_approx(d: DistributionModel, n: int) -> float:
    """Family-specific closed approximation of E(max of n draws)."""
    ev = d.evt_index()
    gamma = ev.gamma
    if gamma >= 1:
        raise DomainError(f"approximation requires gamma < 1, got {gamma}")
    if ev.family is EvtFamily.FRECHET:
        return math.gamma(1.0 - gamma) * float(d.quantile(1.0 - 1.0 / n))
    if ev.family is EvtFamily.GUMBEL:
        return float(d.quantile(1.0 - math.exp(-EULER_MASCHERONI) / n))
    hi = d.support.hi
    return hi - math.gamma(1.0 - gamma) * (hi - float(d.quantile(1.0 - 1.0 / n)))


def competition_to_csv(records: Iterable[CompetitionRecord]) -> str:
    out = io.StringIO()
    out.write("n,m_star,empirical_ratio,theoretical,gamma\n")
    for r in records:
        out.write(f"{r.n},{r.m_star},{r.empirical_ratio:.12g},"
                  f"{r.theoretical:.12g},{r.gamma:.12g}\n")
    return out.getvalue()
