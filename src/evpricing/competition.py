"""Optimal dynamic-pricing policy value and large-market competition complexity.

The dynamic-programming value sequence G_0 = 0, G_{n+1} = E max(X, G_n) is
extended through its tail-integral form G_{n+1} = G_n + I(G_n), with
I(g) = int_g^{omega_1} (1 - F(u)) du the model's closed form
(``_tail_integral``), so a step takes no quadrature.  The competition
complexity at market size n is the least m with G_m >= E max(M_n, 0) for the
maximum M_n of n draws (``expected_max``, a closed form per kind, which is
I(0) = G_1 at n = 1), found by bisection in the nondecreasing G_m and reported
as m/n next to the closed form (1 - gamma) * Gamma(1 - gamma)^(1/gamma).

Amortization is automatic per model: the values G_0..G_N computed so far for
each model in this process are kept once (``_KNOWN``), and every extension on
their path copies them and steps only past their end.  The memo lives as long
as the model and holds the longest sequence requested.
"""

from __future__ import annotations

import math
import threading
import weakref
from bisect import bisect_left
from dataclasses import dataclass, field

from .distributions import EULER_MASCHERONI, DistributionModel, EvtFamily, _index, expected_max
from .errors import ConvergenceError, DivergenceError, DomainError
from .kernel import _lgamma_ratio

__all__ = [
    "PolicySequence",
    "CompetitionRecord",
    "extend_policy",
    "empirical_competition_complexity",
    "theoretical_cc",
    "cc_family_bounds",
    "quantile_policy_approx",
    "expected_max_approx",
]

#: The canonical G_0..G_N of each model computed so far in this process, released
#: with the model.  Equal models share an entry: they differ at most in the sign
#: of a zero parameter, which changes no step.
_KNOWN: weakref.WeakKeyDictionary[DistributionModel, list[float]] = weakref.WeakKeyDictionary()
_KNOWN_LOCK = threading.Lock()


@dataclass
class PolicySequence:
    """Append-only dynamic-programming values G_0..G_N for one model.

    Single writer: extension mutates the list in place; reading an already
    computed prefix from other threads is safe.  Sequences of one model share
    the per-model memo of ``extend_policy``, which is locked.
    """

    model: DistributionModel
    values: list[float] = field(default_factory=lambda: [0.0])

    def __post_init__(self):
        if self.model.evt_index().gamma >= 1:
            raise DivergenceError(
                "policy sequence diverges: the model has an infinite mean")
        if not isinstance(self.values, list):
            raise DomainError(
                f"policy sequence values must be a list, got {type(self.values).__name__}")
        if not self.values or self.values[0] != 0.0:
            raise DomainError("policy sequence must start at G_0 = 0")

    def value(self, n: int) -> float:
        """G_n, extending the sequence as needed."""
        extend_policy(self, n)
        return self.values[n]


def extend_policy(seq: PolicySequence, up_to: int,
                  target: float = math.inf) -> PolicySequence:
    """Fill the value sequence through index up_to, or until its last value
    reaches target; returns the same object.

    A step is ``_tail_integral(g)`` bit for bit, scale times the model's ``_tail``,
    read once: the sequence's model was checked for a finite mean when it was made.
    A step reads only the last value, so when that value is the model's known
    one at its index (``_KNOWN``, bit for bit) the known continuation is copied,
    and only the steps past its end are taken and appended to it.  A sequence
    whose last value is not the known one (-0.0 for 0.0, or a changed value) is
    stepped without the memo.
    """
    up_to = _index(up_to, "extend_policy requires an integer up_to >= 0", 0)
    values = seq.values
    if len(values) > up_to or not values[-1] < target:
        return seq
    i = len(values) - 1
    with _KNOWN_LOCK:
        known = _KNOWN.setdefault(seq.model, [0.0])
        on_path = (i < len(known) and isinstance(values[i], float)
                   and values[i].hex() == known[i].hex())
        if on_path:
            # G is nondecreasing (a step adds I(g) >= 0): copy through the
            # first value >= target, as the steps would stop there
            stop = min(up_to + 1, len(known))
            stop = min(stop, bisect_left(known, target, i + 1, stop) + 1)
            values += known[i + 1:stop]
    start = len(values)
    tail, scale = seq.model._tail, seq.model._reduced[1]
    g = values[-1]
    while len(values) <= up_to and g < target:
        g += scale * tail(g)
        values.append(g)
    if on_path and len(values) > start:
        # another writer may have gone further meanwhile, with the same values
        with _KNOWN_LOCK:
            known += values[len(known):]
    return seq


@dataclass(frozen=True)
class CompetitionRecord:
    """Empirical and theoretical competition complexity at one market size."""

    n: int
    m_star: int
    empirical_ratio: float
    theoretical: float
    gamma: float


def theoretical_cc(gamma: float) -> float:
    """Closed-form large-market competition complexity for index gamma < 1,
    (1 - gamma)*exp(lgamma(1 - gamma)/gamma).

    Below |gamma| = 0.03, where that quotient cancels, it is the series
    ``kernel._lgamma_ratio``; at gamma = 0 that gives the limit exp(euler_gamma),
    about 1.781.
    """
    if not -math.inf < gamma < 1:
        raise DomainError(f"competition complexity requires -inf < gamma < 1, got {gamma}")
    if abs(gamma) < 0.03:
        return (1.0 - gamma) * math.exp(_lgamma_ratio(gamma))
    return (1.0 - gamma) * math.exp(math.lgamma(1.0 - gamma) / gamma)


def empirical_competition_complexity(d: DistributionModel, n: int,
                                     seq: PolicySequence | None = None,
                                     ) -> CompetitionRecord:
    """Least m with G_m >= E max(M_n, 0) (M_n: max of n draws), as a CompetitionRecord.

    Amortization is automatic per model: the values computed for the model in
    this process are copied, not stepped again (see ``extend_policy``); the memo
    lives as long as the model and holds the longest sequence requested.  A
    sequence passed as seq must belong to the same model.
    """
    n = _index(n, "requires an integer n >= 1", 1)
    gamma = d.evt_index().gamma
    if seq is None:
        seq = PolicySequence(d)
    elif seq.model != d:
        raise DomainError("policy sequence belongs to a different model")
    target = expected_max(d, n)
    theoretical = theoretical_cc(gamma)
    cap = int(math.ceil(10.0 * n * theoretical))
    extend_policy(seq, cap, target)
    m = bisect_left(seq.values, target, 1)
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
    if n < 1:
        raise DomainError(f"quantile_policy_approx requires n >= 1, got {n}")
    gamma = d.evt_index().gamma
    if gamma >= 1:
        raise DomainError(f"approximation requires gamma < 1, got {gamma}")
    return float(d.quantile(1.0 - (1.0 - gamma) / (n + 1.0)))


def expected_max_approx(d: DistributionModel, n: int) -> float:
    """Family-specific closed approximation of E(max of n draws), on the
    standard member Z of ``_standard``: loc + scale * E_Z."""
    if n < 1:
        raise DomainError(f"expected_max_approx requires n >= 1, got {n}")
    ev = d.evt_index()
    gamma = ev.gamma
    if gamma >= 1:
        raise DomainError(f"approximation requires gamma < 1, got {gamma}")
    loc, scale, z = d._reduced
    if loc != 0.0 or scale != 1.0:
        return loc + scale * expected_max_approx(z, n)
    if ev.family is EvtFamily.FRECHET:
        return math.gamma(1.0 - gamma) * float(d.quantile(1.0 - 1.0 / n))
    if ev.family is EvtFamily.GUMBEL:
        return float(d.quantile(1.0 - math.exp(-EULER_MASCHERONI) / n))
    hi = d.support.hi
    return hi - math.gamma(1.0 - gamma) * (hi - float(d.quantile(1.0 - 1.0 / n)))

