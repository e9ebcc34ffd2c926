"""Parametric distribution models with extreme-value metadata.

Each model exposes cdf/pdf/quantile/survival plus its extreme-value index and
closed-form scaling/shifting sequences.  Order-statistic functionals, upper
conditional means and virtual valuations are module-level functions generic
over the models.

All models are immutable after construction; every operation is pure.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from scipy import special

from .errors import DivergenceError, DomainError, SpecStringError
from .kernel import DEFAULT_TOL, ArrayLike, Interval, find_root, integrate

__all__ = [
    "EvtFamily",
    "EvtIndex",
    "NormalizingSequences",
    "Support",
    "DistributionModel",
    "Pareto",
    "Exponential",
    "Uniform",
    "Frechet",
    "Gumbel",
    "BoundedPower",
    "parse_distribution",
    "order_statistic_tail",
    "order_statistic_mean",
    "conditional_mean_above",
    "virtual_valuation",
    "virtual_tail_ratio",
]

# Binomial tails switch to the incomplete-beta identity above this sample
# size; direct log-space summation would be slow and gains nothing there.
_DIRECT_BINOMIAL_MAX_N = 1000


class EvtFamily(Enum):
    FRECHET = "frechet"
    GUMBEL = "gumbel"
    REVERSED_WEIBULL = "reversed_weibull"


@dataclass(frozen=True)
class EvtIndex:
    """Extreme-value index gamma with its family tag.

    gamma > 0 for Frechet-type tails, 0 for Gumbel-type, < 0 for
    reversed-Weibull-type (bounded upper endpoint).
    """

    gamma: float
    family: EvtFamily

    def __post_init__(self):
        ok = ((self.family is EvtFamily.FRECHET and self.gamma > 0)
              or (self.family is EvtFamily.GUMBEL and self.gamma == 0)
              or (self.family is EvtFamily.REVERSED_WEIBULL and self.gamma < 0))
        if not ok:
            raise DomainError(
                f"inconsistent extreme-value index: gamma={self.gamma}, "
                f"family={self.family}")


@dataclass(frozen=True)
class NormalizingSequences:
    """Scaling a_n > 0 and shifting b_n making (M_n - b_n)/a_n converge.

    Both callables accept real n >= 1, not just integers.
    """

    a_of_n: Callable[[float], float]
    b_of_n: Callable[[float], float]


@dataclass(frozen=True)
class Support:
    """Open support (lo, hi); either endpoint may be infinite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"support requires lo < hi, got ({self.lo}, {self.hi})")


def _maybe_scalar(x: np.ndarray, scalar: bool) -> ArrayLike:
    return float(x) if scalar else x


class DistributionModel(ABC):
    """Common surface of all parametric models."""

    @property
    @abstractmethod
    def support(self) -> Support:
        """Open support interval (omega_0, omega_1)."""

    @abstractmethod
    def _cdf(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _sf(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _pdf(self, t: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _quantile(self, q: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def evt_index(self) -> EvtIndex: ...

    @abstractmethod
    def normalizing_sequences(self) -> NormalizingSequences: ...

    def cdf(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        return _maybe_scalar(self._cdf(arr), arr.ndim == 0)

    def sf(self, t: ArrayLike) -> ArrayLike:
        """Survival function 1 - F(t), computed without cancellation."""
        arr = np.asarray(t, dtype=float)
        return _maybe_scalar(self._sf(arr), arr.ndim == 0)

    def pdf(self, t: ArrayLike) -> ArrayLike:
        arr = np.asarray(t, dtype=float)
        return _maybe_scalar(self._pdf(arr), arr.ndim == 0)

    def quantile(self, q: ArrayLike) -> ArrayLike:
        """Generalized inverse F^{-1}(q) = inf{t : F(t) >= q}.

        q = 0 or 1 is allowed only when the corresponding support endpoint
        is finite.
        """
        arr = np.asarray(q, dtype=float)
        if np.any(arr < 0) or np.any(arr > 1):
            raise DomainError("quantile requires q in [0, 1]")
        sup = self.support
        if np.any(arr == 0) and math.isinf(sup.lo):
            raise DomainError("quantile(0) undefined: lower endpoint is infinite")
        if np.any(arr == 1) and math.isinf(sup.hi):
            raise DomainError("quantile(1) undefined: upper endpoint is infinite")
        with np.errstate(divide="ignore"):
            out = self._quantile(arr)
        return _maybe_scalar(out, arr.ndim == 0)

    def mean(self) -> float:
        """First moment, by tail integration (nonnegative support only)."""
        ev = self.evt_index()
        if ev.gamma >= 1:
            raise DivergenceError(f"{self!r} has an infinite mean (gamma >= 1)")
        if self.support.lo < 0:
            raise DomainError("mean() supports nonnegative-support models only")
        return _moment_integral(self, self.sf, ev.gamma)


def _check_positive(name: str, value: float) -> None:
    if not value > 0 or math.isinf(value) or math.isnan(value):
        raise DomainError(f"parameter {name} must be a positive real, got {value}")


@dataclass(frozen=True)
class Pareto(DistributionModel):
    """F(t) = 1 - t^(-alpha) on [1, inf)."""

    alpha: float

    def __post_init__(self):
        _check_positive("alpha", self.alpha)

    @property
    def support(self) -> Support:
        return Support(1.0, math.inf)

    def _cdf(self, t):
        tt = np.maximum(t, 1.0)
        return np.where(t < 1.0, 0.0, 1.0 - tt ** -self.alpha)

    def _sf(self, t):
        tt = np.maximum(t, 1.0)
        return np.where(t < 1.0, 1.0, tt ** -self.alpha)

    def _pdf(self, t):
        tt = np.maximum(t, 1.0)
        return np.where(t < 1.0, 0.0, self.alpha * tt ** (-self.alpha - 1.0))

    def _quantile(self, q):
        return (1.0 - q) ** (-1.0 / self.alpha)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(1.0 / self.alpha, EvtFamily.FRECHET)

    def normalizing_sequences(self) -> NormalizingSequences:
        inv = 1.0 / self.alpha
        return NormalizingSequences(lambda n: n ** inv, lambda n: 0.0)


@dataclass(frozen=True)
class Exponential(DistributionModel):
    """F(t) = 1 - exp(-rate * t) on [0, inf)."""

    rate: float

    def __post_init__(self):
        _check_positive("rate", self.rate)

    @property
    def support(self) -> Support:
        return Support(0.0, math.inf)

    def _cdf(self, t):
        return np.where(t < 0.0, 0.0, -np.expm1(-self.rate * np.maximum(t, 0.0)))

    def _sf(self, t):
        return np.where(t < 0.0, 1.0, np.exp(-self.rate * np.maximum(t, 0.0)))

    def _pdf(self, t):
        return np.where(t < 0.0, 0.0, self.rate * np.exp(-self.rate * np.maximum(t, 0.0)))

    def _quantile(self, q):
        return -np.log1p(-q) / self.rate

    def evt_index(self) -> EvtIndex:
        return EvtIndex(0.0, EvtFamily.GUMBEL)

    def normalizing_sequences(self) -> NormalizingSequences:
        # Von Mises pair: constant auxiliary function 1/rate at the quantile.
        rate = self.rate
        return NormalizingSequences(lambda n: 1.0 / rate,
                                    lambda n: math.log(n) / rate)


@dataclass(frozen=True)
class Uniform(DistributionModel):
    """Uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        if not self.a < self.b:
            raise DomainError(f"uniform requires a < b, got a={self.a}, b={self.b}")

    @property
    def support(self) -> Support:
        return Support(self.a, self.b)

    def _cdf(self, t):
        return np.clip((t - self.a) / (self.b - self.a), 0.0, 1.0)

    def _sf(self, t):
        return np.clip((self.b - t) / (self.b - self.a), 0.0, 1.0)

    def _pdf(self, t):
        inside = (t >= self.a) & (t <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def _quantile(self, q):
        return self.a + q * (self.b - self.a)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(-1.0, EvtFamily.REVERSED_WEIBULL)

    def normalizing_sequences(self) -> NormalizingSequences:
        width = self.b - self.a
        return NormalizingSequences(lambda n: width / n, lambda n: self.b)


@dataclass(frozen=True)
class Frechet(DistributionModel):
    """F(t) = exp(-((t - m)/s)^(-alpha)) on (m, inf)."""

    m: float
    s: float
    alpha: float

    def __post_init__(self):
        _check_positive("s", self.s)
        _check_positive("alpha", self.alpha)

    @property
    def support(self) -> Support:
        return Support(self.m, math.inf)

    def _z(self, t):
        return np.maximum((t - self.m) / self.s, 1e-300)

    def _cdf(self, t):
        with np.errstate(over="ignore"):
            return np.where(t <= self.m, 0.0, np.exp(-self._z(t) ** -self.alpha))

    def _sf(self, t):
        with np.errstate(over="ignore"):
            return np.where(t <= self.m, 1.0, -np.expm1(-self._z(t) ** -self.alpha))

    def _pdf(self, t):
        with np.errstate(over="ignore", under="ignore"):
            z = self._z(t)
            val = (self.alpha / self.s) * z ** (-self.alpha - 1.0) * np.exp(-z ** -self.alpha)
            val = np.where(np.isfinite(val), val, 0.0)
        return np.where(t <= self.m, 0.0, val)

    def _quantile(self, q):
        with np.errstate(divide="ignore", over="ignore"):
            y = -np.log(q)
            out = self.m + self.s * y ** (-1.0 / self.alpha)
        return np.where(q == 0.0, self.m, out)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(1.0 / self.alpha, EvtFamily.FRECHET)

    def normalizing_sequences(self) -> NormalizingSequences:
        def a_of_n(n: float) -> float:
            # F^{-1}(1 - 1/n); log1p keeps precision for large n.
            return self.m + self.s * (-math.log1p(-1.0 / n)) ** (-1.0 / self.alpha)

        return NormalizingSequences(a_of_n, lambda n: 0.0)


@dataclass(frozen=True)
class Gumbel(DistributionModel):
    """F(t) = exp(-exp(-(t - loc)/scale)) on the whole real line."""

    loc: float
    scale: float

    def __post_init__(self):
        _check_positive("scale", self.scale)

    @property
    def support(self) -> Support:
        return Support(-math.inf, math.inf)

    def _z(self, t):
        return (t - self.loc) / self.scale

    def _cdf(self, t):
        return np.exp(-np.exp(-self._z(t)))

    def _sf(self, t):
        return -np.expm1(-np.exp(-self._z(t)))

    def _pdf(self, t):
        z = self._z(t)
        return np.exp(-z - np.exp(-z)) / self.scale

    def _quantile(self, q):
        with np.errstate(divide="ignore"):
            return self.loc - self.scale * np.log(-np.log(q))

    def evt_index(self) -> EvtIndex:
        return EvtIndex(0.0, EvtFamily.GUMBEL)

    def normalizing_sequences(self) -> NormalizingSequences:
        # Max-stability is exact: F^n(scale*t + loc + scale*log n) = F(t).
        return NormalizingSequences(lambda n: self.scale,
                                    lambda n: self.loc + self.scale * math.log(n))


@dataclass(frozen=True)
class BoundedPower(DistributionModel):
    """F(t) = 1 - ((omega - t)/omega)^alpha on [0, omega].

    A reversed-Weibull-type family on nonnegative support; Uniform(0, 1) is
    the omega = alpha = 1 member.
    """

    omega: float
    alpha: float

    def __post_init__(self):
        _check_positive("omega", self.omega)
        _check_positive("alpha", self.alpha)

    @property
    def support(self) -> Support:
        return Support(0.0, self.omega)

    def _rel(self, t):
        return np.clip((self.omega - t) / self.omega, 0.0, 1.0)

    def _cdf(self, t):
        return 1.0 - self._rel(t) ** self.alpha

    def _sf(self, t):
        return self._rel(t) ** self.alpha

    def _pdf(self, t):
        inside = (t >= 0.0) & (t <= self.omega)
        with np.errstate(divide="ignore"):
            val = (self.alpha / self.omega) * self._rel(t) ** (self.alpha - 1.0)
        return np.where(inside, val, 0.0)

    def _quantile(self, q):
        return self.omega * (1.0 - (1.0 - q) ** (1.0 / self.alpha))

    def evt_index(self) -> EvtIndex:
        return EvtIndex(-1.0 / self.alpha, EvtFamily.REVERSED_WEIBULL)

    def normalizing_sequences(self) -> NormalizingSequences:
        inv = 1.0 / self.alpha
        return NormalizingSequences(lambda n: self.omega * n ** -inv,
                                    lambda n: self.omega)




_SPEC_SCHEMA: dict[str, tuple[type, tuple[str, ...]]] = {
    "pareto": (Pareto, ("alpha",)),
    "exp": (Exponential, ("rate",)),
    "uniform": (Uniform, ("a", "b")),
    "frechet": (Frechet, ("m", "s", "alpha")),
    "gumbel": (Gumbel, ("loc", "scale")),
    "bpower": (BoundedPower, ("omega", "alpha")),
}


def parse_distribution(spec: str) -> DistributionModel:
    """Build a model from a string like "pareto:alpha=2" or "uniform:a=0,b=1".

    Parse errors name the offending kind or key.
    """
    kind, sep, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _SPEC_SCHEMA:
        raise SpecStringError(
            f"unknown distribution kind {kind!r}; expected one of "
            f"{sorted(_SPEC_SCHEMA)}")
    cls, keys = _SPEC_SCHEMA[kind]
    if not sep or not rest.strip():
        raise SpecStringError(f"{kind}: missing parameters {keys}")
    params: dict[str, float] = {}
    for item in rest.split(","):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq:
            raise SpecStringError(f"{kind}: malformed parameter {item!r}")
        if key not in keys:
            raise SpecStringError(f"{kind}: unknown key {key!r}; expected {keys}")
        if key in params:
            raise SpecStringError(f"{kind}: duplicate key {key!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise SpecStringError(
                f"{kind}: value for key {key!r} is not a number: {value.strip()!r}"
            ) from None
    missing = [k for k in keys if k not in params]
    if missing:
        raise SpecStringError(f"{kind}: missing key {missing[0]!r}")
    try:
        return cls(**params)
    except DomainError as exc:
        raise SpecStringError(f"{kind}: {exc}") from None


def order_statistic_tail(d: DistributionModel, n: int, j: int, T: float) -> float:
    """P(M_n^j > T): probability the j-th largest of n draws exceeds T.

    The exceedance count is Binomial(n, 1 - F(T)); small n sums its upper
    tail in log space, large n goes through the incomplete-beta identity.
    """
    if not 1 <= j <= n:
        raise DomainError(f"order statistic requires 1 <= j <= n, got j={j}, n={n}")
    p = float(d.sf(T))
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    if n <= _DIRECT_BINOMIAL_MAX_N:
        i = np.arange(j, n + 1)
        log_terms = (special.gammaln(n + 1) - special.gammaln(i + 1)
                     - special.gammaln(n - i + 1)
                     + i * math.log(p) + (n - i) * math.log1p(-p))
        return float(min(1.0, np.exp(log_terms).sum()))
    return float(special.betainc(j, n - j + 1, p))


def _tail_options(d: DistributionModel, lo: float, gamma: float,
                  n: int = 1) -> dict:
    """Keyword arguments of ``integrate`` over [lo, omega_1) for an integrand
    with tail index gamma that equals 1 below the support of d; n is the
    sample size when the integrand is the tail of an order statistic.

    Where the tail-adapted map is in use (gamma > 1/2), the support's lower
    end is a breakpoint: its kink can fall between a panel's outermost node
    and the panel edge, where the error estimate cannot see it.  For
    gamma <= 1/2 the map and the panels are the plain ones, except that on
    a bounded support (gamma < 0) the top order statistics of n draws fall
    from 1 to 0 in a layer of quantile width about 1/n below omega_1.  A
    large n hides that layer between the outermost node of a panel and its
    edge, so the domain is split at the quantiles 1 - c/n, c in {1, 30}.
    """
    if gamma > 0.5 and lo < d.support.lo:
        return {"tail_gamma": gamma, "points": (d.support.lo,)}
    if gamma < 0:
        return {"tail_gamma": gamma,
                "points": tuple(float(d.quantile(1.0 - c / n)) for c in (1, 30) if c < n)}
    return {"tail_gamma": gamma}


def _moment_integral(d: DistributionModel, integrand, gamma: float, n: int = 1) -> float:
    """Integral over [0, omega_1) of a tail with index gamma (n as in
    ``_tail_options``), to an absolute 1e-10 or 1e-12 relative, whichever
    is looser: large heavy-tail moments have rounding levels above 1e-10."""
    return integrate(integrand, Interval(0.0, d.support.hi), tol=DEFAULT_TOL, rtol=1e-12,
                     **_tail_options(d, 0.0, gamma, n))


def order_statistic_mean(d: DistributionModel, n: int, j: int) -> float:
    """E(M_n^j) = integral over t >= 0 of P(M_n^j > t)."""
    if not 1 <= j <= n:
        raise DomainError(f"order statistic requires 1 <= j <= n, got j={j}, n={n}")
    if d.support.lo < 0:
        raise DomainError("order_statistic_mean requires nonnegative support")
    ev = d.evt_index()
    if ev.gamma > 0 and j <= ev.gamma:
        raise DivergenceError(
            f"E(M_n^{j}) diverges for gamma={ev.gamma:.4g} (alpha*j <= 1)")

    def tail(t: np.ndarray) -> np.ndarray:
        return np.array([order_statistic_tail(d, n, j, x) for x in t.tolist()])

    # P(M_n^j > t) falls like sf(t)^j: the tail index is gamma / j.
    return _moment_integral(d, tail, ev.gamma / j, n)


def conditional_mean_above(d: DistributionModel, T: float) -> float:
    """E(X | X > T) = T + integral of the survival function above T, scaled.

    The tail integral is taken to an absolute 1e-12*max(1, |T|)*sf(T) or to
    1e-12 relative, whichever is looser, so that the returned mean is right
    to 1e-12*max(1, |T|, E(X - T | X > T)) however thin the tail above T is.
    """
    s_T = float(d.sf(T))
    if s_T <= 0.0:
        raise DomainError(f"F({T}) = 1: conditioning event has probability 0")
    ev = d.evt_index()
    if ev.gamma >= 1:
        raise DivergenceError("conditional mean diverges: gamma >= 1")
    hi = d.support.hi
    # In the tail the survival function falls on the scale of the reciprocal
    # hazard sf/pdf (T/alpha for Pareto, 1/rate for Exponential).  Below the
    # median of a Gumbel or Frechet model the hazard at T is tiny and rises
    # fast above it, so sf/pdf there would map every node beyond the mass.
    f_T = float(d.pdf(T))
    scale = s_T / f_T if math.isinf(hi) and s_T <= 0.5 and f_T > 0.0 else 1.0
    tail = integrate(d.sf, Interval(T, hi), tol=1e-12 * max(1.0, abs(T)) * s_T,
                     rtol=1e-12, tail_scale=scale, **_tail_options(d, T, ev.gamma))
    return T + tail / s_T


def virtual_valuation(d: DistributionModel, t: float) -> float:
    """phi(t) = t - (1 - F(t))/f(t)."""
    f_t = float(d.pdf(t))
    if f_t <= 0.0:
        raise DomainError(f"density is zero at t={t}; virtual valuation undefined")
    return t - float(d.sf(t)) / f_t


def _probe_monotone_virtual(d: DistributionModel, t: float) -> None:
    """Check phi is nondecreasing on a quantile grid from median level up."""
    lo_q = max(0.5, float(d.cdf(t)) * 0.5 + 0.25)
    qs = 1.0 - np.geomspace(1.0 - lo_q, 1e-9, 50)
    grid = np.asarray(d.quantile(qs), dtype=float)
    vals = [virtual_valuation(d, float(g)) for g in grid]
    diffs = np.diff(vals)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if np.any(diffs < -1e-9 * scale):
        raise DomainError(
            "virtual valuation is not monotone on the probed upper grid")


def virtual_tail_ratio(d: DistributionModel, t: float) -> float:
    """(1 - F_phi(t)) / (1 - F(t)) where F_phi is the law of phi(X).

    Computed as sf(phi^{-1}(t)) / sf(t); the inverse is found by bracketed
    root search, after a numeric monotonicity check of phi.
    """
    sup = d.support
    if not sup.lo <= t < sup.hi:
        raise DomainError(f"t={t} must lie inside the support {sup}")
    _probe_monotone_virtual(d, t)
    s_t = float(d.sf(t))
    if s_t <= 0.0:
        raise DomainError(f"survival is zero at t={t}")

    def g(s: float) -> float:
        return virtual_valuation(d, s) - t

    # phi(s) <= s, so the preimage sits at or above t.
    if math.isinf(sup.lo):
        lo = t
    else:
        lo = max(t, sup.lo + 1e-12 * max(1.0, abs(sup.lo)))
    if math.isinf(sup.hi):
        hi = max(2.0 * abs(t), lo + 1.0)
        for _ in range(200):
            if g(hi) > 0:
                break
            hi *= 2.0
        else:
            raise DomainError("could not bracket the virtual-value preimage")
    else:
        hi = sup.hi - 1e-12 * max(1.0, abs(sup.hi))
        if g(hi) < 0:
            raise DomainError(f"phi stays below t={t} on the support")
    if g(lo) > 0:
        # Every value above t already maps above t: the preimage is t itself
        # only when phi(t) >= t, which monotone phi with phi(s) <= s forbids.
        raise DomainError(f"virtual valuation already exceeds t={t} at the bracket base")
    root = find_root(g, lo, hi, tol=1e-12 * max(1.0, abs(t)))
    return float(d.sf(root)) / s_t
