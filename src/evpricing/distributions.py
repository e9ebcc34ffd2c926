"""Immutable parametric models with extreme-value metadata, and functionals
generic over them: order-statistic tails and means, expected maxima,
conditional means and virtual valuations.  Every operation is pure.

This module alone maps a model's tail to a finite bracket and picks its
quadrature options, by one rule, ``_sf_integral`` from T of a survival-type
function: sf itself for I(T) = E(X - T)^+ behind ``mean()``,
``conditional_mean_above`` and the anchors of :mod:`evpricing.competition`,
and from 0 the survival functions of the maximum and of the order statistics
for their means.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError, SpecStringError
from .kernel import ArrayLike, _capped_sum, find_root, integrate

__all__ = [
    "EvtFamily",
    "EvtIndex",
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
    "expected_max",
    "conditional_mean_above",
    "virtual_valuation",
    "virtual_tail_ratio",
]

# The unit binomial tail P(Bin(n, p) >= 1) up to this sample size is a log-space
# sum; every other tail walks the masses.  The README golden of `converge` on
# Pareto(2) prints the n = 1000 threshold to 12 digits, and golden-section steps
# fix it at rounding level, so that golden pins the exact bits of this sum (its
# printed ratio there is one off in the last place against mpmath).
_DIRECT_BINOMIAL_MAX_N = 1000


class EvtFamily(Enum):
    FRECHET = "frechet"
    GUMBEL = "gumbel"
    REVERSED_WEIBULL = "reversed_weibull"


@dataclass(frozen=True)
class EvtIndex:
    """Extreme-value index gamma; its sign gives the family.

    gamma > 0 for Frechet-type tails, 0 for Gumbel-type, < 0 for
    reversed-Weibull-type (bounded upper endpoint).
    """

    gamma: float

    def __post_init__(self):
        if math.isnan(self.gamma):
            raise DomainError("extreme-value index gamma is NaN")

    @property
    def family(self) -> EvtFamily:
        if self.gamma > 0:
            return EvtFamily.FRECHET
        if self.gamma == 0:
            return EvtFamily.GUMBEL
        return EvtFamily.REVERSED_WEIBULL


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


def _unit_clip(x: np.ndarray) -> np.ndarray:
    """np.clip(x, 0, 1) bit for bit, NaN and -0.0 included, in half its time:
    np.maximum returns its second argument on a tie of signed zeros."""
    return np.minimum(1.0, np.maximum(0.0, x))


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
    def normalizing_constants(self, n: float) -> tuple[float, float]:
        """Scaling a_n > 0 and shifting b_n making (M_n - b_n)/a_n converge,
        for real n >= 1, not just integers."""

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
        """First moment I(0), the tail integral from 0 (nonnegative support only)."""
        if self.support.lo < 0:
            raise DomainError("mean() supports nonnegative-support models only")
        return _sf_integral(self, 0.0)


def _check_param(name: str, value: float, positive: bool = True) -> None:
    if not math.isfinite(value) or (positive and not value > 0):
        kind = "positive" if positive else "finite"
        raise DomainError(f"parameter {name} must be a {kind} real, got {value}")


@dataclass(frozen=True)
class Pareto(DistributionModel):
    """F(t) = 1 - t^(-alpha) on [1, inf)."""

    alpha: float

    def __post_init__(self):
        _check_param("alpha", self.alpha)

    @property
    def support(self) -> Support:
        return Support(1.0, math.inf)

    def _cdf(self, t):
        tt = np.maximum(t, 1.0)
        return np.where(t < 1.0, 0.0, 1.0 - tt ** -self.alpha)

    def _sf(self, t):
        # 1 ** -alpha is exactly 1, so below the support this is 1 as well.
        return np.maximum(t, 1.0) ** -self.alpha

    def _pdf(self, t):
        tt = np.maximum(t, 1.0)
        return np.where(t < 1.0, 0.0, self.alpha * tt ** (-self.alpha - 1.0))

    def _quantile(self, q):
        return (1.0 - q) ** (-1.0 / self.alpha)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(1.0 / self.alpha)

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        return n ** (1.0 / self.alpha), 0.0


@dataclass(frozen=True)
class Exponential(DistributionModel):
    """F(t) = 1 - exp(-rate * t) on [0, inf)."""

    rate: float

    def __post_init__(self):
        _check_param("rate", self.rate)

    @property
    def support(self) -> Support:
        return Support(0.0, math.inf)

    def _x(self, t):
        # t clamped to [0, 1e300/rate], outside which the cdf is 0 or 1: no overflow.
        return self.rate * np.minimum(np.maximum(t, 0.0), 1e300 / self.rate)

    def _cdf(self, t):
        return -np.expm1(-self._x(t))

    def _sf(self, t):
        return np.exp(-self._x(t))

    def _pdf(self, t):
        return np.where(t < 0.0, 0.0, self.rate * np.exp(-self._x(t)))

    def _quantile(self, q):
        return -np.log1p(-q) / self.rate

    def evt_index(self) -> EvtIndex:
        return EvtIndex(0.0)

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        # Von Mises pair: constant auxiliary function 1/rate at the quantile.
        return 1.0 / self.rate, math.log(n) / self.rate


@dataclass(frozen=True)
class Uniform(DistributionModel):
    """Uniform on [a, b]."""

    a: float
    b: float

    def __post_init__(self):
        _check_param("a", self.a, positive=False)
        _check_param("b", self.b, positive=False)
        if not self.a < self.b:
            raise DomainError(f"uniform requires a < b, got a={self.a}, b={self.b}")

    @property
    def support(self) -> Support:
        return Support(self.a, self.b)

    def _cdf(self, t):
        return _unit_clip((t - self.a) / (self.b - self.a))

    def _sf(self, t):
        return _unit_clip((self.b - t) / (self.b - self.a))

    def _pdf(self, t):
        inside = (t >= self.a) & (t <= self.b)
        return np.where(inside, 1.0 / (self.b - self.a), 0.0)

    def _quantile(self, q):
        return self.a + q * (self.b - self.a)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(-1.0)

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        return (self.b - self.a) / n, self.b


@dataclass(frozen=True)
class Frechet(DistributionModel):
    """F(t) = exp(-((t - m)/s)^(-alpha)) on (m, inf)."""

    m: float
    s: float
    alpha: float

    def __post_init__(self):
        _check_param("m", self.m, positive=False)
        _check_param("s", self.s)
        _check_param("alpha", self.alpha)

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
        # Near and below m, z^(-alpha-1) overflows while exp(-z^-alpha)
        # underflows: their product is NaN where the density is 0.
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
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
        return EvtIndex(1.0 / self.alpha)

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        # a_n = F^{-1}(1 - 1/n); log1p keeps precision for large n, and at
        # n = 1 the limit y = inf gives the lower end F^{-1}(0) = m.
        y = -math.log1p(-1.0 / n) if n > 1 else math.inf
        return self.m + self.s * y ** (-1.0 / self.alpha), 0.0


@dataclass(frozen=True)
class Gumbel(DistributionModel):
    """F(t) = exp(-exp(-(t - loc)/scale)) on the whole real line."""

    loc: float
    scale: float

    def __post_init__(self):
        _check_param("loc", self.loc, positive=False)
        _check_param("scale", self.scale)

    @property
    def support(self) -> Support:
        return Support(-math.inf, math.inf)

    def _w(self, t):
        # -z = (loc - t)/scale clamped to [-800, 700]: beyond either end the
        # cdf, sf and pdf are constant in doubles, and exp(-z) stays finite.
        s = self.scale
        return np.minimum(np.maximum(self.loc - t, -800.0 * s), 700.0 * s) / s

    def _cdf(self, t):
        return np.exp(-np.exp(self._w(t)))

    def _sf(self, t):
        return -np.expm1(-np.exp(self._w(t)))

    def _pdf(self, t):
        w = self._w(t)
        return np.exp(w - np.exp(w)) / self.scale

    def _quantile(self, q):
        with np.errstate(divide="ignore"):
            return self.loc - self.scale * np.log(-np.log(q))

    def evt_index(self) -> EvtIndex:
        return EvtIndex(0.0)

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        # Max-stability is exact: F^n(scale*t + loc + scale*log n) = F(t).
        return self.scale, self.loc + self.scale * math.log(n)


@dataclass(frozen=True)
class BoundedPower(DistributionModel):
    """F(t) = 1 - ((omega - t)/omega)^alpha on [0, omega].

    A reversed-Weibull-type family on nonnegative support; Uniform(0, 1) is
    the omega = alpha = 1 member.
    """

    omega: float
    alpha: float

    def __post_init__(self):
        _check_param("omega", self.omega)
        _check_param("alpha", self.alpha)

    @property
    def support(self) -> Support:
        return Support(0.0, self.omega)

    def _rel(self, t):
        return _unit_clip((self.omega - t) / self.omega)

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
        return EvtIndex(-1.0 / self.alpha)

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        return self.omega * n ** -(1.0 / self.alpha), self.omega


_SPEC_SCHEMA: dict[str, type] = {
    "pareto": Pareto,
    "exp": Exponential,
    "uniform": Uniform,
    "frechet": Frechet,
    "gumbel": Gumbel,
    "bpower": BoundedPower,
}


def parse_distribution(spec: str) -> DistributionModel:
    """Build a model from a string like "pareto:alpha=2" or "uniform:a=0,b=1".

    The keys are the model's dataclass fields, in order.  Parse errors name
    the offending kind or key.
    """
    kind, sep, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind not in _SPEC_SCHEMA:
        raise SpecStringError(
            f"unknown distribution kind {kind!r}; expected one of "
            f"{sorted(_SPEC_SCHEMA)}")
    cls = _SPEC_SCHEMA[kind]
    keys = tuple(f.name for f in fields(cls))
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


# Cephes lgam (Moshier, "Methods and Programs for Mathematical Functions",
# 1989), as scipy.special.gammaln evaluates it: log Gamma(x) = (x - 1/2) log x
# - x + log sqrt(2 pi) + A(1/x^2)/x from x = 13 up, A of degree 4 below 1000
# and the first three Stirling terms from there.
_LS2PI = 0.91893853320467274178
_LGAM_A = (8.11614167470508450300E-4, -5.95061904284301438324E-4,
           7.93650340457716943945E-4, -2.77777777730099687205E-3,
           8.33333333333331927722E-2)


def _lgam(m: int) -> float:
    """log m! = log Gamma(m + 1), equal bit for bit to scipy's gammaln(m + 1).

    Scalar ``math.log`` throughout: numpy's SIMD log may round differently."""
    if m < 12:
        return math.log(math.factorial(m))
    x = m + 1.0
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    a0, a1, a2, a3, a4 = _LGAM_A
    return q + ((((a0 * p + a1) * p + a2) * p + a3) * p + a4) / x


@functools.cache
def _log_factorials() -> np.ndarray:
    """log m! for m = 0.._DIRECT_BINOMIAL_MAX_N, read-only, made on first use."""
    table = np.array([_lgam(m) for m in range(_DIRECT_BINOMIAL_MAX_N + 1)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _binomial_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, log C(n, m)) for m = 1..n, read-only: the part of the log-space unit
    tail P(Bin(n, p) >= 1) that does not depend on p, made once per n."""
    lf = _log_factorials()
    m = np.arange(1, n + 1)
    log_coef = lf[n] - lf[m] - lf[n - m]
    for arr in (m, log_coef):
        arr.flags.writeable = False
    return m, log_coef


def _binomial_tails(n: int, j: int, k: int, p: ArrayLike) -> np.ndarray:
    """sum_{i=j..k} P(Bin(n, p) >= i) for sf values p: P(M_n^j > t) at k = j and
    E min(k, Bin(n, p)) at j = 1, by a walk over the masses of each p.  The unit
    tail P(Bin >= 1) at n <= _DIRECT_BINOMIAL_MAX_N is the sum of P(Bin = m)
    over m >= 1 in log space instead."""
    inner = (p > 0.0) & (p < 1.0)
    q = np.where(inner, p, 0.5)
    if j == k == 1 and n <= _DIRECT_BINOMIAL_MAX_N:
        m, log_coef = _binomial_terms(n)
        q = q[..., None]
        logs = log_coef + m * np.log(q) + (n - m) * np.log1p(-q)
        sums = np.minimum(1, np.exp(logs).sum(axis=-1))
    else:
        def walked(x: float) -> float:
            odds = x / (1.0 - x)
            return _capped_sum(n * math.log1p(-x), lambda m: (n - m) / (m + 1) * odds, j, k)

        sums = np.array([walked(x) for x in q.ravel().tolist()]).reshape(q.shape)
    return np.where(inner, sums, np.where(p >= 1.0, k - j + 1.0, 0.0))


def order_statistic_tail(d: DistributionModel, n: int, j: int, T: float) -> float:
    """P(M_n^j > T) = P(Bin(n, sf(T)) >= j): the j-th largest of n draws exceeds T."""
    if not 1 <= j <= n:
        raise DomainError(f"order statistic requires 1 <= j <= n, got j={j}, n={n}")
    return float(_binomial_tails(n, j, j, d.sf(T)))


def _sf_integral(d: DistributionModel, T: float, of_sf=lambda s: s, j: int = 1,
                 n: int = 1) -> float:
    """int_T^{omega_1} S(u) du for S = of_sf(sf): by default I(T) = E(X - T)^+.
    S falls like sf^j, so its tail index is gamma/j, and the integral diverges
    (DivergenceError) when gamma/j >= 1; n is the sample size when S is the
    tail of an order statistic.

    Taken to an absolute 1e-12*max(1, |T|)*S(T) or to 1e-12 relative,
    whichever is looser, so that T + I(T)/sf(T) is right to
    1e-12*max(1, |T|, E(X - T | X > T)) however thin the tail above T is.

    A half-line [T, inf) is mapped to [0, 1) through x = T + h((1-t)^(-q) - 1),
    with Jacobian h q (1-t)^(-q-1) and q = max(1, gamma/(1-gamma)).  A tail
    x^(-1/gamma) then becomes a bounded integrand near t = 1 (exactly constant
    for Pareto from its lower end), where the plain map x = T + t/(1-t) (q = 1)
    would leave the endpoint singularity (1-t)^(1/gamma - 2) for gamma > 1/2.
    Tails with gamma <= 1/2, Gumbel (gamma = 0) among them, keep q = 1.  The
    scale h is the reciprocal hazard sf/pdf at T, the length on which sf falls
    above T (T/alpha for Pareto, 1/rate for Exponential), or 1 where
    sf(T) > 1/2.  The Kronrod nodes are interior, so the endpoint t = 1 is
    never evaluated.  Raises ConvergenceError, with estimate NaN and error
    inf, if the map leaves the double range before the tail is resolved
    (gamma close to 1: Pareto maxima at alpha = 1.01).
    """
    gamma = d.evt_index().gamma / j
    if gamma >= 1:
        raise DivergenceError(
            f"infinite moment: {d!r} gives tail index gamma/j = {gamma:.4g} >= 1 at j={j}")
    lo, hi = d.support.lo, d.support.hi
    # sf is 1 at and below the support: moments from 0 need no scalar sf call.
    s_T = 1.0 if T <= lo else float(d.sf(T))
    S_T = float(of_sf(s_T))
    if S_T <= 0.0 or T >= hi:
        return 0.0
    tol = 1e-12 * max(1.0, abs(T)) * S_T

    def S(x: np.ndarray) -> np.ndarray:
        return of_sf(d.sf(x))

    # A panel's error estimate cannot see a kink between its outermost node
    # and its edge.  So on a bounded support, where the top order statistics
    # of n draws fall from 1 to 0 within a quantile width of about 1/n below
    # omega_1, the domain is split at the quantiles 1 - c/n, c in {1, 30}; on
    # a half-line the support's lower end is a breakpoint when T is below it.
    if math.isfinite(hi):
        points = [float(d.quantile(1.0 - c / n)) for c in (1, 30) if c < n]
        return integrate(S, T, hi, tol=tol, rtol=1e-12, points=points)
    # Below the median of a Gumbel or Frechet model the hazard at T is tiny
    # and rises fast above it, so sf/pdf there would map every node beyond
    # the mass.
    f_T = float(d.pdf(T)) if s_T <= 0.5 else 0.0
    h = s_T / f_T if f_T > 0.0 else 1.0
    q = max(1.0, gamma / (1.0 - gamma))
    # Products with h come last, so that at h = 1 the map is x = T + t/(1-t)
    # bit for bit.  q = 1 is written out: through the general branch
    # (min of 6 interleaved runs, 2-vCPU VM) conditional_mean_above(
    # Exponential(1), 3) took 0.24 ms, not 0.17; expected_max(Frechet(0, 1,
    # 2.5), 30) 1.70 ms, not 1.38; empirical_competition_complexity(
    # Exponential(1), 35) 1.31 ms, not 1.20; best_fixed_price(Pareto(2),
    # 1000, 1) 41.8 ms, not 30.7.  It also moved Exponential thresholds by
    # up to 5.6e-9 relative.
    if q == 1.0:
        def mapped(t: np.ndarray, om: np.ndarray) -> np.ndarray:
            return S(T + h * (t / om)) / (om * om) * h
    else:
        def mapped(t: np.ndarray, om: np.ndarray) -> np.ndarray:
            with np.errstate(over="ignore"):
                w = om ** -q
                jac = q * w / om * h
                if np.isinf(jac).any():
                    raise ConvergenceError(
                        f"tail map overflows the double range before a tail "
                        f"of index gamma={gamma:.6g} is resolved", math.nan, math.inf)
                return S(T + h * w - h) * jac

    def g(t: np.ndarray) -> np.ndarray:
        om = 1.0 - t
        if om.min() > 0.0:
            return mapped(t, om)
        # A node that rounds to t = 1 contributes 0; om = 1 stands in for
        # it so that S sees only finite abscissae.
        inside = om > 0.0
        return np.where(inside, mapped(t, np.where(inside, om, 1.0)), 0.0)

    cuts = (1.0 - ((h + lo - T) / h) ** (-1.0 / q),) if T < lo else ()
    return integrate(g, 0.0, 1.0, tol=tol, rtol=1e-12, points=cuts)


def _order_statistics_mean(d: DistributionModel, n: int, j: int, k: int) -> float:
    """sum_{i=j..k} E(M_n^i), one integral over t >= 0 of the summed tails."""
    if not 1 <= j <= k <= n:
        raise DomainError(f"order statistics require 1 <= j <= k <= n, got j={j}, k={k}, n={n}")
    if d.support.lo < 0:
        raise DomainError("order_statistic_mean requires nonnegative support")
    return _sf_integral(d, 0.0, lambda s: _binomial_tails(n, j, k, s), j, n)


def order_statistic_mean(d: DistributionModel, n: int, j: int) -> float:
    """E(M_n^j) = integral over t >= 0 of P(M_n^j > t)."""
    return _order_statistics_mean(d, n, j, j)


def _survival_power(s: np.ndarray, n: int) -> np.ndarray:
    """1 - (1 - s)^n for survival values s, without cancellation; s itself at n = 1."""
    if n == 1:
        return s
    with np.errstate(divide="ignore"):
        return -np.expm1(n * np.log1p(-_unit_clip(s)))


def expected_max(d: DistributionModel, n: int) -> float:
    """E max(M_n, 0), M_n the max of n i.i.d. draws: int over t >= 0 of (1 - F(t)^n);
    at n = 1 the tail integral I(0), which is G_1 of :mod:`evpricing.competition`."""
    if n < 1:
        raise DomainError(f"expected_max requires n >= 1, got {n}")
    return _sf_integral(d, 0.0, lambda s: _survival_power(s, n), 1, n)


def conditional_mean_above(d: DistributionModel, T: float) -> float:
    """E(X | X > T) = T + I(T)/sf(T), with the tail integral I of ``_sf_integral``.

    Below a finite lower end of the support the event X > T is certain and
    the result is E X: T is raised to that end first.  On an infinite lower
    end (Gumbel) T is raised to the 2**-53 quantile: the left tail there is
    double-exponential, so the mass below it moves E(X | X > T) by less than
    1e-15 relative, while T + I(T)/sf(T) would lose digits in proportion to |T|.
    """
    lo = d.support.lo
    if lo == -math.inf:
        lo = float(d.quantile(2.0 ** -53))
    if T < lo:
        T = lo
    s_T = float(d.sf(T))
    if s_T <= 0.0:
        raise DomainError(f"F({T}) = 1: conditioning event has probability 0")
    return T + _sf_integral(d, T) / s_T


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

    # phi(s) <= s, so the preimage sits at or above t.  The bracket keeps off
    # the ends of the support, where the density may vanish: by 1e-12 of the
    # width of a bounded support, and of max(1, |lo|) on a half-line.
    width = sup.hi - sup.lo
    pad = 1e-12 * (width if width < math.inf else max(1.0, abs(sup.lo)))
    lo = t if math.isinf(sup.lo) else max(t, sup.lo + pad)
    if g(lo) > 0:
        # Every value above t already maps above t: the preimage is t itself
        # only when phi(t) >= t, which monotone phi with phi(s) <= s forbids.
        raise DomainError(f"virtual valuation already exceeds t={t} at the bracket base")
    # The preimage lies a few reciprocal hazards above lo (one for Exponential).
    step = float(d.sf(lo)) / float(d.pdf(lo))
    if math.isinf(sup.hi):
        for _ in range(200):
            hi = lo + step
            if g(hi) > 0:
                break
            step *= 2.0
        else:
            raise DomainError("could not bracket the virtual-value preimage")
    else:
        hi = sup.hi - pad
        if g(hi) < 0:
            raise DomainError(f"phi stays below t={t} on the support")
    root = find_root(g, lo, hi, tol=1e-12 * step)
    return float(d.sf(root)) / s_t
