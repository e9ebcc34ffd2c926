"""Immutable parametric models with extreme-value metadata, each loc + scale*Z
for a standard member Z that alone carries the arithmetic, and functionals
generic over them: order-statistic tails and means, expected maxima,
conditional means and virtual valuations.  Every operation is pure.  The two
bounded kinds share one power law below the upper end (``_PowerBelowTop``), of
which Uniform is the alpha = 1 member.

The tail integral I(T) = E(X - T)^+ has one route, a closed form per kind
(``_tail_integral``): it gives ``mean()``, ``expected_max`` at n = 1, the
conditional means T + I(T)/sf(T) and the steps of :mod:`evpricing.competition`.
The expected maximum E max(M_n, 0) at n >= 2 is a closed form per kind too
(``_expected_max``): I(0) of the max-stable law of M_n for Frechet and Gumbel,
and the gamma ratio prod_m 1/(1 + c/m), summed in log space at a cost that does
not grow with n, for Pareto, BoundedPower, Uniform and Exponential.  The means
of the order statistics, the prophet's among them, are this module's one
quadrature: the integral from 0 of their summed survival functions, mapped to
a finite bracket, with its options picked in one place
(``_order_statistics_mean``).

Each kind's ``_sf``, ``_cdf`` and ``_pdf`` are scalar ``math`` code, and the
public ``sf``, ``cdf`` and ``pdf`` map it over an array, so one arithmetic path
gives every number that is not simulated.  numpy is imported only inside the
functions that work on arrays: the quantiles, which ``simulate`` draws through,
the array branch of ``sf``, ``cdf`` and ``pdf``, the log-space unit binomial
tail and the monotonicity probe of ``virtual_tail_ratio``.
"""

from __future__ import annotations

import functools
import math
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING, Callable

from .errors import ConvergenceError, DivergenceError, DomainError, SpecStringError
from .kernel import (EULER_MASCHERONI, _EPS, _alternating_series, _capped_sum, _lgamma_ratio,
                     _upper_gamma, find_root, integrate)

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

if TYPE_CHECKING:
    import numpy as np

    ArrayLike = float | np.ndarray

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


class DistributionModel(ABC):
    """Common surface of all parametric models: X = loc + scale*Z for the
    standard member Z of ``_standard``, a unit that this class alone maps.
    Each kind writes Z's arithmetic: ``_cdf``, ``_sf``, ``_pdf`` and the tail
    integral ``_tail`` in scalar ``math`` at a float t through ``_standardize``
    (or, below a bounded kind's upper end, ``_PowerBelowTop._below``), and the
    array ``_quantile``,
    ``_normalizing_constants`` and ``_ENDS`` of Z, and the closed form
    ``_expected_max`` of E max(M_n, 0).  Each field must be finite, those in
    ``_POSITIVE`` positive.
    """

    _POSITIVE: tuple[str, ...] = ()
    _ENDS: tuple[float, float]

    def __post_init__(self):
        for f in fields(self):
            value, positive = getattr(self, f.name), f.name in self._POSITIVE
            if not math.isfinite(value) or (positive and not value > 0):
                kind = "positive" if positive else "finite"
                raise DomainError(f"parameter {f.name} must be a {kind} real, got {value}")

    def _standard(self) -> tuple[float, float, DistributionModel]:
        """(loc, scale, Z) with X = loc + scale*Z: the one place that decides the
        unit of valuation.  Functionals with a unit-carrying constant reduce to Z."""
        return 0.0, 1.0, self

    @functools.cached_property
    def _reduced(self) -> tuple[float, float, DistributionModel]:
        """``_standard()``, built once per model."""
        return self._standard()

    def _standardize(self, t: float) -> float:
        """(t - loc)/scale, +-inf past the double range, where every kind is flat."""
        loc, scale, _ = self._reduced
        return t if loc == 0.0 and scale == 1.0 else (t - loc) / scale

    @functools.cached_property
    def support(self) -> Support:
        """Open support interval (omega_0, omega_1): loc + scale*(Z's ends)."""
        loc, scale, _ = self._reduced
        return Support(loc + scale * self._ENDS[0], loc + scale * self._ENDS[1])

    @abstractmethod
    def _cdf(self, t: float) -> float: ...

    @abstractmethod
    def _sf(self, t: float) -> float: ...

    @abstractmethod
    def _pdf(self, t: float) -> float: ...

    @abstractmethod
    def _quantile(self, q: np.ndarray) -> np.ndarray: ...

    @abstractmethod
    def _tail(self, t: float) -> float: ...

    @abstractmethod
    def _normalizing_constants(self, n: float) -> tuple[float, float]: ...

    @abstractmethod
    def _expected_max(self, n: int) -> float: ...

    @abstractmethod
    def evt_index(self) -> EvtIndex: ...

    def normalizing_constants(self, n: float) -> tuple[float, float]:
        """Scaling a_n and shift b_n making (M_n - b_n)/a_n converge, for real n >= 1:
        (scale*a_n, loc + scale*b_n) from Z's pair; a_n > 0 but Frechet's a_1 = 0."""
        a_n, b_n = self._normalizing_constants(n)
        loc, scale, _ = self._reduced
        return scale * a_n, loc + scale * b_n

    def cdf(self, t: ArrayLike) -> ArrayLike:
        return _each(self._cdf, t)

    def sf(self, t: ArrayLike) -> ArrayLike:
        """Survival function 1 - F(t), computed without cancellation."""
        return _each(self._sf, t)

    def pdf(self, t: ArrayLike) -> ArrayLike:
        scale = self._reduced[1]
        return _each(lambda x: self._pdf(x) / scale, t)

    def quantile(self, q: ArrayLike) -> ArrayLike:
        """Generalized inverse F^{-1}(q) = inf{t : F(t) >= q}; q = 0 or 1 only
        where that end of the support is finite."""
        import numpy as np
        arr = np.asarray(q, dtype=float)
        if np.any(arr < 0) or np.any(arr > 1):
            raise DomainError("quantile requires q in [0, 1]")
        sup = self.support
        if np.any(arr == 0) and math.isinf(sup.lo):
            raise DomainError("quantile(0) undefined: lower endpoint is infinite")
        if np.any(arr == 1) and math.isinf(sup.hi):
            raise DomainError("quantile(1) undefined: upper endpoint is infinite")
        z = self._unchecked_quantile(arr)
        return float(z) if arr.ndim == 0 else z

    def _unchecked_quantile(self, q: np.ndarray) -> np.ndarray:
        """loc + scale*(Z's quantile) on an array, without the checks of ``quantile``."""
        import numpy as np
        loc, scale, _ = self._reduced
        with np.errstate(divide="ignore", over="ignore"):
            z = self._quantile(q)
            return z if loc == 0.0 and scale == 1.0 else loc + scale * z

    def _tail_integral(self, T: float) -> float:
        """I(T) = E(X - T)^+ at a float T: scale times Z's ``_tail``."""
        if self.evt_index().gamma >= 1:
            raise DivergenceError(f"infinite mean: {self!r} has tail index gamma >= 1")
        return self._reduced[1] * self._tail(T)

    def mean(self) -> float:
        """First moment I(0), the tail integral from 0 (nonnegative support only)."""
        if self.support.lo < 0:
            raise DomainError("mean() supports nonnegative-support models only")
        return self._tail_integral(0.0)


def _each(point: Callable[[float], float], t: ArrayLike) -> ArrayLike:
    """point(t) at a float t; on an array, the array of point at each element,
    so that an array call equals the scalar calls bit for bit."""
    if isinstance(t, (float, int)):
        return point(float(t))
    import numpy as np
    arr = np.asarray(t, dtype=float)
    if arr.ndim == 0:
        return point(float(arr))
    return np.array([point(x) for x in arr.ravel().tolist()]).reshape(arr.shape)


@dataclass(frozen=True)
class Pareto(DistributionModel):
    """F(t) = 1 - t^(-alpha) on [1, inf): no unit, its own standard member."""

    alpha: float
    _POSITIVE = ("alpha",)
    _ENDS = (1.0, math.inf)

    def _cdf(self, t):
        # 1 - t^-alpha as -expm1(-alpha*log t): no cancellation just above 1
        return -math.expm1(-self.alpha * math.log(max(t, 1.0)))

    def _sf(self, t):
        # 1 ** -alpha is exactly 1, so below the support this is 1 as well.
        return max(t, 1.0) ** -self.alpha

    def _pdf(self, t):
        return 0.0 if t < 1.0 else self.alpha * t ** (-self.alpha - 1.0)

    def _quantile(self, q):
        return (1.0 - q) ** (-1.0 / self.alpha)

    def _tail(self, t):
        a = self.alpha
        return (1.0 - t) + 1.0 / (a - 1.0) if t < 1.0 else t ** (1.0 - a) / (a - 1.0)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(1.0 / self.alpha)

    def _normalizing_constants(self, n: float) -> tuple[float, float]:
        return n ** (1.0 / self.alpha), 0.0

    def _expected_max(self, n):
        # n! Gamma(1 - 1/a)/Gamma(n + 1 - 1/a) = prod_{m=1..n} 1/(1 - 1/(a m)); the
        # m = 1 factor a/(a - 1) keeps the digits that 1 - 1/a loses near a = 1
        a = self.alpha
        return a / (a - 1.0) * math.exp(-_log1p_sum(-1.0 / a, n))


@dataclass(frozen=True)
class Exponential(DistributionModel):
    """F(t) = 1 - exp(-rate * t) on [0, inf): (1/rate)*Exponential(1)."""

    rate: float
    _POSITIVE = ("rate",)
    _ENDS = (0.0, math.inf)

    def _above(self, t: float) -> float:
        """max(z, 0) as +0.0 at and below 0, NaN kept."""
        z = self._standardize(t)
        return 0.0 if z <= 0.0 else z

    def _cdf(self, t):
        return -math.expm1(-self._above(t))

    def _sf(self, t):
        return math.exp(-self._above(t))

    def _pdf(self, t):
        return 0.0 if t < 0.0 else self._sf(t)

    def _quantile(self, q):
        import numpy as np
        return -np.log1p(-q)

    def _tail(self, t):
        z = self._standardize(t)
        return 1.0 - z if z < 0.0 else math.exp(-z)

    def _standard(self):
        return 0.0, 1.0 / self.rate, Exponential(1.0)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(0.0)

    def _normalizing_constants(self, n: float) -> tuple[float, float]:
        # Von Mises pair: constant auxiliary function 1 at the quantile.
        return 1.0, math.log(n)

    def _expected_max(self, n):
        return self._reduced[1] * _harmonic(n)


def _unit(x: float) -> float:
    """x clipped to [0, 1], NaN and -0.0 kept."""
    return min(max(x, 0.0), 1.0)


class _PowerBelowTop(DistributionModel):
    """sf(t) = w^alpha at w = (hi - t)/scale, below the upper end hi of the
    support: the reversed-Weibull-type kinds, of index -1/alpha, whose standard
    member lives on [0, 1].  ``alpha`` is a field or a class constant.  sf, pdf
    and I(t) read the distance w below the stored upper end, cdf and quantile
    the distance z above the lower end, so neither end loses digits to 1 - x.
    """

    _ENDS = (0.0, 1.0)

    def _below(self, t: float) -> float:
        """w = (hi - t)/scale, where 1 - z loses digits.  At scale 1, |hi| < 2**54
        and hi - t cannot overflow."""
        hi, scale = self.support.hi, self._reduced[1]
        return hi - t if scale == 1.0 else (hi - t) / scale

    def _cdf(self, t):
        # 1 - (1 - z)^alpha as -expm1(alpha*log1p(-z)), exact to rounding at small z
        z = _unit(self._standardize(t))
        return 1.0 if z == 1.0 else -math.expm1(self.alpha * math.log1p(-z))

    def _sf(self, t):
        return _unit(self._below(t)) ** self.alpha

    def _pdf(self, t):
        sup = self.support
        if not sup.lo <= t <= sup.hi:
            # NaN stays NaN, which w ** 0 = 1 would not keep at alpha = 1
            return t if math.isnan(t) else 0.0
        w, a = _unit(self._below(t)), self.alpha
        # at the upper end the density is infinite for alpha < 1
        return a * w ** (a - 1.0) if w or a >= 1.0 else math.inf

    def _quantile(self, q):
        import numpy as np
        return -np.expm1(np.log1p(-q) / self.alpha)

    def _tail(self, t):
        # w^(a+1)/(a+1) on the support, plus w - 1 below it
        w, a = self._below(t), self.alpha
        return min(w, 1.0) ** (a + 1.0) / (a + 1.0) + max(w - 1.0, 0.0) if w > 0.0 else 0.0

    def evt_index(self) -> EvtIndex:
        return EvtIndex(-1.0 / self.alpha)

    def _normalizing_constants(self, n: float) -> tuple[float, float]:
        return n ** -(1.0 / self.alpha), 1.0

    def _expected_max(self, n):
        # on nonnegative support, loc + scale*(1 - prod_{m=1..n} 1/(1 + 1/(alpha m)))
        loc, scale, _ = self._reduced
        c = 1.0 / self.alpha
        return loc + scale * -math.expm1(-math.log1p(c) - _log1p_sum(c, n))


@dataclass(frozen=True)
class Uniform(_PowerBelowTop):
    """Uniform on [a, b]: a + (b - a)*Uniform(0, 1), the alpha = 1 power law."""

    a: float
    b: float
    alpha = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.a < self.b:
            raise DomainError(f"uniform requires a < b, got a={self.a}, b={self.b}")

    @functools.cached_property
    def support(self) -> Support:
        # the stored ends: a + (b - a) need not round to b
        return Support(self.a, self.b)

    def _cdf(self, t):
        # z and q themselves, which the general forms at alpha = 1 can miss by an ulp
        return _unit(self._standardize(t))

    def _quantile(self, q):
        # a new array, never the caller's q
        return 0.0 + q

    def _standard(self):
        return self.a, self.b - self.a, Uniform(0.0, 1.0)

    def _expected_max(self, n):
        if self.b <= 0.0:
            return 0.0
        if self.a >= 0.0:
            return super()._expected_max(n)
        # int_0^b (1 - F^n) = scale*(w - (1 - (1 - w)^N)/N), N = n + 1, for the
        # share w of the support above 0.  Below N*w = 1 that difference cancels,
        # and its binomial series sum_{k>=2} (-1)^k C(N, k) w^k/N is summed instead.
        scale = self.b - self.a
        w, N = self.b / scale, n + 1.0
        if N * w >= 1.0:
            return scale * (w + math.expm1(N * math.log1p(-w)) / N)
        total, term, k = 0.0, 0.5 * (N - 1.0) * w * w, 2
        while term != 0.0 and abs(term) > _EPS * abs(total):
            total += term
            term *= -(N - k) / (k + 1) * w
            k += 1
        return scale * total


@dataclass(frozen=True)
class Frechet(DistributionModel):
    """F(t) = exp(-((t - m)/s)^(-alpha)) on (m, inf): m + s*Frechet(0, 1, alpha)."""

    m: float
    s: float
    alpha: float
    _POSITIVE = ("s", "alpha")
    _ENDS = (0.0, math.inf)

    def _power(self, z: float, p: float) -> float:
        """max(z, 1e-300)**p, +inf where it overflows."""
        try:
            return max(z, 1e-300) ** p
        except OverflowError:
            return math.inf

    def _cdf(self, t):
        z = self._standardize(t)
        return 0.0 if z <= 0.0 else math.exp(-self._power(z, -self.alpha))

    def _sf(self, t):
        z = self._standardize(t)
        return 1.0 if z <= 0.0 else -math.expm1(-self._power(z, -self.alpha))

    def _pdf(self, t):
        z, a = self._standardize(t), self.alpha
        if not z > 0.0:
            return z if math.isnan(z) else 0.0
        # Near 0, z^(-alpha-1) overflows while exp(-z^-alpha) underflows: the
        # density is 0 there.
        val = a * self._power(z, -a - 1.0) * math.exp(-self._power(z, -a))
        return val if math.isfinite(val) else 0.0

    def _quantile(self, q):
        import numpy as np
        return np.where(q == 0.0, 0.0, (-np.log(q)) ** (-1.0 / self.alpha))

    def _tail(self, t, x=None):
        # with x = z^-alpha: a series in x, or E Z - z + E(z - Z)^+ (DLMF 8.9.2).
        # A caller that knows x more closely than z^-alpha passes it.
        z, b = self._standardize(t), -1.0 / self.alpha
        if x is None:
            x = self._power(z, -self.alpha) if z > 0.0 else math.inf
        if x <= 2.0:
            return z / self.alpha * _alternating_series(b, x) if z < math.inf else 0.0
        if b > -0.03 and z > 0.0:
            # Gamma(1 + b) - z cancels near b = 0: (Gamma(1 + b) - 1) - (z - 1),
            # with z - 1 = x^b - 1 unless x overflowed
            zm1 = math.expm1(b * math.log(x)) if x < math.inf else z - 1.0
            head = math.expm1(-b * _lgamma_ratio(-b)) - zm1
        else:
            head = math.gamma(1.0 + b) - z
        return head + _upper_gamma(b, x) / self.alpha

    def _standard(self):
        return self.m, self.s, Frechet(0.0, 1.0, self.alpha)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(1.0 / self.alpha)

    def _normalizing_constants(self, n: float) -> tuple[float, float]:
        # a_n = F^{-1}(1 - 1/n); log1p keeps precision for large n, and at
        # n = 1 the limit y = inf gives the lower end F^{-1}(0) = 0.
        y = -math.log1p(-1.0 / n) if n > 1 else math.inf
        return y ** (-1.0 / self.alpha), 0.0

    def _expected_max(self, n):
        # max-stable: M_n is Frechet(m, s n^(1/alpha), alpha), and this is its I(0)
        # at T = -m/s_n, where x = T^-alpha = n (s/|m|)^alpha without T's rounding
        s_n = self.s * n ** (1.0 / self.alpha)
        x = n * self._power(self.s / -self.m, self.alpha) if self.m < 0.0 else None
        return s_n * self._reduced[2]._tail(-self.m / s_n, x)


@dataclass(frozen=True)
class Gumbel(DistributionModel):
    """F(t) = exp(-exp(-(t - loc)/scale)) on the real line: loc + scale*Gumbel(0, 1)."""

    loc: float
    scale: float
    _POSITIVE = ("scale",)
    _ENDS = (-math.inf, math.inf)

    def _w(self, t):
        # -z clamped to [-800, 700]: beyond either end the cdf, sf and pdf
        # are constant in doubles, and exp(-z) stays finite.
        return min(max(-self._standardize(t), -800.0), 700.0)

    def _cdf(self, t):
        return math.exp(-math.exp(self._w(t)))

    def _sf(self, t):
        return -math.expm1(-math.exp(self._w(t)))

    def _pdf(self, t):
        w = self._w(t)
        return math.exp(w - math.exp(w))

    def _quantile(self, q):
        import numpy as np
        # 0.0 - x, not -x: +0.0 where -log(q) rounds to 1
        return 0.0 - np.log(-np.log(q))

    def _tail(self, t):
        # Ein(x) at x = e^-z, the b = 0 case of Frechet's forms (DLMF 6.6.4)
        z = self._standardize(t)
        try:
            x = math.exp(-z)
        except OverflowError:
            x = math.inf
        if x <= 2.0:
            return _alternating_series(0.0, x)
        return EULER_MASCHERONI - z + _upper_gamma(0.0, x)

    def _standard(self):
        return self.loc, self.scale, Gumbel(0.0, 1.0)

    def evt_index(self) -> EvtIndex:
        return EvtIndex(0.0)

    def _normalizing_constants(self, n: float) -> tuple[float, float]:
        # Max-stability is exact: F^n(t + log n) = F(t).
        return 1.0, math.log(n)

    def _expected_max(self, n):
        # M_n is Gumbel(loc + scale log n, scale), and this is its I(0)
        return self.scale * self._reduced[2]._tail(-self.loc / self.scale - math.log(n))


@dataclass(frozen=True)
class BoundedPower(_PowerBelowTop):
    """F(t) = 1 - ((omega - t)/omega)^alpha on [0, omega]: omega*BoundedPower(1, alpha).

    The power law of ``_PowerBelowTop`` on nonnegative support; Uniform(0, 1)
    is the omega = alpha = 1 member.
    """

    omega: float
    alpha: float
    _POSITIVE = ("omega", "alpha")

    def _standard(self):
        return 0.0, self.omega, BoundedPower(1.0, self.alpha)


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
    import numpy as np
    table = np.array([_lgam(m) for m in range(_DIRECT_BINOMIAL_MAX_N + 1)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _binomial_terms(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, log C(n, m)) for m = 1..n, read-only: the part of the log-space unit
    tail P(Bin(n, p) >= 1) that does not depend on p, made once per n."""
    import numpy as np
    lf = _log_factorials()
    m = np.arange(1, n + 1)
    log_coef = lf[n] - lf[m] - lf[n - m]
    for arr in (m, log_coef):
        arr.flags.writeable = False
    return m, log_coef


def _binomial_tails(n: int, j: int, k: int, p: list[float]) -> list[float]:
    """sum_{i=j..k} P(Bin(n, p) >= i) at each sf value of the list p: P(M_n^j > t)
    at k = j and E min(k, Bin(n, p)) at j = 1, by a walk over the masses of each p.
    The unit tail P(Bin >= 1) at n <= _DIRECT_BINOMIAL_MAX_N is the sum of
    P(Bin = m) over m >= 1 in log space instead, one numpy pass over the list."""
    if j == k == 1 and n <= _DIRECT_BINOMIAL_MAX_N:
        import numpy as np
        p = np.array(p, dtype=float)
        inner = (p > 0.0) & (p < 1.0)
        q = np.where(inner, p, 0.5)[..., None]
        m, log_coef = _binomial_terms(n)
        logs = log_coef + m * np.log(q) + (n - m) * np.log1p(-q)
        sums = np.minimum(1, np.exp(logs).sum(axis=-1))
        return np.where(inner, sums, np.where(p >= 1.0, 1.0, 0.0)).tolist()

    def walked(x: float) -> float:
        if not 0.0 < x < 1.0:
            return k - j + 1.0 if x >= 1.0 else 0.0
        odds = x / (1.0 - x)
        return _capped_sum(n * math.log1p(-x), lambda m: (n - m) / (m + 1) * odds, j, k)

    return [walked(x) for x in p]


def order_statistic_tail(d: DistributionModel, n: int, j: int, T: float) -> float:
    """P(M_n^j > T) = P(Bin(n, sf(T)) >= j): the j-th largest of n draws exceeds T."""
    if not 1 <= j <= n:
        raise DomainError(f"order statistic requires 1 <= j <= n, got j={j}, n={n}")
    if math.isnan(T):
        raise DomainError("threshold T is NaN")
    return _binomial_tails(n, j, j, [d.sf(T)])[0]


def _order_statistics_mean(d: DistributionModel, n: int, j: int, k: int) -> float:
    """sum_{i=j..k} E(M_n^i) = int_0^{omega_1} S(u) du for the summed tails
    S = sum_{i=j..k} P(Bin(n, sf) >= i), by quadrature.  S falls like sf^j, so
    its tail index is gamma/j, and the integral diverges (DivergenceError) when
    gamma/j >= 1.

    Reduced to the standard member Z of ``_standard``: scale times Z's integral
    from T = -loc/scale, at or below Z's lower end, where S is k - j + 1.  T and
    tol below are in standard units, and the target is an absolute
    1e-12*max(1, |T|)*(k - j + 1) or 1e-12 relative, whichever is looser.

    A half-line [T, inf) is mapped to [0, 1) through x = T + (1-t)^(-q) - 1,
    with Jacobian q (1-t)^(-q-1) and q = max(1, gamma/(1-gamma)).  A tail
    x^(-1/gamma) then becomes a bounded integrand near t = 1, where the plain
    map x = T + t/(1-t) (q = 1) would leave the endpoint singularity
    (1-t)^(1/gamma - 2) for gamma > 1/2.  Tails with gamma <= 1/2, Gumbel
    (gamma = 0) among them, keep q = 1.  The Kronrod nodes are interior, so the
    endpoint t = 1 is never evaluated.  Raises ConvergenceError, with estimate
    NaN and error inf, if the map leaves the double range before the tail is
    resolved (gamma close to 1: Pareto maxima at alpha = 1.01).
    """
    if not 1 <= j <= k <= n:
        raise DomainError(f"order statistics require 1 <= j <= k <= n, got j={j}, k={k}, n={n}")
    if d.support.lo < 0:
        raise DomainError("order_statistic_mean requires nonnegative support")
    gamma = d.evt_index().gamma / j
    if gamma >= 1:
        raise DivergenceError(
            f"infinite moment: {d!r} gives tail index gamma/j = {gamma:.4g} >= 1 at j={j}")
    loc, scale, z = d._reduced
    T = -loc / scale
    lo, hi = z.support.lo, z.support.hi
    sf = z._sf
    tol = 1e-12 * max(1.0, abs(T)) * (k - j + 1)

    def S(xs: list[float]) -> list[float]:
        return _binomial_tails(n, j, k, [sf(x) for x in xs])

    # A panel's error estimate cannot see a kink between its outermost node
    # and its edge.  So the support's lower end is a breakpoint when T is
    # below it.  On a bounded support the summed tails of the top k of n draws
    # fall from k to 0 and bend where n*sf is 1 to k, within a quantile width
    # of about k/n below omega_1: the ladder 1 - c/n, c = 4^i < n, splits it.
    if math.isfinite(hi):
        ladder = [4 ** i for i in range(int(n).bit_length()) if 4 ** i < n]
        points = [lo] + [float(z.quantile(1.0 - c / n)) for c in ladder]
        return scale * integrate(S, T, hi, tol=tol, rtol=1e-12, points=points)
    q = max(1.0, gamma / (1.0 - gamma))

    def g(ts: list[float]) -> list[float]:
        # A node that rounds to t = 1 contributes 0; om = 1 stands in for
        # it so that S sees only finite abscissae.
        oms = [1.0 - t for t in ts]
        safe = [om if om > 0.0 else 1.0 for om in oms]
        try:
            ws = [om ** -q for om in safe]
            jacs = [q * w / om for w, om in zip(ws, safe)]
        except OverflowError:
            jacs = [math.inf]
        if math.inf in jacs:
            raise ConvergenceError(
                f"tail map overflows the double range before a tail "
                f"of index gamma={gamma:.6g} is resolved", math.nan, math.inf)
        vals = S([T + w - 1.0 for w in ws])
        return [v * jac if om > 0.0 else 0.0 for v, jac, om in zip(vals, jacs, oms)]

    cuts = (1.0 - (1.0 + lo - T) ** (-1.0 / q),) if T < lo else ()
    return scale * integrate(g, 0.0, 1.0, tol=tol, rtol=1e-12, points=cuts)


def order_statistic_mean(d: DistributionModel, n: int, j: int) -> float:
    """E(M_n^j) = integral over t >= 0 of P(M_n^j > t)."""
    return _order_statistics_mean(d, n, j, j)


#: The sums over m = 1..n of the expected maxima run term by term up to this n;
#: past it the difference of two asymptotic series adds the rest, so that the
#: cost does not grow with n.
_DIRECT_SUM_MAX_N = 64


def _log1p_sum(c: float, n: int) -> float:
    """sum_{m=2..n} log1p(c/m) = lnG(n+1+c) - lnG(n+1) - lnG(2+c), for c > -1.

    Past m = K = _DIRECT_SUM_MAX_N the rest is D(n+1) - D(K+1), with
    D(x) = lnG(x+c) - lnG(x) = (x - 1/2) log1p(c/x) + c log(x+c) - c
    + sum_k B_2k/(2k(2k-1)) ((x+c)^(1-2k) - x^(1-2k)) from Stirling's series
    (DLMF 5.11.1) to k = 3; the first term left out is about 7c/(1680 x^8),
    1.3e-17 c at x = 65.  Every term carries the factor c, so a small c keeps
    its digits."""
    k = min(n, _DIRECT_SUM_MAX_N)
    terms = [math.log1p(c / m) for m in range(2, k + 1)]
    if n > k:
        x, y = n + 1.0, k + 1.0
        terms += [(x - 0.5) * math.log1p(c / x), -(y - 0.5) * math.log1p(c / y),
                  c * math.log((x + c) / (y + c)),
                  c / 12.0 * (1.0 / (y * (y + c)) - 1.0 / (x * (x + c)))]
        terms += [b * ((x + c) ** -p - x ** -p - (y + c) ** -p + y ** -p)
                  for b, p in ((-1.0 / 360.0, 3), (1.0 / 1260.0, 5))]
    return math.fsum(terms)


def _harmonic(n: int) -> float:
    """H_n = sum_{m=1..n} 1/m; past m = K = _DIRECT_SUM_MAX_N the rest is
    psi(n+1) - psi(K+1) by the digamma series (DLMF 5.11.2) to x^-6."""
    k = min(n, _DIRECT_SUM_MAX_N)
    terms = [1.0 / m for m in range(1, k + 1)]
    if n > k:
        x, y = n + 1.0, k + 1.0
        terms += [math.log(x / y), 0.5 / y - 0.5 / x]
        terms += [b * (y ** -p - x ** -p)
                  for b, p in ((1.0 / 12.0, 2), (-1.0 / 120.0, 4), (1.0 / 252.0, 6))]
    return math.fsum(terms)


def _index(value: int, requirement: str, low: int) -> int:
    """value as an int >= low, else DomainError naming the requirement: ints and
    numpy integers pass; floats, NaN and inf among them, do not."""
    try:
        i = operator.index(value)
    except TypeError:
        i = None
    if i is None or i < low:
        raise DomainError(f"{requirement}, got {value!r}")
    return i


def expected_max(d: DistributionModel, n: int) -> float:
    """E max(M_n, 0), M_n the max of n i.i.d. draws: the closed form ``_expected_max``
    of each kind; at n = 1 the tail integral I(0), which is G_1 of
    :mod:`evpricing.competition`."""
    n = _index(n, "expected_max requires an integer n >= 1", 1)
    if d.evt_index().gamma >= 1:
        raise DivergenceError(f"infinite mean: {d!r} has tail index gamma >= 1")
    return d._tail_integral(0.0) if n == 1 else d._expected_max(n)


def _conditional_means(d: DistributionModel, Ts: list[float]) -> list[float]:
    """E(X | X > T) = T + I(T)/sf(T) at each T of the sorted list Ts.

    Below a finite lower end of the support X > T is certain, and T is raised
    to that end.  On an infinite lower end (Gumbel) T is raised to the 2**-53
    quantile: the double-exponential left tail below it moves E(X | X > T) by
    less than 1e-15 relative, while T + I(T)/sf(T) would lose digits in
    proportion to |T|.  I(T) is the closed form ``_tail_integral`` at each T.
    """
    lo = d.support.lo
    floor = float(d.quantile(2.0 ** -53)) if lo == -math.inf else lo
    T = [floor if t < floor else t for t in Ts]
    s = [d._sf(t) for t in T]
    if not s[-1] > 0.0:
        raise DomainError(f"F({T[-1]}) = 1: conditioning event has probability 0")
    return [t + d._tail_integral(t) / s_t for t, s_t in zip(T, s)]


def conditional_mean_above(d: DistributionModel, T: float) -> float:
    """E(X | X > T), the one-point case of ``_conditional_means``."""
    if math.isnan(T):
        raise DomainError("threshold T is NaN")
    return _conditional_means(d, [T])[0]


def virtual_valuation(d: DistributionModel, t: float) -> float:
    """phi(t) = t - (1 - F(t))/f(t)."""
    f_t = float(d.pdf(t))
    if f_t <= 0.0:
        raise DomainError(f"density is zero at t={t}; virtual valuation undefined")
    return t - float(d.sf(t)) / f_t


def _probe_monotone_virtual(d: DistributionModel, t: float) -> None:
    """Check phi is nondecreasing on a quantile grid from median level up."""
    import numpy as np
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
    root search, after a numeric monotonicity check of phi; on the standard
    member of ``_standard`` at (t - loc)/scale, as the ratio is unit-free.
    """
    sup = d.support
    if not sup.lo <= t < sup.hi:
        raise DomainError(f"t={t} must lie inside the support {sup}")
    loc, scale, z = d._reduced
    if loc != 0.0 or scale != 1.0:
        return virtual_tail_ratio(z, (t - loc) / scale)
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
