"""Whole-domain oracle table (ROADMAP direction 2): ``expected_max`` of every
kind against 50-digit mpmath closed forms that do not call evpricing.

E max(M_n, 0) for the maximum M_n of n draws (David & Nagaraja, *Order
Statistics*, 2003):
- Pareto(a): n! Gamma(1 - 1/a)/Gamma(n + 1 - 1/a);
- BoundedPower(w, a): w (1 - n! Gamma(1 + 1/a)/Gamma(n + 1 + 1/a));
- Exponential(r): H_n/r;
- Uniform(a, b): a + (b - a) n/(n + 1) for a >= 0, 0 for b <= 0, and
  b - (b - a)(1 - (-a/(b - a))^(n + 1))/(n + 1) between;
- Frechet(m, s, a) is max-stable: M_n is Frechet(m, s n^(1/a), a), and with
  T = -m/(s n^(1/a)) and x = T^-a the value is s n^(1/a) times
  Gamma(1 - 1/a) - T for T <= 0, else gamma_lower(1 - 1/a, x) - T(1 - e^-x);
- Gumbel(l, s) likewise: M_n is Gumbel(l + s log n, s), and the value is
  s Ein(n e^(l/s)), Ein(z) = E1(z) + log z + euler_gamma.
"""

import functools
import math

import pytest

from evpricing import BoundedPower, Exponential, Frechet, Gumbel, Pareto, Uniform, expected_max
from evpricing.distributions import _DIRECT_SUM_MAX_N

mp = pytest.importorskip("mpmath")

ALPHAS = (1.05, 1.2, 1.5, 1.657, 2.0, 5.0, 50.0, 1e3, 1e4, 1e6)
NS = (2, 3, 10, _DIRECT_SUM_MAX_N, _DIRECT_SUM_MAX_N + 1, 1000, 10 ** 6, 10 ** 15)
SCALES = (1e-8, 1.0, 1e8)


def _ein(z):
    return z * mp.hyp2f2(1, 1, 2, 2, -z) if z < 1 else mp.e1(z) + mp.log(z) + mp.euler


@functools.cache
def oracle(kind: str, params: tuple, n: int) -> float:
    with mp.workdps(50):
        p, n = [mp.mpf(v) for v in params], mp.mpf(n)
        if kind in ("Pareto", "BoundedPower"):
            c = 1 / p[-1] if kind == "BoundedPower" else -1 / p[-1]
            log_ratio = mp.loggamma(n + 1) + mp.loggamma(1 + c) - mp.loggamma(n + 1 + c)
            return float(p[0] * -mp.expm1(log_ratio) if kind == "BoundedPower"
                         else mp.exp(log_ratio))
        if kind == "Exponential":
            return float(mp.harmonic(n) / p[0])
        if kind == "Uniform":
            a, b = p
            if b <= 0:
                return 0.0
            if a >= 0:
                return float(a + (b - a) * n / (n + 1))
            return float(b - (b - a) / (n + 1) * (1 - (-a / (b - a)) ** (n + 1)))
        if kind == "Frechet":
            m, s, alpha = p
            s_n = s * n ** (1 / alpha)
            T, a = -m / s_n, 1 - 1 / alpha
            if T <= 0:
                return float(s_n * (mp.gamma(a) - T))
            x = T ** -alpha
            return float(s_n * (mp.gammainc(a, 0, x) + T * mp.expm1(-x)))
        loc, s = p
        return float(s * _ein(mp.exp(loc / s) * n))


MODELS = (
    [Pareto(a) for a in ALPHAS]
    + [BoundedPower(c, a) for a in ALPHAS for c in SCALES]
    + [Frechet(0.0, c, a) for a in ALPHAS for c in SCALES]
    # straddling 0, mostly below it, and above it
    + [Frechet(m, 1.0, a) for a in ALPHAS for m in (-1.0, -10.0, 3.0)]
    + [Exponential(1.0 / c) for c in SCALES]
    + [Uniform(0.0, c) for c in SCALES]
    + [Uniform(a, b) for a, b in ((-2.0, 0.7), (-1e6, 1.0), (-1.0, 1e-6), (-2.0, -1.0),
                                  (1.0, 4.0))]
    + [Gumbel(0.0, c) for c in SCALES]
    + [Gumbel(loc, s) for loc, s in ((-3.0, 1.0), (-40.0, 1.0), (5.0, 2.0), (-1e8, 1e8))]
)

#: Frechet(-1, 1, alpha) at large alpha: M_n has its mass, about 1/alpha wide, at
#: 0, so E max(M_n, 0) is about 1/alpha of the scale.  The rounding of
#: s n^(1/alpha) and the difference Gamma(1 - 1/alpha) - T in Frechet._tail then
#: cost about alpha ulps (2e-10 relative at alpha = 1e6).
NARROW_AT_ZERO = {(50.0, 3), (1e3, 2), (1e3, 3), (1e3, 10), (1e3, 65)} | {
    (a, n) for a in (1e4, 1e6) for n in NS}

CELLS = [
    pytest.param(d, n, marks=pytest.mark.xfail(
        strict=True, reason="E max(M_n, 0) is about 1/alpha of the scale: "
                            "Gamma(1 - 1/alpha) - T cancels in Frechet._tail"))
    if isinstance(d, Frechet) and d.m == -1.0 and (d.alpha, n) in NARROW_AT_ZERO
    else (d, n)
    for d in MODELS for n in NS]


@pytest.mark.parametrize("d, n", CELLS,
                         ids=lambda v: f"n={v}" if isinstance(v, int) else repr(v))
def test_expected_max(d, n):
    params = tuple(getattr(d, f) for f in d.__dataclass_fields__)
    exact = oracle(type(d).__name__, params, n)
    if exact == 0.0:
        assert expected_max(d, n) == 0.0
    else:
        assert expected_max(d, n) == pytest.approx(exact, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("d", [Pareto(2.0), BoundedPower(1.0, 2.0), Exponential(1.0)], ids=repr)
def test_cost_does_not_grow_with_n(monkeypatch, d):
    # past the direct sums the rest is a fixed number of series terms
    sizes, fsum = [], math.fsum

    def counting_fsum(terms):
        sizes.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", counting_fsum)
    expected_max(d, 10 ** 15)
    assert len(sizes) == 1 and sizes[0] <= _DIRECT_SUM_MAX_N + 8
