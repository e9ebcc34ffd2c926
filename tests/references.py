"""Independent references for tier-1: each quantity that the library computes
is written here once, in 50-digit mpmath, memoized, and this module imports
nothing from evpricing.  A model is read only through its class name and its
dataclass fields, in order:

    Pareto(alpha)     sf = t^-alpha on [1, inf)
    Exponential(rate) sf = e^(-rate t) on [0, inf)
    Uniform(a, b)     sf = (b - t)/(b - a) on [a, b]
    Frechet(m, s, a)  sf = 1 - exp(-((t - m)/s)^-a) on (m, inf)
    Gumbel(loc, s)    sf = 1 - exp(-e^(-(t - loc)/s)) on the real line
    BoundedPower(w, a) sf = (1 - t/w)^a on [0, w]

The closed forms are those of David & Nagaraja, *Order Statistics* (2003),
ch. 2-3, with M_n^i the i-th largest of n draws:

- ``capped_tails``: sum_{i=j..k} P(Bin(n, p) >= i);
- ``expected_max``: E max(M_n, 0), which on nonnegative support is E M_n^1
  below; Frechet and Gumbel are max-stable, so M_n is of the same kind and
  E max(M_n, 0) is its I(0);
- ``order_statistic_means``: sum_{i=j..k} E M_n^i.  With V_(i) the i-th
  smallest of n uniforms, M_n^i is the upper quantile of V_(i), and
  E V_(i)^c = Gamma(n+1) Gamma(i+c)/(Gamma(i) Gamma(n+1+c)): c = -1/a for
  Pareto and 1/a for BoundedPower; H_n - H_{i-1} for Exponential;
  (n + 1 - i)/(n + 1) for Uniform; Frechet only at j = k = 1 on nonnegative
  support, as E max(M_n, 0);
- ``tail_integral``: I(T) = E(X - T)^+, and ``conditional_mean``:
  E(X | X > T) = T + I(T)/sf(T); ``fixed_price_value`` is their product
  with the capped tails at p = sf(T);
- ``harmonic``: H_n.

``tests/test_oracle_table.py::TestReferences`` checks each one against its
defining integral by ``mp.quad``.
"""

import functools
from dataclasses import fields

import mpmath as mp

DPS = 50


def spec(d) -> tuple[str, tuple]:
    """(kind, params) of a model: its class name and its fields in order."""
    return type(d).__name__, tuple(getattr(d, f.name) for f in fields(d))


def _at_dps(f):
    """Memoize f, and run it at DPS digits."""
    @functools.cache
    def wrapped(*args):
        with mp.workdps(DPS):
            return f(*args)
    return wrapped


def sf(d, t):
    """P(X > t), at the caller's precision."""
    return _sf(*spec(d), t)


def _sf(kind, p, t):
    t = mp.mpf(t)
    if kind == "Pareto":
        return mp.mpf(1) if t <= 1 else t ** -mp.mpf(p[0])
    if kind == "Exponential":
        return mp.exp(-p[0] * max(t, 0))
    if kind in ("Uniform", "BoundedPower"):
        lo, hi, a = _power_law(kind, p)
        return min(max((hi - t) / (hi - lo), 0), 1) ** a
    if kind == "Frechet":
        m, s, a = map(mp.mpf, p)
        return mp.mpf(1) if t <= m else -mp.expm1(-((t - m) / s) ** -a)
    loc, s = map(mp.mpf, p)
    return -mp.expm1(-mp.exp(-(t - loc) / s))


def _power_law(kind, p):
    """(lo, hi, alpha) of a bounded kind: sf = ((hi - t)/(hi - lo))^alpha."""
    if kind == "Uniform":
        return mp.mpf(p[0]), mp.mpf(p[1]), mp.mpf(1)
    return mp.mpf(0), mp.mpf(p[0]), mp.mpf(p[1])


def _lower_end(kind, p):
    return {"Pareto": 1, "Exponential": 0, "Uniform": p[0], "Frechet": p[0],
            "BoundedPower": 0}.get(kind, -mp.inf)


@functools.cache
def capped_tails(n: int, j: int, k: int, p):
    """sum_{i=j..k} P(Bin(n, p) >= i) at DPS + 10 digits: each tail is
    1 - sum_{m<i} P(m), which cancels where the tail is small."""
    with mp.workdps(DPS + 10):
        return _tail_sum(n, j, k, mp.mpf(p))


def _tail_sum(n, j, k, p):
    """``capped_tails`` at the caller's precision."""
    pmf = [mp.binomial(n, m) * p ** m * (1 - p) ** (n - m) for m in range(k)]
    return mp.fsum(1 - mp.fsum(pmf[:i]) for i in range(j, k + 1))


@_at_dps
def harmonic(n: int):
    """H_n = sum_{m=1..n} 1/m."""
    return mp.harmonic(n)


def _log_moment(n, i, c):
    """log E V_(i)^c = log(Gamma(n+1) Gamma(i+c)/(Gamma(i) Gamma(n+1+c)))."""
    n, c = mp.mpf(n), mp.mpf(c)
    return mp.loggamma(n + 1) + mp.loggamma(i + c) - mp.loggamma(i) - mp.loggamma(n + 1 + c)


def _ein_exp(z):
    """Ein(e^-z), Ein(x) = int_0^x (1 - e^-u)/u du = E1(x) + log x + euler_gamma.
    Below z = -7, E1(x) < e^-x < 1e-434 is left out: mpmath's E1 of e^1e6 takes
    a minute."""
    if z < -7:
        return mp.euler - z
    x = mp.exp(-z)
    return x * mp.hyp2f2(1, 1, 2, 2, -x) if x < 1 else mp.e1(x) + mp.log(x) + mp.euler


def expected_max(d, n: int):
    """E max(M_n, 0), M_n the max of n draws."""
    return _expected_max(*spec(d), n)


@_at_dps
def _expected_max(kind, p, n):
    if kind == "Frechet":
        m, s, a = map(mp.mpf, p)
        return _frechet_tail(0, m, s * mp.mpf(n) ** (1 / a), a)
    if kind == "Gumbel":
        loc, s = map(mp.mpf, p)
        return s * _ein_exp(-loc / s - mp.log(n))
    if kind == "Uniform" and p[0] < 0:
        # int_0^b 1 - ((t - a)/(b - a))^n, and 0 when b <= 0
        a, b = map(mp.mpf, p)
        return b - (b - a) / (n + 1) * (1 - (-a / (b - a)) ** (n + 1)) if b > 0 else mp.mpf(0)
    # nonnegative support, where max(M_n, 0) = M_n
    return _order_statistic_means(kind, p, n, 1, 1)


def order_statistic_means(d, n: int, j: int, k: int):
    """sum_{i=j..k} E M_n^i, M_n^i the i-th largest of n draws."""
    return _order_statistic_means(*spec(d), n, j, k)


@_at_dps
def _order_statistic_means(kind, p, n, j, k):
    if kind == "Frechet":
        if (j, k) != (1, 1) or p[0] < 0:
            raise ValueError("Frechet has a closed form for the max on nonnegative support only")
        return _expected_max(kind, p, n)
    if kind == "Pareto":
        return mp.fsum(mp.exp(_log_moment(n, i, -1 / mp.mpf(p[0]))) for i in range(j, k + 1))
    if kind == "BoundedPower":
        return p[0] * mp.fsum(-mp.expm1(_log_moment(n, i, 1 / mp.mpf(p[1])))
                              for i in range(j, k + 1))
    if kind == "Exponential":
        return mp.fsum(mp.harmonic(n) - mp.harmonic(i - 1) for i in range(j, k + 1)) / p[0]
    a, b = map(mp.mpf, p)
    return mp.fsum(b - (b - a) * i / (mp.mpf(n) + 1) for i in range(j, k + 1))


def _frechet_tail(T, m, s, a):
    """I(T) of Frechet(m, s, a): s (Gamma(1 - 1/a) - z) at z = (T - m)/s <= 0,
    else s (gamma_lower(1 - 1/a, x) - z (1 - e^-x)) at x = z^-a."""
    z = (T - m) / s
    if z <= 0:
        return s * (mp.gamma(1 - 1 / a) - z)
    x = z ** -a
    return s * (mp.gammainc(1 - 1 / a, 0, x) + z * mp.expm1(-x))


def tail_integral(d, T):
    """I(T) = E(X - T)^+ = int_T^inf sf."""
    return _tail_integral(*spec(d), T)


@_at_dps
def _tail_integral(kind, p, T):
    T = mp.mpf(T)
    if kind == "Pareto":
        a = mp.mpf(p[0])
        return (1 - T) + 1 / (a - 1) if T < 1 else T ** (1 - a) / (a - 1)
    if kind == "Exponential":
        return 1 / mp.mpf(p[0]) - T if T < 0 else mp.exp(-p[0] * T) / p[0]
    if kind in ("Uniform", "BoundedPower"):
        lo, hi, a = _power_law(kind, p)
        w = (hi - T) / (hi - lo)
        return (hi - lo) * (min(w, 1) ** (a + 1) / (a + 1) + max(w - 1, 0)) if w > 0 else 0
    if kind == "Frechet":
        return _frechet_tail(T, *map(mp.mpf, p))
    loc, s = map(mp.mpf, p)
    return s * _ein_exp((T - loc) / s)


def conditional_mean(d, T):
    """E(X | X > T) = T + I(T)/sf(T)."""
    return _conditional_mean(*spec(d), T)


@_at_dps
def _conditional_mean(kind, p, T):
    T = max(mp.mpf(T), _lower_end(kind, p))
    if kind == "Gumbel":
        # T + I(T)/sf(T) in standard units z = (T - loc)/s, x = e^-z, with
        # I = s (E1(x) + euler_gamma - z): (E1(x) + euler_gamma - z e^-x)/sf
        # keeps its digits however far below the mode T lies, and is
        # euler_gamma to 1e-434 below z = -7
        loc, s = map(mp.mpf, p)
        z = (T - loc) / s
        if z < -7:
            return loc + s * mp.euler
        x = mp.exp(-z)
        return loc + s * (mp.e1(x) + mp.euler - z * mp.exp(-x)) / -mp.expm1(-x)
    return T + _tail_integral(kind, p, T) / _sf(kind, p, T)


def fixed_price_value(d, n: int, k: int, T):
    """E(X | X > T) E min(k, Bin(n, sf(T))): the value of selling up to k units
    at the fixed price T to n buyers."""
    return _fixed_price_value(*spec(d), n, k, T)


@_at_dps
def _fixed_price_value(kind, p, n, k, T):
    return _conditional_mean(kind, p, T) * capped_tails(n, 1, k, _sf(kind, p, T))
