"""Whole-domain oracle table (ROADMAP direction 4): the public functionals
``expected_max``, ``order_statistic_mean``, ``prophet_value`` and
``conditional_mean_above`` of every kind against the 50-digit mpmath
references of ``references.py``, which do not call evpricing.

Each table is a grid joined with the cells of the spot checks it replaced.  A
cell's band is the table's, or the band of the check it came from where that
one is tighter.  A cell that misses is a strict xfail that names its ROADMAP
direction.  ``TestReferences`` checks each reference once against its
defining integral by ``mp.quad``.
"""

import math

import mpmath as mp
import pytest

import references as ref
from evpricing import (
    BoundedPower,
    ConvergenceError,
    Exponential,
    Frechet,
    Gumbel,
    Pareto,
    Uniform,
    conditional_mean_above,
    expected_max,
    order_statistic_mean,
    prophet_value,
)
from evpricing.distributions import _DIRECT_SUM_MAX_N

ALPHAS = (1.05, 1.2, 1.5, 1.657, 2.0, 5.0, 50.0, 1e3, 1e4, 1e6)
NS = (1, 2, 3, 10, _DIRECT_SUM_MAX_N, _DIRECT_SUM_MAX_N + 1, 1000, 10 ** 6, 10 ** 15)
SCALES = (1e-8, 1.0, 1e8)
QUANTILES = (1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12)


def table(grid, extra=(), defects=None):
    """The grid and then the extra cells, each once; ``defects`` maps a cell
    that misses to its strict xfail."""
    defects = defects or {}
    return [pytest.param(*c, marks=defects[c]) if c in defects else c
            for c in dict.fromkeys([*grid, *extra])]


def defect(direction: int, what: str, cells, raises=None) -> dict:
    mark = pytest.mark.xfail(strict=True, raises=raises,
                             reason=f"ROADMAP direction {direction}: {what}")
    return dict.fromkeys(cells, mark)


def ids(v):
    return repr(v) if hasattr(v, "__dataclass_fields__") else None


def assert_close(got, exact, rel):
    exact = float(exact)
    if exact == 0.0:
        assert got == 0.0
    else:
        assert got == pytest.approx(exact, rel=rel, abs=0.0)


# E max(M_n, 0) ----------------------------------------------------------------

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

MAX_CELLS = table(
    [(d, n) for d in MODELS for n in NS],
    # shapes down to 1.2, boundary layers of the bounded kinds, Frechet(2.5) at scale
    [(Pareto(a), n) for a in (1.2, 1.3, 1.5, 1.656) for n in (3, 100, 10 ** 4)]
    + [(Uniform(0.0, 1.0), n) for n in (5000, 10 ** 4, 10 ** 5)]
    + [(BoundedPower(1.0, 2.0), n) for n in (5000, 10 ** 5)]
    + [(Frechet(0.0, c, 2.5), n) for c in SCALES for n in (1, 10, 1000, 10 ** 6)])


@pytest.mark.parametrize("d, n", MAX_CELLS,
                         ids=lambda v: f"n={v}" if isinstance(v, int) else repr(v))
def test_expected_max(d, n):
    assert_close(expected_max(d, n), ref.expected_max(d, n), rel=1e-14)


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


# sum_{i=j..k} E M_n^i ---------------------------------------------------------

OS_MODELS = ([Pareto(a) for a in ALPHAS[:-1]] + [BoundedPower(1.0, a) for a in ALPHAS[:-1]]
             + [Exponential(1.0), Uniform(0.0, 1.0)])
OS_NS = (2, 10, 1000, 10 ** 6, 10 ** 12)
NARROW = (Pareto(1e4), BoundedPower(1.0, 1e4))

#: Supports reaching below 0, where the means are of max(M, 0) (direction 8).
BELOW_0 = ([Gumbel(0.0, c) for c in SCALES] + [Gumbel(-3.0, 1.0), Gumbel(5.0, 2.0),
                                                Frechet(-1.0, 1.0, 3.0), Uniform(-1.0, 1.0)])
BELOW_0_CELLS = ([(d, n, 1) for d in BELOW_0 for n in (1, 10, 1000, 10 ** 6)]
                 + [(d, n, j) for d in BELOW_0 for n in (10, 10 ** 6) for j in (2, 3)])

#: The log-space unit tail puts these 1.9e-13 to 4.6e-13 off; Uniform(-1, 1)
#: is 2.6e-14 off.
BELOW_0_DEFECTS = defect(3, "the log-space unit tail at n <= 1000 is up to 4.6e-13 off",
                         [(d, 1000, 1) for d in BELOW_0 if d != Uniform(-1.0, 1.0)])

#: The quadrature of ``_order_statistics_mean`` leaves the double range on these
#: after 0.2 to 0.4 s each; one of them stands for the rest in the table.
OVERFLOWS = {(Pareto(1.05), 10 ** 12, 2), (Pareto(1.05), 10 ** 12, 3),
             (Pareto(1.2), 10 ** 12, 2), (Pareto(1.2), 10 ** 12, 3)}

MEAN_DEFECTS = {
    **defect(3, "the log-space unit tail at n <= 1000 is up to 9.5e-13 off",
             [(Pareto(a), 1000, 1) for a in (1.05, 1.2, 1.5, 1.656, 1.657, 2.0, 2.5, 3.0, 5.0)]
             + [(BoundedPower(1.0, a), 1000, 1) for a in (5.0, 50.0, 1e3)]
             + [(Exponential(1.0), 1000, 1)]),
    **defect(2, "the tail map misses a mass about 1/alpha wide: up to 58% low",
             [(d, n, j) for d in NARROW for n in OS_NS for j in (1, 2, 3) if j <= n]),
    **defect(2, "the tail map of a heavy Pareto at large n is up to 2.3e-11 off",
             [(Pareto(1.05), 10 ** 6, 3), (Pareto(1.2), 10 ** 6, 3), (Pareto(1.5), 10 ** 12, 2),
              (Pareto(1.5), 10 ** 12, 3)]
             + [(Pareto(a), 10 ** 12, j) for a in (1.657, 2.0) for j in (1, 2, 3)]),
    **defect(2, "the tail map leaves the double range", [(Pareto(1.05), 10 ** 6, 2)],
             raises=ConvergenceError),
    **BELOW_0_DEFECTS,
}

MEAN_CELLS = table(
    [(d, n, j) for d in OS_MODELS for n in OS_NS for j in (1, 2, 3)
     if j <= n and (d, n, j) not in OVERFLOWS],
    # the tail-map grid; the second largest of shapes with an infinite mean
    [(Pareto(a), n, j) for a in (1.05, 1.2, 1.5, 1.656, 2.0, 2.5, 3.0)
     for n in (2, 10, 100, 1000, 10 ** 5) for j in (1, 2, 3) if j <= n]
    + [(Pareto(a), n, 2) for a in (0.6, 0.8, 1.3) for n in (5, 100, 1000)]
    + [(Pareto(2.0), n, j) for n, j in ((3, 1), (6, 2), (6, 5))]
    # Frechet above 0, whose lower end -m/s lies below the standard member's
    + [(Frechet(m, s, a), n, 1) for m, s in ((0.5, 1.0), (2.0, 1.0), (1.0, 10.0), (10.0, 1.0))
       for a in (1.2, 1.656, 2.5) for n in (1, 2, 10, 100, 10 ** 5)]
    + [(Exponential(1.0), n, j) for n, j in ((2, 1), (5, 1), (5, 3), (5, 5), (7, 1))]
    + [(Uniform(0.0, 1.0), n, j) for n, j in ((1, 1), (2, 2), (3, 1), (4, 1), (4, 2), (4, 4),
                                              (7, 1), (9, 3))]
    + [(Uniform(0.0, 1.0), n, j) for n in (5000, 10 ** 4, 10 ** 5, 10 ** 6) for j in (1, 2, 3)]
    + [(Pareto(2.0), 7, 1), (Pareto(2.0), 1, 1), (Exponential(1.0), 1, 1)]
    + [(d, n, j) for d, n, j in BELOW_0_CELLS if j <= 2],
    MEAN_DEFECTS)


@pytest.mark.parametrize("d, n, j", MEAN_CELLS, ids=ids)
def test_order_statistic_mean(d, n, j):
    assert_close(order_statistic_mean(d, n, j), ref.order_statistic_means(d, n, j, j),
                 rel=1e-13)


PROPHET_CELLS = table(
    [(d, n, k) for d in OS_MODELS for n in (10, 1000, 10 ** 6, 10 ** 12) for k in (3, 10)],
    [(Uniform(0.0, 1.0), 3, 1), (Uniform(0.0, 1.0), 2, 2), (Exponential(1.0), 2, 1),
     (Pareto(2.0), 6, 2), (Pareto(2.0), 100, 3), (Pareto(2.0), 1000, 1)]
    # the boundary layer within k/n of the upper end
    + [(Uniform(0.0, 1.0), n, k) for n in (5000, 10 ** 5, 10 ** 6) for k in (10, 100, 200, 300)]
    + [(d, n, k) for d, n, k in BELOW_0_CELLS if k != 2],
    {**BELOW_0_DEFECTS,
     **defect(3, "the log-space unit tail puts it 5.6e-13 off; "
                 "bench/golden/converge-pareto.out pins its bits", [(Pareto(2.0), 1000, 1)]),
     **defect(2, "the tail map misses a mass about 1/alpha wide: up to 16% low",
              [(d, n, k) for d in NARROW for n in (10, 1000, 10 ** 6, 10 ** 12) for k in (3, 10)]),
     **defect(2, "the tail map of a heavy Pareto at large n is up to 2.4e-13 off",
              [(Pareto(1.657), 10 ** 12, 10), (Pareto(2.0), 10 ** 12, 3)])})

#: The exact Gauss-Kronrod constants hold this one to rounding (6.8e-17 off).
PROPHET_BANDS = {(Pareto(2.0), 100, 3): 5e-16}


@pytest.mark.parametrize("d, n, k", PROPHET_CELLS, ids=ids)
def test_prophet_value(d, n, k):
    assert_close(prophet_value(d, n, k), ref.order_statistic_means(d, n, 1, k),
                 rel=PROPHET_BANDS.get((d, n, k), 1e-13))


# E(X | X > T) -----------------------------------------------------------------

CM_MODELS = ([Pareto(a) for a in ALPHAS] + [Frechet(0.0, 1.0, a) for a in ALPHAS]
             + [BoundedPower(1.0, a) for a in ALPHAS] + [Exponential(1.0 / c) for c in SCALES]
             + [Uniform(0.0, c) for c in SCALES] + [Gumbel(0.0, c) for c in SCALES])
FRECHET_QUANTILES = (0.01, 0.1, 0.5, 0.9, 0.999, 1.0 - 1e-9)

#: One model of each kind with a finite lower end, for thresholds below it.
BELOW = [Pareto(2.0), Pareto(1.656), Exponential(1.0), Exponential(4.0), Uniform(0.0, 1.0),
         Uniform(2.0, 5.0), Frechet(0.0, 1.0, 2.5), Frechet(-0.5, 2.0, 3.0),
         BoundedPower(1.0, 2.0), BoundedPower(5.0, 0.7)]


def at(d, qs) -> list:
    """(d, T) at the quantile levels qs."""
    return [(d, float(d.quantile(q))) for q in qs]


CM_CELLS = table(
    [cell for d in CM_MODELS for cell in at(d, QUANTILES)],
    [(Exponential(1.0), T) for T in (1.0, 30.0, 100.0, 700.0)]
    + [(Gumbel(0.0, 1.0), T) for T in (5.0, 30.0, -5.0)]
    + [(Frechet(0.0, 1.0, 2.5), T) for T in (0.1, 1e3)] + [(Frechet(0.0, 289.0, 2.24), 1.0)]
    # far below the Gumbel mode, where E(X | X > T) is E X
    + [(Gumbel(loc, 1.0), T) for loc in (-50.0, 0.0, 50.0, 1e3)
       for T in (loc - 10.0, loc - 1e3, -1e6, -1e300)]
    + at(Gumbel(0.0, 1e-4), (0.01, 0.3))
    + [cell for m, s in ((0.0, 1.0), (-1.0, 2.0)) for a in (1.2, 1.656, 2.5, 10.0, 100.0, 1e3)
       for cell in at(Frechet(m, s, a), FRECHET_QUANTILES)]
    + [cell for a in (1e4, 1e5) for cell in at(Frechet(0.0, 1.0, a), FRECHET_QUANTILES)]
    + [(Pareto(2.0), 3.0), (Uniform(0.0, 1.0), 0.5)]
    + [(Pareto(a), T) for a in (1.2, 1.3, 1.5, 1.656) for T in (0.5, 1.0, 2.5, 100.0, 1e4)]
    + [(Pareto(3.0), 1e4), (Pareto(4.0), 1e3), (Pareto(2.0), 1e6), (Pareto(2.0), 1e8)]
    + [(d, T) for d in BELOW for T in (-1.0, -1e3, -1e6, -1e300)])


#: E(X - T | X > T) = 1 of Exponential(1) was held to 1e-12 absolute.
CM_BANDS = {(Exponential(1.0), T): 1e-12 / (T + 1.0) for T in (100.0, 700.0)}


@pytest.mark.parametrize("d, T", CM_CELLS, ids=ids)
def test_conditional_mean_above(d, T):
    assert_close(conditional_mean_above(d, T), ref.conditional_mean(d, T),
                 rel=CM_BANDS.get((d, T), 1e-14))


# The references against their defining integrals -----------------------------

class TestReferences:
    """Each reference once against its definition, by mp.quad at 30 digits with
    breakpoints where the integrand bends, to 1e-18 relative: well below any
    double band."""

    @pytest.fixture(autouse=True)
    def digits(self):
        with mp.workdps(30):
            yield

    KINDS = [Pareto(2.0), Exponential(1.0), Uniform(-2.0, 0.7), Frechet(-1.0, 1.0, 2.5),
             Gumbel(0.0, 1.0), BoundedPower(1.0, 2.0)]

    @staticmethod
    def cuts(d, lo, n=1):
        """lo, the support's ends above it, points where M_n's mass sits, and inf."""
        kind, p = ref.spec(d)
        ends = {"Pareto": (1,), "Exponential": (0,), "Uniform": p, "Frechet": (p[0],),
                "BoundedPower": (0, p[0])}
        width = p[-1] if kind == "Gumbel" else 1
        pts = [lo, *ends.get(kind, ()), *(lo + c * width * n for c in (1, 10, 100))]
        hi = p[1] if kind == "Uniform" else p[0] if kind == "BoundedPower" else mp.inf
        return sorted({mp.mpf(x) for x in pts if lo <= x < hi}) + [max(mp.mpf(hi), lo)]

    @staticmethod
    def agree(value, exact):
        assert abs(value - exact) <= 1e-18 * abs(exact), (value, exact)

    @pytest.mark.parametrize("n", [1, 2, 7])
    @pytest.mark.parametrize("d", KINDS, ids=repr)
    def test_expected_max_is_the_integral_of_P_max_above(self, d, n):
        # E max(M_n, 0) = int_0^inf 1 - (1 - sf)^n
        exact = mp.quad(lambda t: 1 - (1 - ref.sf(d, t)) ** n, self.cuts(d, 0))
        self.agree(ref.expected_max(d, n), exact)

    @pytest.mark.parametrize("n", [2, 10, 5000, 10 ** 5, 10 ** 6])
    def test_bounded_expected_max_in_its_boundary_layer(self, n):
        # int_0^1 1 - (1 - (1 - t)^2)^n, split at the layer width n^(-1/2)
        w = 1 / mp.sqrt(n)
        cuts = sorted({mp.mpf(0), *(1 - c * w for c in (1, 30) if c * w < 1), mp.mpf(1)})
        exact = mp.quad(lambda t: 1 - (1 - (1 - t) ** 2) ** n, cuts)
        self.agree(ref.expected_max(BoundedPower(1.0, 2.0), n), exact)

    @pytest.mark.parametrize("d, n, j, k", [
        (Pareto(2.0), 6, 1, 2), (BoundedPower(1.0, 2.0), 5, 2, 4),
        (Exponential(1.0), 5, 1, 5), (Uniform(1.0, 4.0), 9, 3, 3), (Frechet(0.5, 1.0, 2.5), 7, 1, 1),
    ], ids=repr)
    def test_order_statistic_means_are_the_integral_of_the_tails(self, d, n, j, k):
        # sum_{i=j..k} E M_n^i = int_0^inf sum_{i=j..k} P(Bin(n, sf) >= i)
        exact = mp.quad(lambda t: ref._tail_sum(n, j, k, ref.sf(d, t)), self.cuts(d, 0))
        self.agree(ref.order_statistic_means(d, n, j, k), exact)

    @pytest.mark.parametrize("d, n, j, k", [
        (Pareto(2.0), 10, 2, 3), (Exponential(1.0), 10 ** 6, 2, 2), (Uniform(0.0, 1.0), 10, 2, 3),
        (BoundedPower(1.0, 2.0), 1000, 1, 3), (Gumbel(5.0, 2.0), 1000, 1, 1),
        (Frechet(-1.0, 1.0, 3.0), 10 ** 6, 1, 1), (Uniform(-1.0, 1.0), 10, 1, 1),
    ], ids=repr)
    def test_means_by_quadrature_are_the_closed_forms(self, d, n, j, k):
        # the definition by mp.quad, the reference of the cells below 0 at j, k >= 2,
        # against the closed forms: the gamma ratios, H_n and (n + 1 - i)/(n + 1) on
        # nonnegative support, and E max(M_n, 0) at j = k = 1 on any
        self.agree(ref.order_statistic_means_quad(d, n, j, k),
                   ref.order_statistic_means(d, n, j, k))

    @pytest.mark.parametrize("T", [-3.0, 0.5, 1.5, 4.0])
    @pytest.mark.parametrize("d", KINDS, ids=repr)
    def test_tail_integral_is_the_integral_of_sf(self, d, T):
        # I(T) = int_T^inf sf, and E(X | X > T) = T + I(T)/sf(T)
        cuts = self.cuts(d, T)
        if len(cuts) == 1:
            assert ref.tail_integral(d, T) == 0
            return
        exact = mp.quad(lambda t: ref.sf(d, t), cuts)
        self.agree(ref.tail_integral(d, T), exact)
        self.agree(ref.conditional_mean(d, T), T + exact / ref.sf(d, T))

    @pytest.mark.parametrize("n, j, k, p", [(1, 1, 1, 0.3), (7, 1, 3, 0.25), (50, 2, 5, 0.04),
                                            (1000, 1, 10, 3e-3)])
    def test_capped_tails_are_the_incomplete_beta_integrals(self, n, j, k, p):
        # P(Bin(n, p) >= i) = int_0^p t^(i-1) (1-t)^(n-i) dt / B(i, n-i+1)
        with mp.workdps(30):
            exact = mp.fsum(mp.quad(lambda t: t ** (i - 1) * (1 - t) ** (n - i), [0, p])
                            / mp.beta(i, n - i + 1) for i in range(j, k + 1))
        self.agree(ref.capped_tails(n, j, k, p), exact)

    @pytest.mark.parametrize("n", [1, 2, 10, 1000])
    def test_harmonic_is_the_integral_of_the_geometric_sum(self, n):
        exact = mp.quad(lambda x: (1 - x ** n) / (1 - x), [0, 1])
        self.agree(ref.harmonic(n), exact)

    def test_gumbel_conditional_mean_far_below_the_mode(self):
        # the rearranged form agrees with T + I(T)/sf(T), and below z = -7 is E X
        d = Gumbel(2.0, 0.5)
        for T in (-1.0, 2.0, 6.0):
            with mp.workdps(50):
                plain = T + ref.tail_integral(d, T) / ref.sf(d, T)
            assert abs(ref.conditional_mean(d, T) - plain) <= 1e-40 * abs(plain)
        assert float(ref.conditional_mean(d, -1e300)) == float(2 + 0.5 * mp.euler)
