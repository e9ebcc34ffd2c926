import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpricing import (
    BoundedPower,
    DivergenceError,
    DomainError,
    EvtFamily,
    Exponential,
    Frechet,
    Gumbel,
    Pareto,
    SpecStringError,
    Uniform,
    conditional_mean_above,
    expected_max,
    integrate,
    order_statistic_mean,
    order_statistic_tail,
    parse_distribution,
    virtual_tail_ratio,
    virtual_valuation,
)
from evpricing.distributions import (
    EvtIndex,
    _binomial_tails,
    _conditional_means,
    _log_binomials,
    _unit,
)

import references as ref

POSITIVE = st.floats(1e-3, 1e3)
REAL = st.floats(-1e6, 1e6)

ALL_MODELS = [
    Pareto(2.0),
    Pareto(1.3),
    Exponential(1.0),
    Exponential(2.5),
    Uniform(0.0, 1.0),
    Uniform(1.0, 4.0),
    Frechet(0.0, 289.0, 2.24),
    Frechet(-1.0, 2.0, 3.0),
    Gumbel(0.0, 1.0),
    Gumbel(2.0, 0.5),
    BoundedPower(1.0, 2.0),
    BoundedPower(5.0, 0.7),
    # far from the unit, and a location that puts the scaling a_n below 0
    # unless it goes into the shift b_n
    Uniform(0.0, 1e-8),
    BoundedPower(1e-8, 2.0),
    Exponential(1e8),
    Gumbel(0.0, 1e-8),
    Frechet(0.0, 1e-8, 2.5),
    Frechet(-10.0, 1.0, 2.0),
]


@pytest.mark.parametrize("d", ALL_MODELS, ids=repr)
class TestModelBasics:
    def test_quantile_cdf_round_trip(self, d):
        qs = np.linspace(0.005, 0.995, 100)
        ts = np.asarray(d.quantile(qs))
        back = np.asarray(d.quantile(np.asarray(d.cdf(ts))))
        scale = np.maximum(1.0, np.abs(ts))
        assert np.all(np.abs(back - ts) <= 1e-8 * scale)

    def test_cdf_monotone_and_bounded(self, d):
        qs = np.linspace(0.001, 0.999, 200)
        ts = np.sort(np.asarray(d.quantile(qs)))
        vals = np.asarray(d.cdf(ts))
        assert np.all(np.diff(vals) >= -1e-12)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_sf_complements_cdf(self, d):
        qs = np.linspace(0.01, 0.99, 50)
        ts = np.asarray(d.quantile(qs))
        assert np.asarray(d.cdf(ts)) + np.asarray(d.sf(ts)) == pytest.approx(1.0, abs=1e-12)

    def test_pdf_nonnegative_and_normalized(self, d):
        qs = np.linspace(0.01, 0.99, 50)
        ts = np.asarray(d.quantile(qs))
        assert np.all(np.asarray(d.pdf(ts)) >= 0.0)
        lo = d.support.lo if math.isfinite(d.support.lo) else float(d.quantile(1e-9))
        if math.isfinite(d.support.hi):
            mass = integrate(lambda xs: [d.pdf(x) for x in xs], lo, d.support.hi, tol=1e-9)
        else:
            # a half-line: mpmath's quadrature, split at the quartiles
            mp = pytest.importorskip("mpmath")
            cuts = [lo, *(float(d.quantile(q)) for q in (0.25, 0.5, 0.75)), mp.inf]
            mass = float(mp.quad(lambda x: float(d.pdf(float(x))), cuts))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_support_endpoints_consistent(self, d):
        sup = d.support
        if math.isfinite(sup.lo):
            assert float(d.cdf(sup.lo)) <= 1e-12
        assert float(d.cdf(float(d.quantile(1.0 - 1e-12)))) >= 1.0 - 1e-9

    def test_evt_index_consistency(self, d):
        ev = d.evt_index()
        if ev.family is EvtFamily.FRECHET:
            assert ev.gamma > 0
        elif ev.family is EvtFamily.GUMBEL:
            assert ev.gamma == 0
        else:
            assert ev.gamma < 0

    def test_scaling_sequence_positive(self, d):
        for n in (1.5, 2, 10, 1000):
            assert d.normalizing_constants(n)[0] > 0

    def test_warning_free_on_the_real_line(self, d):
        # BoundedPower(alpha < 1).pdf(omega) = inf is the density's limit
        ends = [x for x in (d.support.lo, d.support.hi) if math.isfinite(x)]
        pts = [-math.inf, -1e308, -800.0, 0.0, 800.0, 1e308, math.inf, *ends]
        for t in (np.array(pts), *pts):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cdf, sf, pdf = (np.asarray(f(t)) for f in (d.cdf, d.sf, d.pdf))
            assert np.all((cdf >= 0.0) & (cdf <= 1.0)), t
            assert np.all((sf >= 0.0) & (sf <= 1.0)), t
            assert np.all(pdf >= 0.0) and not np.any(np.isnan(pdf)), t


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(ALL_MODELS), q=st.floats(1e-9, 1.0 - 1e-9))
def test_cdf_inverts_quantile(d, q):
    # worst seen: 6.8e-13 on BoundedPower(5, 0.7) at q = 1 - 1e-9
    assert abs(float(d.cdf(d.quantile(q))) - q) <= 1e-12


#: Each kind's standard member, at shapes on both sides of 1.
STANDARD_MEMBERS = [Pareto(1.5), Pareto(30.0), Exponential(1.0), Uniform(0.0, 1.0),
                    Frechet(0.0, 1.0, 0.7), Frechet(0.0, 1.0, 2.5), Gumbel(0.0, 1.0),
                    BoundedPower(1.0, 0.7), BoundedPower(1.0, 30.0)]


@pytest.mark.parametrize("z", STANDARD_MEMBERS, ids=repr)
def test_isf_against_closed_form(z):
    # Z's scalar inverse survival function against the closed-form inverse at
    # 30 digits.  The band is 2e-16 per unit of 1 + |log t|: the rounded
    # exponent -1/alpha carries its error into t times log t (1.7e-14 relative
    # for Pareto(1.5) at s = 1e-200), and Gumbel's t passes 0 at s = 1 - 1/e.
    for s in (1e-200, 1e-15, 1e-6, 0.01, 0.3, 0.5, 1.0 - 1.0 / math.e, 0.9,
              1.0 - 1e-9, 1.0 - 2.0 ** -53):
        with mp.workdps(30):
            t = float(ref.sf_inverse(z, s))
        band = 2e-16 * max(1.0, abs(t)) * (1.0 + abs(math.log(max(abs(t), 1.0))))
        assert abs(z._isf(s) - t) <= band, s


@pytest.mark.parametrize("z", STANDARD_MEMBERS, ids=repr)
def test_isf_at_one_is_the_lower_end(z):
    # the level 1/n of expected_max_approx at n = 1; log1p(-1) is -inf there,
    # so Frechet and Gumbel name their end
    assert z._isf(1.0) == z.support.lo


class TestEvtIndexType:
    def test_family_follows_sign_of_gamma(self):
        assert EvtIndex(0.5).family is EvtFamily.FRECHET
        assert EvtIndex(0.0).family is EvtFamily.GUMBEL
        assert EvtIndex(-0.5).family is EvtFamily.REVERSED_WEIBULL

    def test_nan_gamma_rejected(self):
        with pytest.raises(DomainError):
            EvtIndex(math.nan)


class TestCdfQuantileExamples:
    def test_pareto_cdf(self):
        assert Pareto(2.0).cdf(2.0) == pytest.approx(0.75, abs=1e-15)

    def test_frechet_cdf_at_scale(self):
        # location 0: at t = s the exponent is -1
        assert Frechet(0.0, 289.0, 2.24).cdf(289.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12, abs=0.0)

    def test_uniform_cdf(self):
        assert Uniform(0.0, 1.0).cdf(0.5) == 0.5

    def test_pareto_quantile(self):
        assert Pareto(2.0).quantile(0.75) == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_exponential_quantile_log_n(self):
        n = 64.0
        assert Exponential(1.0).quantile(1.0 - 1.0 / n) == pytest.approx(math.log(n), rel=1e-12)

    def test_frechet_quantile_case_study_form(self):
        val = Frechet(0.0, 289.0, 2.24).quantile(1.0 - 1.0 / 509.0)
        expected = 289.0 * math.log(509.0 / 508.0) ** (-1.0 / 2.24)
        assert val == pytest.approx(expected, rel=1e-12)

    def test_quantile_domain_infinite_endpoints(self):
        with pytest.raises(DomainError):
            Pareto(2.0).quantile(1.0)
        with pytest.raises(DomainError):
            Gumbel(0.0, 1.0).quantile(0.0)
        # finite endpoints are fine
        assert Uniform(0.0, 1.0).quantile(1.0) == 1.0
        assert Pareto(2.0).quantile(0.0) == 1.0


class TestEvtIndexValues:
    def test_pareto(self):
        ev = Pareto(2.0).evt_index()
        assert ev.gamma == 0.5 and ev.family is EvtFamily.FRECHET

    def test_exponential(self):
        ev = Exponential(1.0).evt_index()
        assert ev.gamma == 0.0 and ev.family is EvtFamily.GUMBEL

    def test_uniform(self):
        ev = Uniform(0.0, 1.0).evt_index()
        assert ev.gamma == -1.0 and ev.family is EvtFamily.REVERSED_WEIBULL

    def test_frechet_and_bpower(self):
        assert Frechet(0.0, 1.0, 4.0).evt_index().gamma == 0.25
        assert BoundedPower(1.0, 2.0).evt_index().gamma == -0.5


class TestNormalizingSequences:
    def test_pareto_quantile_scaling(self):
        a_n, b_n = Pareto(2.0).normalizing_constants(4)
        assert a_n == pytest.approx(2.0, rel=1e-14, abs=0.0)
        assert b_n == 0.0

    def test_exponential_at_real_point(self):
        a_n, b_n = Exponential(1.0).normalizing_constants(math.e)
        assert a_n == 1.0
        assert b_n == pytest.approx(1.0, rel=1e-15, abs=0.0)

    def test_uniform(self):
        a_n, b_n = Uniform(0.0, 1.0).normalizing_constants(10)
        assert a_n == pytest.approx(0.1, rel=1e-14, abs=0.0)
        assert b_n == 1.0

    def test_frechet_matches_quantile(self):
        d = Frechet(0.0, 289.0, 2.24)
        a_n, _ = d.normalizing_constants(509)
        assert a_n == pytest.approx(float(d.quantile(1 - 1 / 509)), rel=1e-12)

    @pytest.mark.parametrize("d", [Frechet(0.0, 1.0, 2.0), Frechet(-1.0, 2.0, 3.0)], ids=repr)
    def test_frechet_at_one_is_lower_end(self, d):
        # the limit of the standard F^{-1}(1 - 1/n) as n -> 1, where
        # log1p(-1/n) has a pole, is its lower end 0; the location is b_n
        assert d.normalizing_constants(1) == (0.0, d.m)


class TestOrderStatisticTail:
    @pytest.mark.parametrize("d", [Pareto(2.0), Uniform(0.0, 1.0), Gumbel(0.0, 1.0)], ids=repr)
    def test_nan_threshold_rejected_by_name(self, d):
        with pytest.raises(DomainError, match="threshold T is NaN"):
            order_statistic_tail(d, 10, 1, math.nan)

    def test_half_tail_two_draws(self):
        # 1 - F(T) = 0.5: P(at least one of two exceeds) = 0.75
        d = Uniform(0.0, 1.0)
        assert order_statistic_tail(d, 2, 1, 0.5) == pytest.approx(
            float(ref.capped_tails(2, 1, 1, 0.5)), abs=1e-12)

    def test_all_exceed(self):
        d = Uniform(0.0, 1.0)
        p = 0.3
        assert order_statistic_tail(d, 5, 5, 1 - p) == pytest.approx(
            float(ref.capped_tails(5, 5, 5, p)), rel=1e-10, abs=0.0)

    def test_binomial_summation_oracle(self):
        # sf(2) = 0.25 for Pareto(2): P(Bin(3, 1/4) >= 2) = 0.15625
        d, n, j, T = Pareto(2.0), 3, 2, 2.0
        assert order_statistic_tail(d, n, j, T) == pytest.approx(
            float(ref.capped_tails(n, j, j, 0.25)), rel=1e-12, abs=0.0)

    def test_monotone_in_j_T_n(self):
        d = Exponential(1.0)
        for n in (5, 12):
            for j in range(1, 5):
                for T in (0.5, 1.0, 2.0):
                    val = order_statistic_tail(d, n, j, T)
                    assert val >= order_statistic_tail(d, n, j + 1, T) - 1e-13
                    assert val >= order_statistic_tail(d, n, j, T + 0.5) - 1e-13
                    assert val <= order_statistic_tail(d, n + 1, j, T) + 1e-13

    def test_min_binomial_identity(self, nonneg_models):
        # sum of top-k tails equals E min(k, Bin(n, p)), by direct expectation
        for d in nonneg_models:
            n, k = 9, 4
            T = float(d.quantile(0.6))
            expected = float(ref.capped_tails(n, 1, k, float(d.sf(T))))
            total = sum(order_statistic_tail(d, n, j, T) for j in range(1, k + 1))
            assert total == pytest.approx(expected, abs=1e-10)

    def test_direct_and_walk_routes_agree(self):
        # same unit tail on both sides of the large-n switch
        d = Exponential(1.0)
        from evpricing import distributions as dist_mod
        p_direct = order_statistic_tail(d, 1000, 1, 2.0)
        old = dist_mod._DIRECT_BINOMIAL_MAX_N
        try:
            dist_mod._DIRECT_BINOMIAL_MAX_N = 10
            p_walk = order_statistic_tail(d, 1000, 1, 2.0)
        finally:
            dist_mod._DIRECT_BINOMIAL_MAX_N = old
        assert p_direct == pytest.approx(p_walk, rel=1e-10)

    def test_huge_n_no_underflow(self):
        val = order_statistic_tail(Pareto(2.0), 10 ** 6, 2, 1e4)
        assert 0.0 < val < 1.0

    def test_j_out_of_range(self):
        with pytest.raises(DomainError):
            order_statistic_tail(Pareto(2.0), 3, 0, 2.0)
        with pytest.raises(DomainError):
            order_statistic_tail(Pareto(2.0), 3, 4, 2.0)


class TestOrderStatisticTailMpmath:
    """Both binomial routes against 60-digit sums, at exceedance probability
    p = c/n for the exact double p = sf(T).  Each band is at least 10x the
    worst error measured over these points.  The log-space unit tail
    (j = 1, n <= 1000) is off by 1.3e-15 at n = 10 and 7.9e-13 at n = 1000
    (the error grows with n * ulp(log p)).  The mass walk, which serves every
    other cell, is within 5.2e-16; TestBinomialWalkMpmath holds it to 5e-14
    over a wider grid."""

    #: The log-space unit tail's band by n; the walk's is WALK_BAND.
    LOG_SPACE_BANDS = {10: 2e-14, 1000: 1e-11}
    WALK_BAND = 2e-14

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", [10, 1000, 1001, 10 ** 6])
    def test_both_routes(self, n, j):
        rel = self.LOG_SPACE_BANDS[n] if j == 1 and n <= 1000 else self.WALK_BAND
        d = Exponential(1.0)
        for c in (0.3, 1.0, 3.0, 8.0):
            T = math.log(n / c)
            oracle = float(ref.capped_tails(n, j, j, float(d.sf(T))))
            assert order_statistic_tail(d, n, j, T) == pytest.approx(oracle, rel=rel, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="ROADMAP direction 3: the log-space unit tail "
                       "is 7.9e-13 off at n = 1000, the mass walk 3.9e-17; "
                       "bench/golden/converge-pareto.out pins its bits")
    def test_unit_tail_at_n_1000(self):
        d, T = Exponential(1.0), math.log(1000 / 0.3)
        oracle = float(ref.capped_tails(1000, 1, 1, float(d.sf(T))))
        assert order_statistic_tail(d, 1000, 1, T) == pytest.approx(oracle, rel=1e-14, abs=0.0)


class TestBinomialWalkMpmath:
    """The walk over the binomial masses, the route of every tail but the unit
    tail (j = k = 1) at n <= _DIRECT_BINOMIAL_MAX_N, against 60-digit sums at
    np from 1e-6 to min(100, n/2).  Its worst error over this grid is 1.5e-15
    (n = 1e6, j = 1, k = 10).  The log-space sum it replaced up to n = 1000
    was off by 1.7e-13 at n = 500 and 1.0e-12 at n = 1000; scipy's betainc,
    which it replaced above, by 1.3e-11 at n = 1e6 and 2.3e-8 at n = 1e9."""

    @pytest.mark.parametrize("n, j, k", [
        (n, j, k)
        for n in (10, 50, 100, 500, 1000, 1001, 5000, 10 ** 4, 10 ** 5, 10 ** 6, 10 ** 8,
                  10 ** 9, 10 ** 12, 10 ** 15)
        for j, k in ((1, 1), (1, 3), (2, 2), (3, 3), (1, 10))
        if n > 1000 or (j, k) != (1, 1)])
    def test_against_mpmath(self, n, j, k):
        p = np.geomspace(1e-6, min(100.0, n / 2), 25) / n
        oracle = [float(ref.capped_tails(n, j, k, float(x))) for x in p]
        assert _binomial_tails(n, j, k, p) == pytest.approx(oracle, rel=5e-14, abs=0.0)

    @settings(max_examples=200, deadline=None)
    @given(n=st.one_of(st.integers(51, 1000), st.integers(1001, 10 ** 12)),
           y=st.floats(1e-6, 50.0), k=st.integers(1, 10))
    def test_le_cam_poisson_limit(self, n, y, k):
        # Le Cam (1960): Bin(n, y/n) is within y^2/n of Poisson(y) in total
        # variation, so the capped means differ by at most k y^2/n; the slack
        # is for rounding, both sides being right to about 1e-15 relative
        from evpricing.guarantees import _poisson_tail_sum
        poisson = _poisson_tail_sum(y, k)
        binomial = _binomial_tails(n, 1, k, [y / n])[0]
        assert abs(binomial - poisson) <= k * y * y / n + 1e-14 * poisson


class TestBinomialTerms:
    """The p-free part of the log-space unit tail, log C(n, m), is made once
    per n; each p sums only the terms within e^-60 of the largest, in numpy's
    pairwise order."""

    @pytest.mark.parametrize("n, j, k", [(1, 1, 1), (10, 1, 1), (100, 1, 1), (1000, 1, 1)])
    def test_tails_bit_equal_to_uncached_sum(self, n, j, k):
        # the formula before memoization, every term in its original order
        from scipy.special import gammaln
        p = np.array([0.0, 1e-300, 1e-9, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-12, 1.0])
        inner = (p > 0.0) & (p < 1.0)
        q = np.where(inner, p, 0.5)[..., None]
        m = np.arange(j, n + 1)
        logs = (gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)
                + m * np.log(q) + (n - m) * np.log1p(-q))
        sums = np.minimum(k - j + 1, (np.exp(logs) * np.minimum(m - j + 1, k - j + 1)).sum(-1))
        expected = np.where(inner, sums, np.where(p >= 1.0, k - j + 1.0, 0.0))
        got = _binomial_tails(n, j, k, p.tolist())
        assert list(map(float.hex, got)) == list(map(float.hex, expected.tolist()))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 1000),
           p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_window_equals_sum_of_all_terms(self, n, p):
        # all n terms, math.exp of the same exponents, summed by numpy's
        # pairwise order for one contiguous row
        coef, l1, l2 = _log_binomials(n), math.log(p), math.log1p(-p)
        terms = [math.exp(coef[m] + m * l1 + (n - m) * l2) for m in range(1, n + 1)]
        full = min(1.0, float(np.array(terms).sum()))
        assert abs(_binomial_tails(n, 1, 1, [p])[0] - full) <= 2 * math.ulp(full)

    def test_log_binomials_bit_equal_to_gammaln(self):
        from scipy.special import gammaln
        n = 1000
        m = np.arange(n + 1)
        expected = gammaln(n + 1) - gammaln(m + 1) - gammaln(n - m + 1)
        assert list(map(float.hex, _log_binomials(n))) == list(map(float.hex, expected.tolist()))

    def test_only_the_small_unit_tail_is_summed_in_log_space(self, monkeypatch):
        from evpricing import distributions as dist_mod
        seen = []
        coef = dist_mod._log_binomials
        monkeypatch.setattr(dist_mod, "_log_binomials", lambda n: seen.append(n) or coef(n))
        p = [1e-3, 0.3]
        for n in (1, 10, 1000, 1001, 10 ** 6):
            for j, k in ((1, 1), (1, 2), (2, 2), (3, 3), (1, 10)):
                if k <= n:
                    _binomial_tails(n, j, k, p)
        assert seen == [1, 10, 1000]

    def test_cached_and_read_only(self):
        first = _log_binomials(50)
        assert _log_binomials(50) is first
        assert len(first) == 51
        with pytest.raises(TypeError):
            first[0] = 0.0


class TestOrderStatisticMean:
    """The values are in tests/test_oracle_table.py."""

    def test_decreasing_in_j(self, nonneg_models):
        for d in nonneg_models:
            means = [order_statistic_mean(d, 5, j) for j in range(1, 6)]
            assert all(a > b for a, b in zip(means, means[1:]))

    def test_divergent_moment_rejected(self):
        with pytest.raises(DivergenceError):
            order_statistic_mean(Pareto(0.9), 5, 1)
        # second moment order statistic of the same model is fine
        assert order_statistic_mean(Pareto(0.9), 5, 2) > 0

    def test_negative_support_is_the_mean_above_0(self):
        # E max(M_n^j, 0), the convention of expected_max (ROADMAP direction 8);
        # the table holds the values, this the supports at or below 0
        d = Gumbel(0.0, 1.0)
        assert order_statistic_mean(d, 3, 1) == pytest.approx(expected_max(d, 3), rel=1e-14)
        for d in (Uniform(-2.0, -1.0), Uniform(-1.0, 0.0)):
            assert order_statistic_mean(d, 5, 2) == 0.0


TAIL_ALPHAS = [1.02, 1.2, 1.5, 1.657, 2.0, 2.5, 5.0, 50.0, 1e3, 1e4, 1e5, 1e6]
TAIL_SCALES = [1e-8, 1.0, 1e8]
TAIL_QUANTILES = [1e-6, 1e-3, 0.1, 0.5, 0.9, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]


def tail_model(kind: str, alpha: float, scale: float):
    """The model of each kind with shape alpha (where it has one) and unit scale."""
    return {"pareto": Pareto(alpha), "exp": Exponential(1.0 / scale),
            "uniform": Uniform(0.0, scale), "frechet": Frechet(0.0, scale, alpha),
            "gumbel": Gumbel(0.0, scale), "bpower": BoundedPower(scale, alpha)}[kind]


class TestTailIntegral:
    """The closed form ``_tail_integral`` against 50-digit mpmath, to 1e-13
    relative or 1e-15 absolute in units of max(scale, |T|)."""

    @staticmethod
    def check(d, scale: float):
        points = [float(d.quantile(q)) for q in TAIL_QUANTILES]
        if d.support.lo > -math.inf:
            points.append(d.support.lo - scale)
        for T in points:
            assert d._tail_integral(T) == pytest.approx(
                float(ref.tail_integral(d, T)), rel=1e-13,
                abs=1e-15 * max(scale, abs(T))), (d, T)

    @pytest.mark.parametrize("alpha", TAIL_ALPHAS)
    def test_pareto(self, alpha):
        self.check(Pareto(alpha), 1.0)

    @pytest.mark.parametrize("kind", ["frechet", "bpower"])
    @pytest.mark.parametrize("alpha", TAIL_ALPHAS)
    def test_shaped_kinds(self, kind, alpha):
        for scale in TAIL_SCALES:
            self.check(tail_model(kind, alpha, scale), scale)

    @pytest.mark.parametrize("kind", ["exp", "uniform", "gumbel"])
    def test_shapeless_kinds(self, kind):
        for scale in TAIL_SCALES:
            self.check(tail_model(kind, 1.0, scale), scale)

    @pytest.mark.parametrize("kind", ["pareto", "exp", "uniform", "frechet", "gumbel", "bpower"])
    def test_finite_at_the_ends_of_the_double_range(self, kind):
        for scale in TAIL_SCALES:
            d = tail_model(kind, 2.5, scale)
            assert d._tail_integral(1e300) == 0.0
            assert d._tail_integral(-1e300) == pytest.approx(
                float(ref.tail_integral(d, -1e300)), rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["pareto", "exp", "uniform", "frechet", "gumbel", "bpower"]),
           alpha=st.floats(1.02, 1e6), scale=st.sampled_from(TAIL_SCALES),
           u=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e300, 1e300)),
           step=st.floats(0.0, 10.0))
    def test_nonnegative_nonincreasing_and_1_lipschitz(self, kind, alpha, scale, u, step):
        # T = u in units of scale near the mass, anywhere in [-1e300, 1e300] beyond it
        d = tail_model(kind, alpha, scale)
        T1 = min(max(u * scale, -1e300), 1e300)
        T2 = min(T1 + step * scale, 1e300)
        i1, i2 = d._tail_integral(T1), d._tail_integral(T2)
        assert math.isfinite(i1) and math.isfinite(i2) and i2 >= 0.0
        slack = 1e-13 * i1 + 1e-15 * max(scale, abs(T1), abs(T2))
        assert i2 <= i1 + slack
        assert i1 - i2 <= (T2 - T1) + slack


class TestConditionalMean:
    """The values are in tests/test_oracle_table.py."""

    @pytest.mark.parametrize("d", [
        Pareto(2.0), Pareto(1.656), Exponential(1.0), Exponential(4.0), Uniform(0.0, 1.0),
        Uniform(2.0, 5.0), Frechet(0.0, 1.0, 2.5), Frechet(-0.5, 2.0, 3.0),
        BoundedPower(1.0, 2.0), BoundedPower(5.0, 0.7)], ids=repr)
    @pytest.mark.parametrize("T", [-1.0, -1e3, -1e6, -1e300])
    def test_below_the_support_is_the_value_at_the_lower_end(self, d, T):
        # X > T is certain below a finite lower end: E(X | X > T) = E X, bit
        # for bit the value at the lower end itself
        assert conditional_mean_above(d, T) == conditional_mean_above(d, d.support.lo)

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(1.2, 6.0), T=st.floats(1.0, 1e8))
    def test_pareto_closed_form_property(self, alpha, T):
        d = Pareto(alpha)
        assert conditional_mean_above(d, T) == pytest.approx(float(ref.conditional_mean(d, T)),
                                                             rel=1e-11)

    @pytest.mark.parametrize("d", [Pareto(2.0), Uniform(0.0, 1.0), Gumbel(0.0, 1.0)], ids=repr)
    def test_nan_threshold_rejected_by_name(self, d):
        with pytest.raises(DomainError, match="threshold T is NaN"):
            conditional_mean_above(d, math.nan)

    def test_saturated_threshold_rejected(self):
        with pytest.raises(DomainError):
            conditional_mean_above(Uniform(0.0, 1.0), 1.0)
        with pytest.raises(DomainError, match="probability 0"):
            _conditional_means(Uniform(0.0, 1.0), [0.2, 0.5, 1.0])

    def test_divergent_tail_rejected(self):
        with pytest.raises(DivergenceError):
            conditional_mean_above(Pareto(1.0), 2.0)


class TestConditionalMeansGrid:
    """The one sweep behind conditional_mean_above and the policy grid: I(T) at
    the top threshold, carried down by finite pieces."""

    @pytest.mark.parametrize("d, Ts", [
        (Pareto(2.5), [-5.0, 0.5, 1.0, 1.5, 3.0, 10.0, 1e3, 1e6]),
        (Pareto(1.656), [0.25, 1.0, 1.001, 2.0, 50.0, 1e4]),
        (Exponential(2.0), [-3.0, -1e-9, 0.0, 0.1, 1.0, 5.0, 30.0, 350.0]),
        (Uniform(1.0, 4.0), [-2.0, 0.5, 1.0, 1.5, 2.5, 3.9, 3.999999]),
        (Uniform(100.0, 101.0), [0.0, 99.0, 100.0, 100.25, 100.95]),
        # far below the mode the Gumbel conditional mean is E X = loc + scale*euler_gamma
        (Gumbel(0.0, 1.0), [-1e300, -1e6, -50.0, -8.0, -5.0]),
        (Gumbel(2.0, 0.5), [-1e6, -40.0, -3.0, -1.0]),
    ], ids=repr)
    def test_references_on_sorted_grids(self, d, Ts):
        got = _conditional_means(d, Ts)
        for T, v in zip(Ts, got):
            assert v == pytest.approx(float(ref.conditional_mean(d, T)), rel=1e-12, abs=0.0), T


class TestClipFreeTails:
    """The scalar tails, written without np.clip and np.where, give their bits."""

    specials = [math.nan, -0.0, 0.0, 1.0, -1.0, 0.5, math.inf, -math.inf, 5e-324, -5e-324,
                1.0 - 1e-16, 1.0 + 1e-15]

    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.sampled_from(specials) | st.floats(-3.0, 3.0) | st.floats(),
                       min_size=1, max_size=20))
    def test_unit_clip_is_np_clip(self, xs):
        # the scalar clip of the bounded kinds, NaN and -0.0 included
        ref = np.clip(np.array(xs), 0.0, 1.0).tolist()
        assert list(map(float.hex, map(_unit, xs))) == list(map(float.hex, ref))

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.floats(0.05, 50.0),
           ts=st.lists(st.sampled_from(specials) | st.floats(-10.0, 1e6) | st.floats(),
                       min_size=1, max_size=20))
    def test_pareto_sf_matches_piecewise_form(self, alpha, ts):
        ref = [1.0 if t < 1.0 else t ** -alpha for t in ts]
        got = Pareto(alpha).sf(np.array(ts))
        assert got.view(np.int64).tolist() == np.array(ref).view(np.int64).tolist()


class TestVirtualValuation:
    def test_pareto_linear(self):
        assert virtual_valuation(Pareto(2.0), 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_shift(self):
        assert virtual_valuation(Exponential(1.0), 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_uniform(self):
        assert virtual_valuation(Uniform(0.0, 1.0), 0.8) == pytest.approx(0.6, rel=1e-12, abs=0.0)

    def test_pareto_slope_grid(self):
        alpha = 3.0
        d = Pareto(alpha)
        ts = np.linspace(1.1, 40.0, 50)
        vals = np.array([virtual_valuation(d, float(t)) for t in ts])
        assert np.allclose(vals, (alpha - 1.0) / alpha * ts, rtol=1e-12)

    def test_zero_density(self):
        with pytest.raises(DomainError):
            virtual_valuation(Uniform(0.0, 1.0), 1.5)


class TestVirtualTailRatio:
    def test_pareto_constant(self):
        d = Pareto(2.0)
        for t in (2.0, 5.0, 37.0):
            assert virtual_tail_ratio(d, t) == pytest.approx(0.25, abs=1e-9)

    def test_exponential_one_over_e(self):
        d = Exponential(1.0)
        for t in (0.0, 1.0, 4.0):
            assert virtual_tail_ratio(d, t) == pytest.approx(math.exp(-1.0), abs=1e-9)

    @pytest.mark.parametrize("rate", [1e-6, 1.0, 1e6])
    def test_exponential_any_rate(self, rate):
        # phi(s) = s - 1/rate, so the preimage is t + 1/rate at every scale
        for t in (0.0, 2.0 / rate, 4.0 / rate):
            assert virtual_tail_ratio(Exponential(rate), t) == pytest.approx(math.exp(-1.0),
                                                                             abs=1e-15)

    def test_frechet_scale_free(self):
        # X -> cX maps phi to c*phi, so the ratio at c*t does not depend on c
        for t in (2.0, 5.0):
            ratios = [virtual_tail_ratio(Frechet(0.0, c, 3.0), c * t) for c in (1e-6, 1.0, 1e6)]
            assert ratios == pytest.approx([ratios[1]] * 3, rel=1e-14, abs=0.0)

    def test_uniform_half(self):
        # phi(t) = 2t - 1, so the ratio is exactly 1/2 on a grid toward 1
        d = Uniform(0.0, 1.0)
        for t in (0.3, 0.7, 0.95, 0.999):
            assert virtual_tail_ratio(d, t) == pytest.approx(0.5, abs=1e-8)

    @pytest.mark.parametrize("c", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_bounded_scale_free(self, c):
        # phi(s) = 2s - c and (3s - c)/2: the ratios 1/2 and 4/9 at every scale,
        # with the preimage 5e-5 c and 6.7e-5 c below the upper end
        assert virtual_tail_ratio(Uniform(0.0, c), 0.9999 * c) == pytest.approx(
            0.5, rel=1e-10, abs=0.0)
        assert virtual_tail_ratio(BoundedPower(c, 2.0), 0.9999 * c) == pytest.approx(
            4.0 / 9.0, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("loc", [1e3, 1e6])
    @pytest.mark.parametrize("t", [-1.0, 0.0, 2.0])
    def test_gumbel_location_free(self, loc, t):
        # phi(s) - loc depends on z = s - loc alone: solve z - sf(z)/pdf(z) = t
        # at 30 digits, and the ratio sf(z)/sf(t) holds at every location
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            sf = lambda z: -mp.expm1(-mp.exp(-z))
            z = mp.findroot(lambda z: z - sf(z) * mp.exp(z + mp.exp(-z)) - t, t + 1)
            oracle = float(sf(z) / sf(mp.mpf(t)))
        assert virtual_tail_ratio(Gumbel(loc, 1.0), loc + t) == pytest.approx(
            oracle, rel=1e-9, abs=0.0)


class TestFrechetMaxStability:
    def test_cdf_power_matches_rescaled(self):
        s, alpha, n = 2.0, 1.7, 6
        base = Frechet(0.0, s, alpha)
        scaled = Frechet(0.0, s * n ** (1.0 / alpha), alpha)
        ts = np.linspace(0.5, 50.0, 40)
        lhs = np.asarray(base.cdf(ts)) ** n
        rhs = np.asarray(scaled.cdf(ts))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestParseDistribution:
    @pytest.mark.parametrize("spec,cls", [
        ("pareto:alpha=2", Pareto),
        ("exp:rate=1", Exponential),
        ("uniform:a=0,b=1", Uniform),
        ("frechet:m=0,s=289,alpha=2.24", Frechet),
        ("gumbel:loc=0,scale=1", Gumbel),
        ("bpower:omega=1,alpha=2", BoundedPower),
    ])
    def test_round_trips(self, spec, cls):
        assert isinstance(parse_distribution(spec), cls)

    def test_unknown_kind(self):
        with pytest.raises(SpecStringError, match="weibull"):
            parse_distribution("weibull:alpha=2")

    def test_unknown_key_named(self):
        with pytest.raises(SpecStringError, match="'beta'"):
            parse_distribution("pareto:beta=2")

    def test_missing_key_named(self):
        with pytest.raises(SpecStringError, match="'b'"):
            parse_distribution("uniform:a=0")

    def test_bad_value_named(self):
        with pytest.raises(SpecStringError, match="'alpha'"):
            parse_distribution("pareto:alpha=two")

    def test_invalid_parameter_value(self):
        with pytest.raises(SpecStringError):
            parse_distribution("pareto:alpha=-1")

    @pytest.mark.parametrize("spec,key", [
        ("frechet:m=-inf,s=1,alpha=2", "m"),
        ("gumbel:loc=nan,scale=1", "loc"),
        ("uniform:a=0,b=inf", "b"),
        ("uniform:a=-inf,b=0", "a"),
    ])
    def test_non_finite_location_named(self, spec, key):
        with pytest.raises(SpecStringError, match=f"parameter {key} must be a finite real"):
            parse_distribution(spec)

    @settings(max_examples=200, deadline=None)
    @given(case=st.one_of(
        st.builds(lambda a: ("pareto", Pareto(a), f"alpha={a!r}"), POSITIVE),
        st.builds(lambda r: ("exp", Exponential(r), f"rate={r!r}"), POSITIVE),
        st.builds(lambda a, w: ("uniform", Uniform(a, a + w), f"a={a!r},b={a + w!r}"),
                  REAL, POSITIVE),
        st.builds(lambda m, s, a: ("frechet", Frechet(m, s, a), f"m={m!r},s={s!r},alpha={a!r}"),
                  REAL, POSITIVE, POSITIVE),
        st.builds(lambda m, s: ("gumbel", Gumbel(m, s), f"loc={m!r},scale={s!r}"),
                  REAL, POSITIVE),
        st.builds(lambda o, a: ("bpower", BoundedPower(o, a), f"omega={o!r},alpha={a!r}"),
                  POSITIVE, POSITIVE),
    ))
    def test_rendered_spec_round_trips(self, case):
        kind, model, params = case
        assert parse_distribution(f"{kind}:{params}") == model


class TestMean:
    """E X, which is E max(M_1, 0) on nonnegative support."""

    def test_closed_forms(self):
        for d in (Pareto(2.0), Exponential(2.5), Uniform(0.0, 1.0), Frechet(0.0, 289.0, 2.24)):
            assert d.mean() == pytest.approx(float(ref.expected_max(d, 1)), rel=1e-9)

    @pytest.mark.parametrize("alpha", [1e3, 3e3, 1e4, 1e6])
    def test_narrow_shapes(self, alpha):
        # the mass is about 1/alpha wide: one closed form each, no quadrature
        for d in (Pareto(alpha), Frechet(0.0, 1.0, alpha), BoundedPower(1.0, alpha)):
            assert d.mean() == pytest.approx(float(ref.expected_max(d, 1)), rel=1e-15, abs=0.0)

    def test_infinite_mean_rejected(self):
        with pytest.raises(DivergenceError):
            Pareto(1.0).mean()

    def test_negative_support_rejected(self):
        with pytest.raises(DomainError):
            Gumbel(0.0, 1.0).mean()


class TestBoundedPowerFamily:
    def test_uniform_special_case(self):
        bp = BoundedPower(1.0, 1.0)
        u = Uniform(0.0, 1.0)
        ts = np.linspace(0.0, 1.0, 21)
        assert np.allclose(np.asarray(bp.cdf(ts)), np.asarray(u.cdf(ts)), atol=1e-15)

    def test_support_nonnegative(self):
        bp = BoundedPower(5.0, 0.7)
        assert bp.support.lo == 0.0
        assert bp.support.hi == 5.0
