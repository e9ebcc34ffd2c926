import math

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
    Interval,
    Pareto,
    SpecStringError,
    Uniform,
    conditional_mean_above,
    integrate,
    order_statistic_mean,
    order_statistic_tail,
    parse_distribution,
    virtual_tail_ratio,
    virtual_valuation,
)
from evpricing.distributions import EvtIndex

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
        mass = integrate(d.pdf, Interval(lo, d.support.hi), tol=1e-9)
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
        seqs = d.normalizing_sequences()
        for n in (1.5, 2, 10, 1000):
            assert seqs.a_of_n(n) > 0


class TestEvtIndexType:
    def test_mismatch_rejected(self):
        with pytest.raises(DomainError):
            EvtIndex(0.5, EvtFamily.GUMBEL)
        with pytest.raises(DomainError):
            EvtIndex(-0.5, EvtFamily.FRECHET)
        with pytest.raises(DomainError):
            EvtIndex(0.0, EvtFamily.REVERSED_WEIBULL)


class TestCdfQuantileExamples:
    def test_pareto_cdf(self):
        assert Pareto(2.0).cdf(2.0) == pytest.approx(0.75, abs=1e-15)

    def test_frechet_cdf_at_scale(self):
        # location 0: at t = s the exponent is -1
        assert Frechet(0.0, 289.0, 2.24).cdf(289.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_uniform_cdf(self):
        assert Uniform(0.0, 1.0).cdf(0.5) == 0.5

    def test_pareto_quantile(self):
        assert Pareto(2.0).quantile(0.75) == pytest.approx(2.0, rel=1e-14)

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
        seqs = Pareto(2.0).normalizing_sequences()
        assert seqs.a_of_n(4) == pytest.approx(2.0, rel=1e-14)
        assert seqs.b_of_n(4) == 0.0

    def test_exponential_at_real_point(self):
        seqs = Exponential(1.0).normalizing_sequences()
        assert seqs.a_of_n(math.e) == 1.0
        assert seqs.b_of_n(math.e) == pytest.approx(1.0, rel=1e-15)

    def test_uniform(self):
        seqs = Uniform(0.0, 1.0).normalizing_sequences()
        assert seqs.a_of_n(10) == pytest.approx(0.1, rel=1e-14)
        assert seqs.b_of_n(10) == 1.0

    def test_frechet_matches_quantile(self):
        d = Frechet(0.0, 289.0, 2.24)
        seqs = d.normalizing_sequences()
        assert seqs.a_of_n(509) == pytest.approx(float(d.quantile(1 - 1 / 509)), rel=1e-12)


class TestOrderStatisticTail:
    def test_half_tail_two_draws(self):
        # 1 - F(T) = 0.5: P(at least one of two exceeds) = 0.75
        d = Uniform(0.0, 1.0)
        assert order_statistic_tail(d, 2, 1, 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_all_exceed(self):
        d = Uniform(0.0, 1.0)
        p = 0.3
        assert order_statistic_tail(d, 5, 5, 1 - p) == pytest.approx(p ** 5, rel=1e-10)

    def test_binomial_summation_oracle(self):
        # oracle: direct binomial summation with exact combinatorics
        d, n, j, T = Pareto(2.0), 3, 2, 2.0
        p = 0.25
        expected = sum(math.comb(n, i) * p ** i * (1 - p) ** (n - i)
                       for i in range(j, n + 1))
        assert expected == 0.15625
        assert order_statistic_tail(d, n, j, T) == pytest.approx(expected, rel=1e-12)

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
            p = float(d.sf(T))
            expected = sum(min(k, c) * math.comb(n, c) * p ** c * (1 - p) ** (n - c)
                           for c in range(n + 1))
            total = sum(order_statistic_tail(d, n, j, T) for j in range(1, k + 1))
            assert total == pytest.approx(expected, abs=1e-10)

    def test_direct_and_beta_routes_agree(self):
        # same value on both sides of the large-n switch
        d = Exponential(1.0)
        from evpricing import distributions as dist_mod
        p_direct = order_statistic_tail(d, 1000, 3, 2.0)
        old = dist_mod._DIRECT_BINOMIAL_MAX_N
        try:
            dist_mod._DIRECT_BINOMIAL_MAX_N = 10
            p_beta = order_statistic_tail(d, 1000, 3, 2.0)
        finally:
            dist_mod._DIRECT_BINOMIAL_MAX_N = old
        assert p_direct == pytest.approx(p_beta, rel=1e-10)

    def test_huge_n_no_underflow(self):
        val = order_statistic_tail(Pareto(2.0), 10 ** 6, 2, 1e4)
        assert 0.0 < val < 1.0

    def test_j_out_of_range(self):
        with pytest.raises(DomainError):
            order_statistic_tail(Pareto(2.0), 3, 0, 2.0)
        with pytest.raises(DomainError):
            order_statistic_tail(Pareto(2.0), 3, 4, 2.0)


class TestOrderStatisticMean:
    def test_uniform_max_of_three(self):
        assert order_statistic_mean(Uniform(0.0, 1.0), 3, 1) == pytest.approx(0.75, abs=1e-8)

    def test_exponential_harmonic_oracle(self):
        # oracle: quadrature of 1 - (1 - e^-t)^2, which is the harmonic sum H_2
        oracle = integrate(lambda t: 1.0 - (1.0 - np.exp(-t)) ** 2,
                           Interval(0.0, math.inf), tol=1e-12)
        assert oracle == pytest.approx(1.5, abs=1e-10)
        assert order_statistic_mean(Exponential(1.0), 2, 1) == pytest.approx(oracle, abs=1e-8)

    def test_uniform_min_of_two(self):
        assert order_statistic_mean(Uniform(0.0, 1.0), 2, 2) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_decreasing_in_j(self, nonneg_models):
        for d in nonneg_models:
            means = [order_statistic_mean(d, 5, j) for j in range(1, 6)]
            assert all(a > b for a, b in zip(means, means[1:]))

    def test_max_matches_survival_power_integral(self, nonneg_models):
        for d in nonneg_models:
            n = 7
            direct = integrate(
                lambda t: 1.0 - d.cdf(t) ** n,
                Interval(0.0, d.support.hi), tol=1e-10)
            assert order_statistic_mean(d, n, 1) == pytest.approx(direct, abs=1e-6)

    def test_divergent_moment_rejected(self):
        with pytest.raises(DivergenceError):
            order_statistic_mean(Pareto(0.9), 5, 1)
        # second moment order statistic of the same model is fine
        assert order_statistic_mean(Pareto(0.9), 5, 2) > 0

    def test_negative_support_rejected(self):
        with pytest.raises(DomainError):
            order_statistic_mean(Gumbel(0.0, 1.0), 3, 1)

    @pytest.mark.parametrize("n,j", [(1, 1), (4, 1), (4, 2), (4, 4), (9, 3)])
    def test_uniform_beta_moment_closed_form(self, n, j):
        # j-th largest of n uniforms has mean (n + 1 - j)/(n + 1)
        got = order_statistic_mean(Uniform(0.0, 1.0), n, j)
        assert got == pytest.approx((n + 1.0 - j) / (n + 1.0), abs=1e-8)

    @pytest.mark.parametrize("j", [1, 2, 3])
    @pytest.mark.parametrize("n", [5000, 10 ** 4, 10 ** 5, 10 ** 6])
    def test_uniform_top_order_statistics_large_n(self, n, j):
        # P(M_n^j > t) falls from 1 to 0 within a few 1/n of the upper end
        got = order_statistic_mean(Uniform(0.0, 1.0), n, j)
        assert got == pytest.approx((n + 1.0 - j) / (n + 1.0), rel=1e-13)

    @pytest.mark.parametrize("n,j", [(3, 1), (6, 2), (6, 5)])
    def test_pareto_beta_moment_closed_form(self, n, j):
        # E(M_n^j) = Gamma(j - 1/a) Gamma(n+1) / (Gamma(j) Gamma(n+1-1/a))
        alpha = 2.0
        expected = math.exp(math.lgamma(j - 1 / alpha) + math.lgamma(n + 1)
                            - math.lgamma(j) - math.lgamma(n + 1 - 1 / alpha))
        got = order_statistic_mean(Pareto(alpha), n, j)
        assert got == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("n", [5, 100, 1000])
    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.3])
    def test_second_largest_of_heavy_pareto(self, alpha, n):
        # finite for alpha j > 1 even when the mean is infinite; its tail
        # sf^2 has index gamma/2, which sets the quadrature map
        j = 2
        expected = math.exp(math.lgamma(j - 1 / alpha) + math.lgamma(n + 1)
                            - math.lgamma(j) - math.lgamma(n + 1 - 1 / alpha))
        got = order_statistic_mean(Pareto(alpha), n, j)
        assert got == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("n,j", [(2, 1), (5, 1), (5, 3), (5, 5)])
    def test_exponential_spacings_closed_form(self, n, j):
        # j-th largest of n exponentials has mean sum_{i=j..n} 1/i
        expected = sum(1.0 / i for i in range(j, n + 1))
        got = order_statistic_mean(Exponential(1.0), n, j)
        assert got == pytest.approx(expected, abs=1e-8)


def mpmath_conditional_mean(d, T: float) -> float:
    """T + int_T^inf sf / sf(T) at 40 digits, for Gumbel and Frechet models."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        if isinstance(d, Gumbel):
            def sf(x):
                return -mp.expm1(-mp.exp(-(x - d.loc) / d.scale))
            scale = d.scale
        else:
            def sf(x):
                return -mp.expm1(-((x - d.m) / d.s) ** -d.alpha)
            scale = d.s
        T = mp.mpf(T)
        cuts = [T, *(T + c * scale * max(1, abs(T) / scale) for c in (1, 10, 1e3)), mp.inf]
        return float(T + mp.quad(sf, cuts) / sf(T))


class TestConditionalMean:
    def test_exponential_memoryless(self):
        assert conditional_mean_above(Exponential(1.0), 1.0) == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("T", [30.0, 100.0, 700.0])
    def test_exponential_memoryless_far_threshold(self, T):
        # E(X - T | X > T) = 1 however far out T is; sf(700) is about 1e-304
        assert conditional_mean_above(Exponential(1.0), T) - T == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("d, T", [
        (Gumbel(0.0, 1.0), 5.0),
        (Gumbel(0.0, 1.0), 30.0),
        # below the median sf/pdf is orders of magnitude beyond the mass
        (Gumbel(0.0, 1.0), -5.0),
        (Frechet(0.0, 1.0, 2.5), 0.1),
        (Frechet(0.0, 1.0, 2.5), 1e3),
        # E(X - T | X > T) is about 490, far above max(1, T)
        (Frechet(0.0, 289.0, 2.24), 1.0),
    ], ids=repr)
    def test_mpmath_oracle(self, d, T):
        assert conditional_mean_above(d, T) == pytest.approx(mpmath_conditional_mean(d, T),
                                                             rel=1e-13)

    def test_pareto_closed_form(self):
        # alpha T/(alpha - 1), cross-checked by the numeric tail integral
        d = Pareto(2.0)
        tail = integrate(d.sf, Interval(3.0, math.inf), tol=1e-12)
        oracle = 3.0 + tail / float(d.sf(3.0))
        assert oracle == pytest.approx(6.0, abs=1e-9)
        assert conditional_mean_above(d, 3.0) == pytest.approx(6.0, abs=1e-8)

    def test_uniform(self):
        assert conditional_mean_above(Uniform(0.0, 1.0), 0.5) == pytest.approx(0.75, abs=1e-10)

    @pytest.mark.parametrize("alpha, T", [
        (a, T) for a in (1.2, 1.3, 1.5, 1.656) for T in (0.5, 1.0, 2.5, 100.0, 1e4)])
    def test_heavy_pareto_closed_form(self, alpha, T):
        # alpha max(T, 1)/(alpha - 1); below 1 the support's kink is inside
        expected = alpha / (alpha - 1.0) * max(T, 1.0)
        assert conditional_mean_above(Pareto(alpha), T) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha, T", [(3.0, 1e4), (4.0, 1e3), (2.0, 1e6), (2.0, 1e8)])
    def test_light_pareto_far_threshold(self, alpha, T):
        # the tail integral is far below any absolute tolerance in T alone
        expected = alpha / (alpha - 1.0) * T
        assert conditional_mean_above(Pareto(alpha), T) == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(1.2, 6.0), T=st.floats(1.0, 1e8))
    def test_pareto_closed_form_property(self, alpha, T):
        expected = alpha / (alpha - 1.0) * T
        assert conditional_mean_above(Pareto(alpha), T) == pytest.approx(expected, rel=1e-11)

    def test_saturated_threshold_rejected(self):
        with pytest.raises(DomainError):
            conditional_mean_above(Uniform(0.0, 1.0), 1.0)

    def test_divergent_tail_rejected(self):
        with pytest.raises(DivergenceError):
            conditional_mean_above(Pareto(1.0), 2.0)


class TestVirtualValuation:
    def test_pareto_linear(self):
        assert virtual_valuation(Pareto(2.0), 4.0) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_shift(self):
        assert virtual_valuation(Exponential(1.0), 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_uniform(self):
        assert virtual_valuation(Uniform(0.0, 1.0), 0.8) == pytest.approx(0.6, rel=1e-12)

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

    def test_uniform_half(self):
        # phi(t) = 2t - 1, so the ratio is exactly 1/2 on a grid toward 1
        d = Uniform(0.0, 1.0)
        for t in (0.3, 0.7, 0.95, 0.999):
            assert virtual_tail_ratio(d, t) == pytest.approx(0.5, abs=1e-8)


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


class TestMean:
    def test_closed_forms(self):
        assert Pareto(2.0).mean() == pytest.approx(2.0, rel=1e-9)
        assert Exponential(2.5).mean() == pytest.approx(0.4, rel=1e-9)
        assert Uniform(0.0, 1.0).mean() == pytest.approx(0.5, rel=1e-9)
        # large-scale model: Frechet mean is s * Gamma(1 - 1/alpha)
        assert Frechet(0.0, 289.0, 2.24).mean() == pytest.approx(
            289.0 * math.gamma(1.0 - 1.0 / 2.24), rel=1e-9)

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
