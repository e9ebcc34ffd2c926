import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evpricing.kernel as kernel
from evpricing import (
    BoundedPower,
    BracketError,
    ConvergenceError,
    DomainError,
    Exponential,
    FlatObjectiveError,
    Frechet,
    Gumbel,
    Interval,
    Pareto,
    Uniform,
    find_root,
    integrate,
    lambert_w_minus1,
    ln_gamma,
    maximize_1d,
    poisson_cdf,
)


class TestInterval:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)

    def test_unbounded_flag(self):
        assert Interval(0.0, math.inf).unbounded
        assert not Interval(0.0, 1.0).unbounded

    def test_lower_endpoint_finite(self):
        with pytest.raises(DomainError):
            Interval(-math.inf, 0.0)


class TestLnGamma:
    def test_known_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
        assert ln_gamma(7.0) == pytest.approx(math.log(720.0), rel=1e-14)

    @pytest.mark.parametrize("x", [0.5, 1.3, 7.7, 42.0])
    def test_recurrence(self, x):
        lhs = math.exp(ln_gamma(x + 1.0))
        rhs = x * math.exp(ln_gamma(x))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)


class TestPoissonCdf:
    def test_single_term(self):
        assert poisson_cdf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_zero_mean(self):
        assert poisson_cdf(0.0, 5) == 1.0

    def test_direct_summation_oracle(self):
        # independent oracle: six explicit terms
        y = 5.0
        expected = sum(math.exp(-y) * y ** j / math.factorial(j) for j in range(6))
        assert poisson_cdf(5.0, 5) == pytest.approx(expected, rel=1e-13)

    def test_monotone_in_mean_and_count(self):
        ys = np.linspace(0.0, 50.0, 26)
        ks = range(0, 61, 6)
        for k in ks:
            vals = [poisson_cdf(float(y), k) for y in ys]
            assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))
        for y in ys:
            vals = [poisson_cdf(float(y), k) for k in ks]
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_increment_is_pmf(self):
        for k in range(1, 31, 3):
            for y in (0.5, 3.0, 11.0, 30.0):
                pmf = math.exp(k * math.log(y) - y - math.lgamma(k + 1))
                diff = poisson_cdf(y, k) - poisson_cdf(y, k - 1)
                assert diff == pytest.approx(pmf, rel=1e-10)

    def test_large_arguments_stable(self):
        val = poisson_cdf(1e6, 10 ** 6)
        assert 0.0 < val < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            poisson_cdf(-0.1, 3)
        with pytest.raises(DomainError):
            poisson_cdf(1.0, -1)


class TestLambertW:
    def test_branch_point(self):
        assert lambert_w_minus1(-1.0 / math.e) == -1.0

    def test_bisection_oracle(self):
        # oracle: bisection on w*exp(w) = z over [-50, -1]
        for z in (-0.1, -0.3):
            lo, hi = -50.0, -1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if (mid * math.exp(mid) - z) * (lo * math.exp(lo) - z) <= 0:
                    hi = mid
                else:
                    lo = mid
            assert lambert_w_minus1(z) == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_residual_along_domain(self):
        zs = -np.exp(np.linspace(math.log(1.0 / math.e), math.log(1e-8), 100))
        for z in zs:
            w = lambert_w_minus1(float(z))
            assert w <= -1.0
            assert abs(w * math.exp(w) - z) <= 1e-12

    @pytest.mark.parametrize("z", [0.0, 0.5, -0.5, -1.0])
    def test_domain(self, z):
        with pytest.raises(DomainError):
            lambert_w_minus1(z)


class TestIntegrate:
    def test_exponential_tail(self):
        val = integrate(lambda x: np.exp(-x), Interval(0.0, math.inf), tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        # a scalar return is taken as constant over the panel
        assert integrate(lambda x: 1.0, Interval(0.0, 1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_square_tail(self):
        val = integrate(lambda x: x ** -2.0, Interval(1.0, math.inf))
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                                        (0.0, 2.0, -1.0, 0.5, 0.0, 3.0),
                                        (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)])
    def test_polynomials_exact(self, coeffs):
        def poly(x):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        def antideriv(x):
            return sum(c * x ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))

        a, b = -1.5, 2.5
        val = integrate(poly, Interval(a, b), tol=1e-10)
        assert val == pytest.approx(antideriv(b) - antideriv(a), abs=1e-9)

    def test_nonconvergence_carries_best_estimate(self):
        # a tolerance below the machine error floor can never be reached
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda x: np.exp(-x), Interval(0.0, 1.0), tol=1e-18)
        assert info.value.best_estimate == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert info.value.estimated_error > 1e-18

    def test_converged_error_sum_is_confirmed(self):
        # the running error sum drifts by rounding over ~2000 panel updates;
        # here it fell below tol while the exact sum had not, which raised
        alpha, lo = 2.1789295087231055, 591.625
        exact = lo ** (1.0 - alpha) / (alpha - 1.0)
        val = integrate(lambda x: x ** -alpha, Interval(lo, math.inf), tol=5e-13 * exact)
        assert val == pytest.approx(exact, rel=1e-13)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, Interval(0.0, 1.0), tol=0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, Interval(0.0, 1.0), rtol=-1e-12)
        with pytest.raises(DomainError):
            integrate(lambda x: x, Interval(0.0, math.inf), tail_scale=0.0)

    def test_relative_tolerance_reaches_large_values(self):
        # 50 eps |I| per panel puts the error floor of a value near 1.2e4 at
        # 1.3e-10, above an absolute 1e-10; 1e-12 relative is reachable
        def f(x):
            return 1.2e4 * np.exp(-x)

        dom = Interval(0.0, math.inf)
        with pytest.raises(ConvergenceError):
            integrate(f, dom, tol=1e-10)
        assert integrate(f, dom, tol=1e-10, rtol=1e-12) == pytest.approx(1.2e4, rel=1e-12)

    def test_relative_tolerance_alone(self):
        val = integrate(lambda x: 1e-300 * np.exp(-x), Interval(0.0, math.inf),
                        tol=0.0, rtol=1e-12)
        assert val == pytest.approx(1e-300, rel=1e-12)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            integrate(lambda x: float("nan"), Interval(0.0, 1.0))

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: np.exp(-0.7 * x) * (1 + np.sin(x) ** 2), 0.0, math.inf),
        (lambda x: x ** -1.8, 2.0, math.inf),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf),
        (lambda x: np.sqrt(x) * np.exp(-x), 0.0, math.inf),
        (lambda x: np.cos(3 * x) * np.exp(x), -1.0, 2.0),
        (lambda x: 1.0 / (1.0 + abs(x - 0.3)), 0.0, 1.0),
    ])
    def test_parity_with_library_quadrature(self, f, lo, hi):
        # independent oracle: a different adaptive quadrature implementation
        from scipy.integrate import quad
        expected, _ = quad(f, lo, hi if math.isfinite(hi) else np.inf, limit=200)
        got = integrate(f, Interval(lo, hi), tol=1e-10)
        assert got == pytest.approx(expected, abs=1e-8)


class TestVectorizedIntegrand:
    @pytest.mark.parametrize("hi,tail_gamma", [(3.0, 0.0), (math.inf, 0.0),
                                               (math.inf, 0.6)])
    def test_one_call_per_panel(self, monkeypatch, hi, tail_gamma):
        panels = []
        gk15 = kernel._gk15

        def counting_gk15(f, a, b):
            panels.append((a, b))
            return gk15(f, a, b)

        monkeypatch.setattr(kernel, "_gk15", counting_gk15)
        calls = []

        def f(x):
            calls.append(x)
            return 1.0 / (1.0 + (x - 0.3) ** 2) ** 2

        integrate(f, Interval(0.0, hi), tol=1e-13, tail_gamma=tail_gamma)
        assert len(panels) > 1
        assert len(calls) == len(panels)
        for x in calls:
            assert isinstance(x, np.ndarray)
            assert x.dtype == np.float64
            assert x.shape == (15,)

    @pytest.mark.parametrize("d", [Pareto(2.0), Pareto(1.656), Frechet(0.0, 1.0, 2.5),
                                   Exponential(1.0), Gumbel(0.0, 1.0), Uniform(0.0, 1.0),
                                   BoundedPower(1.0, 2.0)],
                             ids=repr)
    def test_array_sf_matches_per_node_scalar_sf(self, d):
        # numpy's array pow can differ from the 0-d path by an ulp; the
        # integrals of both must still agree to rounding
        def scalar_sf(x):
            return np.array([float(d.sf(float(u))) for u in x])

        lo = d.support.lo if math.isfinite(d.support.lo) else -2.0
        gamma = d.evt_index().gamma
        semi = Interval(lo, d.support.hi)
        piece = Interval(float(d.quantile(0.3)), float(d.quantile(0.7)))
        for dom in (semi, piece):
            got = integrate(d.sf, dom, tol=1e-13, tail_gamma=gamma)
            ref = integrate(scalar_sf, dom, tol=1e-13, tail_gamma=gamma)
            assert got == pytest.approx(ref, rel=1e-14)


def pareto_sf(alpha: float):
    return lambda x: np.where(x < 1.0, 1.0, np.maximum(x, 1.0) ** -alpha)


def pareto_tail_integral(alpha: float, lo: float) -> float:
    """Closed form of int_lo^inf of the Pareto(alpha) survival function."""
    if lo < 1.0:
        return 1.0 - lo + 1.0 / (alpha - 1.0)
    return lo ** (1.0 - alpha) / (alpha - 1.0)


def pareto_tail_quadrature(alpha: float, lo: float) -> float:
    # the kink of the survival function at the support's lower end 1 is
    # declared; no panel can see it between its outermost node and its edge
    exact = pareto_tail_integral(alpha, lo)
    return integrate(pareto_sf(alpha), Interval(lo, math.inf), tol=1e-13 * exact,
                     tail_gamma=1.0 / alpha, points=(1.0,))


class TestTailMap:
    @pytest.mark.parametrize("lo", [0.0, 0.5, 1.0, 2.0, 100.0])
    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.2, 1.3, 1.4, 1.5, 1.656, 1.9])
    def test_pareto_tail_closed_form(self, alpha, lo):
        assert pareto_tail_quadrature(alpha, lo) == pytest.approx(
            pareto_tail_integral(alpha, lo), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(1.05, 3.0), lo=st.floats(0.0, 1e3))
    def test_pareto_tail_property(self, alpha, lo):
        assert pareto_tail_quadrature(alpha, lo) == pytest.approx(
            pareto_tail_integral(alpha, lo), rel=1e-12)

    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.656, 1.9])
    def test_pareto_mapped_integrand_is_constant(self, alpha):
        # from the support's lower end the mapped Pareto integrand is exactly
        # q = 1/(alpha - 1): one 15-point panel meets a 1e-13 relative target
        sf = pareto_sf(alpha)
        calls = []
        val = integrate(lambda x: calls.append(x) or sf(x), Interval(1.0, math.inf),
                        tol=1e-13 / (alpha - 1.0), tail_gamma=1.0 / alpha)
        assert [np.shape(x) for x in calls] == [(15,)]
        assert val == pytest.approx(1.0 / (alpha - 1.0), rel=1e-14)

    def test_light_tail_keeps_plain_map(self):
        # q = 1 for every gamma <= 1/2: the same panels as without tail_gamma;
        # a unit tail_scale is the map without one, bit for bit
        f = pareto_sf(2.0)
        dom = Interval(0.5, math.inf)
        plain = integrate(f, dom, tol=1e-12)
        for gamma in (-1.0, 0.0, 0.3, 0.5):
            assert integrate(f, dom, tol=1e-12, tail_gamma=gamma) == plain
            assert integrate(f, dom, tol=1e-12, tail_gamma=gamma, tail_scale=1.0) == plain

    def test_unit_tail_scale_is_identity_for_heavy_tails(self):
        f = pareto_sf(1.3)
        dom = Interval(0.0, math.inf)
        plain = integrate(f, dom, tol=1e-12, tail_gamma=1.0 / 1.3, points=(1.0,))
        assert integrate(f, dom, tol=1e-12, tail_gamma=1.0 / 1.3, points=(1.0,),
                         tail_scale=1.0) == plain

    @pytest.mark.parametrize("T", [2.0, 1e4, 1e8])
    def test_scaled_pareto_tail_needs_one_panel(self, T):
        # x = T + (T/2) t/(1-t) maps the Pareto(2) tail to 2/(T (2-t)^2),
        # smooth on [0, 1]; the unit map needs dozens of panels at T = 1e4
        calls = []
        sf = pareto_sf(2.0)
        val = integrate(lambda x: calls.append(x) or sf(x), Interval(T, math.inf),
                        tol=1e-10 / T, tail_gamma=0.5, tail_scale=T / 2.0)
        assert len(calls) == 1
        assert val == pytest.approx(1.0 / T, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1.3, 1.656])
    def test_tail_scale_maps_points(self, alpha):
        # with h = lo = 1/2 the map is x = w/2: the piece below the kink at 1
        # is smooth and the Pareto tail above it constant, one panel each,
        # once the kink is mapped through (p - lo)/h; left inside a panel it
        # costs dozens
        calls = []
        sf = pareto_sf(alpha)
        val = integrate(lambda x: calls.append(x) or sf(x), Interval(0.5, math.inf),
                        tol=1e-13, tail_gamma=1.0 / alpha, points=(1.0,), tail_scale=0.5)
        assert len(calls) == 2
        assert val == pytest.approx(pareto_tail_integral(alpha, 0.5), rel=1e-13)

    @pytest.mark.parametrize("lo", [0.0, 1.0, 2.0])
    def test_overflow_is_a_typed_error(self, lo):
        # q = 1000: (1-t)^(-q) leaves the double range at the first panel
        with pytest.raises(ConvergenceError) as info:
            integrate(pareto_sf(1.001), Interval(lo, math.inf),
                      tail_gamma=1.0 / 1.001)
        assert info.value.estimated_error == math.inf

    def test_divergent_tail_rejected(self):
        with pytest.raises(DomainError):
            integrate(pareto_sf(0.9), Interval(1.0, math.inf), tail_gamma=1.0 / 0.9)

    def test_points_split_finite_domain(self):
        # |x - 1/3| has its kink off every dyadic panel edge
        val = integrate(lambda x: abs(x - 1.0 / 3.0), Interval(0.0, 1.0),
                        tol=1e-14, points=(1.0 / 3.0, 5.0))
        assert val == pytest.approx(5.0 / 18.0, rel=1e-14)


class TestMaximize1d:
    def test_parabola(self):
        x, fx = maximize_1d(lambda x: -(x - 2.0) ** 2, Interval(0.0, 10.0))
        assert x == pytest.approx(2.0, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_x_exp_minus_x(self):
        # argmax of a smooth interior max is resolvable to ~sqrt(eps) only
        x, fx = maximize_1d(lambda x: x * math.exp(-x), Interval(0.0, math.inf))
        assert x == pytest.approx(1.0, abs=1e-7)
        assert fx == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_guarantee_objective_vs_dense_grid(self):
        # oracle: dense grid of 1e6 points on (0, 10)
        f = lambda x: x * (1.0 - math.exp(-x ** -2.0))
        xs = np.linspace(1e-6, 10.0, 10 ** 6)
        fs = xs * (1.0 - np.exp(-xs ** -2.0))
        i = int(np.argmax(fs))
        x, fx = maximize_1d(f, Interval(0.0, math.inf), tol=1e-10)
        assert x == pytest.approx(float(xs[i]), abs=2e-5)
        assert fx == pytest.approx(float(fs[i]), abs=1e-9)

    def test_flat_objective_reported(self):
        with pytest.raises(FlatObjectiveError):
            maximize_1d(lambda x: 1.0, Interval(0.0, 1.0))


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_poisson_derivative_vs_sign_change_oracle(self):
        # k = 1 objective derivative; oracle: dense-grid sign change
        def fprime(y):
            m = y ** -2.0
            return 1.0 - poisson_cdf(m, 1) - m * poisson_cdf(m, 0)

        ys = np.linspace(2 ** -0.5, 1.0, 200001)
        vals = np.array([fprime(float(y)) for y in ys])
        flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        assert len(flips) == 1
        bracket_mid = 0.5 * (ys[flips[0]] + ys[flips[0] + 1])
        root = find_root(fprime, 2 ** -0.5, 1.0, tol=1e-12)
        assert root == pytest.approx(float(bracket_mid), abs=1e-5)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0)
