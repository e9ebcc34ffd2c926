import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special

import evpricing
from evpricing import (
    BoundedPower,
    ConvergenceError,
    DomainError,
    Exponential,
    GuaranteeResult,
    Pareto,
    adaptivity_gap,
    guarantee_value,
    kennedy_kertz_nu,
    maximize_1d,
    minimize_phi_1,
    phi_1_closed,
    phi_k,
    sqrt_bound,
    u_star,
)
from evpricing import guarantees
from evpricing.guarantees import _poisson_tail_sum, _stationary_point

#: The shapes and unit counts of the first-order root checks: 70 cases, and
#: (1.2, 4), a case of the oracle's earlier grid.
ROOT_GRID = [(alpha, k) for alpha in (1.05, 1.2, 1.5, 1.657, 2.0, 2.5, 3.0, 5.0, 10.0, 50.0)
             for k in (1, 2, 3, 5, 10, 20, 50)] + [(1.2, 4)]


def numeric_route(alpha: float, k: int) -> tuple[float, float]:
    """(argmax_x, value) of the first-order root: phi_k itself for k >= 2,
    ``_stationary_point`` at k = 1, where phi_k takes the Lambert-W form."""
    if k == 1:
        return _stationary_point(alpha, 1)
    res = phi_k(alpha, k)
    return res.argmax_x, res.value


def objective_series_oracle(x: float, alpha: float, k: int, terms: int = 200) -> float:
    """Truncated direct double series x e^{-y} sum_{j<=k} sum_{s>=j} y^s/s!."""
    y = x ** -alpha
    total = 0.0
    for j in range(1, k + 1):
        for s in range(j, terms + 1):
            total += math.exp(s * math.log(y) - y - math.lgamma(s + 1))
    return x * total


class TestPhiK:
    def test_worst_case_value(self):
        res = phi_k(1.656, 1)
        assert res.value == pytest.approx(0.712773812, abs=1e-6)
        assert res.value >= 0.712

    def test_closed_matches_numeric_at_two(self):
        closed = phi_k(2.0, 1)
        assert closed.value == pytest.approx(_stationary_point(2.0, 1)[1], abs=1e-8)

    def test_one_public_route(self):
        # phi_k is the only public k-unit guarantee, and its result carries no
        # route label
        for name in ("x_k_root", "phi_k_alpha2_closed", "Method"):
            assert not hasattr(evpricing, name), name
        assert [f.name for f in dataclasses.fields(GuaranteeResult)] == [
            "k", "alpha", "value", "argmax_x"]

    def test_large_k_approaches_floor(self):
        for k in (100, 1000):
            val = phi_k(2.0, k).value
            floor = sqrt_bound(k)
            assert floor <= val <= floor + 0.02

    def test_rejects_heavy_shape(self):
        with pytest.raises(DomainError):
            phi_k(1.0, 1)
        with pytest.raises(DomainError):
            phi_k(0.8, 3)

    @pytest.mark.parametrize("alpha", [1.2, 1.656, 2.0, 3.0, 8.0])
    @pytest.mark.parametrize("k", [1, 2, 5, 10])
    def test_value_in_unit_interval(self, alpha, k):
        val = phi_k(alpha, k).value
        assert 0.0 < val < 1.0
        assert val >= sqrt_bound(k) - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(1.05, 50.0), k=st.integers(1, 50))
    def test_numeric_value_dominates_sqrt_bound(self, alpha, k):
        # the README's "always dominates", with no slack.  Over 25 geometric
        # alphas in [1.05, 50] and k in (1, 2, 3, 5, 10, 20, 50) the least
        # margin is 2.5e-3, at alpha ~= 2 and k = 50.
        assert numeric_route(alpha, k)[1] >= sqrt_bound(k)

    def test_series_rewrite_equals_direct_summation(self):
        # brute-force equivalence of the Poisson-tail rewrite on a 5x5x5 grid
        alphas = (1.2, 1.6, 2.0, 3.0, 5.0)
        ks = (1, 2, 3, 5, 8)
        xs = (0.5, 0.8, 1.0, 1.5, 2.5)
        for alpha in alphas:
            for k in ks:
                for x in xs:
                    direct = objective_series_oracle(x, alpha, k)
                    y = x ** -alpha
                    rewrite = x * float(special.gammainc(np.arange(1, k + 1), y).sum())
                    assert rewrite == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("alpha,k", ROOT_GRID)
    def test_numeric_against_mpmath_oracle(self, alpha, k):
        # oracle at 40 digits: with Y ~ Poisson(y), y = x^-alpha, the best x
        # solves d/dx [x E min(k, Y)] = 0, i.e. E min(k, Y) = alpha y P(Y <= k-1),
        # bracketed in y over [k/64, 64 k]
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            a = mp.mpf(alpha)

            def expected_min_and_cdf(y):
                pmf = [mp.exp(-y) * y ** j / mp.factorial(j) for j in range(k)]
                below = mp.fsum(pmf)
                return mp.fsum(j * p for j, p in enumerate(pmf)) + k * (1 - below), below

            def first_order(y):
                e_min, below = expected_min_and_cdf(y)
                return 1 - a * y * below / e_min

            lo, hi = mp.mpf(k) / 64, mp.mpf(k) * 64
            assert first_order(lo) < 0 < first_order(hi)
            y_star = mp.findroot(first_order, (lo, hi), solver="illinois")
            x_star = y_star ** (-1 / a)
            value = mp.gamma(k) / mp.gamma(k + 1 - 1 / a) * x_star * expected_min_and_cdf(y_star)[0]
        x, val = numeric_route(alpha, k)
        assert val == pytest.approx(float(value), rel=1e-13, abs=0.0)
        assert x == pytest.approx(float(x_star), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha,k", ROOT_GRID)
    def test_maximality_certificate(self, alpha, k):
        # no first-order algebra: the objective x E min(k, Poisson(x^-alpha))
        # at the returned x beats x (1 +- 1e-3) and a 200-point log grid
        def objective(x):
            return x * _poisson_tail_sum(x ** -alpha, k)

        x, _ = numeric_route(alpha, k)
        best = objective(x)
        assert objective(x * (1.0 - 1e-3)) < best
        assert objective(x * (1.0 + 1e-3)) < best
        assert max(objective(float(z)) for z in np.geomspace(x / 100.0, 100.0 * x, 200)) < best

    @pytest.mark.parametrize("k", [1, 2, 50])
    @pytest.mark.parametrize("alpha", [1.0 + 1e-12, 1e6])
    def test_extreme_shapes_keep_the_floor(self, alpha, k):
        # at 1 + 1e-12 the maximum sits at x ~= 5e11 for k = 1
        assert numeric_route(alpha, k)[1] >= sqrt_bound(k)

    def test_unbracketed_root_raises(self, monkeypatch):
        # the root at alpha = 1 + 1e-12, k = 2 lies ~27 doublings below y = 2
        monkeypatch.setattr(guarantees, "ROOT_DOUBLINGS", 8)
        with pytest.raises(ConvergenceError):
            phi_k(1.0 + 1e-12, 2)


class TestPoissonTailSum:
    """E min(k, Poisson(y)), the sum inside phi_k's objective."""

    @pytest.mark.parametrize("k", range(51))
    def test_against_mpmath(self, k):
        # oracle: sum_{m<k} m P(m) + k (1 - sum_{m<k} P(m)) at 50 digits,
        # where it is a normal double.  The walk's worst error over k in 0..50
        # is 4.0e-16 (y = 14.8, k = 15); scipy's gammainc sum was off by 1.6e-15.
        mp = pytest.importorskip("mpmath")
        for y in np.geomspace(1e-6, 1e3, 60):
            with mp.workdps(50):
                yy = mp.mpf(float(y))
                pmf = [mp.exp(-yy) * yy ** m / mp.factorial(m) for m in range(k)]
                oracle = mp.fsum(m * p for m, p in enumerate(pmf)) + k * (1 - mp.fsum(pmf))
            if oracle > mp.mpf("1e-290"):
                assert _poisson_tail_sum(float(y), k) == pytest.approx(
                    float(oracle), rel=5e-14, abs=0.0), y

    def test_limits(self):
        # phi_k's objective passes y = inf for x -> 0
        assert _poisson_tail_sum(math.inf, 7) == 7.0
        assert _poisson_tail_sum(0.0, 7) == 0.0


class TestUStar:
    def test_first_order_condition(self):
        u = u_star(2.0)
        assert abs(u ** 2 + 2.0 - u ** 2 * math.exp(u ** -2.0)) <= 1e-9

    def test_case_study_shape(self):
        assert u_star(2.24) == pytest.approx(0.849, abs=5e-4)

    def test_find_root_oracle(self):
        # oracle: bracketed root of the first-order condition over (0, 10)
        from evpricing import find_root
        g = lambda u: u ** 2 + 2.0 - u ** 2 * math.exp(u ** -2.0)
        root = find_root(g, 0.5, 5.0, tol=1e-13)
        assert u_star(2.0) == pytest.approx(root, abs=1e-9)

    def test_large_alpha_against_numeric_max(self):
        assert u_star(200.0) == pytest.approx(_stationary_point(200.0, 1)[0], abs=1e-6)

    def test_against_mpmath_lambertw(self):
        # oracle at 50 digits: the same closed form through mpmath's W_{-1}
        mp = pytest.importorskip("mpmath")
        for alpha in np.geomspace(1.02, 50.0, 60):
            with mp.workdps(50):
                a = mp.mpf(float(alpha))
                w = mp.lambertw(-mp.exp(-1 / a) / a, -1)
                oracle = (-(a * w + 1) / a) ** (-1 / a)
            assert u_star(float(alpha)) == pytest.approx(float(oracle), rel=1e-12,
                                                         abs=0.0), alpha


class TestPhi1Closed:
    def test_worst_point(self):
        assert phi_1_closed(1.656) == pytest.approx(0.712773812, abs=1e-6)

    @pytest.mark.parametrize("alpha", [1.01, 1.2, 1.656, 2.0, 3.0, 10.0, 25.0])
    def test_matches_numeric_max(self, alpha):
        numeric = _stationary_point(alpha, 1)[1]
        assert phi_1_closed(alpha) == pytest.approx(numeric, abs=1e-8)

    def test_closed_numeric_agreement_along_grid(self):
        for alpha in np.linspace(1.05, 40.0, 50):
            assert phi_1_closed(float(alpha)) == pytest.approx(
                _stationary_point(float(alpha), 1)[1], abs=1e-8)

    def test_limits_toward_one(self):
        # the guarantee rises back toward 1 on both ends of the shape range
        assert phi_1_closed(1.01) > 0.9
        assert phi_1_closed(1000.0) > 0.98


class TestMinimizePhi1:
    def test_location_and_value(self):
        alpha_star, value = minimize_phi_1()
        # oracle: bounded scalar minimization of the closed form
        res = optimize.minimize_scalar(phi_1_closed, bounds=(1.01, 50.0),
                                       method="bounded", options={"xatol": 1e-12})
        assert alpha_star == pytest.approx(res.x, abs=1e-5)
        assert value == pytest.approx(res.fun, abs=1e-10)

    def test_local_minimum_certificate(self):
        alpha_star, value = minimize_phi_1()
        assert phi_1_closed(alpha_star - 0.01) > value
        assert phi_1_closed(alpha_star + 0.01) > value
        assert value >= 0.712 - 5e-4


class TestSqrtBound:
    def test_values(self):
        assert sqrt_bound(1) == pytest.approx(
            1.0 - 1.0 / math.sqrt(2 * math.pi), rel=1e-14, abs=0.0)
        assert sqrt_bound(4) == pytest.approx(
            1.0 - 1.0 / math.sqrt(8 * math.pi), rel=1e-14, abs=0.0)
        assert sqrt_bound(100) == pytest.approx(0.96011, abs=5e-6)


class TestKennedyKertzNu:
    def test_minimum_near(self):
        grid = np.linspace(1.05, 49.0, 500)
        vals = [kennedy_kertz_nu(float(a)) for a in grid]
        assert min(vals) == pytest.approx(0.776, abs=5e-4)

    def test_limit_toward_one(self):
        assert kennedy_kertz_nu(1e4) == pytest.approx(1.0, abs=1e-3)

    def test_alpha_two_closed_value(self):
        assert kennedy_kertz_nu(2.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12, abs=0.0)

    def test_dominates_fixed_price_guarantee(self):
        for alpha in np.linspace(1.02, 45.0, 100):
            assert kennedy_kertz_nu(float(alpha)) / phi_1_closed(float(alpha)) >= 1.0


def mpmath_gap_ratio(mp, a):
    """nu/phi_1 at shape a from the defining formulas, at mpmath precision.

    The best x of x (1 - exp(-x^-a)) has y = x^-a at the nonzero root of
    e^y = 1 + a y, which lies in (log a, 2 log a + 2) for a > 1.
    """
    nu = (1 - 1 / a) ** (-1 / a) / mp.gamma(1 - 1 / a)
    y = mp.findroot(lambda y: mp.exp(y) - 1 - a * y,
                    (mp.log(a), 2 * mp.log(a) + 2), solver="anderson")
    phi_1 = y ** (-1 / a) * (1 - mp.exp(-y)) / mp.gamma(2 - 1 / a)
    return nu / phi_1


class TestAdaptivityGap:
    def test_against_mpmath_oracle(self):
        # oracle: scan nu/phi_1 on a 0.1 grid over (1, 50] at 30 digits, then
        # solve for the stationary point between the best point's neighbours
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            grid = [mp.mpf(j) / 10 for j in range(11, 501)]
            vals = [mpmath_gap_ratio(mp, a) for a in grid]
            i = max(range(len(grid)), key=vals.__getitem__)
            assert 0 < i < len(grid) - 1
            a_star = mp.findroot(
                lambda a: mp.diff(lambda b: mpmath_gap_ratio(mp, b), a),
                (grid[i - 1], grid[i + 1]), solver="anderson")
            gap_star = mpmath_gap_ratio(mp, a_star)
        alpha, gap = adaptivity_gap()
        assert alpha == pytest.approx(float(a_star), abs=1e-6)
        assert gap == pytest.approx(float(gap_star), abs=1e-10)

    def test_against_scalar_optimizer_oracle(self):
        alpha, gap = adaptivity_gap()
        res = optimize.minimize_scalar(
            lambda a: -kennedy_kertz_nu(a) / phi_1_closed(a),
            bounds=(1.01, 50.0), method="bounded", options={"xatol": 1e-12})
        assert alpha == pytest.approx(res.x, abs=1e-4)
        assert gap == pytest.approx(-res.fun, abs=1e-9)

    def test_gap_at_least_one(self):
        _, gap = adaptivity_gap()
        assert gap >= 1.0

    def test_interior_maximum_certificate(self):
        alpha, gap = adaptivity_gap()
        probe = kennedy_kertz_nu(1.01) / phi_1_closed(1.01)
        assert probe < gap
        assert kennedy_kertz_nu(alpha + 0.01) / phi_1_closed(alpha + 0.01) < gap


class TestXkRoot:
    def test_bracket_k1(self):
        x1 = _stationary_point(2.0, 1)[0]
        assert 2 ** -0.5 <= x1 <= 1.0

    def test_matches_numeric_argmax(self):
        # the Lambert-W maximizer at alpha = 2
        assert _stationary_point(2.0, 1)[0] == pytest.approx(u_star(2.0), abs=1e-6)

    def test_bracket_k25(self):
        x25 = phi_k(2.0, 25).argmax_x
        assert 25.0 <= x25 ** -2.0 <= 26.0

    @pytest.mark.parametrize("k", [1, 2, 5, 25, 200])
    def test_stationarity_residual(self, k):
        # k P(N > k) - m P(N < k) for N ~ Poisson(m), from explicit terms
        x = _stationary_point(2.0, k)[0] if k == 1 else phi_k(2.0, k).argmax_x
        m = x ** -2.0
        pmf = [math.exp(j * math.log(m) - m - math.lgamma(j + 1)) for j in range(k + 1)]
        resid = k * (1.0 - math.fsum(pmf)) - m * math.fsum(pmf[:k])
        assert abs(resid) <= 1e-10


class TestPhiKAlpha2Closed:
    def test_matches_single_unit_closed_form(self):
        assert _stationary_point(2.0, 1)[1] == pytest.approx(phi_1_closed(2.0), abs=1e-7)

    def test_dominates_floor_through_200(self):
        for k in range(1, 201):
            assert phi_k(2.0, k).value >= sqrt_bound(k)

    def test_deficit_normalization_tightens(self):
        deficits = []
        for k in (100, 1000, 10000):
            v = phi_k(2.0, k).value
            deficits.append((1.0 - v) * math.sqrt(2.0 * math.pi * k))
        assert all(0.85 <= d <= 1.15 for d in deficits)
        assert deficits == sorted(deficits)  # approaching 1 from below

    def test_matches_numeric_max(self):
        # oracle: golden-section maximization of the objective over a finite
        # bracket around x_k
        for k in (2, 7, 31, 500):
            _, val = maximize_1d(lambda x: x * _poisson_tail_sum(x ** -2.0, k),
                                 0.5 * k ** -0.5, 2.0 * k ** -0.5, tol=1e-10)
            numeric = math.exp(math.lgamma(k) - math.lgamma(k + 0.5)) * val
            assert phi_k(2.0, k).value == pytest.approx(numeric, abs=1e-7)


class TestGuaranteeValue:
    def test_frechet_routes_to_phi_k(self):
        assert guarantee_value(Pareto(2.0), 3) == pytest.approx(
            phi_k(2.0, 3).value, rel=1e-12, abs=0.0)

    def test_light_tails_get_one(self):
        assert guarantee_value(Exponential(1.0), 5) == 1.0
        assert guarantee_value(BoundedPower(1.0, 2.0), 2) == 1.0
