import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evpricing
import evpricing.kernel as kernel
from evpricing.distributions import _binomial_tails
from evpricing import (
    BoundedPower,
    BracketError,
    ConvergenceError,
    DomainError,
    Exponential,
    FlatObjectiveError,
    Frechet,
    Gumbel,
    Pareto,
    Uniform,
    find_root,
    integrate,
    lambert_w_minus1,
    maximize_1d,
)


class TestEndpoints:
    # NaN at either end, an infinite lower end and an empty or reversed
    # interval are rejected before the routine evaluates anything, and so is
    # an infinite upper end by the maximizer
    @pytest.mark.parametrize("routine, lo, hi", [
        pytest.param(routine, lo, hi, id=f"{routine.__name__}-{lo}-{hi}")
        for routine in (integrate, maximize_1d)
        for lo, hi in [(2.0, 1.0), (1.0, 1.0), (-math.inf, 0.0), (math.nan, 1.0),
                       (0.0, math.nan), (math.inf, math.inf)]
    ] + [pytest.param(maximize_1d, 0.0, math.inf, id="maximize_1d-0.0-inf")])
    def test_rejected(self, routine, lo, hi):
        def f(x):
            raise AssertionError("evaluated outside a valid interval")

        with pytest.raises(DomainError, match="-inf < lo < hi"):
            routine(f, lo, hi, tol=1e-10)


def walked_cdf(y: float, k: int) -> float:
    """P(Poisson(y) <= k): the fsum of the k + 1 lowest masses of the walk,
    the P(N <= k-1) term of phi_k's first-order condition."""
    return math.fsum(kernel._mass_walk(-y, lambda m: y / (m + 1), k + 1)[0])


class TestPoissonCdf:
    """The Poisson CDF as phi_k's first-order condition sums it."""

    def test_single_term(self):
        assert walked_cdf(1.0, 0) == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0.0)

    def test_zero_mean(self):
        assert walked_cdf(0.0, 5) == 1.0

    def test_direct_summation_oracle(self):
        # independent oracle: six explicit terms
        y = 5.0
        expected = sum(math.exp(-y) * y ** j / math.factorial(j) for j in range(6))
        assert walked_cdf(5.0, 5) == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_monotone_in_mean_and_count(self):
        ys = np.linspace(0.0, 50.0, 26)
        ks = range(0, 61, 6)
        for k in ks:
            vals = [walked_cdf(float(y), k) for y in ys]
            assert all(a >= b - 1e-13 for a, b in zip(vals, vals[1:]))
        for y in ys:
            vals = [walked_cdf(float(y), k) for k in ks]
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_increment_is_pmf(self):
        # the increment P(N <= k) - P(N <= k-1) is the walk's k-th mass, as
        # small as 7e-39 here, kept relative to itself
        for k in range(1, 31, 3):
            for y in (0.5, 3.0, 11.0, 30.0):
                pmf = math.exp(k * math.log(y) - y - math.lgamma(k + 1))
                mass = kernel._mass_walk(-y, lambda m: y / (m + 1), k + 1)[0][k]
                assert mass == pytest.approx(pmf, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("k", range(51))
    def test_against_mpmath_direct_sum(self, k):
        # oracle: sum_{j<=k} e^-y y^j / j! at 50 digits, where it is a normal
        # double.  The walk's worst error over k in 0..50 is 1.0e-15
        # (y = 495, k = 40); scipy's gammaincc was off by 1.0e-13 here.
        mp = pytest.importorskip("mpmath")
        for y in np.geomspace(1e-6, 1e3, 60):
            with mp.workdps(50):
                yy = mp.mpf(float(y))
                oracle = mp.fsum(mp.exp(-yy) * yy ** j / mp.factorial(j) for j in range(k + 1))
            if oracle > mp.mpf("1e-290"):
                assert walked_cdf(float(y), k) == pytest.approx(float(oracle), rel=5e-14,
                                                                abs=0.0), y

    def test_large_arguments_stable(self):
        # a million masses walked up from exp(-1e6), which underflows
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            oracle = mp.gammainc(10 ** 6 + 1, 10 ** 6, mp.inf, regularized=True)
        assert walked_cdf(1e6, 10 ** 6) == pytest.approx(float(oracle), rel=2e-13, abs=0.0)


def counted_walks(monkeypatch, module) -> list[int]:
    """Patch module's ``_mass_walk`` to record, per walk, how many ratios it took."""
    steps = []
    walk = kernel._mass_walk

    def counting(log_p0, ratio, k):
        steps.append(0)

        def counted(m):
            steps[-1] += 1
            return ratio(m)

        return walk(log_p0, counted, k)

    monkeypatch.setattr(module, "_mass_walk", counting)
    return steps


class TestMassWalk:
    def test_poisson_masses_and_tail(self):
        y = 2.5
        masses, tail = kernel._mass_walk(-y, lambda m: y / (m + 1), 4)
        expected = [math.exp(-y) * y ** m / math.factorial(m) for m in range(4)]
        assert masses == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert tail == pytest.approx(1.0 - math.fsum(expected), rel=1e-14, abs=0.0)

    def test_k_zero_and_certain_infinity(self):
        assert kernel._mass_walk(-3.0, lambda m: 3.0 / (m + 1), 0) == ([], 1.0)
        assert kernel._mass_walk(-math.inf, lambda m: math.inf, 3) == ([0.0] * 3, 1.0)

    @pytest.mark.parametrize("module, call, k, mean, expected", [
        # exp(-1e300): every mass below k underflows; the walk must still end
        pytest.param("kernel", lambda: walked_cdf(1e300, 5), 6, 1e300, 0.0, id="poisson-1e300"),
        pytest.param("kernel", lambda: walked_cdf(1e6, 10 ** 6), 10 ** 6 + 1, 1e6, None,
                     id="poisson-1e6"),
        pytest.param("kernel",
                     lambda: float(_binomial_tails(10 ** 15, 1, 3, np.array(0.5))), 3, 5e14, 3.0,
                     id="binomial-1e15"),
    ])
    def test_ends_within_k_plus_sqrt_mean_steps(self, monkeypatch, module, call, k, mean,
                                                expected):
        steps = counted_walks(monkeypatch, getattr(evpricing, module))
        value = call()
        assert steps and max(steps) <= k + 20.0 * math.sqrt(min(mean, k)) + 10
        if expected is not None:
            assert value == expected


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


def test_lambert_w_bit_equal_to_scipy():
    # the iteration scipy.special.lambertw(z, -1) runs, so the same double
    from scipy.special import lambertw
    branch = -math.exp(-1.0)
    rng = np.random.default_rng(20261018)
    alphas = np.concatenate([np.geomspace(1.0001, 1e6, 5000), rng.uniform(1.0001, 60.0, 5000)])
    zs = np.concatenate([
        rng.uniform(branch, 0.0, 20000),
        branch * (1.0 - np.geomspace(1e-16, 1.0, 5000, endpoint=False)),  # the branch point
        -np.geomspace(1e-300, -branch, 5000, endpoint=False),  # and 0
        -(1.0 / alphas) * np.exp(-1.0 / alphas),  # what u_star asks for
    ])
    zs = zs[(branch < zs) & (zs < 0.0)]
    assert len(zs) > 34000
    expected = [float(w).hex() for w in lambertw(zs, -1).real]
    assert [lambert_w_minus1(float(z)).hex() for z in zs] == expected


class TestIntegrate:
    def test_exponential_tail(self):
        val = integrate(lambda x: np.exp(-x), 0.0, math.inf, tol=1e-10)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_constant(self):
        # a scalar return is taken as constant over the panel
        assert integrate(lambda x: 1.0, 0.0, 1.0, tol=1e-10) == pytest.approx(1.0, abs=1e-12)

    def test_inverse_square_tail(self):
        val = integrate(lambda x: x ** -2.0, 1.0, math.inf, tol=1e-10)
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
        val = integrate(poly, a, b, tol=1e-10)
        assert val == pytest.approx(antideriv(b) - antideriv(a), abs=1e-9)

    def test_nonconvergence_carries_best_estimate(self):
        # a tolerance below the machine error floor can never be reached
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda x: np.exp(-x), 0.0, 1.0, tol=1e-18)
        assert info.value.best_estimate == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12, abs=0.0)
        assert info.value.estimated_error > 1e-18

    def test_converged_error_sum_is_confirmed(self):
        # the running error sum drifts by rounding over ~2000 panel updates;
        # here it fell below tol while the exact sum had not, which raised
        alpha, lo = 2.1789295087231055, 591.625
        exact = lo ** (1.0 - alpha) / (alpha - 1.0)
        val = integrate(lambda x: x ** -alpha, lo, math.inf, tol=5e-13 * exact)
        assert val == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=1e-10, rtol=-1e-12)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, math.inf, tol=1e-10, tail_scale=0.0)

    def test_relative_tolerance_reaches_large_values(self):
        # 50 eps |I| per panel puts the error floor of a value near 1.2e4 at
        # 1.3e-10, above an absolute 1e-10; 1e-12 relative is reachable
        def f(x):
            return 1.2e4 * np.exp(-x)

        dom = (0.0, math.inf)
        with pytest.raises(ConvergenceError):
            integrate(f, *dom, tol=1e-10)
        assert integrate(f, *dom, tol=1e-10, rtol=1e-12) == pytest.approx(1.2e4, rel=1e-12)

    def test_relative_tolerance_alone(self):
        val = integrate(lambda x: 1e-300 * np.exp(-x), 0.0, math.inf,
                        tol=0.0, rtol=1e-12)
        assert val == pytest.approx(1e-300, rel=1e-12, abs=0.0)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            integrate(lambda x: float("nan"), 0.0, 1.0, tol=1e-10)

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
        got = integrate(f, lo, hi, tol=1e-10)
        assert got == pytest.approx(expected, abs=1e-8)


def reference_gk15(f, a, b):
    """The Gauss-Kronrod panel as a loop over the rule's tables: the
    formulation the written-out sums of ``kernel._gk15`` must match bit for bit."""
    xgk, wgk, wg = kernel._XGK, kernel._WGK, kernel._WG
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    dx = h * np.array(xgk[:7])
    vals = f(np.concatenate(((c,), c - dx, c + dx)))
    if np.ndim(vals) == 0:
        vals = [float(vals)] * 15
    else:
        vals = np.asarray(vals, dtype=float).reshape(15).tolist()
    fc, fv1, fv2 = vals[0], vals[1:8], vals[8:]
    resk = wgk[7] * fc
    resg = wg[3] * fc
    resabs = wgk[7] * abs(fc)
    for w, f1, f2 in zip(wgk, fv1, fv2):
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
    for i in (1, 3, 5):
        resg += wg[i // 2] * (fv1[i] + fv2[i])
    mean = 0.5 * resk
    resasc = wgk[7] * abs(fc - mean)
    for w, f1, f2 in zip(wgk, fv1, fv2):
        resasc += w * (abs(f1 - mean) + abs(f2 - mean))
    resk *= h
    resg *= h
    resabs *= abs(h)
    resasc *= abs(h)
    if not math.isfinite(resk):
        raise DomainError("non-finite")
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > tiny / (50.0 * eps):
        err = max(err, 50.0 * eps * resabs)
    return resk, err


def panel_outcome(f, a, b, rule):
    """(value, error) of one panel as hex strings, or the exception type."""
    try:
        return tuple(float.hex(float(v)) for v in rule(f, a, b))
    except DomainError:
        return DomainError


finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw):
    a, b = sorted((draw(finite), draw(finite)))
    if not a < b or not math.isfinite(b - a):
        a, b = -1.0, 2.0
    return a, b


class TestGK15Panel:
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.5, 2.5), (5.0, 5.04), (-3.0, -1.0),
                                      (1e-300, 3e-300), (-1e10, 1e10), (0.1, 0.1000000001),
                                      (-2.0, 0.0), (0.0, 1e-320)])
    def test_nodes_are_centre_then_mirrored_pairs(self, a, b):
        seen = []
        kernel._gk15(lambda x: seen.append(x.copy()) or np.ones(15), a, b)
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        xs = kernel._XGK[:7]
        expected = np.array([c] + [c - h * x for x in xs] + [c + h * x for x in xs])
        (got,) = seen
        assert got.dtype == np.float64 and got.shape == (15,)
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()

    @settings(max_examples=300, deadline=None)
    @given(ab=panels(), values=st.lists(st.floats(-4.0, 4.0) | finite,
                                         min_size=15, max_size=15))
    def test_sums_match_reference_loop_bit_for_bit(self, ab, values):
        a, b = ab

        def f(x):
            return np.array(values)

        assert panel_outcome(f, a, b, kernel._gk15) == panel_outcome(f, a, b, reference_gk15)

    @settings(max_examples=200, deadline=None)
    @given(ab=panels(), rate=st.floats(-40.0, 40.0), level=st.floats(-2.0, 2.0))
    def test_smooth_values_match_reference_loop_bit_for_bit(self, ab, rate, level):
        # exp(rate*u) + level on the rule's abscissae u: K15 and G7 agree to
        # far below |f|, so the error estimate depends on every bit of both
        a, b = ab
        u = np.array((0.0,) + tuple(-x for x in kernel._XGK[:7]) + kernel._XGK[:7])
        values = np.exp(rate * u) + level

        def f(x):
            return values

        assert panel_outcome(f, a, b, kernel._gk15) == panel_outcome(f, a, b, reference_gk15)

    @settings(max_examples=100, deadline=None)
    @given(ab=panels(), value=st.floats(-4.0, 4.0) | finite)
    def test_scalar_return_matches_reference_loop(self, ab, value):
        a, b = ab

        def f(x):
            return value

        assert panel_outcome(f, a, b, kernel._gk15) == panel_outcome(f, a, b, reference_gk15)

    def test_one_panel_integral_is_its_panel(self):
        # a panel that meets the target is returned as the running sum from
        # 0.0 would return it: its own value, with -0.0 made 0.0
        value, _ = kernel._gk15(np.exp, 0.0, 0.5)
        assert integrate(np.exp, 0.0, 0.5, tol=1e-8) == value
        zero = integrate(lambda x: np.full(15, -0.0), 0.0, 1.0, tol=1e-10)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 3.0), (-2.5, 0.5),
                                      (-3.0, -1.0), (0.25, 0.75)])
    def test_monomials_against_exact_antiderivatives(self, a, b):
        # Oracle: int_a^b x^d in exact rationals.  K15 integrates degree <= 22
        # exactly, so only rounding remains (at most ~21 eps of int |x^d| seen,
        # the rule's tables having 15 digits); G7 is exact to degree 13, so up
        # to there the error estimate sits at its floor 50 eps int |f|, and
        # above it the estimate sees the Gauss rule's truncation.
        eps = np.finfo(float).eps
        fa, fb = Fraction(a), Fraction(b)
        for d in range(23):
            exact = (fb ** (d + 1) - fa ** (d + 1)) / (d + 1)
            if a < 0.0 < b:
                mass = (abs(fa) ** (d + 1) + fb ** (d + 1)) / (d + 1)
            else:
                mass = abs(exact)
            value, err = kernel._gk15(lambda x: x ** d, a, b)
            assert abs(Fraction(value) - exact) <= 32 * eps * mass, d
            if d <= 13:
                assert Fraction(err) <= Fraction(51) * Fraction(eps) * mass, d
            elif d <= 15:
                assert Fraction(err) > 1000 * Fraction(eps) * mass, d


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

        integrate(f, 0.0, hi, tol=1e-13, tail_gamma=tail_gamma)
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
        semi = (lo, d.support.hi)
        piece = (float(d.quantile(0.3)), float(d.quantile(0.7)))
        for dom in (semi, piece):
            got = integrate(d.sf, *dom, tol=1e-13, tail_gamma=gamma)
            ref = integrate(scalar_sf, *dom, tol=1e-13, tail_gamma=gamma)
            assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


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
    return integrate(pareto_sf(alpha), lo, math.inf, tol=1e-13 * exact,
                     tail_gamma=1.0 / alpha, points=(1.0,))


class TestTailMap:
    @pytest.mark.parametrize("lo", [0.0, 0.5, 1.0, 2.0, 100.0])
    @pytest.mark.parametrize("alpha", [1.05, 1.1, 1.2, 1.3, 1.4, 1.5, 1.656, 1.9])
    def test_pareto_tail_closed_form(self, alpha, lo):
        assert pareto_tail_quadrature(alpha, lo) == pytest.approx(
            pareto_tail_integral(alpha, lo), rel=1e-12, abs=0.0)

    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(1.05, 3.0), lo=st.floats(0.0, 1e3))
    def test_pareto_tail_property(self, alpha, lo):
        assert pareto_tail_quadrature(alpha, lo) == pytest.approx(
            pareto_tail_integral(alpha, lo), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.656, 1.9])
    def test_pareto_mapped_integrand_is_constant(self, alpha):
        # from the support's lower end the mapped Pareto integrand is exactly
        # q = 1/(alpha - 1): one 15-point panel meets a 1e-13 relative target
        sf = pareto_sf(alpha)
        calls = []
        val = integrate(lambda x: calls.append(x) or sf(x), 1.0, math.inf,
                        tol=1e-13 / (alpha - 1.0), tail_gamma=1.0 / alpha)
        assert [np.shape(x) for x in calls] == [(15,)]
        assert val == pytest.approx(1.0 / (alpha - 1.0), rel=1e-14, abs=0.0)

    def test_light_tail_keeps_plain_map(self):
        # q = 1 for every gamma <= 1/2: the same panels as without tail_gamma;
        # a unit tail_scale is the map without one, bit for bit
        f = pareto_sf(2.0)
        dom = (0.5, math.inf)
        plain = integrate(f, *dom, tol=1e-12)
        for gamma in (-1.0, 0.0, 0.3, 0.5):
            assert integrate(f, *dom, tol=1e-12, tail_gamma=gamma) == plain
            assert integrate(f, *dom, tol=1e-12, tail_gamma=gamma, tail_scale=1.0) == plain

    def test_unit_tail_scale_is_identity_for_heavy_tails(self):
        f = pareto_sf(1.3)
        dom = (0.0, math.inf)
        plain = integrate(f, *dom, tol=1e-12, tail_gamma=1.0 / 1.3, points=(1.0,))
        assert integrate(f, *dom, tol=1e-12, tail_gamma=1.0 / 1.3, points=(1.0,),
                         tail_scale=1.0) == plain

    @pytest.mark.parametrize("T", [2.0, 1e4, 1e8])
    def test_scaled_pareto_tail_needs_one_panel(self, T):
        # x = T + (T/2) t/(1-t) maps the Pareto(2) tail to 2/(T (2-t)^2),
        # smooth on [0, 1]; the unit map needs dozens of panels at T = 1e4
        calls = []
        sf = pareto_sf(2.0)
        val = integrate(lambda x: calls.append(x) or sf(x), T, math.inf,
                        tol=1e-10 / T, tail_gamma=0.5, tail_scale=T / 2.0)
        assert len(calls) == 1
        assert val == pytest.approx(1.0 / T, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("alpha", [1.3, 1.656])
    def test_tail_scale_maps_points(self, alpha):
        # with h = lo = 1/2 the map is x = w/2: the piece below the kink at 1
        # is smooth and the Pareto tail above it constant, one panel each,
        # once the kink is mapped through (p - lo)/h; left inside a panel it
        # costs dozens
        calls = []
        sf = pareto_sf(alpha)
        val = integrate(lambda x: calls.append(x) or sf(x), 0.5, math.inf,
                        tol=1e-13, tail_gamma=1.0 / alpha, points=(1.0,), tail_scale=0.5)
        assert len(calls) == 2
        assert val == pytest.approx(pareto_tail_integral(alpha, 0.5), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lo", [0.0, 1.0, 2.0])
    def test_overflow_is_a_typed_error(self, lo):
        # q = 1000: (1-t)^(-q) leaves the double range at the first panel
        with pytest.raises(ConvergenceError) as info:
            integrate(pareto_sf(1.001), lo, math.inf,
                      tol=1e-10, tail_gamma=1.0 / 1.001)
        assert info.value.estimated_error == math.inf

    def test_divergent_tail_rejected(self):
        with pytest.raises(DomainError):
            integrate(pareto_sf(0.9), 1.0, math.inf, tol=1e-10, tail_gamma=1.0 / 0.9)

    def test_points_split_finite_domain(self):
        # |x - 1/3| has its kink off every dyadic panel edge
        val = integrate(lambda x: abs(x - 1.0 / 3.0), 0.0, 1.0,
                        tol=1e-14, points=(1.0 / 3.0, 5.0))
        assert val == pytest.approx(5.0 / 18.0, rel=1e-14, abs=0.0)


class TestMaximize1d:
    def test_parabola(self):
        x, fx = maximize_1d(lambda x: -(x - 2.0) ** 2, 0.0, 10.0, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_x_exp_minus_x(self):
        # argmax of a smooth interior max is resolvable to ~sqrt(eps) only
        x, fx = maximize_1d(lambda x: x * math.exp(-x), 0.0, 100.0, tol=1e-10)
        assert x == pytest.approx(1.0, abs=1e-7)
        assert fx == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0.0)

    def test_guarantee_objective_vs_dense_grid(self):
        # oracle: dense grid of 1e6 points on (0, 10)
        f = lambda x: x * (1.0 - math.exp(-x ** -2.0))
        xs = np.linspace(1e-6, 10.0, 10 ** 6)
        fs = xs * (1.0 - np.exp(-xs ** -2.0))
        i = int(np.argmax(fs))
        x, fx = maximize_1d(f, 0.0, 10.0, tol=1e-10)
        assert x == pytest.approx(float(xs[i]), abs=2e-5)
        assert fx == pytest.approx(float(fs[i]), abs=1e-9)

    def test_flat_objective_reported(self):
        with pytest.raises(FlatObjectiveError):
            maximize_1d(lambda x: 1.0, 0.0, 1.0, tol=1e-10)

    def test_tol_below_the_spacing_of_doubles(self):
        # near 1e9 doubles are 1.2e-7 apart, so no bracket gets 1e-10 wide;
        # the search must stop once its bracket stops shrinking
        calls = []

        def f(x):
            calls.append(x)
            if len(calls) > 10_000:
                raise AssertionError("still iterating after 10,000 evaluations")
            return -(x - 1e9) ** 2

        x, fx = maximize_1d(f, 0.0, 2e9, tol=1e-10)
        assert x == pytest.approx(1e9, rel=1e-15, abs=0.0)
        assert fx == 0.0


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 1.0, 0.0, 2.0, tol=1e-10) == pytest.approx(1.0, abs=1e-10)

    def test_sqrt2(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=1e-10)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)

    def test_poisson_derivative_vs_sign_change_oracle(self):
        # k = 1 objective derivative 1 - P(N <= 1) - m P(N = 0), N ~ Poisson(m),
        # m = y^-2; oracle: dense-grid sign change
        def fprime(y):
            m = y ** -2.0
            return 1.0 - math.exp(-m) * (1.0 + 2.0 * m)

        ys = np.linspace(2 ** -0.5, 1.0, 200001)
        vals = 1.0 - np.exp(-ys ** -2.0) * (1.0 + 2.0 * ys ** -2.0)
        flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        assert len(flips) == 1
        bracket_mid = 0.5 * (ys[flips[0]] + ys[flips[0] + 1])
        root = find_root(fprime, 2 ** -0.5, 1.0, tol=1e-12)
        assert root == pytest.approx(float(bracket_mid), abs=1e-5)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, -1.0, 1.0, tol=1e-10)
