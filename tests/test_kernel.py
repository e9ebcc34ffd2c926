import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import evpricing
import evpricing.kernel as kernel
import evpricing.distributions as distributions
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
    order_statistic_mean,
)

import references as ref


class TestEndpoints:
    # NaN at either end, an infinite end and an empty or reversed interval
    # are rejected before the routine evaluates anything
    @pytest.mark.parametrize("routine, lo, hi", [
        pytest.param(routine, lo, hi, id=f"{routine.__name__}-{lo}-{hi}")
        for routine in (integrate, maximize_1d)
        for lo, hi in [(2.0, 1.0), (1.0, 1.0), (-math.inf, 0.0), (math.nan, 1.0),
                       (0.0, math.nan), (math.inf, math.inf), (0.0, math.inf)]
    ])
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
                     lambda: _binomial_tails(10 ** 15, 1, 3, [0.5])[0], 3, 5e14, 3.0,
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


def on_array(f):
    """A numpy expression f of an array as an integrand of list panels."""
    return lambda xs: f(np.array(xs)).tolist()


def unit_map(f, lo: float):
    """f on [lo, inf) as an integrand on [0, 1): x = lo + t/(1-t), dx = dt/(1-t)^2,
    with f a numpy expression of an array."""
    return on_array(lambda t: f(lo + t / (1.0 - t)) / (1.0 - t) ** 2)


def counted_panels(monkeypatch) -> list:
    """Patch kernel._gk15 to record the (a, b) of every panel."""
    panels = []
    gk15 = kernel._gk15

    def counting(f, a, b):
        panels.append((a, b))
        return gk15(f, a, b)

    monkeypatch.setattr(kernel, "_gk15", counting)
    return panels


class TestIntegrate:
    def test_constant(self):
        # the Kronrod weights are the nearest doubles of the rule's: they sum
        # to 2, and one panel of a constant is exact
        assert integrate(lambda xs: [1.0] * 15, 0.0, 1.0, tol=1e-10) == 1.0

    def test_points_split_finite_domain(self):
        # |x - 1/3| has its kink off every dyadic panel edge
        val = integrate(lambda xs: [abs(x - 1.0 / 3.0) for x in xs], 0.0, 1.0,
                        tol=1e-14, points=(1.0 / 3.0, 5.0))
        assert val == pytest.approx(5.0 / 18.0, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("coeffs", [(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                                        (0.0, 2.0, -1.0, 0.5, 0.0, 3.0),
                                        (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)])
    def test_polynomials_exact(self, coeffs):
        def poly(x):
            return sum(c * x ** i for i, c in enumerate(coeffs))

        def antideriv(x):
            return sum(c * x ** (i + 1) / (i + 1) for i, c in enumerate(coeffs))

        a, b = -1.5, 2.5
        val = integrate(on_array(poly), a, b, tol=1e-10)
        assert val == pytest.approx(antideriv(b) - antideriv(a), abs=1e-9)

    def test_nonconvergence_carries_best_estimate(self):
        # a tolerance below the machine error floor can never be reached
        with pytest.raises(ConvergenceError) as info:
            integrate(on_array(lambda x: np.exp(-x)), 0.0, 1.0, tol=1e-18)
        assert info.value.best_estimate == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12, abs=0.0)
        assert info.value.estimated_error > 1e-18

    def test_step_panel_too_narrow_to_split(self):
        # the panel holding the jump at 1/3 halves down to a few ulps, is kept
        # unsplit with its value and error, and the budget runs out around it;
        # the estimate is 1.7e-15 off, and 4.2e-15 if those panels were dropped
        with pytest.raises(ConvergenceError) as info:
            integrate(lambda xs: [1.0 if x > 1.0 / 3.0 else 0.0 for x in xs], 0.0, 1.0,
                      tol=1e-300)
        assert info.value.best_estimate == pytest.approx(2.0 / 3.0, rel=0.0, abs=3e-15)
        assert info.value.estimated_error > 1e-300

    def test_converged_error_sum_is_confirmed(self):
        # the running error sum drifts by rounding over ~2000 panel updates;
        # here it fell below tol while the exact sum had not, which raised
        alpha, lo = 2.1789295087231055, 591.625
        exact = float(ref.tail_integral(Pareto(alpha), lo))
        val = integrate(unit_map(lambda x: x ** -alpha, lo), 0.0, 1.0, tol=5e-13 * exact)
        assert val == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_bad_tolerance(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=0.0)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 0.0, 1.0, tol=1e-10, rtol=-1e-12)

    def test_relative_tolerance_reaches_large_values(self):
        # 50 eps |I| per panel puts the error floor of a value near 1.2e4 at
        # 1.3e-10, above an absolute 1e-10; 1e-12 relative is reachable
        f = unit_map(lambda x: 1.2e4 * np.exp(-x), 0.0)
        dom = (0.0, 1.0)
        with pytest.raises(ConvergenceError):
            integrate(f, *dom, tol=1e-10)
        assert integrate(f, *dom, tol=1e-10, rtol=1e-12) == pytest.approx(1.2e4, rel=1e-12)

    def test_relative_tolerance_alone(self):
        val = integrate(unit_map(lambda x: 1e-300 * np.exp(-x), 0.0), 0.0, 1.0,
                        tol=0.0, rtol=1e-12)
        assert val == pytest.approx(1e-300, rel=1e-12, abs=0.0)

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            integrate(lambda xs: [math.nan] * 15, 0.0, 1.0, tol=1e-10)

    @pytest.mark.parametrize("f,lo,hi", [
        (lambda x: np.exp(-0.7 * x) * (1 + np.sin(x) ** 2), 0.0, math.inf),
        (lambda x: x ** -1.8, 2.0, math.inf),
        (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf),
        (lambda x: np.sqrt(x) * np.exp(-x), 0.0, math.inf),
        (lambda x: np.cos(3 * x) * np.exp(x), -1.0, 2.0),
        (lambda x: 1.0 / (1.0 + abs(x - 0.3)), 0.0, 1.0),
    ])
    def test_parity_with_library_quadrature(self, f, lo, hi):
        # independent oracle: a different adaptive quadrature implementation;
        # a half-line is mapped to [0, 1) first
        from scipy.integrate import quad
        expected, _ = quad(f, lo, hi, limit=200)
        if math.isfinite(hi):
            got = integrate(on_array(f), lo, hi, tol=1e-10)
        else:
            got = integrate(unit_map(f, lo), 0.0, 1.0, tol=1e-10)
        assert got == pytest.approx(expected, abs=1e-8)


def reference_gk15(f, a, b):
    """The Gauss-Kronrod panel as a loop over the rule's tables, indexed as
    QUADPACK's qk15: the formulation ``kernel._gk15`` must match bit for bit."""
    xgk, wgk, wg = kernel._XGK, kernel._WGK, kernel._WG
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    dx = h * np.array(xgk[:7])
    vals = f(np.concatenate(((c,), c - dx, c + dx)).tolist())
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
        kernel._gk15(lambda x: seen.append(x) or [1.0] * 15, a, b)
        c, h = 0.5 * (a + b), 0.5 * (b - a)
        xs = kernel._XGK[:7]
        expected = [c] + [c - h * x for x in xs] + [c + h * x for x in xs]
        (got,) = seen
        assert type(got) is list and len(got) == 15 and all(type(x) is float for x in got)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))

    @settings(max_examples=300, deadline=None)
    @given(ab=panels(), values=st.lists(st.floats(-4.0, 4.0) | finite,
                                         min_size=15, max_size=15))
    def test_sums_match_reference_loop_bit_for_bit(self, ab, values):
        a, b = ab

        def f(x):
            return list(values)

        assert panel_outcome(f, a, b, kernel._gk15) == panel_outcome(f, a, b, reference_gk15)

    @settings(max_examples=200, deadline=None)
    @given(ab=panels(), rate=st.floats(-40.0, 40.0), level=st.floats(-2.0, 2.0))
    def test_smooth_values_match_reference_loop_bit_for_bit(self, ab, rate, level):
        # exp(rate*u) + level on the rule's abscissae u: K15 and G7 agree to
        # far below |f|, so the error estimate depends on every bit of both
        a, b = ab
        u = np.array((0.0,) + tuple(-x for x in kernel._XGK[:7]) + kernel._XGK[:7])
        values = (np.exp(rate * u) + level).tolist()

        def f(x):
            return values

        assert panel_outcome(f, a, b, kernel._gk15) == panel_outcome(f, a, b, reference_gk15)

    def test_constants_are_the_nearest_doubles(self):
        # Oracle: the rule derived anew at 40 digits.  The Gauss nodes are the
        # roots of P_7, weighted 2/((1 - x^2) P_7'(x)^2); the Kronrod nodes are
        # the roots of the Stieltjes polynomial E_8, the even monic octic with
        # int x^m P_7 E_8 = 0 for odd m < 8; the Kronrod weights make the rule
        # exact on x^0, x^2, ..., x^14.  Each table entry must be the double
        # nearest to its value (QUADPACK's qk15 lists them to 33 digits).
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            p7 = [0, -35, 0, 315, 0, -693, 0, 429]  # 16 P_7, lowest power first

            def moment(m):  # int_-1^1 x^m dx
                return mp.mpf(0) if m % 2 else mp.mpf(2) / (m + 1)

            def p7_moment(m):  # 16 int_-1^1 x^m P_7 dx
                return mp.fsum(c * moment(m + i) for i, c in enumerate(p7))

            odd = (1, 3, 5, 7)
            rows = mp.matrix([[p7_moment(m + e) for e in (6, 4, 2, 0)] for m in odd])
            c6, c4, c2, c0 = mp.lu_solve(rows, mp.matrix([-p7_moment(m + 8) for m in odd]))
            kronrod = [mp.sqrt(y) for y in mp.polyroots([1, c6, c4, c2, c0], extraprec=100)]
            gauss = [mp.sqrt(y) for y in mp.polyroots([429, -693, 315, -35], extraprec=100)]
            kronrod.sort(reverse=True)
            gauss.sort(reverse=True)
            xgk = [kronrod[0], gauss[0], kronrod[1], gauss[1], kronrod[2], gauss[2],
                   kronrod[3], mp.mpf(0)]
            dp7 = [i * c / 16 for i, c in enumerate(p7)][1:]
            wg = [2 / ((1 - x * x) * mp.polyval(dp7[::-1], x) ** 2) for x in gauss + [0]]
            even = mp.matrix([[(2 if i < 7 else int(r == 0)) * x ** (2 * r)
                               for i, x in enumerate(xgk)] for r in range(8)])
            wgk = list(mp.lu_solve(even, mp.matrix([moment(2 * r) for r in range(8)])))
            # the derived rule is the Kronrod rule: exact through degree 22
            k22 = 2 * mp.fsum(w * x ** 22 for w, x in zip(wgk[:7], xgk))
            assert abs(k22 - moment(22)) < mp.mpf(10) ** -35

            def nearest(x, v):
                return all(abs(mp.mpf(x) - v) <= abs(mp.mpf(math.nextafter(x, to)) - v)
                           for to in (-math.inf, math.inf))

            for table, exact in ((kernel._XGK, xgk), (kernel._WGK, wgk), (kernel._WG, wg)):
                assert len(table) == len(exact)
                assert all(nearest(x, v) for x, v in zip(table, exact)), table

    def test_one_panel_integral_is_its_panel(self):
        # a panel that meets the target is returned as the running sum from
        # 0.0 would return it: its own value, with -0.0 made 0.0
        value, _ = kernel._gk15(on_array(np.exp), 0.0, 0.5)
        assert integrate(on_array(np.exp), 0.0, 0.5, tol=1e-8) == value
        zero = integrate(lambda xs: [-0.0] * 15, 0.0, 1.0, tol=1e-10)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 3.0), (-2.5, 0.5),
                                      (-3.0, -1.0), (0.25, 0.75)])
    def test_monomials_against_exact_antiderivatives(self, a, b):
        # Oracle: int_a^b x^d in exact rationals.  K15 integrates degree <= 22
        # exactly, so only rounding remains (at most ~21 eps of int |x^d| seen,
        # with the tables rounded to doubles); G7 is exact to degree 13, so up
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
            value, err = kernel._gk15(on_array(lambda x: x ** d), a, b)
            assert abs(Fraction(value) - exact) <= 32 * eps * mass, d
            if d <= 13:
                assert Fraction(err) <= Fraction(51) * Fraction(eps) * mass, d
            elif d <= 15:
                assert Fraction(err) > 1000 * Fraction(eps) * mass, d


class TestVectorizedIntegrand:
    @pytest.mark.parametrize("hi,tail_gamma", [(3.0, 0.0), (math.inf, 0.0),
                                               (math.inf, 0.6)])
    def test_one_call_per_panel(self, monkeypatch, hi, tail_gamma):
        # a finite bracket, and the half-lines of the order-statistic means
        # under the plain map (Exponential) and the tail-adapted one
        # (Frechet), whose summed tails take the list of a panel's 15 sf values
        panels = counted_panels(monkeypatch)
        calls = []

        def record(xs):
            calls.append(xs)
            return xs

        if math.isfinite(hi):
            integrate(lambda xs: [1.0 / (1.0 + (x - 0.3) ** 2) ** 2 for x in record(xs)],
                      0.0, hi, tol=1e-13)
        else:
            d = Frechet(0.0, 1.0, 1.0 / tail_gamma) if tail_gamma else Exponential(1.0)
            tails = distributions._binomial_tails
            monkeypatch.setattr(distributions, "_binomial_tails",
                                lambda n, j, k, p: tails(n, j, k, record(p)))
            order_statistic_mean(d, 10, 1)
        assert len(panels) > 1
        assert len(calls) == len(panels)
        for x in calls:
            assert type(x) is list and len(x) == 15 and all(type(v) is float for v in x)

    @pytest.mark.parametrize("d", [Pareto(2.0), Pareto(1.656), Frechet(0.0, 1.0, 2.5),
                                   Exponential(1.0), Gumbel(0.0, 1.0), Uniform(0.0, 1.0),
                                   BoundedPower(1.0, 2.0)],
                             ids=repr)
    def test_array_sf_matches_per_node_scalar_sf(self, d):
        # the public sf maps its scalar path over an array, so a quadrature of
        # it on array panels is the quadrature of per-node scalar calls
        piece = (float(d.quantile(0.3)), float(d.quantile(0.7)))
        got = integrate(on_array(d.sf), *piece, tol=1e-13)
        per_node = integrate(lambda xs: [d.sf(x) for x in xs], *piece, tol=1e-13)
        assert got == pytest.approx(per_node, rel=1e-14, abs=0.0)


class TestMaximize1d:
    def test_parabola(self):
        x, fx = maximize_1d(lambda xs: [-(x - 2.0) ** 2 for x in xs], 0.0, 10.0, tol=1e-10)
        assert x == pytest.approx(2.0, abs=1e-8)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_x_exp_minus_x(self):
        # argmax of a smooth interior max is resolvable to ~sqrt(eps) only
        x, fx = maximize_1d(lambda xs: [x * math.exp(-x) for x in xs], 0.0, 100.0, tol=1e-10)
        assert x == pytest.approx(1.0, abs=1e-7)
        assert fx == pytest.approx(math.exp(-1.0), rel=1e-12, abs=0.0)

    def test_guarantee_objective_vs_dense_grid(self):
        # oracle: dense grid of 1e6 points on (0, 10)
        f = lambda x: x * (1.0 - np.exp(-x ** -2.0))
        xs = np.linspace(1e-6, 10.0, 10 ** 6)
        fs = f(xs)
        i = int(np.argmax(fs))
        x, fx = maximize_1d(lambda xs: f(np.array(xs)).tolist(), 0.0, 10.0, tol=1e-10)
        assert x == pytest.approx(float(xs[i]), abs=2e-5)
        assert fx == pytest.approx(float(fs[i]), abs=1e-9)

    def test_vectorized_objective_contract(self):
        # one call on the list of the whole scan grid, then one-point lists only
        calls = []

        def f(xs):
            calls.append(xs)
            return [-(x - 2.0) ** 2 for x in xs]

        maximize_1d(f, 0.0, 10.0, tol=1e-10)
        assert all(type(xs) is list and all(type(x) is float for x in xs) for xs in calls)
        assert len(calls[0]) == kernel.SCAN_POINTS
        assert {len(xs) for xs in calls[1:]} == {1}

    def test_first_maximum_of_the_scan(self):
        # a plateau over the scan: the bracket is around its first point, as
        # np.argmax picks it, so the maximum found is the plateau's left end
        x, fx = maximize_1d(lambda xs: [min(x, 5.0) for x in xs], 0.0, 10.0, tol=1e-10)
        assert fx == 5.0
        assert x <= 5.0 + 1e-9

    def test_maximum_at_a_scan_point(self):
        # a kink exactly on a scan point, which golden section cannot hit:
        # the scan point's value beats the refined one and is returned
        c = float(np.linspace(0.0, 10.0, kernel.SCAN_POINTS + 2)[1:-1][100])
        x, fx = maximize_1d(lambda xs: [-abs(x - c) for x in xs], 0.0, 10.0, tol=1e-10)
        assert x == c
        assert fx == 0.0

    def test_flat_objective_reported(self):
        with pytest.raises(FlatObjectiveError):
            maximize_1d(lambda xs: [1.0] * len(xs), 0.0, 1.0, tol=1e-10)

    def test_tol_below_the_spacing_of_doubles(self):
        # near 1e9 doubles are 1.2e-7 apart, so no bracket gets 1e-10 wide;
        # the search must stop once its bracket stops shrinking
        calls = []

        def f(xs):
            calls.append(xs)
            if len(calls) > 10_000:
                raise AssertionError("still iterating after 10,000 evaluations")
            return [-(x - 1e9) ** 2 for x in xs]

        x, fx = maximize_1d(f, 0.0, 2e9, tol=1e-10)
        assert x == pytest.approx(1e9, rel=1e-15, abs=0.0)
        assert fx == 0.0


def scan_grid(lo: float, hi: float) -> list[float]:
    """The points maximize_1d scans on [lo, hi], read from a flat objective."""
    grids = []

    def flat(xs):
        grids.append(xs)
        return [0.0] * len(xs)

    with pytest.raises(FlatObjectiveError):
        maximize_1d(flat, lo, hi, tol=1.0)
    (grid,) = grids
    return grid


#: Subnormal locations: there a bracket a few subnormals wide makes the scan's step 0.
subnormal_multiples = st.integers(-10 ** 6, 10 ** 6).map(lambda m: m * 5e-324)


@st.composite
def brackets(draw):
    lo = draw(st.floats(-1e14, 1e14) | subnormal_multiples)
    width = draw(st.floats(0.0, 1e14) | st.integers(1, 10 ** 4).map(lambda m: m * 5e-324))
    hi = lo + width
    assume(lo < hi)
    return lo, hi


class TestScanGrid:
    @settings(max_examples=500, deadline=None)
    @given(bracket=brackets())
    @example(bracket=(0.0, 5e-324))
    @example(bracket=(-5e-322, 5e-322))
    @example(bracket=(-1e14, 1e14))
    @example(bracket=(1.0, 1.0 + 2.0 ** -52))
    def test_grid_is_linspace_bit_for_bit(self, bracket):
        lo, hi = bracket
        expected = np.linspace(lo, hi, kernel.SCAN_POINTS + 2)[1:-1].tolist()
        assert [x.hex() for x in scan_grid(lo, hi)] == [x.hex() for x in expected]

    def test_step_underflow_takes_the_subnormal_branch(self):
        # (hi - lo)/257 rounds to 0 here, and linspace scales i/257 by the width
        assert (100 * 5e-324) / (kernel.SCAN_POINTS + 1) == 0.0
        grid = scan_grid(0.0, 100 * 5e-324)
        assert grid == np.linspace(0.0, 100 * 5e-324, kernel.SCAN_POINTS + 2)[1:-1].tolist()
        assert grid[-1] > 0.0

    def test_float_constants_match_numpy(self):
        assert kernel._EPS == np.finfo(float).eps
        assert kernel._TINY == np.finfo(float).tiny


def test_lgam_bit_equal_to_gammaln():
    from scipy.special import gammaln
    expected = gammaln(np.arange(1, 1002)).tolist()
    assert list(map(float.hex, map(kernel._lgam, range(1001)))) == list(map(float.hex, expected))


class TestPairwiseSum:
    @settings(max_examples=300, deadline=None)
    @given(terms=st.lists(st.floats(0.0, 1e20), max_size=40), n=st.integers(0, 1100),
           data=st.data())
    def test_bit_equal_to_numpy_row_sum(self, terms, n, data):
        # a row of n entries from position 1 that holds terms from position a
        # on, wholly or partly inside it, and +0.0 elsewhere
        a = data.draw(st.integers(-len(terms), n + 2))
        row = [terms[i - a] if 0 <= i - a < len(terms) else 0.0 for i in range(1, n + 1)]
        assert kernel._pairwise_sum(terms, a, 1, n).hex() == float(np.array(row).sum()).hex()


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

    def test_tol_is_a_width_not_a_residual(self):
        # phi_k's first-order condition at alpha = 1 + 1e-12, k = 1: its values
        # near the root are about 1e-24, far below tol, so only the width stops it
        a = (1.0 + 1e-12) - 1.0

        def condition(y):
            masses, tail = kernel._mass_walk(-y, lambda m: y / (m + 1), 2)
            return tail - a * y * masses[0]

        mp = pytest.importorskip("mpmath")
        with mp.workdps(50):
            exact = float(mp.findroot(
                lambda y: -mp.expm1(-y) - y * mp.exp(-y) - a * y * mp.exp(-y), mp.mpf("2e-12")))
        root = find_root(condition, 2.0 ** -39, 2.0 ** -38, tol=1e-14)
        assert abs(root - exact) <= 1e-14

    def test_zero_tol_is_rounding(self):
        root = find_root(lambda x: x * x - 2.0, 1.0, 2.0, tol=0.0)
        assert abs(root - math.sqrt(2.0)) <= 4.0 * math.ulp(math.sqrt(2.0))

    def test_unclosed_bracket_raises(self):
        # a sign step at 1 on [0, 1e308]: ROOT_MAX_ITER bisections leave a
        # bracket ~1e248 wide, which is not a root
        with pytest.raises(ConvergenceError):
            find_root(lambda x: math.copysign(1.0, x - 1.0), 0.0, 1e308, tol=1e-10)
