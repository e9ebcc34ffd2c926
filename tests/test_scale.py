"""The unit of valuation: every result is a ratio, so none may depend on it.

Each model is loc + scale*Z for the standard member Z of ``_standard``.  The
checks here are fixed probes and the metamorphic relation X -> c*X (Chen et
al., "Metamorphic testing", ACM CSUR 2018): the functionals with a unit scale
by c, and the ratios stay put.  The closed forms at scales 1e-8 and 1e8 are in
tests/test_oracle_table.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpricing import (
    BoundedPower,
    Exponential,
    Frechet,
    Gumbel,
    Pareto,
    Uniform,
    best_fixed_price,
    conditional_mean_above,
    empirical_competition_complexity,
    expected_max,
    parse_distribution,
    prophet_value,
    virtual_tail_ratio,
)

from conftest import CLI_COMMANDS, COMPETITION_MIX

SCALES = [1e-8, 1.0, 1e8]
FRECHET_ALPHA = 2.5


class TestScaleProbes:
    """Fixed cases that took the unit of valuation for 1."""

    def test_exponential_mean(self):
        assert Exponential(1e6).mean() == pytest.approx(1e-6, rel=1e-13, abs=0.0)

    def test_frechet_prophet(self):
        at_one = prophet_value(Frechet(0.0, 1.0, FRECHET_ALPHA), 1000, 1)
        assert prophet_value(Frechet(0.0, 1e-8, FRECHET_ALPHA), 1000, 1) == pytest.approx(
            1e-8 * at_one, rel=1e-13, abs=0.0)

    def test_exponential_virtual_tail_ratio(self):
        # phi(s) = s - 1/rate: the preimage of 0 is 1/rate, 1e-13 above the lower end
        assert virtual_tail_ratio(Exponential(1e13), 0.0) == pytest.approx(
            math.exp(-1.0), rel=1e-13, abs=0.0)


def test_benchmark_and_readme_models_are_standard_members():
    # every model the README commands and the competition-dp workload run
    # takes the identity case, where (T - 0)/1 and 0 + 1*x are exact: the
    # reduction cannot move a golden digit
    specs = [argv[argv.index("--dist") + 1] for argv in CLI_COMMANDS.values()
             if "--dist" in argv]
    specs += [entry[0] for entry in COMPETITION_MIX]
    assert specs
    for spec in specs:
        assert parse_distribution(spec)._standard()[:2] == (0.0, 1.0), spec


def test_pareto_is_its_own_standard_member():
    d = Pareto(2.0)
    assert d._standard() == (0.0, 1.0, d)


#: c*X by kind, for X the member of scale 1 with the given shape and, for
#: Frechet and Gumbel, location.
SCALED = {
    "exp": lambda shape, loc, c: Exponential(1.0 / c),
    "uniform": lambda shape, loc, c: Uniform(0.0, c),
    "frechet": lambda shape, loc, c: Frechet(c * loc, c, shape),
    "gumbel": lambda shape, loc, c: Gumbel(c * loc, c),
    "bpower": lambda shape, loc, c: BoundedPower(c, shape),
}


class TestScaleEquivariance:
    """X -> c*X over the five kinds with a scale (Pareto's support starts at
    1, so it has none and is its own standard member)."""

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(sorted(SCALED)),
           shape=st.floats(1.5, 6.0), loc=st.floats(-5.0, 5.0),
           log_c=st.floats(-8.0, 8.0), q=st.floats(0.01, 0.9),
           n=st.integers(1, 60), k=st.integers(1, 3))
    def test_functionals_scale_and_ratios_stay(self, kind, shape, loc, log_c, q, n, k):
        c = 10.0 ** log_c
        k = min(k, n)
        one, dc = SCALED[kind](shape, loc, 1.0), SCALED[kind](shape, loc, c)
        (loc_1, scale_1, z), (loc_c, scale_c, _) = one._standard(), dc._standard()
        x = float(z.quantile(q))

        def same(f_one, f_c, factor):
            assert f_c == pytest.approx(factor * f_one, rel=1e-12, abs=0.0)

        same(expected_max(one, n), expected_max(dc, n), c)
        same(conditional_mean_above(one, loc_1 + scale_1 * x),
             conditional_mean_above(dc, loc_c + scale_c * x), c)
        same(virtual_tail_ratio(one, float(one.quantile(q))),
             virtual_tail_ratio(dc, float(dc.quantile(q))), 1.0)
        assert (empirical_competition_complexity(dc, n).m_star
                == empirical_competition_complexity(one, n).m_star)
        # both supports: c*loc can underflow to -0.0, so a subnormal negative
        # location has a scaled model with mean() and a unit one without
        if min(one.support.lo, dc.support.lo) >= 0.0:
            same(one.mean(), dc.mean(), c)
            same(prophet_value(one, n, k), prophet_value(dc, n, k), c)
            same(best_fixed_price(one, n, k).ratio, best_fixed_price(dc, n, k).ratio, 1.0)


class TestUnitMap:
    """The one map from a model's unit to its standard member's."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(SCALED)), shape=st.floats(0.3, 8.0),
           loc=st.floats(-1e6, 1e6), log_c=st.floats(-10.0, 10.0),
           q=st.floats(1e-300, 1.0, exclude_max=True), n=st.floats(1.0, 1e12))
    def test_quantile_and_normalizing_constants_are_the_standard_ones_mapped(
            self, kind, shape, loc, log_c, q, n):
        d = SCALED[kind](shape, loc, 10.0 ** log_c)
        loc, scale, z = d._standard()
        assert float(d.quantile(q)).hex() == (loc + scale * float(z.quantile(q))).hex()
        qs = np.array([q, 0.5, 0.5 * q])
        assert np.array_equal(d.quantile(qs), loc + scale * z.quantile(qs))
        a_z, b_z = z.normalizing_constants(n)
        assert [x.hex() for x in d.normalizing_constants(n)] == [
            (scale * a_z).hex(), (loc + scale * b_z).hex()]

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12])
    @pytest.mark.parametrize("d", [BoundedPower(5.0, 0.7), BoundedPower(3.0, 2.0),
                                   Uniform(1.0, 4.0), Uniform(-2.0, 0.7)], ids=repr)
    def test_sf_near_the_upper_end_keeps_its_digits(self, d, q):
        # the distance below the stored upper end, not 1 - (t - loc)/scale,
        # which at q = 1 - 1e-9 put BoundedPower(5, 0.7) 1.1e-4 off
        mp = pytest.importorskip("mpmath")
        t = float(d.quantile(q))
        with mp.workdps(40):
            if isinstance(d, Uniform):
                exact = (mp.mpf(d.b) - mp.mpf(t)) / (mp.mpf(d.b) - mp.mpf(d.a))
            else:
                exact = ((mp.mpf(d.omega) - mp.mpf(t)) / mp.mpf(d.omega)) ** mp.mpf(d.alpha)
        assert float(d.sf(t)) == pytest.approx(float(exact), rel=1e-15, abs=0.0)

    @staticmethod
    def bounded_exact(d, q=None, t=None):
        """40-digit quantile(q), or cdf(t), of a bounded kind: 1 - (1 - z)^alpha
        at the distance z above the lower end, through log1p and expm1."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            lo, hi = (d.a, d.b) if isinstance(d, Uniform) else (0.0, d.omega)
            lo, width, a = mp.mpf(lo), mp.mpf(hi) - mp.mpf(lo), mp.mpf(d.alpha)
            if q is not None:
                return float(lo - width * mp.expm1(mp.log1p(-mp.mpf(q)) / a))
            return float(-mp.expm1(a * mp.log1p(-(mp.mpf(t) - lo) / width)))

    LOWER_END = [1e-300, 1e-20, 1e-12, 1e-8, 1e-4]
    BOUNDED = [BoundedPower(5.0, 0.7), BoundedPower(3.0, 2.0), Uniform(1.0, 4.0),
               Uniform(-2.0, 0.7)]

    @pytest.mark.parametrize("q", LOWER_END)
    @pytest.mark.parametrize("d", BOUNDED, ids=repr)
    def test_quantile_near_the_lower_end_keeps_its_digits(self, d, q):
        # the distance above the lower end, not 1 - (1 - q)^(1/alpha), which
        # put BoundedPower(3, 2).quantile(1e-20) at 0
        assert float(d.quantile(q)) == pytest.approx(self.bounded_exact(d, q=q), rel=1e-15,
                                                     abs=0.0)

    @pytest.mark.parametrize("q", LOWER_END)
    @pytest.mark.parametrize("d", BOUNDED + [Pareto(1.656), Pareto(2.0)], ids=repr)
    def test_cdf_near_the_lower_end_keeps_its_digits(self, d, q):
        # 1 - (1 - z)^alpha and 1 - t^-alpha cancel where the cdf is small:
        # BoundedPower(1, 2).cdf(1e-12) was 2.2e-5 off, Pareto(2).cdf(1 + 1e-8) 1.7e-9
        mp = pytest.importorskip("mpmath")
        t = float(d.quantile(q))
        if isinstance(d, Pareto):
            with mp.workdps(40):
                exact = float(-mp.expm1(-mp.mpf(d.alpha) * mp.log(mp.mpf(t))))
        else:
            exact = self.bounded_exact(d, t=t)
        assert float(d.cdf(t)) == pytest.approx(exact, rel=1e-15, abs=0.0)
