import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evpricing.distributions as distributions
import evpricing.kernel as kernel
import evpricing.policy

from evpricing import (
    BoundedPower,
    DomainError,
    Exponential,
    Frechet,
    Gumbel,
    Pareto,
    PolicyEvaluation,
    SimulationConfig,
    Uniform,
    best_fixed_price,
    convergence_table,
    fixed_price_value_exact,
    monte_carlo_evaluate,
    order_statistic_mean,
    phi_1_closed,
    phi_k,
    prophet_value,
    theory_threshold,
)

from evpricing.distributions import _binomial_tails, conditional_mean_above
from evpricing.kernel import SCAN_POINTS
from evpricing.policy import _fixed_price_values

import references as ref


def reference_best(d, n: int, k: int, bracket, solver="illinois") -> tuple[float, float]:
    """(T, value) at the maximum of the reference fixed-price value: the root of
    its derivative in the bracket, by mpmath at 30 digits."""
    with mp.workdps(30):
        def value(T):
            return ref.fixed_price_value(d, n, k, T)

        T = mp.findroot(lambda T: mp.diff(value, T), bracket, solver=solver)
        return float(T), float(value(T))


class TestFixedPriceExact:
    def test_pareto_accept_everything(self):
        assert fixed_price_value_exact(Pareto(2.0), 1, 1, 1.0) == pytest.approx(2.0, abs=1e-8)

    def test_pareto_above_support(self):
        assert fixed_price_value_exact(Pareto(2.0), 1, 1, 2.0) == pytest.approx(1.0, abs=1e-8)

    def test_uniform_sell_both(self):
        val = fixed_price_value_exact(Uniform(0.0, 1.0), 2, 2, 0.0)
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(DomainError):
            fixed_price_value_exact(Uniform(0.0, 1.0), 2, 3, 0.5)

    def test_saturated_threshold_rejected(self):
        with pytest.raises(DomainError):
            fixed_price_value_exact(Uniform(0.0, 1.0), 2, 1, 1.0)

    @pytest.mark.parametrize("n", [4, 7, 10])
    @pytest.mark.parametrize("q,k", [(0.3, 1), (0.6, 2), (0.9, 3)])
    def test_matches_count_enumeration(self, nonneg_models, n, q, k):
        for d in nonneg_models:
            T = float(d.quantile(q))
            got = fixed_price_value_exact(d, n, k, T)
            assert got == pytest.approx(float(ref.fixed_price_value(d, n, k, T)), abs=1e-8)

    def test_value_vanishes_toward_upper_endpoint(self):
        d = Pareto(2.0)
        vals = [fixed_price_value_exact(d, 50, 1, T) for T in (1e2, 1e3, 1e4, 1e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 2e-4

    def test_threshold_map_is_continuous(self, nonneg_models):
        for d in nonneg_models:
            T = float(d.quantile(0.6))
            step = 1e-7 * max(1.0, T)
            a = fixed_price_value_exact(d, 8, 2, T)
            b = fixed_price_value_exact(d, 8, 2, T + step)
            assert abs(a - b) <= 1e-4 * max(1.0, a)


#: One model of each kind, its shape or location drawn by hypothesis.
SIX_KINDS = {
    "pareto": lambda x: Pareto(1.5 + 3.0 * x),
    "exp": lambda x: Exponential(0.5 + 2.0 * x),
    "uniform": lambda x: Uniform(2.0 * x, 2.0 * x + 3.0),
    "frechet": lambda x: Frechet(0.0, 1.0, 1.5 + 3.0 * x),
    "gumbel": lambda x: Gumbel(-2.0 + 7.0 * x, 1.0),
    "bpower": lambda x: BoundedPower(2.0, 0.5 + 3.0 * x),
}


def six_kind_thresholds(kind, x, qs, shift):
    """The model, and sorted thresholds at quantile levels qs, moved down by
    shift so that some fall below a finite lower end or the Gumbel floor."""
    d = SIX_KINDS[kind](x)
    Ts = np.sort(np.asarray(d.quantile(np.array(qs)), dtype=float) - shift)
    return d, Ts


six_kind_grids = dict(
    kind=st.sampled_from(sorted(SIX_KINDS)), x=st.floats(0.0, 1.0),
    qs=st.lists(st.floats(1e-300, 1.0 - 1e-6), min_size=1, max_size=40),
    shift=st.sampled_from([0.0, 0.5, 5.0]), n=st.sampled_from([1, 3, 30, 1000, 5000]),
    k_draw=st.integers(1, 10))


class TestFixedPriceGrid:
    """The grid evaluator behind fixed_price_value_exact and the threshold search."""

    @settings(max_examples=60, deadline=None)
    @given(**six_kind_grids)
    def test_grid_matches_one_point_values(self, kind, x, qs, shift, n, k_draw):
        # band set from the tolerances before measuring: I(T) at the top of
        # the grid to 1e-12, each finite piece below it to 1e-13
        d, Ts = six_kind_thresholds(kind, x, qs, shift)
        k = min(n, k_draw)
        grid = _fixed_price_values(d, n, k, Ts)
        for T, v in zip(Ts, grid):
            assert v == pytest.approx(fixed_price_value_exact(d, n, k, float(T)),
                                      rel=1e-12, abs=0.0)

    @settings(max_examples=60, deadline=None)
    @given(**six_kind_grids)
    def test_one_point_is_bit_equal_to_the_product(self, kind, x, qs, shift, n, k_draw):
        d, Ts = six_kind_thresholds(kind, x, qs[:1], shift)
        T, k = float(Ts[0]), min(n, k_draw)
        assert fixed_price_value_exact(d, n, k, T) == (
            conditional_mean_above(d, T) * _binomial_tails(n, 1, k, [d.sf(T)])[0])

    @pytest.mark.parametrize("d, n, k", [
        (Pareto(2.0), 1000, 1), (Pareto(1.656), 10 ** 5, 1), (Exponential(1.0), 10 ** 4, 1),
        (Uniform(1.0, 4.0), 100, 3), (Frechet(0.0, 1.0, 2.5), 1000, 2),
    ], ids=repr)
    def test_search_is_one_grid_pass(self, monkeypatch, d, n, k):
        sizes = []

        def counting(*args):
            sizes.append(len(args[-1]))
            return _fixed_price_values(*args)

        monkeypatch.setattr(evpricing.policy, "_fixed_price_values", counting)
        best_fixed_price(d, n, k)
        assert sizes[0] == SCAN_POINTS
        assert set(sizes[1:]) == {1}
        assert len(sizes) - 1 <= 80


class TestProphetValue:
    """The values are in tests/test_oracle_table.py; this checks the one integral."""

    @pytest.mark.parametrize("n", [9, 1000, 1001, 2000])
    def test_one_integral_matches_sum_of_means(self, nonneg_models, n):
        # reference: k integrals, one per order statistic; the single integral of
        # E min(k, Bin) differs from it by summation order only (measured 1.1e-14)
        for d in nonneg_models + [Frechet(0.0, 1.0, 2.5)]:
            loop = sum(order_statistic_mean(d, n, j) for j in range(1, 6))
            assert prophet_value(d, n, 5) == pytest.approx(loop, rel=1e-12)


class TestKUnitMpmath:
    """k > 1, where E min(k, Bin(n, p)) walks the binomial masses at every n.
    The prophet and policy values are held to 5e-14, at least 10x the walk's
    worst error over these points: 3.6e-15 for the prophet value and 2.3e-15
    for the policy value.  The routes the walk replaced were off by 4.9e-13
    (the log-space sum up to n = 1000) and 6.3e-14 (scipy's betainc above)."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    @pytest.mark.parametrize("n", [50, 1000, 1001, 5000])
    def test_walk_band(self, n, k):
        for alpha in (1.656, 2.0, 3.0):
            d = Pareto(alpha)
            assert prophet_value(d, n, k) == pytest.approx(
                float(ref.order_statistic_means(d, n, 1, k)), rel=5e-14, abs=0.0)
        for alpha in (2.0, 3.0):
            d = Pareto(alpha)
            for c in (0.5, 2.0, 8.0):
                # T at n sf(T) = c
                T = (n / c) ** (1.0 / alpha)
                assert fixed_price_value_exact(d, n, k, T) == pytest.approx(
                    float(ref.fixed_price_value(d, n, k, T)), rel=5e-14, abs=0.0)


class TestKUnitProperties:
    @settings(max_examples=50, deadline=None)
    @given(model=st.sampled_from(["pareto", "exp", "uniform"]),
           alpha=st.floats(1.5, 4.0), n=st.integers(1, 3000),
           k_draw=st.integers(1, 5), q=st.floats(0.0, 0.999))
    def test_policy_below_prophet(self, model, alpha, n, k_draw, q):
        d = {"pareto": Pareto(alpha), "exp": Exponential(1.0), "uniform": Uniform(0.0, 1.0)}[model]
        k = min(n, k_draw)
        T = float(d.quantile(q))
        fp = fixed_price_value_exact(d, n, k, T)
        prophet = prophet_value(d, n, k)
        # at a tie (n = k, T at the support's bottom) both sides are the sum
        # of the k means by two quadratures: the ratio may be 1 + 1e-15
        assert fp <= prophet * (1.0 + 1e-12)
        assert 0.0 <= fp / prophet <= 1.0 + 1e-12

    def test_prophet_is_one_integral_of_array_tails(self, monkeypatch):
        # one integral, whose integrand takes the summed tails once per panel
        # on the list of its 15 sf values, and no other call
        calls = {"integrate": 0, "panels": 0, "tails": []}
        integrate, gk15, tails = distributions.integrate, kernel._gk15, distributions._binomial_tails

        def counting_integrate(*args, **kwargs):
            calls["integrate"] += 1
            return integrate(*args, **kwargs)

        def counting_gk15(*args):
            calls["panels"] += 1
            return gk15(*args)

        def counting_tails(n, j, k, p):
            calls["tails"].append(len(p))
            return tails(n, j, k, p)

        monkeypatch.setattr(distributions, "integrate", counting_integrate)
        monkeypatch.setattr(kernel, "_gk15", counting_gk15)
        monkeypatch.setattr(distributions, "_binomial_tails", counting_tails)
        prophet_value(Pareto(2.0), 100, 3)
        assert calls["integrate"] == 1
        assert calls["tails"] == [15] * calls["panels"]


class TestPolicyEvaluation:
    def test_ratio_is_derived(self):
        ev = PolicyEvaluation(10, 2, 1.5, 0.75, 1.5)
        assert ev.ratio == 0.5

    @pytest.mark.parametrize("prophet", [0.0, -1.0, math.nan, math.inf])
    def test_prophet_value_must_be_positive_and_finite(self, prophet):
        with pytest.raises(DomainError, match="not positive and finite"):
            PolicyEvaluation(10, 2, 1.5, 0.0, prophet)

    @pytest.mark.parametrize("mode", ["best", "theory"])
    def test_zero_prophet_value_raises_domain_error(self, monkeypatch, mode):
        # stands in for a model whose prophet value underflows to zero
        monkeypatch.setattr(evpricing.policy, "prophet_value", lambda d, n, k: 0.0)
        with pytest.raises(DomainError, match="prophet value 0.0"):
            convergence_table(Exponential(1.0), 1, [10, 100], mode=mode, u=0.0)


class TestBestFixedPrice:
    def test_single_buyer_accepts_at_support_bottom(self):
        res = best_fixed_price(Pareto(2.0), 1, 1)
        assert res.threshold == pytest.approx(1.0, abs=1e-4)
        assert res.ratio == pytest.approx(1.0, abs=1e-5)

    def test_uniform_against_mpmath_oracle(self):
        d, n = Uniform(0.0, 1.0), 50
        T, value = reference_best(d, n, 1, (0.5, 0.999))
        res = best_fixed_price(d, n, 1)
        assert res.fp_value == pytest.approx(value, abs=1e-7)
        assert res.ratio == pytest.approx(value / float(ref.expected_max(d, n)), abs=1e-6)
        assert res.threshold == pytest.approx(T, abs=1e-3)

    def test_located_uniform_against_mpmath_oracle(self):
        # the search runs in standard units, and its value carries the
        # location back: (T + 101)/2 * (1 - (T - 100)^50) on [100, 101]
        d = Uniform(100.0, 101.0)
        T, value = reference_best(d, 50, 1, (100.5, 100.999))
        res = best_fixed_price(d, 50, 1)
        assert res.fp_value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert res.threshold == pytest.approx(T, abs=1e-5)

    def test_gumbel_against_mpmath_optimum(self):
        # a support below 0: the prophet is E max(M_n, 0) (ROADMAP direction 8).
        # Illinois stops short of its own tolerance on this derivative; Ridder's
        # root is 1e-9 from the others, which moves the value by 1e-18.
        d, n = Gumbel(0.0, 1.0), 100
        _, value = reference_best(d, n, 1, (2.0, 5.0), solver="ridder")
        res = best_fixed_price(d, n, 1)
        assert res.ratio == pytest.approx(value / float(ref.expected_max(d, n)), rel=1e-14)

    @pytest.mark.parametrize("d", [Uniform(-2.0, -1.0), Uniform(-3.0, 0.0)],
                             ids=["below-0", "up-to-0"])
    def test_zero_prophet_raises_before_the_search(self, d):
        # no mass above 0: E max(M_n, 0) = 0, and the threshold window
        # (max(omega_0, 0), F^{-1}(1 - 1e-12)) is empty
        assert prophet_value(d, 5, 1) == 0.0
        with pytest.raises(DomainError, match="prophet value 0.0 .* welfare ratio is undefined"):
            best_fixed_price(d, 5, 1)

    def test_invariants_hold(self, nonneg_models):
        for d in nonneg_models:
            res = best_fixed_price(d, 12, 3)
            assert res.fp_value <= res.prophet_value + 1e-9
            assert 0.0 <= res.ratio <= 1.0 + 1e-9

    def test_worst_shape_band_at_ten_thousand(self):
        res = best_fixed_price(Pareto(1.656), 10 ** 4, 1)
        assert 0.70 <= res.ratio <= 0.73

    @pytest.mark.parametrize("n, recorded", [(10 ** 4, 0.8875870999760),
                                             (10 ** 5, 0.9038779065262)])
    def test_exponential_ratio_against_mpmath_oracle(self, n, recorded):
        # the exact single-unit value over the expected maximum H_n, at the
        # stationary point in the bracket [1, 2 log n]
        d = Exponential(1.0)
        _, value = reference_best(d, n, 1, (1, 2 * math.log(n)))
        oracle = value / float(ref.harmonic(n))
        assert oracle == pytest.approx(recorded, abs=1e-12)
        res = best_fixed_price(d, n, 1)
        assert res.ratio == pytest.approx(oracle, abs=1e-9)


class TestHeavyTailThresholdSearch:
    """Shapes below 1.5, where the plain quadrature map raised ConvergenceError."""

    @pytest.mark.parametrize("n", [100, 10 ** 4])
    def test_pareto_1_3_against_closed_forms(self, n):
        d, k = Pareto(1.3), 3
        res = best_fixed_price(d, n, k)
        assert res.prophet_value == pytest.approx(float(ref.order_statistic_means(d, n, 1, k)),
                                                  rel=1e-9)
        assert res.fp_value == pytest.approx(
            float(ref.fixed_price_value(d, n, k, res.threshold)), rel=1e-9)
        # no threshold on a quantile grid does better
        for q in np.linspace(0.0, 1.0 - 1e-6, 121):
            T = (1.0 - q) ** (-1.0 / d.alpha)
            assert float(ref.fixed_price_value(d, n, k, T)) <= res.fp_value * (1 + 1e-9)
        assert 0.0 < res.ratio < 1.0


class TestMidSizeMarkets:
    """n = 1e8 and 1e9 with k = 3, where betainc's error of about n ulps kept
    the prophet quadrature from its 1e-12 target (ConvergenceError)."""

    @pytest.mark.parametrize("n", [10 ** 8, 10 ** 9])
    def test_pareto_against_closed_forms(self, n):
        d, k = Pareto(2.0), 3
        res = best_fixed_price(d, n, k)
        assert res.prophet_value == pytest.approx(float(ref.order_statistic_means(d, n, 1, k)),
                                                  rel=1e-9)
        assert res.fp_value == pytest.approx(
            float(ref.fixed_price_value(d, n, k, res.threshold)), rel=1e-9)
        # the ratio tends to the large-market guarantee phi_3(2) = 0.810153218561,
        # 0.26/n above it at both sizes
        assert res.ratio == pytest.approx(phi_k(d.alpha, k).value, abs=1.0 / n)


class TestNaNThresholds:
    @pytest.mark.parametrize("d", [Pareto(2.0), Uniform(0.0, 1.0)], ids=repr)
    def test_rejected_by_name(self, d):
        with pytest.raises(DomainError, match="threshold T is NaN"):
            fixed_price_value_exact(d, 20, 3, math.nan)
        with pytest.raises(DomainError, match="threshold T is NaN"):
            monte_carlo_evaluate(d, 20, 3, math.nan, SimulationConfig(1000))
        with pytest.raises(DomainError, match="limit ratio U is NaN"):
            theory_threshold(d, 20, math.nan)

    def test_infinite_thresholds_stay_legal(self):
        d, cfg = Pareto(2.0), SimulationConfig(1000)
        assert monte_carlo_evaluate(d, 20, 3, math.inf, cfg) == (0.0, 0.0)
        assert monte_carlo_evaluate(d, 20, 3, -math.inf, cfg)[0] > 3.0
        assert theory_threshold(d, 20, math.inf) == math.inf


class TestTheoryThreshold:
    def test_frechet_case_study(self):
        T = theory_threshold(Frechet(0.0, 289.0, 2.24), 509, 0.849)
        assert T == pytest.approx(3962.5, abs=1.0)

    def test_pareto(self):
        assert theory_threshold(Pareto(2.0), 4, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_exponential_at_real_n(self):
        assert theory_threshold(Exponential(1.0), math.e, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_support_epsilon_form(self):
        assert theory_threshold(Uniform(0.0, 1.0), 100, 0.05) == pytest.approx(
            0.95, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, z", [
        (Exponential(4.0), Exponential(1.0)),
        (Uniform(100.0, 101.0), Uniform(0.0, 1.0)),
        (Uniform(-2.0, 5.0), Uniform(0.0, 1.0)),
        (Frechet(100.0, 3.0, 2.5), Frechet(0.0, 1.0, 2.5)),
        (Frechet(-1.0, 289.0, 2.24), Frechet(0.0, 1.0, 2.24)),
        (Gumbel(2.0, 0.5), Gumbel(0.0, 1.0)),
        (BoundedPower(7.0, 0.7), BoundedPower(1.0, 0.7)),
    ], ids=repr)
    @pytest.mark.parametrize("n, U", [(10, 0.05), (1000, 0.849), (10 ** 6, 1.2)])
    def test_reduces_to_the_standard_member(self, d, z, n, U):
        loc, scale, _ = d._standard()
        assert theory_threshold(d, n, U) == loc + scale * theory_threshold(z, n, U)

    def test_shifted_uniform_stays_in_the_support(self):
        # (1 - U) b would put the threshold below a = 100
        assert theory_threshold(Uniform(100.0, 101.0), 1000, 0.05) == pytest.approx(
            100.95, rel=1e-15, abs=0.0)
        rows = convergence_table(Uniform(100.0, 101.0), 1, [10, 100], "theory", 0.05)
        assert all(100.0 <= r.threshold <= 101.0 for r in rows)

    def test_gumbel_location_scale_form(self):
        from evpricing import Gumbel
        assert theory_threshold(Gumbel(2.0, 0.5), 100, 1.2) == pytest.approx(
            2.0 + 0.5 * (1.2 + math.log(100.0)), rel=1e-12)


class TestMonteCarlo:
    def test_matches_exact_within_four_stderr(self):
        d, n, k, T = Pareto(2.0), 20, 3, 2.0
        cfg = SimulationConfig(replications=10 ** 5, seed=914)
        mean, stderr = monte_carlo_evaluate(d, n, k, T, cfg)
        exact = fixed_price_value_exact(d, n, k, T)
        assert abs(mean - exact) <= 4.0 * stderr

    def test_nothing_exceeds(self):
        cfg = SimulationConfig(replications=200, seed=7)
        mean, stderr = monte_carlo_evaluate(Uniform(0.0, 1.0), 5, 2, 1.0, cfg)
        assert mean == 0.0
        assert stderr == 0.0

    def test_deterministic_given_seed(self):
        cfg = SimulationConfig(replications=5000, seed=123)
        a = monte_carlo_evaluate(Exponential(1.0), 8, 2, 1.0, cfg)
        b = monte_carlo_evaluate(Exponential(1.0), 8, 2, 1.0, cfg)
        assert a == b

    def test_readme_command_bits(self):
        # evpricing simulate --dist pareto:alpha=2 --n 20 --k 3 --t 2 --reps 100000 --seed 7
        mean, stderr = monte_carlo_evaluate(Pareto(2.0), 20, 3, 2.0,
                                            SimulationConfig(replications=10 ** 5, seed=7))
        assert (mean.hex(), stderr.hex()) == ("0x1.7143bce310a58p+3", "0x1.096d7104aa489p-5")

    # the suite makes every RuntimeWarning an error (pyproject.toml)
    @pytest.mark.parametrize("d", [Pareto(2.0), Exponential(1.0), Uniform(0.0, 1.0),
                                   Frechet(0.0, 1.0, 2.0), Gumbel(0.0, 1.0),
                                   BoundedPower(1.0, 2.0)], ids=lambda d: type(d).__name__)
    def test_every_kind_draws_without_warnings(self, d):
        T = float(d.quantile(0.6))
        mean, stderr = monte_carlo_evaluate(d, 7, 2, T, SimulationConfig(replications=1000))
        assert abs(mean - fixed_price_value_exact(d, 7, 2, T)) <= 4.0 * stderr

    def test_zero_draw_on_an_infinite_lower_end(self, monkeypatch):
        # random() returns exactly 0.0 with probability 2**-53 a draw; for Gumbel it
        # maps to -inf, which never exceeds T, and raises nothing
        class ZeroDraws:
            def __init__(self, bit_generator):
                pass

            def random(self, shape):
                return np.zeros(shape)

        monkeypatch.setattr(np.random, "Generator", ZeroDraws)
        cfg = SimulationConfig(replications=100)
        assert monte_carlo_evaluate(Gumbel(0.0, 1.0), 5, 2, -50.0, cfg) == (0.0, 0.0)

    @pytest.mark.parametrize("reps", [99, 100.0, 1e5])
    def test_replication_floor(self, reps):
        # the config holds the floor of the standard error, as an integer
        with pytest.raises(DomainError, match="integer"):
            SimulationConfig(replications=reps)

    def test_z_panel(self, nonneg_models):
        # 3 x 3 x 3 panel: every cell within four standard errors of exact
        cfg = SimulationConfig(replications=10 ** 5, seed=2718)
        for d in nonneg_models:
            T = float(d.quantile(0.7))
            for n in (5, 20, 60):
                for k in (1, 2, 5):
                    mean, stderr = monte_carlo_evaluate(d, n, k, T, cfg)
                    exact = fixed_price_value_exact(d, n, k, T)
                    assert abs(mean - exact) <= 4.0 * stderr, (d, n, k)


class TestConvergenceTable:
    def test_pareto_ratios_converge_to_guarantee(self):
        rows = convergence_table(Pareto(2.0), 1, [10, 100, 1000])
        target = phi_1_closed(2.0)
        gaps = [abs(r.ratio - target) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-3

    def test_exponential_ratios_rise_toward_one(self):
        rows = convergence_table(Exponential(1.0), 1, [10, 100, 1000])
        ratios = [r.ratio for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.85

    def test_bounded_support_two_units(self):
        rows = convergence_table(BoundedPower(1.0, 1.0), 2, [10, 100])
        assert rows[1].ratio > rows[0].ratio
        assert rows[1].ratio > 0.95

    def test_theory_mode_uses_family_thresholds(self):
        rows = convergence_table(Pareto(2.0), 1, [10, 100], mode="theory", u=0.89)
        for r, n in zip(rows, (10, 100)):
            assert r.threshold == pytest.approx(0.89 * math.sqrt(n), rel=1e-12)
            assert r.ratio <= 1.0 + 1e-9

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            convergence_table(Pareto(2.0), 1, [10, 10])
        with pytest.raises(DomainError):
            convergence_table(Pareto(2.0), 20, [10, 100])
        with pytest.raises(DomainError):
            convergence_table(Pareto(2.0), 1, [10, 100], mode="theory")
