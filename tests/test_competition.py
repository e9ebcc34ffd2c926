import gc
import math
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evpricing.competition as competition
import evpricing.distributions as distributions
from evpricing import (
    BoundedPower,
    ConvergenceError,
    DivergenceError,
    DomainError,
    Exponential,
    EvtFamily,
    Frechet,
    Gumbel,
    Pareto,
    PolicySequence,
    Uniform,
    cc_family_bounds,
    empirical_competition_complexity,
    expected_max,
    expected_max_approx,
    extend_policy,
    integrate,
    kennedy_kertz_nu,
    order_statistic_mean,
    quantile_policy_approx,
    theoretical_cc,
)
from evpricing.competition import EULER_MASCHERONI

import references as ref


def oracle_m_star_uniform(n: int) -> int:
    # independent closed-form recurrence G_{m+1} = (1 + G_m^2)/2
    target = float(ref.expected_max(Uniform(0.0, 1.0), n))
    g, m = 0.0, 0
    while g < target:
        g = (1.0 + g * g) / 2.0
        m += 1
    return m


def oracle_m_star_exp(n: int) -> int:
    target = float(ref.harmonic(n))
    g, m = 0.0, 0
    while g < target:
        g += math.exp(-g)
        m += 1
    return m


def oracle_m_star_pareto2(n: int) -> int:
    target = float(ref.expected_max(Pareto(2.0), n))
    g, m = 0.0, 0
    while g < target:
        g += 1.0 / g if g >= 1.0 else 2.0 - g
        m += 1
    return m


class TestExtendPolicy:
    def test_uniform_first_values(self):
        seq = extend_policy(PolicySequence(Uniform(0.0, 1.0)), 3)
        assert seq.values[1] == pytest.approx(0.5, abs=1e-10)
        assert seq.values[2] == pytest.approx(0.625, abs=1e-10)
        assert seq.values[3] == pytest.approx((1.0 + 0.625 ** 2) / 2.0, abs=1e-10)

    def test_uniform_closed_recurrence_through_200(self):
        seq = extend_policy(PolicySequence(Uniform(0.0, 1.0)), 200)
        g = 0.0
        for m in range(1, 201):
            g = (1.0 + g * g) / 2.0
            assert seq.values[m] == pytest.approx(g, abs=1e-10)

    def test_exponential_closed_steps(self):
        seq = extend_policy(PolicySequence(Exponential(1.0)), 2)
        assert seq.values[1] == pytest.approx(1.0, abs=1e-10)
        assert seq.values[2] == pytest.approx(1.0 + math.exp(-1.0), abs=1e-10)

    def test_first_value_is_mean(self, nonneg_models):
        for d in nonneg_models:
            # the anchor at 0 and the mean are one routine, bit for bit
            assert PolicySequence(d).value(1) == d.mean()

    def test_strictly_increasing_and_below_prophet(self):
        d = Pareto(2.0)
        seq = extend_policy(PolicySequence(d), 40)
        vals = seq.values
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for n in (5, 20, 40):
            assert vals[n] < expected_max(d, n)

    def test_quantile_form_cross_check(self):
        # alternative step: G_{n+1} = G_n F(G_n) + int_0^{1-F(G_n)} q(1-u) du,
        # with the upper quantile written analytically per model
        rng = np.random.default_rng(99)
        cases = [
            (Uniform(0.0, 1.0), lambda us: [1.0 - u for u in us]),
            (Pareto(2.0), lambda us: [u ** -0.5 for u in us]),
        ]
        for d, upper_quantile in cases:
            seq = extend_policy(PolicySequence(d), 60)
            for n in sorted(rng.choice(np.arange(1, 60), size=10, replace=False)):
                g = seq.values[int(n)]
                p = float(d.sf(g))
                # the u^(-1/gamma) endpoint singularity caps the oracle's
                # reachable accuracy near 1e-7 in doubles
                alt = g * float(d.cdf(g)) + integrate(
                    upper_quantile, 0.0, p, tol=1e-6)
                assert seq.values[int(n) + 1] == pytest.approx(alt, abs=1e-5)

    def test_divergent_model_rejected(self):
        with pytest.raises(DivergenceError):
            PolicySequence(Pareto(0.9))


def closed_recurrence(d, steps: int) -> list[float]:
    """G_0..G_steps from G <- G + I(G), I the reference tail integral rounded
    to a double at each step."""
    values = [0.0]
    for _ in range(steps):
        values.append(values[-1] + float(ref.tail_integral(d, values[-1])))
    return values


class TestPolicySequenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(model=st.sampled_from(["pareto", "exp", "uniform", "gumbel", "frechet", "power"]),
           alpha=st.floats(1.5, 4.0), n=st.integers(1, 300))
    def test_nondecreasing_and_below_expected_max(self, model, alpha, n):
        d = {"pareto": Pareto(alpha), "exp": Exponential(1.0), "uniform": Uniform(0.0, 1.0),
             "gumbel": Gumbel(0.0, 1.0), "frechet": Frechet(0.0, 1.0, 2.5),
             "power": BoundedPower(1.0, 2.0)}[model]
        g = extend_policy(PolicySequence(d), n).values
        assert all(b >= a for a, b in zip(g, g[1:]))
        # at n = 1 both sides are one quadrature of E max(X, 0)
        assert g[n] <= expected_max(d, n) * (1.0 + 1e-12)


class TestRunningTail:
    @pytest.mark.parametrize("d, steps", [
        (Pareto(2.0), 5000), (Pareto(3.0), 5000), (Exponential(1.0), 5000),
        (Uniform(0.0, 1.0), 5000), (BoundedPower(1.0, 2.0), 5000), (Frechet(0.0, 1.0, 2.5), 2000),
        # shapes near and below the worst single-unit shape 1.657, where the
        # plain map left an endpoint singularity the quadrature could not
        # resolve
        (Pareto(1.2), 300), (Pareto(1.3), 300), (Pareto(1.4), 300), (Pareto(1.656), 300),
        (Frechet(0.0, 1.0, 1.5), 300),
    ], ids=["pareto2", "pareto3", "exp1", "uniform", "bpower2", "frechet2.5",
            "pareto1.2", "pareto1.3", "pareto1.4", "pareto1.656", "frechet1.5"])
    def test_against_closed_recurrence(self, d, steps):
        seq = extend_policy(PolicySequence(d), steps)
        oracle = closed_recurrence(d, steps)
        assert len(seq.values) == steps + 1
        np.testing.assert_allclose(seq.values[1:], oracle[1:], rtol=1e-11, atol=0.0)

    def test_stepwise_extension_is_bitwise_identical(self):
        d = Pareto(2.0)
        stepwise = PolicySequence(d)
        for m in range(1, 301):
            stepwise.value(m)
        batch = extend_policy(PolicySequence(d), 300)
        assert stepwise.values == batch.values

    def test_preset_prefix_continues(self):
        # each step reads only the last value, so a resumed sequence is the fresh one
        for d in (Pareto(2.0), Exponential(1.0), Uniform(0.0, 1.0)):
            fresh = extend_policy(PolicySequence(d), 300)
            resumed = extend_policy(PolicySequence(d, values=fresh.values[:50]), 300)
            assert resumed.values == fresh.values


def old_step_values(d, steps: int, start=(0.0,), target: float = math.inf) -> list[float]:
    """start continued by the step g += d._tail_integral(g), one call per step,
    through index steps or the first value >= target; no memo."""
    values, g = list(start), start[-1]
    while len(values) <= steps and g < target:
        g += d._tail_integral(g)
        values.append(g)
    return values


def hexes(values: list[float]) -> list[str]:
    return [v.hex() for v in values]


def scan_m_star(d, n: int, seq: PolicySequence):
    """The least m >= 1 with G_m >= E max(M_n, 0) by the per-m scan, extending
    seq one value at a time; ("error", best, gap) where the cap stops it."""
    target = expected_max(d, n)
    cap = int(math.ceil(10.0 * n * theoretical_cc(d.evt_index().gamma)))
    m = 1
    while seq.value(m) < target:
        m += 1
        if m > cap:
            return "error", seq.values[-1], target - seq.values[-1]
    return m


def loop_m_star(d, n: int, seq: PolicySequence):
    try:
        return empirical_competition_complexity(d, n, seq=seq).m_star
    except ConvergenceError as exc:
        return "error", exc.best_estimate, exc.estimated_error


#: One model of each kind, and one whose G_m stalls: at b - a = 1e-320 the step
#: (1 - z)^2/2 falls below half a subnormal ulp at m = 79, below E max of 100 draws.
DP_MODELS = [Pareto(2.0), Exponential(1.0), Uniform(-2.0, 0.7), Frechet(0.0, 1.0, 2.5),
             Gumbel(0.0, 1.0), BoundedPower(1.0, 2.0)]
PLATEAU = Uniform(0.0, 1e-320)


class TestDpLoop:
    @pytest.mark.parametrize("d", DP_MODELS, ids=repr)
    def test_steps_bit_identical_to_tail_integral(self, d):
        got = extend_policy(PolicySequence(d), 5000).values
        assert [v.hex() for v in got] == [v.hex() for v in old_step_values(d, 5000)]

    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_same_m_star_as_the_per_m_scan(self, d):
        for n in (1, 2, 10, 100):
            assert loop_m_star(d, n, PolicySequence(d)) == scan_m_star(d, n, PolicySequence(d))

    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_shared_sequence_past_the_target(self, d):
        # a sequence extended past the target and past the cap still gives the least m
        for n in (2, 10, 100):
            shared, reference = PolicySequence(d), PolicySequence(d)
            extend_policy(shared, 3000)
            extend_policy(reference, 3000)
            assert loop_m_star(d, n, shared) == scan_m_star(d, n, reference)
            assert len(shared.values) == 3001

    def test_extension_stops_at_the_target(self):
        full = extend_policy(PolicySequence(Pareto(2.0)), 100).values
        seq = extend_policy(PolicySequence(Pareto(2.0)), 100, target=full[40])
        assert seq.values == full[:41]

    def test_plateau_stops_at_the_cap(self):
        seq = PolicySequence(PLATEAU)
        values = extend_policy(PolicySequence(PLATEAU), 200).values
        assert values[79] == values[200] < expected_max(PLATEAU, 100)
        with pytest.raises(ConvergenceError):
            empirical_competition_complexity(PLATEAU, 100, seq=seq)
        # the cap is ceil(10 n theoretical_cc(-1)) = 2000 steps
        assert len(seq.values) == 2001
        assert empirical_competition_complexity(PLATEAU, 30, seq=seq).m_star == 58


class TestKnownValues:
    """extend_policy copies the values known for the model and steps only past
    them; every G_m stays the memo-free step's, bit for bit."""

    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_cold_then_warm(self, d):
        reference = hexes(old_step_values(d, 400))
        competition._KNOWN.pop(d, None)
        assert hexes(extend_policy(PolicySequence(d), 300).values) == reference[:301]
        assert hexes(competition._KNOWN[d]) == reference[:301]
        # copied through 300 and stepped past it, then copied alone
        assert hexes(extend_policy(PolicySequence(d), 400).values) == reference
        assert hexes(extend_policy(PolicySequence(d), 200).values) == reference[:201]
        assert hexes(competition._KNOWN[d]) == reference

    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_stepwise_values(self, d):
        competition._KNOWN.pop(d, None)
        seq = PolicySequence(d)
        for m in range(1, 301):
            seq.value(m)
        assert hexes(seq.values) == hexes(old_step_values(d, 300))

    @pytest.mark.parametrize("tampered", [None, 10, 49], ids=["resumed", "middle", "last"])
    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_preset_prefix(self, d, tampered):
        # a changed value before the last one stays on the memo's path, as a
        # step reads only the last value; a changed last value leaves it
        extend_policy(PolicySequence(d), 300)
        prefix = old_step_values(d, 49)
        if tampered is not None:
            prefix[tampered] = math.nextafter(prefix[tampered], math.inf)
        got = extend_policy(PolicySequence(d, values=list(prefix)), 300).values
        assert hexes(got) == hexes(old_step_values(d, 300, prefix))
        known = competition._KNOWN[d]
        assert hexes(known) == hexes(old_step_values(d, len(known) - 1))

    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_stop_at_target(self, d):
        reference = old_step_values(d, 300)
        extend_policy(PolicySequence(d), 300)
        for target in (reference[1], reference[40], math.nextafter(reference[40], math.inf),
                       reference[300], math.inf, math.nan):
            got = extend_policy(PolicySequence(d), 300, target=target).values
            assert hexes(got) == hexes(old_step_values(d, 300, target=target))

    @pytest.mark.parametrize("d", DP_MODELS + [PLATEAU], ids=repr)
    def test_negative_zero_start(self, d):
        extend_policy(PolicySequence(d), 300)
        got = extend_policy(PolicySequence(d, values=[-0.0]), 300).values
        assert got[0].hex() == "-0x0.0p+0"
        assert hexes(got) == hexes(old_step_values(d, 300, [-0.0]))

    @pytest.mark.parametrize("plus, minus", [
        (Uniform(0.0, 1.0), Uniform(-0.0, 1.0)), (Uniform(-1.0, 0.0), Uniform(-1.0, -0.0)),
        (Frechet(0.0, 1.0, 2.5), Frechet(-0.0, 1.0, 2.5)),
        (Frechet(0.0, 2.0, 2.5), Frechet(-0.0, 2.0, 2.5)),
        (Gumbel(0.0, 1.0), Gumbel(-0.0, 1.0)), (Gumbel(0.0, 2.0), Gumbel(-0.0, 2.0)),
    ], ids=repr)
    def test_equal_models_share_an_entry(self, plus, minus):
        # equal models share one memo entry: each must step as the other does
        assert plus == minus and hash(plus) == hash(minus)
        for first, second in ((plus, minus), (minus, plus)):
            competition._KNOWN.pop(first, None)
            extend_policy(PolicySequence(first), 300)
            got = extend_policy(PolicySequence(second), 400).values
            assert hexes(got) == hexes(old_step_values(second, 400))
            assert hexes(competition._KNOWN[first]) == hexes(old_step_values(first, 400))

    def test_entry_released_with_the_model(self):
        d = Pareto(2.71875)
        empirical_competition_complexity(d, 50)
        assert Pareto(2.71875) in competition._KNOWN
        del d
        gc.collect()
        assert Pareto(2.71875) not in competition._KNOWN

    def test_concurrent_writers(self):
        # four sequences of one model extended at once, in small steps with a
        # short switch interval, so that the writers to the memo interleave
        d = Exponential(0.8125)
        reference = hexes(old_step_values(d, 2000))
        competition._KNOWN.pop(d, None)
        lengths = (500, 2000, 1000, 1500)
        seqs = [PolicySequence(d) for _ in lengths]
        barrier = threading.Barrier(len(lengths))

        def work(seq, up_to):
            barrier.wait(timeout=30)
            for m in range(0, up_to + 1, 7):
                extend_policy(seq, m)
            extend_policy(seq, up_to)

        threads = [threading.Thread(target=work, args=pair) for pair in zip(seqs, lengths)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for seq, up_to in zip(seqs, lengths):
            assert hexes(seq.values) == reference[:up_to + 1]
        assert hexes(competition._KNOWN[d]) == reference

    @pytest.mark.parametrize("d", DP_MODELS, ids=repr)
    def test_each_value_stepped_once(self, d):
        # without seq, n = 1..200 take max m* steps in all, not the sum of the
        # m*; the one more tail evaluation is expected_max(d, 1) = I(0)
        calls = []

        class Counting(type(d)):
            def _tail(self, t, *args):
                calls.append(t)
                return super()._tail(t, *args)

        counting = Counting(**{f.name: getattr(d, f.name) for f in fields(d)})
        m_stars = [empirical_competition_complexity(counting, n).m_star for n in range(1, 201)]
        assert len(calls) <= max(m_stars) + 1 < sum(m_stars)


@pytest.mark.parametrize("call", [
    expected_max, empirical_competition_complexity,
    lambda d, n: extend_policy(PolicySequence(d), n), lambda d, n: PolicySequence(d).value(n),
], ids=["expected_max", "empirical_competition_complexity", "extend_policy", "value"])
@pytest.mark.parametrize("d", DP_MODELS, ids=repr)
def test_sizes_are_integers(d, call):
    # operator.index: numpy integers pass, floats (whole, NaN, inf) and the rest do not
    assert call(d, np.int64(3)) == call(d, 3)
    for n in (10.5, 2.0, math.nan, math.inf, "3", None):
        with pytest.raises(DomainError, match="integer"):
            call(d, n)


@pytest.mark.parametrize("values", [(0.0,), np.zeros(1)], ids=["tuple", "array"])
def test_sequence_values_are_a_list(values):
    with pytest.raises(DomainError, match="must be a list"):
        PolicySequence(Pareto(2.0), values=values)


class TestExpectedMax:
    """The values are in tests/test_oracle_table.py; these check the route."""

    @pytest.mark.parametrize("n", [1, 100])
    @pytest.mark.parametrize("d", [Pareto(2.0), Exponential(1.0), Uniform(-2.0, 0.7),
                                   Frechet(0.0, 1.0, 2.5), Gumbel(0.0, 1.0),
                                   BoundedPower(1.0, 2.0)], ids=repr)
    def test_no_quadrature(self, monkeypatch, d, n):
        # a closed form per kind: I(0) at n = 1, the kind's E max(M_n, 0) above
        def no_integrate(*args, **kwargs):
            raise AssertionError("expected_max called integrate")

        monkeypatch.setattr(distributions, "integrate", no_integrate)
        assert expected_max(d, n) > 0.0

    def test_divergence(self):
        with pytest.raises(DivergenceError):
            expected_max(Pareto(1.0), 5)

    def test_overflowing_tail_map_is_typed(self):
        # the quadrature of the same integral leaves the double range; the
        # closed form 3!/((1 - c)(2 - c)(3 - c)), c = 1/alpha, needs no map
        d = Pareto(1.001)
        with pytest.raises(ConvergenceError) as info:
            order_statistic_mean(d, 3, 1)
        assert info.value.estimated_error == math.inf
        assert expected_max(d, 3) == pytest.approx(float(ref.expected_max(d, 3)), rel=1e-14,
                                                   abs=0.0)


class TestTheoreticalCc:
    def test_gumbel_limit(self):
        assert theoretical_cc(0.0) == pytest.approx(math.exp(EULER_MASCHERONI), rel=1e-12)
        assert theoretical_cc(0.0) == pytest.approx(1.78107, abs=5e-6)

    def test_uniform_value(self):
        assert theoretical_cc(-1.0) == pytest.approx(2.0, rel=1e-12)

    def test_pareto2_value(self):
        assert theoretical_cc(0.5) == pytest.approx(math.pi / 2.0, rel=1e-12)

    def test_continuous_at_zero(self):
        for g in (1e-6, -1e-6):
            assert abs(theoretical_cc(g) - math.exp(EULER_MASCHERONI)) <= 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            theoretical_cc(1.0)

    @pytest.mark.parametrize("gamma", [math.nan, -math.inf])
    def test_non_finite_index_rejected(self, gamma):
        with pytest.raises(DomainError, match="requires -inf < gamma < 1"):
            theoretical_cc(gamma)

    @staticmethod
    def mpmath_cc(g: float) -> float:
        """(1 - g)*exp(lgamma(1 - g)/g) to 40 digits beyond the cancellation."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40 + (int(-math.log10(abs(g))) if g else 0)):
            if g == 0.0:
                return float(mp.exp(mp.euler))
            x = mp.mpf(g)
            return float((1 - x) * mp.exp(mp.loggamma(1 - x) / x))

    @pytest.mark.parametrize("g", [*np.linspace(-0.03, 0.03, 19)[1:-1], 0.0299999, -0.0299999,
                                   0.01, 1e-4, 1e-5, 1e-7, 1e-8, -1e-8, 1e-300, -0.0])
    def test_series_near_zero_against_mpmath(self, g):
        # exp(lgamma(1 - g)/g) was 4.0e-12 off at g = 1e-4 and 2.5e-9 at 1e-7
        g = float(g)
        assert theoretical_cc(g) == pytest.approx(self.mpmath_cc(g), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("g", [0.03, -0.03, 0.1, -0.1, 0.5, -1.0])
    def test_closed_form_against_mpmath(self, g):
        assert theoretical_cc(g) == pytest.approx(self.mpmath_cc(g), rel=1e-14, abs=0.0)


class TestEmpiricalCc:
    def test_against_recurrence_oracles(self):
        n = 200
        rec = empirical_competition_complexity(Uniform(0.0, 1.0), n)
        assert rec.m_star == oracle_m_star_uniform(n)
        rec = empirical_competition_complexity(Exponential(1.0), n)
        assert rec.m_star == oracle_m_star_exp(n)
        rec = empirical_competition_complexity(Pareto(2.0), n)
        assert rec.m_star == oracle_m_star_pareto2(n)

    def test_record_invariants(self):
        rec = empirical_competition_complexity(Uniform(0.0, 1.0), 150)
        assert rec.m_star >= rec.n
        assert rec.empirical_ratio >= 1.0
        assert rec.gamma == -1.0
        assert rec.theoretical == pytest.approx(2.0, rel=1e-12)

    def test_ratio_converges_to_theoretical(self):
        # finite-size ratios approach the constant from below
        seq = PolicySequence(Exponential(1.0))
        gaps = []
        for n in (100, 300, 900):
            rec = empirical_competition_complexity(Exponential(1.0), n, seq=seq)
            assert rec.empirical_ratio <= rec.theoretical + 0.01
            gaps.append(rec.theoretical - rec.empirical_ratio)
        assert gaps[0] >= gaps[1] - 0.01 >= gaps[2] - 0.02
        assert gaps[-1] < 0.02

    def test_cached_sequence_reused(self):
        d = Uniform(0.0, 1.0)
        seq = PolicySequence(d)
        rec1 = empirical_competition_complexity(d, 100, seq=seq)
        length_after_first = len(seq.values)
        rec2 = empirical_competition_complexity(d, 100, seq=seq)
        assert rec1 == rec2
        assert len(seq.values) == length_after_first

    def test_mismatched_sequence_rejected(self):
        seq = PolicySequence(Uniform(0.0, 1.0))
        with pytest.raises(DomainError):
            empirical_competition_complexity(Exponential(1.0), 50, seq=seq)

    def test_infinite_mean_rejected(self):
        with pytest.raises(DivergenceError):
            empirical_competition_complexity(Pareto(0.9), 50)

    def test_shifted_uniform_same_constant(self):
        # the complexity constant is affine-invariant
        rec = empirical_competition_complexity(Uniform(2.0, 5.0), 200)
        assert rec.theoretical == pytest.approx(2.0, rel=1e-12)
        assert abs(rec.empirical_ratio - 2.0) / 2.0 <= 0.05

    def test_frechet_family_member(self):
        alpha = 3.0
        rec = empirical_competition_complexity(Frechet(0.0, 1.0, alpha), 300)
        expected = (1.0 - 1.0 / alpha) * math.gamma(1.0 - 1.0 / alpha) ** alpha
        assert rec.theoretical == pytest.approx(expected, rel=1e-12)
        assert abs(rec.empirical_ratio - expected) / expected <= 0.05

    # m_star(20) from a 40-digit DP with the mpmath tail integral, against the
    # closed-form targets Gamma(1 - 1/a) 20^(1/a) and 20 B(20, 1 - 1/a)
    @pytest.mark.parametrize("d, m_star", [(Frechet(0.0, 1.0, 1e3), 35), (Pareto(1e3), 34)],
                             ids=repr)
    def test_narrow_shapes(self, d, m_star):
        assert empirical_competition_complexity(d, 20).m_star == m_star

    # the same at alpha = 1e4, where the mass is about 1e-4 wide; the target of
    # BoundedPower(1, 1e4) is 1 - 20! Gamma(1 + 1/a)/Gamma(21 + 1/a)
    @pytest.mark.parametrize("d, m_star", [(Frechet(0.0, 1.0, 1e4), 35), (Pareto(1e4), 34),
                                           (BoundedPower(1.0, 1e4), 34)], ids=repr)
    def test_narrower_shapes(self, d, m_star):
        assert empirical_competition_complexity(d, 20).m_star == m_star


class TestSingleBuyerTie:
    """G_1 = E max(X, 0) by definition: one closed form gives both sides, so
    the least m with G_m >= E max(X, 0) is 1 for every model."""

    MODELS = [Pareto(1.656), Pareto(2.0), Pareto(3.0), Frechet(0.0, 1.0, 2.5),
              Exponential(1.0), Gumbel(0.0, 1.0), Uniform(0.0, 1.0), Uniform(-1.0, 1.0),
              BoundedPower(1.0, 2.0)]

    @pytest.mark.parametrize("d", MODELS, ids=repr)
    def test_m_star_is_one(self, d):
        assert empirical_competition_complexity(d, 1).m_star == 1

    @pytest.mark.parametrize("d", MODELS, ids=repr)
    def test_expected_max_is_g1_bit_for_bit(self, d):
        e1 = expected_max(d, 1)
        assert e1 == PolicySequence(d).value(1)
        if d.support.lo >= 0:
            assert e1 == d.mean()


class TestFamilyBounds:
    def test_frechet(self):
        lo, hi = cc_family_bounds(EvtFamily.FRECHET)
        assert lo == 1.0
        assert hi == pytest.approx(math.exp(EULER_MASCHERONI), rel=1e-12)

    def test_gumbel_point(self):
        lo, hi = cc_family_bounds(EvtFamily.GUMBEL)
        assert lo == hi == pytest.approx(math.exp(EULER_MASCHERONI), rel=1e-12)

    def test_reversed_weibull(self):
        lo, hi = cc_family_bounds(EvtFamily.REVERSED_WEIBULL)
        assert lo == pytest.approx(math.exp(EULER_MASCHERONI), rel=1e-12)
        assert hi == pytest.approx(math.e, rel=1e-12)

    def test_theoretical_values_inside_family_ranges(self):
        for gamma in (0.2, 0.5, 0.9):
            lo, hi = cc_family_bounds(EvtFamily.FRECHET)
            assert lo - 1e-12 <= theoretical_cc(gamma) <= hi + 1e-12
        for gamma in (-0.2, -1.0, -5.0):
            lo, hi = cc_family_bounds(EvtFamily.REVERSED_WEIBULL)
            assert lo - 1e-12 <= theoretical_cc(gamma) <= hi + 1e-12


class TestQuantileApproximations:
    def test_uniform_plug_in(self):
        assert quantile_policy_approx(Uniform(0.0, 1.0), 99) == pytest.approx(
            0.98, rel=1e-12, abs=0.0)

    def test_exponential_plug_in(self):
        assert quantile_policy_approx(Exponential(1.0), 99) == pytest.approx(
            math.log(100.0), rel=1e-12)

    def test_pareto_gap_to_dp(self):
        d = Pareto(2.0)
        n = 2000
        seq = extend_policy(PolicySequence(d), n)
        g_n = seq.values[n]
        approx = quantile_policy_approx(d, n)
        assert abs(approx - g_n) / g_n <= 0.02

    def test_kennedy_kertz_limit(self):
        # DP-to-prophet ratio approaches the dynamic-policy guarantee
        n = 5000
        for alpha in (2.0, 3.0):
            d = Pareto(alpha)
            seq = extend_policy(PolicySequence(d), n)
            ratio = seq.values[n] / expected_max(d, n)
            assert abs(ratio - kennedy_kertz_nu(alpha)) <= 0.01


@pytest.mark.parametrize("approx", [quantile_policy_approx, expected_max_approx])
@pytest.mark.parametrize("n", [0, -1])
def test_approximations_need_one_draw(approx, n):
    with pytest.raises(DomainError, match="requires n >= 1"):
        approx(Pareto(2.0), n)


class TestExpectedMaxApprox:
    def test_pareto_within_one_percent(self):
        d = Pareto(2.0)
        n = 10 ** 4
        approx = expected_max_approx(d, n)
        assert approx == pytest.approx(math.gamma(0.5) * 100.0, rel=1e-12)
        assert abs(approx - expected_max(d, n)) / expected_max(d, n) <= 0.01

    def test_exponential_against_harmonic(self):
        n = 10 ** 4
        approx = expected_max_approx(Exponential(1.0), n)
        assert approx == pytest.approx(math.log(n) + EULER_MASCHERONI, rel=1e-12)
        h_n = float(ref.harmonic(n))
        assert abs(approx - h_n) / h_n <= 1e-3

    def test_uniform_reduces_to_quantile_at_gamma_minus_one(self):
        # Gamma(2) = 1 collapses the correction: approx = F^{-1}(1 - 1/n),
        # within O(n^-2) of the exact n/(n+1)
        n = 1000
        approx = expected_max_approx(Uniform(0.0, 1.0), n)
        assert approx == pytest.approx(1.0 - 1.0 / n, rel=1e-12, abs=0.0)
        exact = float(ref.expected_max(Uniform(0.0, 1.0), n))
        assert abs(approx - exact) / exact <= 1e-5

    @pytest.mark.parametrize("m", [100.0, -1.0])
    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_frechet_location_and_scale_carry_through(self, m, s):
        # E max = m + s E Z_max, and the approximation reduces to Z the same
        # way: the gap to expected_max is the m = 0, s = 1 gap times s, up to
        # the 1e-12 relative quadrature tolerance of both expected_max values
        n, alpha = 100, 2.0
        gap0 = expected_max_approx(Frechet(0.0, 1.0, alpha), n) - expected_max(
            Frechet(0.0, 1.0, alpha), n)
        d = Frechet(m, s, alpha)
        exact = expected_max(d, n)
        assert expected_max_approx(d, n) - exact == pytest.approx(
            s * gap0, rel=0.0, abs=2e-12 * exact)

    def test_prophet_ratio_drift(self):
        # E_{n-1}/E_n = 1 - gamma/n + o(1/n) for the heavy-tail family
        d = Pareto(2.0)
        n = 4000
        e_n = expected_max(d, n)
        e_prev = expected_max(d, n - 1)
        assert abs(n * (1.0 - e_prev / e_n) - 0.5) <= 0.05
