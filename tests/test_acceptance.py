"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance below is pinned; nothing is deferred to later
calibration.
"""

import math
import time

import numpy as np
import pytest

from evpricing import (
    Exponential,
    Frechet,
    Pareto,
    PolicySequence,
    SimulationConfig,
    Uniform,
    adaptivity_gap,
    best_fixed_price,
    empirical_competition_complexity,
    expected_max,
    expected_max_approx,
    extend_policy,
    fit_pipeline,
    fit_scale,
    fixed_price_value_exact,
    guarantee_report,
    hill_estimate,
    ingest_bids,
    kennedy_kertz_nu,
    minimize_phi_1,
    monte_carlo_evaluate,
    per_bidder_max,
    phi_k,
    quantile_policy_approx,
    sqrt_bound,
    virtual_tail_ratio,
)

import references as ref
from conftest import ebay_csv_path, philox_uniforms, requires_ebay


def report(num, label, checks, elapsed, budget):
    checks = list(checks) + [(f"runtime {elapsed:.1f}s within {budget:.0f}s",
                              elapsed < budget)]
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"{status} criterion {num}: {label}"
    if failed:
        line += " -- failed: " + "; ".join(failed)
    print(line, flush=True)
    assert not failed, f"criterion {num}: {failed}"


def test_criterion_1_guarantee_minimum():
    t0 = time.perf_counter()
    alpha_star, value = minimize_phi_1()
    elapsed = time.perf_counter() - t0
    report(1, "single-unit guarantee minimum",
           [(f"alpha*={alpha_star:.4f} in [1.64, 1.67]", 1.64 <= alpha_star <= 1.67),
            (f"value={value:.5f} in [0.7115, 0.7135]", 0.7115 <= value <= 0.7135)],
           elapsed, 1.0)


def test_criterion_2_adaptivity_gap():
    t0 = time.perf_counter()
    alpha, gap = adaptivity_gap()
    elapsed = time.perf_counter() - t0
    # The maximizer of nu/phi_1 is alpha = 2.5603110 (gap 1.1129685): an mpmath
    # maximization at 30 digits of nu = (1-1/a)^(-1/a) / Gamma(1-1/a) over
    # phi_1 = max_x x (1 - exp(-x^-a)) / Gamma(2-1/a), see test_guarantees.py.
    # The band keeps the old width; the old [1.48, 1.51] lies near where nu
    # alone is least (alpha = 1.4628), and nu/phi_1 is only 1.083-1.086 there.
    report(2, "adaptivity gap",
           [(f"alpha={alpha:.4f} in [2.545, 2.575]", 2.545 <= alpha <= 2.575),
            (f"gap={gap:.4f} in [1.095, 1.115]", 1.095 <= gap <= 1.115)],
           elapsed, 1.0)


def test_criterion_3_guarantee_curve():
    t0 = time.perf_counter()
    floor_ok = all(phi_k(2.0, k).value >= sqrt_bound(k) for k in range(1, 51))
    k_big = 10 ** 4
    deficit = (1.0 - phi_k(2.0, k_big).value) * math.sqrt(2.0 * math.pi * k_big)
    elapsed = time.perf_counter() - t0
    report(3, "guarantee curve dominates the k-unit floor",
           [("phi_k(2) >= floor for k in 1..50", floor_ok),
            (f"deficit normalization {deficit:.4f} in [0.85, 1.15]",
             0.85 <= deficit <= 1.15)],
           elapsed, 30.0)


def test_criterion_4_welfare_convergence():
    t0 = time.perf_counter()
    heavy = best_fixed_price(Pareto(1.656), 10 ** 5, 1)
    light_small = best_fixed_price(Exponential(1.0), 10 ** 4, 1)
    light = best_fixed_price(Exponential(1.0), 10 ** 5, 1)
    elapsed = time.perf_counter() - t0
    # The best single price for Exponential(1) at n = 1e5 has ratio
    # max_T (T+1)(1 - (1-e^-T)^n) / H_n = 0.9038779065: the stationary point
    # found in mpmath at 30 digits, see test_policy.py.  1 - ratio shrinks
    # only like 1/log n, so the old floor 0.97 is out of reach; the band
    # also excludes the n = 1e4 ratio 0.8876.
    report(4, "best-threshold ratios at n=100000",
           [(f"heavy-tail ratio {heavy.ratio:.4f} in [0.70, 0.73]",
             0.70 <= heavy.ratio <= 0.73),
            (f"light-tail ratio {light.ratio:.4f} in [0.90, 0.91]",
             0.90 <= light.ratio <= 0.91),
            (f"light-tail trend {light_small.ratio:.4f} -> {light.ratio:.4f} rising",
             light.ratio > light_small.ratio)],
           elapsed, 120.0)


def test_criterion_5_exact_value_oracles():
    t0 = time.perf_counter()
    models = [Pareto(2.0), Exponential(1.0), Uniform(0.0, 1.0)]
    cfg = SimulationConfig(replications=10 ** 5, seed=5151)

    worst_gap = 0.0
    worst_z = 0.0
    for d in models:
        for n in (4, 7, 10):
            for q, k in ((0.3, 1), (0.6, 2), (0.9, 3)):
                T = float(d.quantile(q))
                exact = fixed_price_value_exact(d, n, k, T)
                enum = float(ref.fixed_price_value(d, n, k, T))
                worst_gap = max(worst_gap, abs(exact - enum))
                mean, stderr = monte_carlo_evaluate(d, n, k, T, cfg)
                worst_z = max(worst_z, abs(mean - exact) / stderr)
    elapsed = time.perf_counter() - t0
    report(5, "product identity vs enumeration and simulation (27 cases)",
           [(f"worst |exact - enumeration| = {worst_gap:.2e} <= 1e-8",
             worst_gap <= 1e-8),
            (f"worst |z| = {worst_z:.2f} <= 4", worst_z <= 4.0)],
           elapsed, 60.0)


def test_criterion_6_competition_complexity():
    t0 = time.perf_counter()
    targets = [
        (Uniform(0.0, 1.0), 2.0, "uniform"),
        (Exponential(1.0), math.exp(np.euler_gamma), "exponential"),
        (Pareto(2.0), math.pi / 2.0, "pareto"),
    ]
    checks = []
    for d, target, name in targets:
        rec = empirical_competition_complexity(d, 500)
        rel = abs(rec.empirical_ratio - target) / target
        checks.append((f"{name} m*/n={rec.empirical_ratio:.4f} within 5% of "
                       f"{target:.4f}", rel <= 0.05))
    elapsed = time.perf_counter() - t0
    report(6, "competition complexity at n=500", checks, elapsed, 120.0)


def test_criterion_7_dynamic_program_oracles():
    t0 = time.perf_counter()
    seq = extend_policy(PolicySequence(Uniform(0.0, 1.0)), 200)
    g, recurrence_ok = 0.0, True
    for m in range(1, 201):
        g = (1.0 + g * g) / 2.0
        if abs(seq.values[m] - g) > 1e-10:
            recurrence_ok = False
            break
    d = Pareto(2.0)
    n = 5000
    ratio = extend_policy(PolicySequence(d), n).values[n] / expected_max(d, n)
    nu2 = kennedy_kertz_nu(2.0)
    elapsed = time.perf_counter() - t0
    report(7, "dynamic-programming value oracles",
           [("uniform closed recurrence matches to 1e-10 through n=200",
             recurrence_ok),
            (f"DP/prophet ratio {ratio:.4f} within 0.01 of {nu2:.4f}",
             abs(ratio - nu2) <= 0.01),
            (f"nu(2) equals sqrt(2/pi)",
             nu2 == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12, abs=0.0))],
           elapsed, 60.0)


def test_criterion_8_quantile_approximations():
    t0 = time.perf_counter()
    n = 2000
    checks = []
    for d, name in ((Pareto(2.0), "pareto"), (Exponential(1.0), "exponential"),
                    (Uniform(0.0, 1.0), "uniform")):
        g_n = extend_policy(PolicySequence(d), n).values[n]
        q_gap = abs(quantile_policy_approx(d, n) - g_n) / g_n
        e_n = expected_max(d, n)
        e_gap = abs(expected_max_approx(d, n) - e_n) / e_n
        checks.append((f"{name} policy-quantile gap {q_gap:.4%} <= 2%", q_gap <= 0.02))
        checks.append((f"{name} max-approx gap {e_gap:.4%} <= 1%", e_gap <= 0.01))
    elapsed = time.perf_counter() - t0
    report(8, "closed approximations at n=2000", checks, elapsed, 60.0)


def test_criterion_9_virtual_value_tail_ratios():
    t0 = time.perf_counter()
    checks = []
    for alpha in (1.5, 2.0, 3.0):
        d = Pareto(alpha)
        target = (1.0 - 1.0 / alpha) ** alpha
        worst = max(abs(virtual_tail_ratio(d, t) - target)
                    for t in (1.5, 3.0, 10.0, 50.0))
        checks.append((f"pareto({alpha}) ratio within 1e-9 of {target:.6f}",
                       worst <= 1e-9))
    worst_exp = max(abs(virtual_tail_ratio(Exponential(1.0), t) - math.exp(-1.0))
                    for t in (0.0, 1.0, 5.0))
    checks.append(("exponential ratio equals 1/e", worst_exp <= 1e-9))
    elapsed = time.perf_counter() - t0
    report(9, "virtual-value tail ratios", checks, elapsed, 5.0)


def test_criterion_10_fitting_pipeline_synthetic():
    t0 = time.perf_counter()
    truth_s, truth_alpha = 300.0, 2.24
    u = philox_uniforms(20240817, 10 ** 4)
    values = sorted(float(x) for x in
                    np.asarray(Frechet(0.0, truth_s, truth_alpha).quantile(u)))
    alpha_hat = hill_estimate(values, 500)
    s_hat, _ = fit_scale(values, alpha_hat)
    elapsed = time.perf_counter() - t0
    report(10, "seeded synthetic fit recovery",
           [(f"alpha_hat={alpha_hat:.4f} within 15% of {truth_alpha}",
             abs(alpha_hat - truth_alpha) / truth_alpha <= 0.15),
            (f"s_hat={s_hat:.2f} within 10% of {truth_s}",
             abs(s_hat - truth_s) / truth_s <= 0.10)],
           elapsed, 30.0)


@requires_ebay
def test_criterion_10_case_study_dataset():
    t0 = time.perf_counter()
    records = ingest_bids(ebay_csv_path())
    values = per_bidder_max(records)
    fit = fit_pipeline(values, k_hill=97)
    rep = guarantee_report(fit, 509, realized_max=max(values))
    elapsed = time.perf_counter() - t0
    report("10 (dataset)", "case-study pipeline",
           [(f"{len(values)} valuations == 509", len(values) == 509),
            (f"alpha_hat={fit.alpha_hat:.3f} == 2.24 +- 0.005",
             abs(fit.alpha_hat - 2.24) <= 0.005),
            (f"s_hat={fit.s_hat:.1f} within 1 of 289", abs(fit.s_hat - 289.0) <= 1.0),
            (f"U={rep.u:.4f} in [0.845, 0.853]", 0.845 <= rep.u <= 0.853),
            (f"T={rep.threshold:.1f} in [3950, 3975]",
             3950.0 <= rep.threshold <= 3975.0),
            (f"realized ratio {rep.realized_ratio:.4f} in [0.73, 0.735]",
             0.73 <= rep.realized_ratio <= 0.735)],
           elapsed, 30.0)
