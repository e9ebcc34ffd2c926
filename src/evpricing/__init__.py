"""Fixed-price welfare guarantees, dynamic-pricing competition complexity,
and extreme-value fitting for large i.i.d. markets."""

from .competition import (
    CompetitionRecord,
    PolicySequence,
    cc_family_bounds,
    empirical_competition_complexity,
    expected_max_approx,
    extend_policy,
    quantile_policy_approx,
    theoretical_cc,
)
from .distributions import (
    BoundedPower,
    DistributionModel,
    EvtFamily,
    EvtIndex,
    Exponential,
    Frechet,
    Gumbel,
    NormalizingSequences,
    Pareto,
    Support,
    Uniform,
    conditional_mean_above,
    expected_max,
    order_statistic_mean,
    order_statistic_tail,
    parse_distribution,
    virtual_tail_ratio,
    virtual_valuation,
)
from .errors import (
    BracketError,
    ConvergenceError,
    DivergenceError,
    DomainError,
    EvPricingError,
    FlatObjectiveError,
    IngestError,
    SpecStringError,
)
from .evtfit import (
    BidRecord,
    FitResult,
    GuaranteeReport,
    fit_pipeline,
    fit_scale,
    guarantee_report,
    hill_estimate,
    hill_stability_scan,
    histogram_export,
    ingest_bids,
    per_bidder_max,
)
from .guarantees import (
    GuaranteeResult,
    Method,
    adaptivity_gap,
    guarantee_value,
    kennedy_kertz_nu,
    minimize_phi_1,
    phi_1_closed,
    phi_k,
    phi_k_alpha2_closed,
    sqrt_bound,
    u_star,
    x_k_root,
)
from .kernel import (
    Interval,
    find_root,
    integrate,
    lambert_w_minus1,
    ln_gamma,
    maximize_1d,
    poisson_cdf,
)
from .policy import (
    PolicyEvaluation,
    SimulationConfig,
    best_fixed_price,
    convergence_table,
    fixed_price_value_exact,
    monte_carlo_evaluate,
    prophet_value,
    theory_threshold,
)

__version__ = "0.1.0"
