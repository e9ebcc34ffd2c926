"""Exact and Monte Carlo evaluation of fixed-price policies for k units.

The exact route rests on the product identity for the policy payoff: selling
to the first min(k, #exceedances) buyers above a threshold T earns, in
expectation, E(X | X > T) times the summed tail probabilities of the top-k
order statistics.  Its two factors live in :mod:`evpricing.distributions`,
each one grid pass over the thresholds, so this module takes no quadrature.
The thresholds and values are lists of floats, and the threshold search window
ends at the scalar inverse survival function ``_isf``, so only the Monte Carlo
harness imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Sequence

from .distributions import (
    DistributionModel,
    EvtFamily,
    _binomial_tails,
    _check_n_k,
    _conditional_means,
    _order_statistics_mean,
)
from .errors import DomainError
from .kernel import _index, maximize_1d

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PolicyEvaluation",
    "SimulationConfig",
    "fixed_price_value_exact",
    "prophet_value",
    "best_fixed_price",
    "theory_threshold",
    "monte_carlo_evaluate",
    "convergence_table",
]

#: Threshold search never goes beyond the quantile at 1 - 1e-12: the policy
#: value is numerically zero past it.  This is that quantile's survival level
#: as rounded, 1 - (1 - 1e-12), not 1e-12: the window end fixes the scan grid,
#: and with it the argmaxes that converge prints.
_T_SEARCH_TAIL = 1.0 - (1.0 - 1e-12)

#: Threshold search width in standard units, relative to max(1, 1e-3 * upper end).
_T_SEARCH_TOL = 1e-9

#: Replications are drawn in fixed blocks of this size; each block is an
#: independent substream keyed by (block index, seed).
_MC_BLOCK = 256

#: Seed used when a caller does not provide one; fixed for reproducibility.
DEFAULT_SEED = 20250214


def _defined_prophet(prophet: float) -> float:
    """prophet, else DomainError: the welfare ratio needs it positive and finite."""
    if not (0.0 < prophet < math.inf):
        raise DomainError(f"prophet value {prophet} is not positive and "
                          "finite; the welfare ratio is undefined")
    return prophet


@dataclass(frozen=True)
class PolicyEvaluation:
    """One exact evaluation of a fixed-price policy against the prophet.

    The ratio fp_value / prophet_value is derived here, the one place it is
    computed.  The policy can never beat the offline benchmark; the
    constructor allows a small slack for quadrature noise on near-tie
    evaluations.  n and k are kept as the ints of ``_check_n_k``.
    """

    n: int
    k: int
    threshold: float
    fp_value: float
    prophet_value: float
    ratio: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "ratio", self.fp_value / _defined_prophet(self.prophet_value))
        for name, value in zip(("n", "k"), _check_n_k(self.n, self.k)):
            object.__setattr__(self, name, value)
        if not -1e-12 <= self.ratio <= 1.0 + 1e-6:
            raise DomainError(f"ratio {self.ratio} outside [0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    """At least 100 replications, the floor of ``monte_carlo_evaluate``, and a
    64-bit seed; both are integers."""

    replications: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        object.__setattr__(self, "replications", _index(
            self.replications, "SimulationConfig requires replications >= 100, an integer", 100))
        object.__setattr__(self, "seed", _index(
            self.seed, "SimulationConfig requires an integer 0 <= seed < 2**64", 0, 2 ** 64 - 1))


def _fixed_price_values(d: DistributionModel, n: int, k: int, Ts: list[float]) -> list[float]:
    """Expected welfare E(X | X > T) * E min(k, Bin(n, sf(T))) of the
    threshold-T policy at each T of the sorted list Ts: one grid pass of each
    factor.  On one point this is conditional_mean_above(d, T) *
    _binomial_tails(n, 1, k, [sf(T)]) bit for bit."""
    tails = _binomial_tails(n, 1, k, [d.sf(T) for T in Ts])
    return [c * b for c, b in zip(_conditional_means(d, Ts), tails)]


def fixed_price_value_exact(d: DistributionModel, n: int, k: int, T: float) -> float:
    """Expected welfare of the threshold-T policy with n buyers and k units."""
    n, k = _check_n_k(n, k, T)
    return _fixed_price_values(d, n, k, [T])[0]


def prophet_value(d: DistributionModel, n: int, k: int) -> float:
    """Offline benchmark E sum_{i<=k} max(M_n^i, 0), the top-k sum that does not
    sell below 0: one integral over t >= 0 of E min(k, Bin(n, sf(t)))."""
    n, k = _check_n_k(n, k)
    return _order_statistics_mean(d, n, 1, k)


def best_fixed_price(d: DistributionModel, n: int, k: int) -> PolicyEvaluation:
    """Optimize the threshold over (max(omega_0, 0), F^{-1}(1 - 1e-12)): one
    grid pass of the policy value over the scan of ``maximize_1d``, then
    golden-section steps on single thresholds.  It runs on the x of
    T = loc + scale*x (``_standard``), on the value over scale: the tolerance,
    a width in x, and the spread the scan compares with it are unit-free.
    A prophet value of 0 (no mass above 0) raises before the search."""
    n, k = _check_n_k(n, k)
    prophet = _defined_prophet(prophet_value(d, n, k))
    loc, scale, z = d._reduced
    lo = (max(d.support.lo, 0.0) - loc) / scale
    hi = z._isf(_T_SEARCH_TAIL)
    x_star, fp = maximize_1d(
        lambda xs: [v / scale for v in _fixed_price_values(d, n, k, [loc + scale * x for x in xs])],
        lo, hi, tol=_T_SEARCH_TOL * max(1.0, hi * 1e-3))
    return PolicyEvaluation(n, k, loc + scale * x_star, scale * fp, prophet)


def theory_threshold(d: DistributionModel, n: float, U: float) -> float:
    """Threshold sequence backed by the extreme-value limit, per family, on
    the standard member Z of ``_standard``: loc + scale * T_Z.

    Frechet- and Gumbel-type: a_n * U + b_n (b_n = 0 for Frechet-type).
    Bounded support: (1 - U) * omega_1, with U playing the epsilon role.
    """
    if n < 1:
        raise DomainError(f"theory_threshold requires n >= 1, got {n}")
    if math.isnan(U):
        raise DomainError("limit ratio U is NaN")
    loc, scale, z = d._reduced
    if loc != 0.0 or scale != 1.0:
        return loc + scale * theory_threshold(z, n, U)
    if d.evt_index().family is EvtFamily.REVERSED_WEIBULL:
        return (1.0 - U) * d.support.hi
    a_n, b_n = d.normalizing_constants(n)
    return a_n * U + b_n


def _simulate_block(d: DistributionModel, n: int, k: int, T: float,
                    seed: int, block: int, rows: int) -> np.ndarray:
    import numpy as np
    gen = np.random.Generator(np.random.Philox(
        key=np.array([block, seed], dtype=np.uint64)))
    # random() draws lie in [0, 1), where the quantile needs none of the
    # checks of the public quantile
    draws = d._unchecked_quantile(gen.random((rows, n)))
    mask = draws > T
    sold = mask & (np.cumsum(mask, axis=1) <= k)
    return np.where(sold, draws, 0.0).sum(axis=1)


def monte_carlo_evaluate(d: DistributionModel, n: int, k: int, T: float,
                         cfg: SimulationConfig) -> tuple[float, float]:
    """Simulate the policy payoff; returns (sample mean, standard error).

    Each replication draws n i.i.d. values through the quantile transform and
    pays the first min(k, count) values above T in arrival order.  Substreams
    derive from (seed, replication index), so a given (seed, replications)
    pair is bitwise reproducible.  Blocks run in order on the calling thread.
    """
    n, k = _check_n_k(n, k, T)
    reps = cfg.replications
    parts = [_simulate_block(d, n, k, T, cfg.seed, b, min(_MC_BLOCK, reps - b * _MC_BLOCK))
             for b in range((reps + _MC_BLOCK - 1) // _MC_BLOCK)]
    import numpy as np
    payoffs = np.concatenate(parts)
    mean = float(payoffs.mean())
    stderr = float(payoffs.std(ddof=1) / math.sqrt(reps))
    return mean, stderr


def convergence_table(d: DistributionModel, k: int, n_grid: Sequence[int],
                      mode: Literal["best", "theory"] = "best",
                      u: float | None = None) -> list[PolicyEvaluation]:
    """Finite-n trace of the welfare ratio along an increasing market-size grid."""
    if not n_grid:
        raise DomainError("n_grid must be nonempty")
    n_grid = [_check_n_k(n, k)[0] for n in n_grid]
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    if mode == "theory" and u is None:
        raise DomainError("theory mode needs the limit ratio u")
    rows = []
    for n in n_grid:
        if mode == "best":
            rows.append(best_fixed_price(d, n, k))
        else:
            T = theory_threshold(d, n, u)
            rows.append(PolicyEvaluation(n, k, T, fixed_price_value_exact(d, n, k, T),
                                         prophet_value(d, n, k)))
    return rows

