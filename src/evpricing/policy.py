"""Exact and Monte Carlo evaluation of fixed-price policies for k units.

The exact route rests on the product identity for the policy payoff: selling
to the first min(k, #exceedances) buyers above a threshold T earns, in
expectation, E(X | X > T) times the summed tail probabilities of the top-k
order statistics.  Its two factors live in :mod:`evpricing.distributions`,
each one grid pass over the thresholds, so this module takes no quadrature.
The thresholds and values are lists of floats; only the Monte Carlo harness
imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal, Sequence

from .distributions import (
    DistributionModel,
    EvtFamily,
    _binomial_tails,
    _conditional_means,
    _order_statistics_mean,
)
from .errors import DomainError
from .kernel import maximize_1d

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

#: Threshold search never goes beyond this quantile level: the policy value
#: is numerically zero past it.
_T_SEARCH_TAIL = 1e-12

#: Threshold search width in standard units, relative to max(1, 1e-3 * upper end).
_T_SEARCH_TOL = 1e-9

#: Replications are drawn in fixed blocks of this size; each block is an
#: independent substream keyed by (block index, seed).
_MC_BLOCK = 256

#: Seed used when a caller does not provide one; fixed for reproducibility.
DEFAULT_SEED = 20250214


@dataclass(frozen=True)
class PolicyEvaluation:
    """One exact evaluation of a fixed-price policy against the prophet.

    The ratio fp_value / prophet_value is derived here, the one place it is
    computed.  The policy can never beat the offline benchmark; the
    constructor allows a small slack for quadrature noise on near-tie
    evaluations.
    """

    n: int
    k: int
    threshold: float
    fp_value: float
    prophet_value: float
    ratio: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.prophet_value < math.inf):
            raise DomainError(f"prophet value {self.prophet_value} is not positive and "
                              "finite; the welfare ratio is undefined")
        object.__setattr__(self, "ratio", self.fp_value / self.prophet_value)
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not -1e-12 <= self.ratio <= 1.0 + 1e-6:
            raise DomainError(f"ratio {self.ratio} outside [0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    replications: int
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")


def _check_n_k(n: int, k: int, T: float = 0.0) -> None:
    """Reject n or k below 1, k above n, and a NaN threshold T (+-inf are legal)."""
    if k < 1 or n < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"k={k} exceeds the number of buyers n={n}")
    if math.isnan(T):
        raise DomainError("threshold T is NaN")


def _fixed_price_values(d: DistributionModel, n: int, k: int, Ts: list[float]) -> list[float]:
    """Expected welfare E(X | X > T) * E min(k, Bin(n, sf(T))) of the
    threshold-T policy at each T of the sorted list Ts: one grid pass of each
    factor.  On one point this is conditional_mean_above(d, T) *
    _binomial_tails(n, 1, k, [sf(T)]) bit for bit."""
    tails = _binomial_tails(n, 1, k, [d.sf(T) for T in Ts])
    return [c * b for c, b in zip(_conditional_means(d, Ts), tails)]


def fixed_price_value_exact(d: DistributionModel, n: int, k: int, T: float) -> float:
    """Expected welfare of the threshold-T policy with n buyers and k units."""
    _check_n_k(n, k, T)
    return _fixed_price_values(d, n, k, [T])[0]


def prophet_value(d: DistributionModel, n: int, k: int) -> float:
    """Offline benchmark E(top-k sum), one integral over t >= 0 of E min(k, Bin(n, sf(t)))."""
    _check_n_k(n, k)
    return _order_statistics_mean(d, n, 1, k)


def best_fixed_price(d: DistributionModel, n: int, k: int) -> PolicyEvaluation:
    """Optimize the threshold over (max(omega_0, 0), F^{-1}(1 - 1e-12)): one
    grid pass of the policy value over the scan of ``maximize_1d``, then
    golden-section steps on single thresholds.  It runs on the x of
    T = loc + scale*x (``_standard``), on the value over scale: the tolerance,
    a width in x, and the spread the scan compares with it are unit-free."""
    _check_n_k(n, k)
    prophet = prophet_value(d, n, k)
    loc, scale, z = d._reduced
    lo = (max(d.support.lo, 0.0) - loc) / scale
    hi = float(z.quantile(1.0 - _T_SEARCH_TAIL))
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
    _check_n_k(n, k, T)
    if cfg.replications < 100:
        raise DomainError("monte_carlo_evaluate requires >= 100 replications")
    reps = cfg.replications
    parts = [_simulate_block(d, n, k, T, cfg.seed, b, min(_MC_BLOCK, reps - b * _MC_BLOCK))
             for b in range((reps + _MC_BLOCK - 1) // _MC_BLOCK)]
    import numpy as np
    payoffs = np.concatenate(parts)
    mean = float(payoffs.mean())
    stderr = float(payoffs.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return mean, stderr


def convergence_table(d: DistributionModel, k: int, n_grid: Sequence[int],
                      mode: Literal["best", "theory"] = "best",
                      u: float | None = None) -> list[PolicyEvaluation]:
    """Finite-n trace of the welfare ratio along an increasing market-size grid."""
    if not n_grid:
        raise DomainError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise DomainError("n_grid must be strictly increasing")
    if k > min(n_grid):
        raise DomainError(f"k={k} exceeds the smallest n in the grid")
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

