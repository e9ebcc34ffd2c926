"""Exact and Monte Carlo evaluation of fixed-price policies for k units.

The exact route rests on the product identity for the policy payoff: selling
to the first min(k, #exceedances) buyers above a threshold T earns, in
expectation, E(X | X > T) times the summed tail probabilities of the top-k
order statistics.  Its two factors live in :mod:`evpricing.distributions`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .distributions import (
    DistributionModel,
    EvtFamily,
    conditional_mean_above,
    order_statistic_mean,
    order_statistic_tail,
)
from .errors import DomainError
from .kernel import Interval, maximize_1d

__all__ = [
    "PolicyEvaluation",
    "SimulationConfig",
    "fixed_price_value_exact",
    "prophet_value",
    "best_fixed_price",
    "theory_threshold",
    "monte_carlo_evaluate",
    "convergence_table",
    "evaluations_to_csv",
]

#: Threshold search never goes beyond this quantile level: the policy value
#: is numerically zero past it.
_T_SEARCH_TAIL = 1e-12

#: Replications are drawn in fixed blocks of this size; each block is an
#: independent substream keyed by (block index, seed).
_MC_BLOCK = 256

#: Seed used when a caller does not provide one; fixed for reproducibility.
DEFAULT_SEED = 20250214


@dataclass(frozen=True)
class PolicyEvaluation:
    """One exact evaluation of a fixed-price policy against the prophet.

    The policy can never beat the offline benchmark; the constructor allows
    a small slack for quadrature noise on near-tie evaluations.
    """

    n: int
    k: int
    threshold: float
    fp_value: float
    prophet_value: float
    ratio: float

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise DomainError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not -1e-12 <= self.ratio <= 1.0 + 1e-6:
            raise DomainError(f"ratio {self.ratio} outside [0, 1]")
        if self.fp_value > self.prophet_value * (1.0 + 1e-6) + 1e-9:
            raise DomainError("policy value exceeds the prophet benchmark")


@dataclass(frozen=True)
class SimulationConfig:
    replications: int
    seed: int = DEFAULT_SEED
    parallel_chunks: int = 1

    def __post_init__(self):
        if self.replications < 1:
            raise DomainError("replications must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must fit in an unsigned 64-bit integer")
        if self.parallel_chunks < 1:
            raise DomainError("parallel_chunks must be >= 1")


def _check_n_k(n: int, k: int) -> None:
    if k < 1 or n < 1:
        raise DomainError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if k > n:
        raise DomainError(f"k={k} exceeds the number of buyers n={n}")


def fixed_price_value_exact(d: DistributionModel, n: int, k: int, T: float) -> float:
    """Expected welfare of the threshold-T policy with n buyers and k units."""
    _check_n_k(n, k)
    if float(d.sf(T)) <= 0.0:
        raise DomainError(f"threshold T={T} has F(T) = 1; nothing is ever sold")
    tails = sum(order_statistic_tail(d, n, j, T) for j in range(1, k + 1))
    return conditional_mean_above(d, T) * tails


def prophet_value(d: DistributionModel, n: int, k: int) -> float:
    """Offline benchmark: expected sum of the top-k order statistics."""
    _check_n_k(n, k)
    return sum(order_statistic_mean(d, n, j) for j in range(1, k + 1))


def best_fixed_price(d: DistributionModel, n: int, k: int,
                     tol: float = 1e-9) -> PolicyEvaluation:
    """Optimize the threshold over (omega_0, F^{-1}(1 - 1e-12))."""
    _check_n_k(n, k)
    prophet = prophet_value(d, n, k)
    lo = max(d.support.lo, 0.0)
    hi = float(d.quantile(1.0 - _T_SEARCH_TAIL))
    t_star, fp = maximize_1d(lambda T: fixed_price_value_exact(d, n, k, T),
                             Interval(lo, hi), tol=tol * max(1.0, hi * 1e-3))
    return PolicyEvaluation(n, k, t_star, fp, prophet, fp / prophet)


def theory_threshold(d: DistributionModel, n: float, U: float) -> float:
    """Threshold sequence backed by the extreme-value limit, per family.

    Frechet-type: a_n * U.  Gumbel-type: a_n * U + b_n.  Bounded support:
    (1 - U) * omega_1, with U playing the epsilon role.
    """
    if n < 1:
        raise DomainError(f"theory_threshold requires n >= 1, got {n}")
    family = d.evt_index().family
    if family is EvtFamily.REVERSED_WEIBULL:
        return (1.0 - U) * d.support.hi
    seqs = d.normalizing_sequences()
    # Frechet-type sequences carry b_n = 0, so one form covers both families.
    return seqs.a_of_n(n) * U + seqs.b_of_n(n)


def _simulate_block(d: DistributionModel, n: int, k: int, T: float,
                    seed: int, block: int, rows: int) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(
        key=np.array([block, seed], dtype=np.uint64)))
    u = gen.random((rows, n))
    draws = np.asarray(d.quantile(u), dtype=float)
    mask = draws > T
    sold = mask & (np.cumsum(mask, axis=1) <= k)
    return np.where(sold, draws, 0.0).sum(axis=1)


def monte_carlo_evaluate(d: DistributionModel, n: int, k: int, T: float,
                         cfg: SimulationConfig) -> tuple[float, float]:
    """Simulate the policy payoff; returns (sample mean, standard error).

    Each replication draws n i.i.d. values through the quantile transform and
    pays the first min(k, count) values above T in arrival order.  Substreams
    derive from (seed, replication index), so a given (seed, replications)
    pair is bitwise reproducible.  ``cfg.parallel_chunks`` is validated but
    does not change the work: blocks run in order on the calling thread,
    which measured faster than a thread pool of two.
    """
    _check_n_k(n, k)
    if cfg.replications < 100:
        raise DomainError("monte_carlo_evaluate requires >= 100 replications")
    reps = cfg.replications
    parts = [_simulate_block(d, n, k, T, cfg.seed, b, min(_MC_BLOCK, reps - b * _MC_BLOCK))
             for b in range((reps + _MC_BLOCK - 1) // _MC_BLOCK)]
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
            fp = fixed_price_value_exact(d, n, k, T)
            prophet = prophet_value(d, n, k)
            rows.append(PolicyEvaluation(n, k, T, fp, prophet, fp / prophet))
    return rows


def evaluations_to_csv(rows: Iterable[PolicyEvaluation]) -> str:
    """Render evaluations as CSV with a fixed header and 12 significant digits."""
    out = io.StringIO()
    out.write("n,k,threshold,fp_value,prophet_value,ratio\n")
    for r in rows:
        out.write(f"{r.n},{r.k},{r.threshold:.12g},{r.fp_value:.12g},"
                  f"{r.prophet_value:.12g},{r.ratio:.12g}\n")
    return out.getvalue()
