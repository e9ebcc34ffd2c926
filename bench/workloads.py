"""Seeded input plans for the two workloads.

A plan is a list of rounds; a round is a list of operations (plain dicts).
Every round of a workload has the same models, operation kinds, k values
and market sizes up to a few per cent.  The seed only jitters the values
inside that (n) and the order of the
operations, so runs with different seeds do nearly the same work.  A run
executes whole rounds, which keeps the mix, and so every share and
percentile, independent of where the time budget ends.

Round r draws from ``numpy.random.default_rng([seed, r])``, so any prefix of
rounds can be rebuilt and replayed.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("competition-dp", "cli-readme")

#: Rounds built at set-up; a run stops early if it uses them all.
MAX_ROUNDS = 60

#: Rounds run untraced and then traced in a --trace 1 run.
TRACE_ROUNDS = {"competition-dp": 1, "cli-readme": 1}

LIGHT_MODELS = ("pareto:alpha=2", "pareto:alpha=3", "exp:rate=1",
                "gumbel:loc=0,scale=1", "uniform:a=0,b=1", "bpower:omega=1,alpha=2")

#: competition-dp: (spec, fresh-sequence market sizes, shared-sequence sizes,
#: jitter).  A size c becomes n = round(c * J) with J log-uniform in
#: [1/jitter, jitter].  An operation's cost grows with n, so the jitter is
#: small: a wider one makes the percentiles depend on the seed.
#: Pareto(1.656) costs about 0.3 s per DP step, so it runs at n = 3 and
#: without a shared sequence.
COMPETITION_MIX = (
    ("pareto:alpha=1.656", (3,), (), 1.0),
    ("frechet:m=0,s=1,alpha=2.5", (8, 30), (8, 30), 1.05),
) + tuple((spec, (10, 35, 120), (10, 35, 120), 1.05) for spec in LIGHT_MODELS)

#: Inputs the library gets wrong at the time the benchmark was defined.  The
#: workloads must not contain failing operations, so these run once per
#: --trace 0 run, after the timed loop, and are reported apart from the
#: metrics.  When a fix makes one pass its oracle, move it into a mix.
#: The threshold-search probes (best_fixed_price, the function behind the
#: README's converge commands) run with cli-readme.
#: - Pareto shapes <= 1.5: the DP step, expected maximum and threshold
#:   search raise ConvergenceError (the quadrature cannot resolve the tail).
#: - Uniform at n >= 5000: order_statistic_mean misses the boundary layer of
#:   width 1/n below 1 and returns 1.0; the prophet value is off by k/n.
PROBES = {
    "competition-dp": [{"kind": "competition", "spec": "pareto:alpha=1.4", "n": 30}],
    "cli-readme": [
        {"kind": "threshold", "spec": "pareto:alpha=1.3", "n": 100, "k": 3},
        {"kind": "threshold", "spec": "pareto:alpha=1.3", "n": 10000, "k": 3},
        {"kind": "threshold", "spec": "uniform:a=0,b=1", "n": 10000, "k": 3},
    ],
}

#: cli-readme: the README commands, one subprocess each.  BIDS and HIST are
#: replaced by the checked-in bid file and a scratch histogram path.
CLI_COMMANDS = {
    "guarantees": ["guarantees", "--k-max", "50"],
    "phi1-min": ["phi1-min"],
    "adaptivity-gap": ["adaptivity-gap"],
    "evaluate": ["evaluate", "--dist", "pareto:alpha=2", "--n", "100", "--k", "3",
                 "--t", "2.5"],
    "converge-pareto": ["converge", "--dist", "pareto:alpha=2", "--k", "1",
                        "--n-grid", "10,100,1000"],
    "converge-exp": ["converge", "--dist", "exp:rate=1", "--k", "1", "--n-grid",
                     "10,100", "--mode", "theory", "--u", "0"],
    "competition": ["competition", "--dist", "uniform:a=0,b=1", "--n", "500"],
    "simulate": ["simulate", "--dist", "pareto:alpha=2", "--n", "20", "--k", "3",
                 "--t", "2", "--reps", "100000", "--seed", "7"],
    "fit": ["fit", "--input", "BIDS", "--k-hill", "97", "--n", "509",
            "--realized-max", "5400", "--histogram-output", "HIST"],
}

#: One cli-readme round: every command once, and converge-pareto, by far the
#: slowest, twice.  Its share of 2 in 10 puts op_s_p90 inside its own times
#: instead of on the gap between it and the rest.
CLI_ROUND = tuple(CLI_COMMANDS) + ("converge-pareto",)


def params(spec: str) -> tuple[str, dict[str, float]]:
    """Split "kind:key=value,..." into the kind and its parameters."""
    kind, _, rest = spec.partition(":")
    return kind, {k: float(v) for k, v in (item.split("=") for item in rest.split(","))}


def quantile(spec: str, p: float) -> float:
    """Closed-form F^{-1}(p) of a model spec, independent of the library."""
    kind, a = params(spec)
    if kind == "pareto":
        return (1.0 - p) ** (-1.0 / a["alpha"])
    if kind == "exp":
        return -math.log1p(-p) / a["rate"]
    if kind == "uniform":
        return a["a"] + p * (a["b"] - a["a"])
    if kind == "bpower":
        return a["omega"] * (1.0 - (1.0 - p) ** (1.0 / a["alpha"]))
    if kind == "frechet":
        return a["m"] + a["s"] * (-math.log(p)) ** (-1.0 / a["alpha"])
    if kind == "gumbel":
        return a["loc"] - a["scale"] * math.log(-math.log(p))
    raise ValueError(f"unknown model kind {kind!r}")


def _jitter(rng: np.random.Generator, centre: int, jitter: float) -> int:
    return max(1, int(round(centre * math.exp(rng.uniform(-1.0, 1.0) * math.log(jitter)))))


def _competition_round(rng, r):
    ops = []
    for spec, fresh, shared, jitter in COMPETITION_MIX:
        for centre in fresh:
            ops.append([{"kind": "competition", "spec": spec,
                         "n": _jitter(rng, centre, jitter)}])
        if shared:
            group = f"{r}:{spec}"
            ops.append([{"kind": "competition", "spec": spec, "n": n, "group": group}
                        for n in sorted(_jitter(rng, c, jitter) for c in shared)])
    return ops


def _cli_round(rng, r):
    return [[{"kind": "cli", "name": name}] for name in CLI_ROUND]


_BUILDERS = {"competition-dp": _competition_round, "cli-readme": _cli_round}


def build_rounds(workload: str, seed: int, count: int = MAX_ROUNDS) -> list[list[dict]]:
    """Rounds 0..count-1.  Groups of operations that must run back to back
    (a shared policy sequence) stay together; the order of the groups is
    shuffled per round."""
    rounds = []
    for r in range(count):
        rng = np.random.default_rng([seed, r])
        groups = _BUILDERS[workload](rng, r)
        order = rng.permutation(len(groups))
        rounds.append([op for g in order for op in groups[g]])
    return rounds


def specs_used(workload: str) -> list[str]:
    mix = COMPETITION_MIX if workload == "competition-dp" else ()
    return sorted({entry[0] for entry in mix} | {op["spec"] for op in PROBES[workload]})
