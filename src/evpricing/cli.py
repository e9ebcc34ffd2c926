"""Batch command-line front end.

Every computation is a subcommand emitting CSV or JSON.  Exit codes: 0 on
success, 2 for usage errors, 1 for computation errors (single-line
diagnostic on stderr, no partial output files).
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EvPricingError, SpecStringError


class UsageError(Exception):
    """Raised by handlers for argument problems argparse cannot see."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv(header: str, rows: Iterable[Sequence]) -> str:
    lines = [header]
    lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


def _json_dumps(payload: dict) -> str:
    clean = {k: (float(_fmt(v)) if isinstance(v, float) else v)
             for k, v in payload.items()}
    try:
        return json.dumps(clean, indent=2, allow_nan=False) + "\n"
    except ValueError:
        # JSON has no inf or NaN; writing them would make the output unparseable.
        key = next(k for k, v in clean.items() if isinstance(v, float) and not math.isfinite(v))
        raise EvPricingError(f"{key} is {clean[key]}, which JSON cannot represent") from None


def _write_outputs(texts: dict[str | None, str]) -> None:
    """Write each text to its path, or to stdout under the key None.

    Each file goes to a temp file beside it, and all are renamed into place
    only once every write has succeeded; stdout comes last.  A failure leaves
    no temp file, and its OSError names the path as given.
    """
    temps: dict[str, str] = {}
    try:
        for path in [p for p in texts if p is not None]:
            target = Path(path)
            if target.is_dir():  # the rename below would fail after earlier ones
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            fd, temps[path] = tempfile.mkstemp(dir=target.parent, prefix=target.name + ".",
                                               suffix=".tmp")
            with os.fdopen(fd, "w") as handle:
                handle.write(texts[path])
        for path, tmp in temps.items():
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for tmp in temps.values():
            Path(tmp).unlink(missing_ok=True)
    sys.stdout.write(texts.get(None, ""))


def _threshold(args) -> float:
    """--t, which must not be infinite (a NaN is left to the library, which names it)."""
    if math.isinf(args.t):
        raise UsageError(f"--t must be finite, got {args.t}")
    return args.t


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer grid {text!r}") from None
    if not grid:
        raise argparse.ArgumentTypeError("empty grid")
    return grid


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from None


# Each handler imports the modules it runs, so a command loads no other part
# of the library.


def _cmd_guarantees(args) -> str:
    from . import guarantees
    if args.k_max < 1:
        raise UsageError("--k-max must be >= 1")
    alphas = args.alpha_grid or []
    header = "k,phi_k_alpha2,sqrt_bound"
    header += "".join(f",phi_k_alpha_{_fmt(a)}" for a in alphas)
    rows = ([k, guarantees.phi_k(2.0, k).value, guarantees.sqrt_bound(k)]
            + [guarantees.phi_k(a, k).value for a in alphas]
            for k in range(1, args.k_max + 1))
    return _csv(header, rows)


def _cmd_phi1_min(args) -> str:
    from . import guarantees
    alpha, value = guarantees.minimize_phi_1()
    return _json_dumps({"alpha": alpha, "value": value})


def _cmd_adaptivity_gap(args) -> str:
    from . import guarantees
    alpha, gap = guarantees.adaptivity_gap()
    return _json_dumps({"alpha": alpha, "gap": gap})


def _cmd_evaluate(args) -> str:
    from . import policy
    from .distributions import parse_distribution
    t = _threshold(args)
    d = parse_distribution(args.dist)
    ev = policy.PolicyEvaluation(args.n, args.k, t,
                                 policy.fixed_price_value_exact(d, args.n, args.k, t),
                                 policy.prophet_value(d, args.n, args.k))
    return _json_dumps({
        "n": ev.n, "k": ev.k, "threshold": ev.threshold,
        "fp_value": ev.fp_value, "prophet_value": ev.prophet_value, "ratio": ev.ratio,
    })


def _cmd_converge(args) -> str:
    from . import policy
    from .distributions import parse_distribution
    d = parse_distribution(args.dist)
    rows = policy.convergence_table(d, args.k, args.n_grid,
                                    mode=args.mode, u=args.u)
    return _csv("n,k,threshold,fp_value,prophet_value,ratio",
                ([r.n, r.k, r.threshold, r.fp_value, r.prophet_value, r.ratio]
                 for r in rows))


def _cmd_competition(args) -> str:
    from .competition import empirical_competition_complexity
    from .distributions import parse_distribution
    d = parse_distribution(args.dist)
    rec = empirical_competition_complexity(d, args.n)
    return _json_dumps({
        "n": rec.n, "m_star": rec.m_star,
        "empirical_ratio": rec.empirical_ratio,
        "theoretical": rec.theoretical, "gamma": rec.gamma,
    })


def _cmd_simulate(args) -> str:
    from . import policy
    from .distributions import parse_distribution
    t = _threshold(args)
    d = parse_distribution(args.dist)
    cfg = (policy.SimulationConfig(args.reps) if args.seed is None
           else policy.SimulationConfig(args.reps, args.seed))
    mean, stderr = policy.monte_carlo_evaluate(d, args.n, args.k, t, cfg)
    return _json_dumps({
        "n": args.n, "k": args.k, "threshold": t,
        "replications": args.reps, "seed": cfg.seed,
        "mean": mean, "stderr": stderr,
    })


def _check_distinct_outputs(flags: dict[str, str | None]) -> None:
    """Reject two output flags that name one file: one write would drop the other."""
    seen: dict[Path, str] = {}
    for flag, path in flags.items():
        if path is None:
            continue
        target = Path(path).resolve()
        if target in seen:
            raise UsageError(f"{seen[target]} and {flag} name the same file {path}")
        seen[target] = flag


def _cmd_fit(args) -> dict[str | None, str]:
    from . import evtfit
    _check_distinct_outputs({"--output": args.output,
                             "--histogram-output": args.histogram_output,
                             "--scan-output": args.scan_output})
    records = evtfit.ingest_bids(args.input, id_col=args.id_col,
                                 bid_col=args.bid_col)
    values = evtfit.per_bidder_max(records)
    fit = evtfit.fit_pipeline(values, k_hill=args.k_hill, m_hat=args.m_hat)
    n = args.n if args.n is not None else len(values)
    report = evtfit.guarantee_report(fit, n, realized_max=args.realized_max)
    payload = {
        "m_hat": fit.m_hat, "s_hat": fit.s_hat, "alpha_hat": fit.alpha_hat,
        "k_hill": fit.k_hill, "loss": fit.loss, "n": report.n, "U": report.u,
        "T_n": report.threshold, "guarantee": report.guarantee,
        # distance of alpha_hat from the variance-existence boundary at 2
        "alpha_margin": report.alpha_margin,
    }
    if report.realized_ratio is not None:
        payload["realized_max"] = report.realized_max
        payload["realized_ratio"] = report.realized_ratio
    texts = {None: _json_dumps(payload)}
    if args.histogram_output is not None:
        rows = evtfit.histogram_export(values, args.bin_width)
        texts[args.histogram_output] = _csv("bin_lo,bin_hi,relative_frequency", rows)
    if args.scan_output is not None:
        hi = min(max(args.k_hill or 11, 11) * 3, len(values) - 1)
        scan = evtfit.hill_stability_scan(values, (2, hi))
        texts[args.scan_output] = _csv("k,alpha_hat", scan)
    return texts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evpricing",
        description="Fixed-price guarantees, policy evaluation, competition "
                    "complexity, and Frechet fitting for large markets.")
    parser.add_argument("--output", default=None, help="write the primary "
                        "result here (atomic); default is stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flag(p: argparse.ArgumentParser) -> None:
        # accepted before or after the subcommand
        p.add_argument("--output", default=argparse.SUPPRESS,
                       help="write the primary result here (atomic)")

    p = sub.add_parser("guarantees", help="k-unit guarantee table at alpha=2")
    p.add_argument("--k-max", type=int, required=True)
    p.add_argument("--alpha-grid", type=_parse_float_list, default=None,
                   help="optional extra shape columns, e.g. 1.5,3")
    add_output_flag(p)
    p.set_defaults(func=_cmd_guarantees)

    p = sub.add_parser("phi1-min", help="worst shape for the single-unit guarantee")
    add_output_flag(p)
    p.set_defaults(func=_cmd_phi1_min)

    p = sub.add_parser("adaptivity-gap",
                       help="max dynamic-over-fixed guarantee ratio")
    add_output_flag(p)
    p.set_defaults(func=_cmd_adaptivity_gap)

    p = sub.add_parser("evaluate", help="exact policy value at one threshold")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    add_output_flag(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("converge", help="ratio trace over a market-size grid")
    p.add_argument("--dist", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-grid", type=_parse_grid, required=True)
    p.add_argument("--mode", choices=("best", "theory"), default="best")
    p.add_argument("--u", type=float, default=None,
                   help="limit ratio for --mode theory")
    add_output_flag(p)
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("competition", help="empirical competition complexity")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    add_output_flag(p)
    p.set_defaults(func=_cmd_competition)

    p = sub.add_parser("simulate", help="Monte Carlo policy evaluation")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="default: evpricing.policy.DEFAULT_SEED")
    add_output_flag(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit a Frechet model to auction bids")
    p.add_argument("--input", required=True)
    p.add_argument("--id-col", default="bidder_id")
    p.add_argument("--bid-col", default="bid")
    p.add_argument("--k-hill", type=int, default=None,
                   help="top-k for the Hill estimate; default: stability suggestion")
    p.add_argument("--m-hat", type=float, default=None,
                   help="location override; default 0 for nonnegative bids")
    p.add_argument("--n", type=int, default=None,
                   help="market size for the threshold; default: bidder count")
    p.add_argument("--realized-max", type=float, default=None)
    p.add_argument("--bin-width", type=float, default=200.0)
    p.add_argument("--histogram-output", default=None)
    p.add_argument("--scan-output", default=None)
    add_output_flag(p)
    p.set_defaults(func=_cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # A handler returns its text, or a dict adding side outputs by path.
        result = args.func(args)
        texts = result if isinstance(result, dict) else {None: result}
        texts[args.output] = texts.pop(None)
        _write_outputs(texts)
    except (UsageError, SpecStringError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (EvPricingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
