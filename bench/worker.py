"""Workload process: imports evpricing, builds the seeded inputs and runs
the closed loop (one caller; each operation starts after the previous one
ends).  Started by run.py; writes its raw results as JSON to --out.

With --setup-only it times the import of evpricing plus the building of
the inputs, prints that as JSON and exits.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
sys.path.insert(0, str(SRC))


def _import_library(workload: str):
    import evpricing  # noqa: F401
    from evpricing import competition, distributions, policy
    from evpricing.errors import EvPricingError
    if workload == "cli-readme":
        import evpricing.cli  # noqa: F401
    return competition, distributions, policy, EvPricingError


def _setup(workload: str, seed: int, rounds: int):
    """Import the library and build every input the run needs."""
    import workloads
    lib = _import_library(workload)
    import_s = time.perf_counter() - _T0
    plan = workloads.build_rounds(workload, seed, rounds)
    models = {spec: lib[1].parse_distribution(spec) for spec in workloads.specs_used(workload)}
    return lib, plan, models, import_s


class Runner:
    def __init__(self, lib, models, out_dir: Path, tracer=None):
        self.competition, self.distributions, self.policy, self.error_base = lib
        self.models = models
        self.out_dir = out_dir
        self.tracer = tracer
        self.cli_traces: list[dict] = []

    # -- one operation ---------------------------------------------------------

    def execute(self, op: dict, seqs: dict, op_id: int):
        kind = op["kind"]
        if kind == "cli":
            return self._cli(op, op_id)
        d = self.models[op["spec"]]
        if kind == "competition":
            seq = None
            if "group" in op:
                seq = seqs.get(op["group"])
                if seq is None:
                    seq = seqs[op["group"]] = self.competition.PolicySequence(d)
            rec = self.competition.empirical_competition_complexity(d, op["n"], seq)
            return {"m_star": rec.m_star, "empirical_ratio": rec.empirical_ratio,
                    "theoretical": rec.theoretical, "gamma": rec.gamma}
        if kind == "threshold":
            ev = self.policy.best_fixed_price(d, op["n"], op["k"])
            return {"threshold": ev.threshold, "fp_value": ev.fp_value,
                    "prophet_value": ev.prophet_value, "ratio": ev.ratio}
        raise ValueError(f"unknown operation kind {kind!r}")

    def _cli(self, op: dict, op_id: int):
        import workloads
        hist = self.out_dir / f"hist-{op_id}.csv"
        args = [str(GOLDEN / "bids.csv") if a == "BIDS" else str(hist) if a == "HIST" else a
                for a in workloads.CLI_COMMANDS[op["name"]]]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "evpricing.cli", *args]
        else:
            trace_file = self.out_dir / f"clitrace-{op_id}.json"
            cmd = [sys.executable, str(HERE / "clitrace.py"), str(trace_file), str(op_id),
                   *args]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=150)
        result = {"returncode": proc.returncode, "stdout": proc.stdout,
                  "stderr": proc.stderr[-2000:]}
        if hist.exists():
            result["hist"] = hist.read_text()
            hist.unlink()
        if self.tracer is not None:
            trace_file = self.out_dir / f"clitrace-{op_id}.json"
            if trace_file.exists():
                self.cli_traces.append(json.loads(trace_file.read_text()))
                trace_file.unlink()
        return result

    # -- the closed loop -------------------------------------------------------

    def run(self, rounds: list[list[dict]], seconds: float | None, phase: str):
        """Run whole rounds for about ``seconds`` (or all rounds, when seconds
        is None): the next round starts only if at least half of a mean round
        is left, so the wall time ends within half a round of ``seconds``.
        Returns (records, wall seconds, rounds run)."""
        records = []
        start = time.perf_counter()
        done = 0
        for r, ops in enumerate(rounds):
            seqs: dict = {}
            for op in ops:
                op_id = len(records)
                if self.tracer is not None:
                    self.tracer.op_id = op_id
                t0 = time.perf_counter()
                result, outcome, error = None, "ok", ""
                try:
                    result = self.execute(op, seqs, op_id)
                except self.error_base as exc:
                    outcome, error = type(exc).__name__, str(exc)[:300]
                except Exception as exc:  # a bug in the program: record it, keep going
                    outcome = type(exc).__name__
                    error = traceback.format_exc(limit=3)[-600:]
                seconds_op = time.perf_counter() - t0
                records.append({"phase": phase, "round": r, **op, "seconds": seconds_op,
                                "outcome": outcome, "error": error, "result": result})
            done = r + 1
            elapsed = time.perf_counter() - start
            if seconds is not None and seconds - elapsed < 0.5 * elapsed / done:
                break
        return records, time.perf_counter() - start, done


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import workloads

    if args.setup_only:
        import_s = _setup(args.workload, args.seed, workloads.MAX_ROUNDS)[3]
        print(json.dumps({"setup_s": time.perf_counter() - _T0, "import_s": import_s}))
        return 0

    out = Path(args.out)
    n_rounds = workloads.TRACE_ROUNDS[args.workload] if args.trace else workloads.MAX_ROUNDS
    lib, plan, models, _ = _setup(args.workload, args.seed, n_rounds)
    setup_s = time.perf_counter() - _T0
    scratch = out.parent
    payload: dict = {"setup_s_worker": setup_s}
    runner = Runner(lib, models, scratch)
    if not args.trace:
        records, wall, done = runner.run(plan, args.seconds, "timed")
        probes = runner.run([workloads.PROBES[args.workload]], None, "probe")[0]
        payload.update(records=records + probes, wall_s=wall, rounds=done)
    else:
        import tracer as tracing
        records, wall_plain, _ = runner.run(plan, None, "untraced")
        tr = tracing.Tracer()
        tr.install()
        runner.tracer = tr
        traced, wall_traced, done = runner.run(plan, None, "traced")
        stats = [tr.stats] + [t["stats"] for t in runner.cli_traces]
        spans = tr.spans + [s for t in runner.cli_traces for s in t["spans"]]
        payload.update(records=records + traced, wall_s=wall_plain,
                       wall_traced_s=wall_traced, rounds=done,
                       trace_stats=tracing.merge_stats(stats),
                       import_s=[t["import_s"] for t in runner.cli_traces],
                       spans=spans,
                       dropped_spans=tr.dropped_spans + sum(t["dropped_spans"]
                                                            for t in runner.cli_traces))
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-readme" else resource.RUSAGE_SELF
    payload["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
