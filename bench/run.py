"""evpricing benchmark: one workload, one closed loop, oracle-checked.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: competition-dp and cli-readme (see bench/README.md for why each
exists).  The library under test is the ``src/evpricing`` tree next to this
directory; nothing is installed.

--trace 0 prints the end-to-end metrics: set-up time of a fresh process
(import plus input building, median of SETUP_SAMPLES processes), completed
operations per second, median and p90 seconds per operation, the share of
operations that succeed and pass their oracle, and peak resident memory.
--trace 1 runs a fixed number of rounds untraced, then the same rounds under
the outside-in tracer, and prints the per-layer metrics and the tracing
overhead.

Every operation's result is checked against an independent oracle after the
timed loop.  Per-operation rows, an environment header and (with --trace 1)
the spans are written to .bench_out/.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit code 2 means the
benchmark could not run (for example, no src/evpricing next to it).
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

#: Fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 5

#: Whole-run limit for the workload process, seconds.
WORKER_TIMEOUT = 150

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_s_p50": "s",
                    "op_s_p90": "s", "ok_share": "share", "peak_rss_mb": "MB"}


def fail(message: str, code: int = 2) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def environment() -> dict:
    import numpy
    import scipy
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpu_model": cpu or platform.machine()}


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def measure_setup(args) -> list[dict]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(worker_cmd(args, "--setup-only"), cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def verify(records: list[dict]) -> None:
    """Attach a verdict to every record: ok, mismatch or the error class."""
    import oracles
    golden = HERE / "golden"
    for rec in records:
        rec["verdict"], rec["detail"] = rec["outcome"], rec["error"]
        if rec["outcome"] != "ok":
            continue
        res, kind = rec["result"], rec["kind"]
        if kind == "competition":
            ok, detail = oracles.check_competition(rec, res)
        elif kind == "threshold":
            ok, detail = oracles.check_threshold(rec, res)
        else:
            want = (golden / f"{rec['name']}.out").read_text()
            ok = res["returncode"] == 0 and res["stdout"] == want
            if rec["name"] == "fit":
                ok = ok and res.get("hist") == (golden / "fit.hist.csv").read_text()
            detail = f"exit={res['returncode']} stdout_matches_golden={res['stdout'] == want}"
        rec["verdict"], rec["detail"] = ("ok" if ok else "mismatch"), detail


def describe(r: dict) -> str:
    return (f"{r['kind']} {r.get('spec') or r.get('name')} n={r.get('n')} k={r.get('k')}: "
            f"{r['verdict']} {r['detail'][:160]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "evpricing" / "__init__.py").is_file():
        return fail(f"no src/evpricing package under {ROOT}; nothing to measure")
    sys.path.insert(0, str(HERE))
    import tracer as tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.monotonic()

    out_file = OUT / f"{tag}.raw.json"
    try:
        setup = [] if args.trace else measure_setup(args)
        proc = subprocess.run(worker_cmd(args, "--out", str(out_file)), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT - (time.monotonic() - started))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc)[-3000:], 1)
    if proc.returncode != 0 or not out_file.is_file():
        return fail(f"workload process failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}", 1)
    payload = json.loads(out_file.read_text())
    out_file.unlink()
    checked = time.monotonic()
    verify(payload["records"])
    checked = time.monotonic() - checked
    records = [r for r in payload["records"] if r["phase"] != "probe"]
    probes = [r for r in payload["records"] if r["phase"] == "probe"]

    attempted = len(records)
    bad = [r for r in records if r["verdict"] != "ok"]
    timed = [r for r in records if r["phase"] == "timed"]
    metrics: dict[str, dict] = {}
    if not args.trace:
        seconds = [r["seconds"] for r in timed]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setup),
            "ops_per_s": len(timed) / payload["wall_s"],
            "op_s_p50": statistics.median(seconds),
            "op_s_p90": statistics.quantiles(seconds, n=10, method="inclusive")[8],
            "ok_share": (len(timed) - sum(r["verdict"] != "ok" for r in timed)) / len(timed),
            "peak_rss_mb": payload["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        layer = tracing.layer_metrics(payload["trace_stats"])
        layer["cli.import_s"] = (statistics.median(payload["import_s"])
                                 if payload["import_s"] else 0.0)
        layer["trace.overhead_share"] = payload["wall_traced_s"] / payload["wall_s"] - 1.0
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layer.items()}

    report = {
        "environment": environment(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "rounds": payload["rounds"],
        "wall_s": payload["wall_s"], "setup_samples": setup,
        "setup_s_worker": payload["setup_s_worker"], "metrics": metrics,
        "fail_share": len(bad) / attempted, "dropped_spans": payload.get("dropped_spans", 0),
        "rows": [{k: r.get(k) for k in ("phase", "round", "kind", "spec", "name", "n", "k",
                                        "seconds", "verdict", "detail")}
                 for r in records + probes],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1))
    if args.trace:
        with open(OUT / f"{tag}.spans.jsonl", "w") as handle:
            for span in payload["spans"]:
                handle.write(json.dumps(dict(zip(("name", "start", "end", "id", "parent",
                                                  "op"), span))) + "\n")

    n_timed = len(timed) if not args.trace else attempted
    print(f"# {args.workload} seed={args.seed} rounds={payload['rounds']} ops={n_timed} "
          f"wall_s={payload['wall_s']:.3f} fail_share={len(bad) / attempted:.4f} "
          f"oracle_s={checked:.1f}")
    if setup:
        floor = statistics.median(s["import_s"] for s in setup)
        print(f"# import floor {floor:.4f} s of set-up {metrics['setup_s']['value']:.4f} s")
    if not args.trace:
        beyond = sum(r["seconds"] > metrics["op_s_p90"]["value"] for r in timed)
        print(f"# op_s_p90 rests on {beyond} samples beyond it (of {len(timed)})")
    for r in bad[:10]:
        print(f"# FAILED {describe(r)}")
    for r in probes:
        state = "still fails" if r["verdict"] != "ok" else "NOW PASSES (move it into the mix)"
        print(f"# known-defect probe {state}: {describe(r)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not bad, "attempted": attempted,
                      "failed": len(bad), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
