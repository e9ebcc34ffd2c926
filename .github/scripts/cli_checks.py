"""The README commands end to end, outside pytest, in one of two settings.

    python .github/scripts/cli_checks.py installed
    python .github/scripts/cli_checks.py no-numpy

``installed`` runs each command of bench/workloads.py CLI_COMMANDS both as
the installed ``evpricing`` script and as ``python -W error -m evpricing.cli``
(the way bench/worker.py runs it), and diffs stdout and the fit histogram
against bench/golden/.  ``no-numpy`` makes numpy unimportable and runs the
commands that need only the standard library, as ``python -m evpricing.cli``
with warnings as errors, against the same goldens.

Both settings then check competition on rescaled and narrow models.  Results
are ratios, so competition on a rescaled model must print byte for byte what
it prints at scale 1, the two bounded kinds included, whose sf is read below
the upper end; at alpha = 0.7 the density is infinite at that end.  On the
narrow shapes, whose mass is about 1/alpha wide, competition --n 20 must
print the m_star that a 40-digit DP gives.  Both settings also check that
theory-mode thresholds reduce to the standard member: on Uniform(100, 101)
each printed threshold lies in the support [100, 101].  They then check the
paper's light-tailed claim on a support below 0: converge on Gumbel(0, 1)
prints ratios in (0, 1) that rise strictly with n.

bench/ is only read.  Exits 1 if any check fails.
"""

import importlib.util
import os
import subprocess
import sys
import tempfile

_spec = importlib.util.spec_from_file_location("workloads", "bench/workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

#: The README commands that load no numpy.
NUMPY_FREE = ("guarantees", "phi1-min", "adaptivity-gap", "evaluate", "converge-pareto",
              "converge-exp", "competition", "fit")

NO_NUMPY = ('import runpy, sys\nsys.modules["numpy"] = None\n'
            'runpy.run_module("evpricing.cli", run_name="__main__")')

#: A rescaled model -> the same kind at unit scale.
SCALED = {"exp:rate=1e8": "exp:rate=1",
          "gumbel:loc=0,scale=1e-8": "gumbel:loc=0,scale=1",
          "frechet:m=0,s=1e-8,alpha=2.5": "frechet:m=0,s=1,alpha=2.5",
          "bpower:omega=1e8,alpha=2": "bpower:omega=1,alpha=2",
          "bpower:omega=5,alpha=0.7": "bpower:omega=1,alpha=0.7",
          "uniform:a=0,b=1e-8": "uniform:a=0,b=1"}

#: A narrow shape -> its m_star at n = 20.
NARROW = {"frechet:m=0,s=1,alpha=1000": 35, "pareto:alpha=1e4": 34,
          "frechet:m=0,s=1,alpha=1e4": 35, "bpower:omega=1,alpha=1e4": 34}

THEORY = ["converge", "--dist", "uniform:a=100,b=101", "--k", "1",
          "--n-grid", "10,100", "--mode", "theory", "--u", "0.05"]

GUMBEL = ["converge", "--dist", "gumbel:loc=0,scale=1", "--k", "1",
          "--n-grid", "10,100,10000"]


def stdout(cmd: list[str], argv: list[str], **kwargs) -> bytes:
    return subprocess.run([*cmd, *argv], stdout=subprocess.PIPE, check=True, **kwargs).stdout


def main(mode: str) -> int:
    if mode == "installed":
        runners = {"evpricing": ["evpricing"], "python -m evpricing.cli":
                   [sys.executable, "-W", "error", "-m", "evpricing.cli"]}
        names = list(workloads.CLI_COMMANDS)
    elif mode == "no-numpy":
        runners = {"python -m evpricing.cli without numpy":
                   [sys.executable, "-W", "error", "-c", NO_NUMPY]}
        names = list(NUMPY_FREE)
    else:
        sys.exit(f"usage: {sys.argv[0]} installed|no-numpy")
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        hist = os.path.join(tmp, "fit.hist.csv")
        for name in names:
            argv = ["bench/golden/bids.csv" if a == "BIDS" else hist if a == "HIST" else a
                    for a in workloads.CLI_COMMANDS[name]]
            for cmd in runners.values():
                failed += subprocess.run(["diff", "-", f"bench/golden/{name}.out"],
                                         input=stdout(cmd, argv)).returncode
                if "HIST" in workloads.CLI_COMMANDS[name]:
                    failed += subprocess.run(["diff", hist, "bench/golden/fit.hist.csv"]).returncode
    for label, cmd in runners.items():
        for spec, unit in SCALED.items():
            outs = [stdout(cmd, ["competition", "--dist", s, "--n", "100"]) for s in (spec, unit)]
            if outs[0] != outs[1]:
                print(f"{label} competition --dist {spec} differs from {unit}")
                failed += 1
        for spec, m_star in NARROW.items():
            args = ["competition", "--dist", spec, "--n", "20"]
            out = stdout(cmd, args, env=dict(os.environ, PYTHONWARNINGS="error")).decode()
            if f'"m_star": {m_star}' not in out:
                print(f"{label} {' '.join(args)}: {out}")
                failed += 1
        out = stdout(cmd, THEORY).decode()
        thresholds = [float(row.split(",")[2]) for row in out.splitlines()[1:]]
        if not thresholds or not all(100.0 <= t <= 101.0 for t in thresholds):
            print(f"{label} {' '.join(THEORY)}: thresholds {thresholds}")
            failed += 1
        out = stdout(cmd, GUMBEL).decode()
        ratios = [float(row.split(",")[5]) for row in out.splitlines()[1:]]
        rising = all(a < b for a, b in zip(ratios, ratios[1:]))
        if not (len(ratios) == 3 and rising and 0.0 < ratios[0] and ratios[-1] < 1.0):
            print(f"{label} {' '.join(GUMBEL)}: ratios {ratios}")
            failed += 1
    return int(failed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) == 2 else ""))
