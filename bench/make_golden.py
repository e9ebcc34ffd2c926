"""Regenerate the golden files of the cli-readme workload.

    python3 bench/make_golden.py

The seeded bid file golden/bids.csv is written only when it is missing.
Run it only when a change to the CLI's output is intended and explained:
the benchmark counts any byte that differs from these files as a failure.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BIDS_SEED = 20250214
BIDDERS = 509


def write_bids(path: Path) -> None:
    """509 bidders with Frechet(0, 289, 2.24) valuations; each bids 1-5 times
    and their highest bid is their valuation."""
    rng = np.random.default_rng(BIDS_SEED)
    values = 289.0 * (-np.log(rng.random(BIDDERS))) ** (-1.0 / 2.24)
    lines = ["bidder_id,bid"]
    for i, v in enumerate(values):
        bids = [v] + list(v * rng.uniform(0.3, 1.0, int(rng.integers(0, 5))))
        for b in rng.permutation(bids):
            lines.append(f"b{i:04d},{b:.2f}")
    path.write_text("\n".join(lines) + "\n")


def main() -> int:
    if not (GOLDEN / "bids.csv").exists():
        write_bids(GOLDEN / "bids.csv")
    hist = GOLDEN / "fit.hist.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    for name, argv in workloads.CLI_COMMANDS.items():
        argv = [str(GOLDEN / "bids.csv") if a == "BIDS" else str(hist) if a == "HIST" else a
                for a in argv]
        proc = subprocess.run([sys.executable, "-m", "evpricing.cli", *argv], cwd=ROOT,
                              env=env, capture_output=True, text=True, check=True)
        (GOLDEN / f"{name}.out").write_text(proc.stdout)
        print(f"{name}: {len(proc.stdout)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
