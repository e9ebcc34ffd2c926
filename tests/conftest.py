import functools
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from evpricing import Exponential, Pareto, Uniform


BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = BENCH / "golden"

_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
_workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)

#: The README commands by golden-file name, from ``bench/workloads.py`` (only
#: read): BIDS stands for ``bench/golden/bids.csv`` and HIST for the path of
#: the histogram output, whose golden copy is ``bench/golden/fit.hist.csv``.
CLI_COMMANDS = _workloads.CLI_COMMANDS


def philox_uniforms(seed: int, n: int, stream: int = 0) -> np.ndarray:
    """Deterministic uniforms on [0, 1) from a keyed Philox substream."""
    gen = np.random.Generator(np.random.Philox(
        key=np.array([stream, seed], dtype=np.uint64)))
    return gen.random(n)


@functools.lru_cache(maxsize=None)
def mpmath_capped_tails(n: int, j: int, k: int, p: float):
    """sum_{i=j..k} P(Bin(n, p) >= i) at 60 digits, each tail as 1 - sum_{m<i} P(m);
    computed once per point however many tests check it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        p = mp.mpf(p)
        pmf = [mp.binomial(n, m) * p ** m * (1 - p) ** (n - m) for m in range(k)]
        return mp.fsum(1 - mp.fsum(pmf[:i]) for i in range(j, k + 1))


@pytest.fixture
def nonneg_models():
    return [Pareto(2.0), Exponential(1.0), Uniform(0.0, 1.0)]


def ebay_csv_path() -> str | None:
    """Operator-supplied auction dataset; case-study checks run only if set."""
    path = os.environ.get("EBAY_BIDS_CSV")
    if path and os.path.exists(path):
        return path
    return None


requires_ebay = pytest.mark.skipif(
    ebay_csv_path() is None,
    reason="set EBAY_BIDS_CSV to the 7-day Cartier auction export to run")
