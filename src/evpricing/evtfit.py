"""Auction-bid ingestion and Frechet fitting: Hill shape, moment-matched scale.

Pipeline: CSV bids -> one valuation per bidder (their highest bid) -> Hill
estimate of the tail shape from the top-k order statistics -> scale fitted by
minimizing a two-moment loss -> threshold and guarantee report.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .distributions import Frechet
from .errors import DomainError, IngestError
from .guarantees import phi_1_closed, u_star
from .kernel import maximize_1d
from .policy import theory_threshold

__all__ = [
    "BidRecord",
    "FitResult",
    "GuaranteeReport",
    "ingest_bids",
    "per_bidder_max",
    "hill_estimate",
    "hill_stability_scan",
    "suggest_hill_k",
    "fit_scale",
    "fit_pipeline",
    "guarantee_report",
    "histogram_export",
]

Source = Union[str, Path, IO[str], IO[bytes]]

#: Consecutive k over which suggest_hill_k compares the spread of Hill estimates.
_HILL_WINDOW = 10


@dataclass(frozen=True)
class BidRecord:
    bidder_id: str
    amount: float

    def __post_init__(self):
        if not self.bidder_id:
            raise DomainError("bidder_id must be nonempty")
        if not self.amount >= 0:
            raise DomainError(f"bid amount must be nonnegative, got {self.amount}")


@dataclass(frozen=True)
class FitResult:
    m_hat: float
    s_hat: float
    alpha_hat: float
    k_hill: int
    loss: float
    n_valuations: int


def _open_text(source: Source):
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise IngestError(f"unsupported bid source {type(source).__name__}")


def ingest_bids(source: Source, id_col: str = "bidder_id",
                bid_col: str = "bid") -> list[BidRecord]:
    """Parse bid records from CSV with named id and amount columns.

    Paths and byte streams are read as UTF-8.  One byte-order mark opening
    the text is dropped, from any source, text streams included, so that
    it does not stick to the first column name.  Malformed rows raise
    IngestError naming the 1-based line number, and bytes that are not
    UTF-8 raise IngestError.
    """
    handle, owned = _open_text(source)
    try:
        first = handle.readline().removeprefix("\ufeff")
        reader = csv.DictReader(itertools.chain([first] if first else [], handle))
        if reader.fieldnames is None:
            raise IngestError("empty input: no header row")
        missing = [c for c in (id_col, bid_col) if c not in reader.fieldnames]
        if missing:
            raise IngestError(
                f"missing column(s) {missing}; file has {reader.fieldnames}")
        records: list[BidRecord] = []
        for row in reader:
            line = reader.line_num
            raw_id = (row.get(id_col) or "").strip()
            raw_bid = (row.get(bid_col) or "").strip()
            if not raw_id:
                raise IngestError(f"line {line}: empty {id_col!r}")
            try:
                amount = float(raw_bid)
            except ValueError:
                raise IngestError(
                    f"line {line}: non-numeric {bid_col!r} value {raw_bid!r}"
                ) from None
            if not math.isfinite(amount) or amount < 0:
                raise IngestError(f"line {line}: bid amount {amount} out of range")
            records.append(BidRecord(raw_id, amount))
        if not records:
            raise IngestError("no bid rows found after the header")
        return records
    except UnicodeDecodeError as exc:
        raise IngestError(f"input is not UTF-8 text: {exc.reason}") from None
    finally:
        if owned:
            handle.close()


def per_bidder_max(bids: Iterable[BidRecord]) -> list[float]:
    """One valuation per distinct bidder: their highest bid, sorted ascending."""
    best: dict[str, float] = {}
    for rec in bids:
        cur = best.get(rec.bidder_id)
        if cur is None or rec.amount > cur:
            best[rec.bidder_id] = rec.amount
    return sorted(best.values())


def _hill_from_sorted(v: np.ndarray, k: int) -> float:
    n = len(v)
    if not 2 <= k < n:
        raise DomainError(f"hill_estimate requires 2 <= k < n, got k={k}, n={n}")
    ref = v[n - k - 1]
    top = v[n - k:]
    if ref <= 0 or np.any(top <= 0):
        raise DomainError("hill_estimate requires the top k+1 values to be positive")
    gamma_hat = float(np.mean(np.log(top / ref)))
    if gamma_hat <= 0:
        raise DomainError("degenerate sample: zero tail index (all top values equal?)")
    return 1.0 / gamma_hat


def hill_estimate(values: Sequence[float], k: int) -> float:
    """Tail-shape estimate alpha_hat = 1 / mean of the top-k log-spacings.

    values are sorted internally; the reference order statistic is the
    (k+1)-th largest.
    """
    return _hill_from_sorted(np.sort(np.asarray(values, dtype=float)), k)


def hill_stability_scan(values: Sequence[float],
                        k_range: tuple[int, int]) -> list[tuple[int, float]]:
    """(k, alpha_hat) rows over an inclusive k interval.

    No automatic selection is made; the table is for the operator.
    """
    k_lo, k_hi = k_range
    if k_lo > k_hi:
        raise DomainError(f"empty k range [{k_lo}, {k_hi}]")
    v = np.sort(np.asarray(values, dtype=float))
    return [(k, _hill_from_sorted(v, k)) for k in range(k_lo, k_hi + 1)]


def suggest_hill_k(scan: Sequence[tuple[int, float]]) -> int:
    """Suggested k: center of the window where alpha_hat varies the least.

    A convenience default only; stability is ultimately the operator's call.
    """
    if not scan:
        raise DomainError("empty stability scan")
    if len(scan) <= _HILL_WINDOW:
        return scan[len(scan) // 2][0]
    alphas = np.array([a for _, a in scan])
    stds = [alphas[i:i + _HILL_WINDOW].std() for i in range(len(scan) - _HILL_WINDOW + 1)]
    i = int(np.argmin(stds))
    return scan[i + _HILL_WINDOW // 2][0]


def fit_scale(values: Sequence[float], alpha_hat: float) -> tuple[float, float]:
    """Scale fitted to the sample mean and variance simultaneously.

    Minimizes
        (s*G1 - mean)^2 + (s^2*(G2 - G1^2) - var)^2,
    G1 = Gamma(1 - 1/alpha), G2 = Gamma(1 - 2/alpha), over s in (0, 10*mean).
    Requires alpha_hat > 2 so that the model variance is finite.
    """
    if not alpha_hat > 2:
        raise DomainError(
            f"fit_scale requires alpha_hat > 2 (got {alpha_hat}): the variance "
            "term uses Gamma(1 - 2/alpha), which is finite only for alpha > 2")
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise DomainError("fit_scale needs at least two values")
    xbar = float(v.mean())
    s2 = float(v.var(ddof=1))
    if xbar <= 0:
        raise DomainError("fit_scale requires a positive sample mean")
    g1 = math.gamma(1.0 - 1.0 / alpha_hat)
    g_var = math.gamma(1.0 - 2.0 / alpha_hat) - g1 * g1

    def loss(s: float) -> float:
        return (s * g1 - xbar) ** 2 + (s * s * g_var - s2) ** 2

    s_hat, neg = maximize_1d(lambda xs: [-loss(s) for s in xs],
                             0.0, 10.0 * xbar, tol=1e-9 * max(1.0, xbar))
    return s_hat, -neg


def fit_pipeline(values: Sequence[float], k_hill: int | None = None,
                 m_hat: float | None = None) -> FitResult:
    """Full shape+scale fit over per-bidder valuations.

    When k_hill is omitted, a stability scan over k in [10, n/2] picks it
    (:func:`suggest_hill_k`); that scan needs n >= 11 valuations, and smaller
    samples must pass k_hill.  The location is 0, the natural choice for
    nonnegative bid data, unless m_hat is given.
    """
    v = sorted(float(x) for x in values)
    n = len(v)
    if n < 5:
        raise DomainError(f"need at least 5 valuations to fit, got {n}")
    if k_hill is None:
        if n < 11:
            raise DomainError(f"Hill scan needs n >= 11 valuations, got {n}; pass k_hill")
        scan = hill_stability_scan(v, (10, min(max(11, n // 2), n - 1)))
        k_hill = suggest_hill_k(scan)
    alpha_hat = hill_estimate(v, k_hill)
    location = 0.0 if m_hat is None else float(m_hat)
    shifted = v if location == 0.0 else [x - location for x in v]
    s_hat, loss = fit_scale(shifted, alpha_hat)
    return FitResult(location, s_hat, alpha_hat, k_hill, loss, n)


@dataclass(frozen=True)
class GuaranteeReport:
    """Threshold and guarantee implied by a fitted model at market size n."""

    fit: FitResult
    n: int
    u: float
    threshold: float
    guarantee: float
    alpha_margin: float
    realized_max: float | None = None
    realized_ratio: float | None = None


def guarantee_report(fit: FitResult, n: int,
                     realized_max: float | None = None) -> GuaranteeReport:
    """Compute the fixed-price threshold and guarantee for a fitted model.

    The threshold is U * F^{-1}(1 - 1/n) for the fitted Frechet model; when
    the realized maximum valuation is supplied, threshold/realized_max is
    reported as the realized lower bound on the achieved ratio.
    """
    if not fit.alpha_hat > 1:
        raise DomainError(
            f"guarantee needs alpha_hat > 1, got {fit.alpha_hat} (infinite mean)")
    if n < 2:
        raise DomainError(f"market size n must be >= 2, got {n}")
    model = Frechet(fit.m_hat, fit.s_hat, fit.alpha_hat)
    u = u_star(fit.alpha_hat)
    threshold = theory_threshold(model, n, u)
    ratio = None
    if realized_max is not None:
        if realized_max <= 0:
            raise DomainError("realized_max must be positive")
        ratio = threshold / realized_max
    return GuaranteeReport(fit, n, u, threshold, phi_1_closed(fit.alpha_hat),
                           fit.alpha_hat - 2.0, realized_max, ratio)


def histogram_export(values: Sequence[float],
                     bin_width: float) -> list[tuple[float, float, float]]:
    """Left-closed bins [i*w, (i+1)*w) from 0 with relative frequencies."""
    if not bin_width > 0:
        raise DomainError(f"bin_width must be positive, got {bin_width}")
    v = np.asarray(values, dtype=float)
    if len(v) == 0:
        return []
    if not np.isfinite(v).all():
        raise DomainError("histogram_export expects finite values")
    if np.any(v < 0):
        raise DomainError("histogram_export expects nonnegative values")
    idx = np.floor(v / bin_width).astype(int)
    counts = np.bincount(idx)
    total = len(v)
    return [(i * bin_width, (i + 1) * bin_width, float(c) / total)
            for i, c in enumerate(counts)]

