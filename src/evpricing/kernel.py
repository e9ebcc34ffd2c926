"""Special functions and generic one-dimensional numerical routines.

Everything here is a pure function of its inputs and safe to call from any
number of threads.  Default tolerances are absolute 1e-10 unless the caller
overrides them.

``integrate`` takes a vectorized integrand, called once per 15-node panel
with an array of abscissae; ``maximize_1d`` and ``find_root`` stay scalar,
as their objectives are evaluated one point at a time.  ``integrate`` is the
only place that decides when a quadrature has converged: it stops once its
error estimate is at most max(tol, rtol*|I|) and raises ConvergenceError
otherwise, so callers state their tolerances and never accept a failed
result themselves.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np
from scipy import special

from .errors import BracketError, ConvergenceError, DomainError, FlatObjectiveError

__all__ = [
    "Interval",
    "ln_gamma",
    "poisson_cdf",
    "lambert_w_minus1",
    "integrate",
    "maximize_1d",
    "find_root",
]

ArrayLike = Union[float, np.ndarray]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

#: Number of bracket points scanned before golden-section refinement.
SCAN_POINTS = 256

#: Default absolute tolerance for every routine in this module.
DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class Interval:
    """A nonempty interval (lo, hi); hi may be +inf, lo must be finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError("interval endpoints must not be NaN")
        if math.isinf(self.lo):
            raise DomainError("interval lower endpoint must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)


def ln_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    if not x > 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def poisson_cdf(y: float, k: int) -> float:
    """P(Poisson(y) <= k), via the regularized upper incomplete gamma function.

    The incomplete-gamma route stays accurate for means and counts up to 1e6,
    where term-by-term summation would over- or underflow.
    """
    if y < 0:
        raise DomainError(f"poisson_cdf requires y >= 0, got {y}")
    if k < 0:
        raise DomainError(f"poisson_cdf requires k >= 0, got {k}")
    return float(special.gammaincc(k + 1, y))


def lambert_w_minus1(z: float) -> float:
    """Negative branch W_{-1}(z) of the Lambert function on [-1/e, 0).

    Returns the solution w <= -1 of w * exp(w) = z.
    """
    branch = -math.exp(-1.0)
    if z >= 0 or z < branch:
        # Allow rounding slop right at the branch point.
        if z < branch and z > branch * (1.0 + 16 * _EPS):
            return -1.0
        raise DomainError(f"lambert_w_minus1 requires z in [-1/e, 0), got {z}")
    if z == branch:
        return -1.0
    w = special.lambertw(z, k=-1)
    return float(w.real)


# 15-point Kronrod nodes with the embedded 7-point Gauss rule (positive
# abscissae; the rule is symmetric).  Gauss nodes sit at indices 1, 3, 5, 7.
_XGK = (0.991455371120813, 0.949107912342759, 0.864864423359769,
        0.741531185599394, 0.586087235467691, 0.405845151377397,
        0.207784955007898, 0.0)
_WGK = (0.022935322010529, 0.063092092629979, 0.104790010322250,
        0.140653259715525, 0.169004726639267, 0.190350578064785,
        0.204432940075298, 0.209482141084728)
_WG = (0.129484966168870, 0.279705391489277, 0.381830050505119,
       0.417959183673469)
_XGK7 = np.array(_XGK[:7])


def _gk15(f: Callable[[np.ndarray], ArrayLike], a: float,
          b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: returns (integral, error estimate).

    f is called once, on the 15 nodes (c, c - h*x_i, c + h*x_i).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    dx = h * _XGK7
    vals = f(np.concatenate(((c,), c - dx, c + dx)))
    if np.ndim(vals) == 0:
        vals = [float(vals)] * 15
    else:
        vals = np.asarray(vals, dtype=float).reshape(15).tolist()
    fc = vals[0]
    fv1 = vals[1:8]
    fv2 = vals[8:]
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    for w, f1, f2 in zip(_WGK, fv1, fv2):
        resk += w * (f1 + f2)
        resabs += w * (abs(f1) + abs(f2))
    for i in (1, 3, 5):
        resg += _WG[i // 2] * (fv1[i] + fv2[i])
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for w, f1, f2 in zip(_WGK, fv1, fv2):
        resasc += w * (abs(f1 - mean) + abs(f2 - mean))
    resk *= h
    resg *= h
    resabs *= abs(h)
    resasc *= abs(h)
    if not math.isfinite(resk):
        raise DomainError(
            f"integrand returned a non-finite value on [{a}, {b}]")
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(err, 50.0 * _EPS * resabs)
    return resk, err


def integrate(f: Callable[[np.ndarray], ArrayLike], domain: Interval,
              tol: float = DEFAULT_TOL, max_intervals: int = 2048,
              tail_gamma: float = 0.0, points: Sequence[float] = (),
              rtol: float = 0.0, tail_scale: float = 1.0) -> float:
    """Globally adaptive Gauss-Kronrod quadrature of f over domain.

    f is vectorized: it receives the 15 nodes of one panel as a float array
    of shape (15,) and returns their values, an array of the same shape (a
    scalar return, as from ``lambda x: 1.0``, is taken as constant over the
    panel).  Each panel is one call of f.

    The stopping rule is QUADPACK's (Piessens et al., 1983): the panel with
    the largest error estimate is bisected until the summed estimate err,
    confirmed by an exact sum, satisfies err <= max(tol, rtol*|I|) for the
    current integral estimate I.  ``tol`` is absolute and ``rtol`` relative;
    rtol = 0 makes the target purely absolute, tol = 0 purely relative.

    Semi-infinite domains [lo, inf) are mapped to [0, 1) through
    x = lo + h((1-t)^(-q) - 1), with Jacobian h q (1-t)^(-q-1),
    h = ``tail_scale`` and q = max(1, gamma/(1-gamma)) for the extreme-value
    index ``tail_gamma`` of the integrand.  A tail x^(-1/gamma) then becomes
    a bounded integrand near t = 1 (exactly constant for Pareto), where the
    plain map x = lo + t/(1-t) (q = 1) would leave the endpoint singularity
    (1-t)^(1/gamma - 2) for gamma > 1/2.  Tails with gamma <= 1/2, Gumbel
    (gamma = 0) among them, keep q = 1.  The scale h is the length on which
    the integrand falls above lo, such as the reciprocal hazard sf/pdf of a
    survival function (T/alpha for a Pareto tail from T); with h = 1 a tail
    far from the origin needs many panels near t = 0, and an h far beyond
    where the integrand lives maps every node past it.
    The Kronrod nodes are interior, so the endpoint t = 1 is never
    evaluated.  ``tail_scale`` has no effect on a finite domain.

    ``points`` are interior abscissae where f may have a kink (the support's
    lower end, for instance); the domain is split there from the start, as
    no Gauss-Kronrod error estimate can see a kink that falls between its
    outermost node and the panel edge.

    Raises ConvergenceError, with the best estimate attached, if the
    error target cannot be reached within ``max_intervals`` panels, and
    with estimate NaN and error inf if the map leaves the double range
    before the tail is resolved (gamma close to 1: Pareto maxima at
    alpha = 1.01).
    """
    if not (tol >= 0 and rtol >= 0 and (tol > 0 or rtol > 0)):
        raise DomainError(
            f"integrate requires tol, rtol >= 0, not both 0, got tol={tol}, rtol={rtol}")
    if not 0 < tail_scale < math.inf:
        raise DomainError(f"integrate requires a finite tail_scale > 0, got {tail_scale}")
    if domain.unbounded:
        base = domain.lo
        h = tail_scale
        if not tail_gamma < 1:
            raise DomainError(
                f"integrate over [lo, inf) requires tail_gamma < 1, got {tail_gamma}")
        q = max(1.0, tail_gamma / (1.0 - tail_gamma))
        # A node that rounds to t = 1 contributes 0; om = 1 stands in for it
        # so that f sees only finite abscissae.  Products with h come last,
        # so that h = 1 leaves every value bit for bit as without it.
        if q == 1.0:
            def g(t: np.ndarray) -> np.ndarray:
                om = 1.0 - t
                inside = om > 0.0
                om = np.where(inside, om, 1.0)
                return np.where(inside, f(base + h * (t / om)) / (om * om) * h, 0.0)
        else:
            def g(t: np.ndarray) -> np.ndarray:
                om = 1.0 - t
                inside = om > 0.0
                om = np.where(inside, om, 1.0)
                with np.errstate(over="ignore"):
                    w = om ** -q
                    jac = q * w / om * h
                if np.isinf(jac).any():
                    raise ConvergenceError(
                        f"tail map overflows the double range before a tail "
                        f"of index gamma={tail_gamma:.6g} is resolved",
                        math.nan, math.inf)
                with np.errstate(over="ignore"):
                    return np.where(inside, f(base + h * w - h) * jac, 0.0)

        a, b = 0.0, 1.0
        cuts = [1.0 - ((h + p - base) / h) ** (-1.0 / q) for p in points if p > base]
    else:
        g, a, b = f, domain.lo, domain.hi
        cuts = points

    edges = [a, *sorted({c for c in cuts if a < c < b}), b] if cuts else (a, b)
    # Heap entries: (-error, id, a, b, value, error).  Entries with key 0.0
    # are panels too narrow to split further; their error is kept in the sum.
    heap: list[tuple[float, int, float, float, float, float]] = []
    total_val = total_err = 0.0
    for a0, b0 in zip(edges, edges[1:]):
        v0, e0 = _gk15(g, a0, b0)
        heap.append((-e0, len(heap), a0, b0, v0, e0))
        total_val += v0
        total_err += e0
    if len(heap) == 1 and total_err <= max(tol, rtol * abs(total_val)):
        # One panel met the target (as most short finite pieces do): the
        # exact sums below would return its value unchanged.
        return total_val
    heapq.heapify(heap)
    next_id = len(heap)
    while total_err > max(tol, rtol * abs(total_val)) and next_id < max_intervals:
        key, _, a0, b0, v0, e0 = heapq.heappop(heap)
        mid = 0.5 * (a0 + b0)
        too_narrow = (key == 0.0 or mid <= a0 or mid >= b0
                      or b0 - a0 < 64.0 * _EPS * max(1.0, abs(a0), abs(b0)))
        if too_narrow:
            heapq.heappush(heap, (0.0, next_id, a0, b0, v0, e0))
            next_id += 1
            if all(entry[0] == 0.0 for entry in heap):
                break
            continue
        v1, e1 = _gk15(g, a0, mid)
        v2, e2 = _gk15(g, mid, b0)
        heapq.heappush(heap, (-e1, next_id, a0, mid, v1, e1))
        heapq.heappush(heap, (-e2, next_id + 1, mid, b0, v2, e2))
        next_id += 2
        total_val += v1 + v2 - v0
        total_err += e1 + e2 - e0
        if total_err <= max(tol, rtol * abs(total_val)):
            # The running sum drifts by rounding; confirm with an exact one.
            total_err = math.fsum(entry[5] for entry in heap)

    total_val = math.fsum(entry[4] for entry in heap)
    total_err = math.fsum(entry[5] for entry in heap)
    target = max(tol, rtol * abs(total_val))
    if total_err > target:
        raise ConvergenceError(
            f"quadrature did not reach tolerance {target:.3e} within "
            f"{max_intervals} panels", total_val, total_err)
    return total_val


def _scan_grid(domain: Interval) -> np.ndarray:
    """Interior bracket points: uniform on finite domains, geometric on
    semi-infinite ones (guarantee objectives are flat near 0 and infinity)."""
    if domain.unbounded:
        pivot = max(domain.lo, 0.0)
        return pivot + np.geomspace(1e-8, 1e8, SCAN_POINTS)
    return np.linspace(domain.lo, domain.hi, SCAN_POINTS + 2)[1:-1]


def _golden(f: Callable[[float], float], a: float, b: float,
            tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f over [a, b]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def maximize_1d(f: Callable[[float], float], domain: Interval,
                tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Maximize a unimodal f over domain: bracketing scan, then golden section.

    Unimodality is the caller's responsibility.  Returns (argmax, max).
    Raises FlatObjectiveError when the scan sees no variation above ``tol``.
    """
    if not tol > 0:
        raise DomainError(f"maximize_1d requires tol > 0, got {tol}")
    xs = _scan_grid(domain)
    fs = np.array([f(float(x)) for x in xs])
    if not np.all(np.isfinite(fs)):
        raise DomainError("objective returned a non-finite value during the scan")
    if fs.max() - fs.min() <= tol:
        raise FlatObjectiveError(
            f"objective varies by {fs.max() - fs.min():.3e} <= tol across the scan")
    i = int(np.argmax(fs))
    lo = domain.lo if i == 0 else float(xs[i - 1])
    if i == len(xs) - 1:
        hi = float(xs[-1]) * 10.0 if domain.unbounded else domain.hi
    else:
        hi = float(xs[i + 1])
    x_star, f_star = _golden(f, lo, hi, tol)
    # The scan point can beat the refined point when the max sits on a
    # domain edge the golden search cannot reach exactly.
    if fs[i] > f_star:
        return float(xs[i]), float(fs[i])
    return x_star, f_star


def find_root(f: Callable[[float], float], lo: float, hi: float,
              tol: float = DEFAULT_TOL, max_iter: int = 200) -> float:
    """Brent-style bracketed root of f on [lo, hi].

    Requires f(lo) * f(hi) <= 0.  Stops once |f(x)| <= tol or the bracket
    width falls below tol.
    """
    if not tol > 0:
        raise DomainError(f"find_root requires tol > 0, got {tol}")
    fa, fb = f(lo), f(hi)
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0.0:
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={fa:.6g}, f(hi)={fb:.6g}")
    a, b = lo, hi
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half_width = 0.5 * (c - b)
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        if abs(half_width) <= tol1 or abs(fb) <= tol:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * half_width * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * half_width * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half_width * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = half_width
        else:
            d = e = half_width
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if half_width > 0 else -tol1
        fb = f(b)
    return b
