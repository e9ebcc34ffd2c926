"""Special functions in Python (a walk over the masses of a Poisson or binomial
law, W_{-1}, the zeta series of lgamma(1 - g)/g near g = 0, and the series and
continued fraction behind the closed-form tail integrals) and generic
one-dimensional numerical routines.

Everything here is a pure function of its inputs and safe to call from any
number of threads.

Nothing here needs numpy.  ``integrate`` takes a batched integrand on a finite
bracket, called once per 15-node panel with the list of its abscissae and
returning the list of its values;
``maximize_1d`` takes a batched objective, called once on the list of its scan
grid and then on one-point lists; ``find_root`` stays scalar.  ``integrate``
is the only place that decides when a quadrature has converged: it stops once
its error estimate is at most max(tol, rtol*|I|) and raises ConvergenceError
otherwise, so callers state their tolerances and never accept a failed result
themselves.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Callable, Sequence

from .errors import BracketError, ConvergenceError, DomainError, FlatObjectiveError

__all__ = [
    "lambert_w_minus1",
    "integrate",
    "maximize_1d",
    "find_root",
]

_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min
# log 2 split as in fdlibm: s*_LN2_HI is exact for |s| < 2**21.
_LN2_HI, _LN2_LO = 6.93147180369123816490e-01, 1.90821492927058770002e-10

#: Number of bracket points scanned before golden-section refinement.
SCAN_POINTS = 256

#: Panels of ``integrate`` before ConvergenceError; iterations of ``find_root``.
MAX_INTERVALS = 2048
ROOT_MAX_ITER = 200

EULER_MASCHERONI = 0.5772156649015329

#: zeta(2), ..., zeta(12): the series of ``_lgamma_ratio`` leaves out terms
#: below 1e-19 relative at |g| < 0.03.
_ZETA = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381, 1.03692775514337,
         1.0173430619844492, 1.008349277381923, 1.0040773561979444, 1.0020083928260821,
         1.000994575127818, 1.0004941886041194, 1.000246086553308)


def _mass_walk(log_p0: float, ratio: Callable[[int], float],
               k: int) -> tuple[list[float], float]:
    """([P(N = m) for m < k], P(N >= k)) for a count law N, given log P(N = 0)
    and ratio(m) = P(N = m+1)/P(N = m), nonincreasing in m: y/(m+1) for
    Poisson(y), (n-m)/(m+1) * p/(1-p) for Bin(n, p).  The masses are carried
    up from P(N = 0) as mass*2**shift, so none underflows.  P(N >= k) is
    1 - fsum of the masses below k if they rise at k, else the masses summed
    upward from k down to eps of P(N = k): positive terms on the side that
    does not cancel, in k + O(sqrt(mean)) steps."""
    if log_p0 == -math.inf:
        return [0.0] * k, 1.0
    mass, shift = math.exp(log_p0), 0
    if mass < _TINY:
        # exp(r)*2**shift; r is clamped only past |log_p0| ~ 1e18, where all masses are 0
        shift = math.floor(log_p0 / _LN2_HI)
        r = (log_p0 - shift * _LN2_HI) - shift * _LN2_LO
        mass = math.exp(min(max(r, 0.0), 1.0))
    masses, rise = [], math.inf
    for m in range(k):
        masses.append(math.ldexp(mass, shift))
        rise = ratio(m)
        mass *= rise
        if not 2.0 ** -500 < mass < 2.0 ** 500:
            mass, e = math.frexp(mass)
            shift += e
    if rise > 1.0:
        return masses, 1.0 - math.fsum(masses)
    terms = [mass]
    while terms[-1] > _EPS * mass:
        terms.append(terms[-1] * ratio(k + len(terms) - 1))
    return masses, math.ldexp(math.fsum(terms), shift)


def _capped_sum(log_p0: float, ratio: Callable[[int], float], j: int, k: int) -> float:
    """sum_{i=j..k} P(N >= i) = (k-j+1) P(N >= k) + sum_{m=j..k-1} (m-j+1) P(N = m)
    for the count law N of ``_mass_walk``: E min(k, N) at j = 1, P(N >= j) at k = j."""
    masses, tail = _mass_walk(log_p0, ratio, k)
    return math.fsum([(k - j + 1) * tail] + [(m - j + 1) * masses[m] for m in range(j, k)])


def lambert_w_minus1(z: float) -> float:
    """Negative branch W_{-1}(z) of the Lambert function on [-1/e, 0).

    Returns the solution w <= -1 of w * exp(w) = z.  It runs the real-axis
    iteration of ``scipy.special.lambertw(z, -1)``, operation for operation:
    Halley's step for w*exp(w) - z (Corless et al., "On the Lambert W
    function", 1996, eq. 5.9) from w = log(-z), stopping once a step moves
    w by at most 1e-8 relative.  So its result equals scipy's bit for bit.
    Where scipy would return NaN after 100 steps, this raises
    ConvergenceError.
    """
    branch = -math.exp(-1.0)
    if z >= 0 or z < branch:
        # Allow rounding slop right at the branch point.
        if z < branch and z > branch * (1.0 + 16 * _EPS):
            return -1.0
        raise DomainError(f"lambert_w_minus1 requires z in [-1/e, 0), got {z}")
    if z == branch:
        return -1.0
    w = math.log(-z)
    for _ in range(100):
        ew = math.exp(w)
        wew = w * ew
        wewz = wew - z
        wn = w - wewz / (wew + ew - (w + 2.0) * wewz / (2.0 * w + 2.0))
        step = abs(wn - w)
        if step <= 1e-8 * abs(wn):
            return wn
        w = wn
    raise ConvergenceError(f"lambert_w_minus1({z!r}): Halley's iteration did not converge",
                           w, step)


def _alternating_series(b: float, x: float) -> float:
    """S_b(x) = sum_{k>=1} (-1)^(k+1) x^k/(k! (k + b)) for 0 <= x <= 2, b > -1,
    summed until a term falls below eps of the sum: Ein(x) at b = 0 (DLMF 6.6.4)."""
    total, term, k = 0.0, -1.0, 0
    while True:
        k += 1
        term *= -x / k
        add = term / (k + b)
        total += add
        if abs(add) <= _EPS * abs(total):
            return total


def _lgamma_ratio(g: float) -> float:
    """lgamma(1 - g)/g for |g| < 0.03, where that quotient cancels: the series
    euler_gamma + g*sum_{k>=2} zeta(k) g^(k-2)/k (DLMF 5.7.3) to k = 12, by
    Horner; at g = 0 it is the limit euler_gamma."""
    series = 0.0
    for k in range(12, 1, -1):
        series = series * g + _ZETA[k - 2] / k
    return EULER_MASCHERONI + g * series


def _upper_gamma(b: float, x: float) -> float:
    """Gamma(b, x) for x >= 2, -1 < b <= 0 (E1(x) at b = 0), by Lentz's evaluation of
    e^-x x^b/(x + 1 - b - 1(1 - b)/(x + 3 - b - ...)) (DLMF 8.9.2), which settles
    within 60 steps there."""
    prefactor = math.exp(-x) * x ** b
    if prefactor == 0.0:
        return 0.0
    den = x + 1.0 - b
    c, d = math.inf, 1.0 / den
    h = d
    for i in range(1, 200):
        num, den = i * (i - b), den + 2.0
        d = 1.0 / (den - num * d)
        c = den - num / c
        h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return prefactor * h


# 15-point Kronrod nodes with the embedded 7-point Gauss rule (positive
# abscissae; the rule is symmetric).  Gauss nodes sit at indices 1, 3, 5, 7.
# Each is the double nearest to QUADPACK's qk15 constant (Piessens et al.,
# 1983), so the Kronrod weights sum to 2 and a constant integrates exactly.
_XGK = (0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
        0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
        0.20778495500789848, 0.0)
_WGK = (0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
        0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
        0.20443294007529889, 0.20948214108472782)
_WG = (0.1294849661688697, 0.27970539148927664, 0.3818300505051189,
       0.4179591836734694)
# The 15 abscissae of one panel on [-1, 1]: the centre, -x_0..-x_6, then
# +x_0..+x_6.  c + h*(-x) rounds exactly as c - h*x, and the centre is -0.0
# so that c + h*(-0.0) is c itself, -0.0 included.
_NODES = (-0.0,) + tuple(-x for x in _XGK[:7]) + _XGK[:7]


def _gk15(f: Callable[[list[float]], list[float]], a: float,
          b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: returns (integral, error estimate).

    f is called once, on the list of the 15 nodes (c, c - h*x_i, c + h*x_i),
    and returns the list of their 15 values.  The Kronrod, Gauss, |f| and
    |f - mean| sums start from the centre and add the pairs
    f(c - h*x_i) + f(c + h*x_i) from the outermost node inwards, left to
    right (QUADPACK's qk15 order).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    vals = f([c + h * x for x in _NODES])
    fc, left, right = vals[0], vals[1:8], vals[8:]
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    for w, fl, fr in zip(_WGK, left, right):
        resk += w * (fl + fr)
        resabs += w * (abs(fl) + abs(fr))
    resg = _WG[3] * fc
    for w, fl, fr in zip(_WG, left[1::2], right[1::2]):  # the Gauss nodes x_1, x_3, x_5
        resg += w * (fl + fr)
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for w, fl, fr in zip(_WGK, left, right):
        resasc += w * (abs(fl - mean) + abs(fr - mean))
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


def integrate(f: Callable[[list[float]], list[float]], lo: float, hi: float,
              tol: float, points: Sequence[float] = (), rtol: float = 0.0) -> float:
    """Globally adaptive Gauss-Kronrod quadrature of f over the finite [lo, hi].

    f is batched: it receives the 15 nodes of one panel as a list of floats
    and returns the list of their 15 values.  Each panel is one call of f.

    The stopping rule is QUADPACK's (Piessens et al., 1983): the panel with
    the largest error estimate is bisected until the summed estimate err,
    confirmed by an exact sum, satisfies err <= max(tol, rtol*|I|) for the
    current integral estimate I.  ``tol`` is absolute and ``rtol`` relative;
    rtol = 0 makes the target purely absolute, tol = 0 purely relative.
    The Kronrod nodes are interior, so f is never evaluated at lo or hi.

    ``points`` are interior abscissae where f may have a kink; the domain is
    split there from the start, as no Gauss-Kronrod error estimate can see a
    kink that falls between its outermost node and the panel edge.

    Raises ConvergenceError, with the best estimate attached, if the
    error target cannot be reached within MAX_INTERVALS panels.
    """
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"integrate requires -inf < lo < hi < inf, got [{lo}, {hi}]")
    if not (tol >= 0 and rtol >= 0 and (tol > 0 or rtol > 0)):
        raise DomainError(
            f"integrate requires tol, rtol >= 0, not both 0, got tol={tol}, rtol={rtol}")
    edges = [lo, *sorted({c for c in points if lo < c < hi}), hi]
    # Heap entries: (-error, id, a, b, value, error).  Entries with key 0.0
    # are panels too narrow to split further; their error is kept in the sum.
    heap = []
    total_val = total_err = 0.0
    for a0, b0 in zip(edges, edges[1:]):
        v0, e0 = _gk15(f, a0, b0)
        heap.append((-e0, len(heap), a0, b0, v0, e0))
        total_val += v0
        total_err += e0
    heapq.heapify(heap)
    next_id = len(heap)
    while total_err > max(tol, rtol * abs(total_val)) and next_id < MAX_INTERVALS:
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
        v1, e1 = _gk15(f, a0, mid)
        v2, e2 = _gk15(f, mid, b0)
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
            f"{MAX_INTERVALS} panels", total_val, total_err)
    return total_val


def _golden(f: Callable[[float], float], a: float, b: float,
            tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f over [a, b], until the
    bracket is at most tol wide or, a few ulps wide, stops shrinking."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    width = math.inf
    while tol < b - a < width:
        width = b - a
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


def maximize_1d(f: Callable[[list[float]], Sequence[float]], lo: float, hi: float,
                tol: float) -> tuple[float, float]:
    """Maximize a unimodal f over the finite bracket [lo, hi]: a scan of
    SCAN_POINTS evenly spaced interior points, then golden section.

    f is batched: it maps a sorted list of floats to a sequence of their
    values.  The scan is one call on all SCAN_POINTS points, which are
    ``np.linspace(lo, hi, SCAN_POINTS + 2)[1:-1]`` bit for bit; each
    golden-section step, and the second look at the scan's best point, is a
    call on a one-element list.  The returned maximum is always a one-point
    value, so a batch that differs from one-point calls in the last digits
    can move only the golden-section bracket.

    Unimodality is the caller's responsibility.  Returns (argmax, max).
    Raises FlatObjectiveError when the scan sees no variation above ``tol``.
    """
    if not -math.inf < lo < hi < math.inf:
        raise DomainError(f"maximize_1d requires -inf < lo < hi < inf, got [{lo}, {hi}]")
    if not tol > 0:
        raise DomainError(f"maximize_1d requires tol > 0, got {tol}")

    def at(x: float) -> float:
        return float(f([x])[0])

    # linspace's rounding: i*step + lo, or (i/div)*(hi - lo) + lo where step underflows to 0
    div = SCAN_POINTS + 1
    step = (hi - lo) / div
    xs = [i * step + lo if step else (i / div) * (hi - lo) + lo for i in range(1, div)]
    fs = f(xs)
    if not all(map(math.isfinite, fs)):
        raise DomainError("objective returned a non-finite value during the scan")
    top = max(fs)
    if top - min(fs) <= tol:
        raise FlatObjectiveError(
            f"objective varies by {top - min(fs):.3e} <= tol across the scan")
    i = fs.index(top)
    a = lo if i == 0 else xs[i - 1]
    b = hi if i == len(xs) - 1 else xs[i + 1]
    x_star, f_star = _golden(at, a, b, tol)
    # The scan point can beat the refined point when the max sits on a
    # domain edge the golden search cannot reach exactly.
    f_i = at(xs[i])
    if f_i > f_star:
        return xs[i], f_i
    return x_star, f_star


def find_root(f: Callable[[float], float], lo: float, hi: float,
              tol: float) -> float:
    """Brent-style bracketed root of f on [lo, hi].

    Requires f(lo) * f(hi) <= 0.  ``tol`` is a width in units of x: the
    root is returned once the bracket around it is at most about
    tol + 4 eps |x| wide, or when f(x) is exactly 0.  tol = 0 asks for the
    root to rounding.  Raises ConvergenceError, with the last iterate and
    the bracket width attached, if ROOT_MAX_ITER steps do not close the
    bracket.
    """
    if not tol >= 0:
        raise DomainError(f"find_root requires tol >= 0, got {tol}")
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
    for _ in range(ROOT_MAX_ITER):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        half_width = 0.5 * (c - b)
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        if abs(half_width) <= tol1 or fb == 0.0:
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
    raise ConvergenceError(
        f"bracketed root not found within {ROOT_MAX_ITER} steps", b, abs(c - b))
