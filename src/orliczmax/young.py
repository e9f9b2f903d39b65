"""Young-function calculus.

A Young function is a convex nondecreasing Phi: [0, inf) -> [0, inf] with
Phi(0) = 0 and Phi(t) -> inf. This module provides the parametric families
used by the rest of the package, vectorized evaluation, generalized
inversion, the numerical Legendre conjugate Phi*(s) = sup_t {s t - Phi(t)},
the companion scale t * log(e+t)^(n-1), and sampled structural probes
(doubling, submultiplicativity).

+inf is a legitimate value throughout (functions may jump to +inf past a
domain cap, and conjugates of functions with linear growth are +inf beyond
the asymptotic slope); comparisons against it are total.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InvalidYoungFunction, NoBracket

__all__ = [
    "YoungFunction",
    "Power",
    "PowerLog",
    "PowerLogLog",
    "Tabulated",
    "NumericComplement",
    "complementary",
    "inverse",
    "phi_n_eval",
    "tabulate",
    "SamplingSpec",
    "ProbeReport",
    "probe_submultiplicative",
    "probe_doubling",
    "young_from_json",
    "young_to_json",
]

_E = math.e

# Sampling grid for the constructor's convexity/monotonicity check. Sampled,
# not symbolic: a family that is convex except below 1e-6 will slip through,
# which is acceptable for the families this package constructs.
_CHECK_POINTS = np.geomspace(1e-6, 1e8, 365)


def _eval_shim(raw: Callable[[np.ndarray], np.ndarray], t, domain_cap):
    """Common scalar/array plumbing for all families."""
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if not (arr >= 0).all():  # NaN fails the test too
        raise ValueError("Young functions are evaluated on t >= 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = raw(arr)
    out = np.where(arr == 0.0, 0.0, out)
    if domain_cap is not None:
        out = np.where(arr > domain_cap, np.inf, out)
    return float(out[0]) if scalar else out


class YoungFunction:
    """Abstract base; concrete families implement _raw on positive arrays."""

    domain_cap: float | None = None

    def _raw(self, t: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def eval(self, t):
        return _eval_shim(self._raw, t, self.domain_cap)

    def __call__(self, t):
        return self.eval(t)


def _check_convex_increasing(phi: YoungFunction, name: str) -> None:
    pts = _CHECK_POINTS
    if phi.domain_cap is not None:
        pts = pts[pts <= phi.domain_cap]
        if pts.size < 3:
            return
    vals = phi.eval(pts)
    if not np.all(np.isfinite(vals)):
        keep = np.isfinite(vals)
        pts, vals = pts[keep], vals[keep]
        if pts.size < 3:
            raise InvalidYoungFunction(f"{name}: no finite sample range")
    if phi.eval(0.0) != 0.0:
        raise InvalidYoungFunction(f"{name}: Phi(0) != 0")
    scale = np.maximum(np.abs(vals[1:]), np.abs(vals[:-1]))
    if np.any(vals[1:] < vals[:-1] - 1e-12 * scale):
        raise InvalidYoungFunction(f"{name}: not nondecreasing on sampled grid")
    slopes = np.diff(vals) / np.diff(pts)
    # chord slopes of a convex function are nondecreasing
    bad = slopes[1:] < slopes[:-1] * (1.0 - 1e-9) - 1e-300
    if np.any(bad):
        k = int(np.argmax(bad))
        raise InvalidYoungFunction(
            f"{name}: not convex near t={pts[k + 1]:.6g} (sampled chord test)"
        )
    if vals[-1] <= vals[0]:
        raise InvalidYoungFunction(f"{name}: does not grow on sampled grid")


@dataclass(frozen=True)
class Power(YoungFunction):
    """Phi(t) = t**r with r >= 1."""

    r: float
    domain_cap: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r >= 1.0):
            raise InvalidYoungFunction("Power requires r >= 1")

    def _raw(self, t):
        return t**self.r


@dataclass(frozen=True)
class PowerLog(YoungFunction):
    """Phi(t) = t**alpha * log(e + t)**(-beta).

    The constructor rejects (alpha, beta) for which the formula is not
    convex increasing on the sampled grid.
    """

    alpha: float
    beta: float
    domain_cap: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise InvalidYoungFunction("PowerLog parameters must be finite")
        _check_convex_increasing(self, f"PowerLog(alpha={self.alpha}, beta={self.beta})")

    def _raw(self, t):
        return t**self.alpha * np.log(_E + t) ** (-self.beta)


@dataclass(frozen=True)
class PowerLogLog(YoungFunction):
    """Phi(t) = t**p * log(e + t)**(-log_exp) * log(e + log(e + t))**(-gamma).

    The doubly shifted inner logarithm keeps the last factor positive at
    t = 0 without changing the large-t tail, which is what the integral
    classification sees.
    """

    p: float
    gamma: float
    log_exp: float = 2.0
    domain_cap: float | None = None

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.p, self.gamma, self.log_exp)):
            raise InvalidYoungFunction("PowerLogLog parameters must be finite")
        _check_convex_increasing(
            self,
            f"PowerLogLog(p={self.p}, gamma={self.gamma}, log_exp={self.log_exp})",
        )

    def _raw(self, t):
        inner = np.log(_E + t)
        return t**self.p * inner ** (-self.log_exp) * np.log(_E + inner) ** (-self.gamma)


class Tabulated(YoungFunction):
    """Piecewise power law through (t, Phi(t)) knots t_0 < ... < t_{n-1}.

    The piece of t is p = searchsorted(t_knots, t, side="right"): piece 0
    lies below the knots, piece i + 1 is [t_i, t_{i+1}) and piece n lies
    above them. On each piece Phi(t) = min(Y_p (t / T_p)**K_p, C_p), with
    the anchor (T_p, Y_p) its left knot (t_0 for piece 0), K_p the log-log
    slope of its segment (0 on a flat or zero segment; outside the knots
    that of the nearest boundary segment) and C_p the value of its right
    knot (+inf above the knots). A segment from a zero value to a positive
    one is linear instead: C_p (t - T_p) / W_p, W_p its width (its slope
    C_p / W_p may overflow). So Phi(t_j) = y_j exactly, a plateau reads its
    own value, and the clamp keeps Phi nondecreasing across knots;
    _closed_inverse inverts the same pieces. The law is exact for pure
    powers. Knot values must be nondecreasing; convexity of the represented
    function is the caller's responsibility.
    """

    def __init__(self, knots: Iterable[Sequence[float]], domain_cap: float | None = None):
        pairs = [(float(a), float(b)) for a, b in knots]
        if len(pairs) < 2:
            raise InvalidYoungFunction("Tabulated needs at least two knots")
        t = np.array([a for a, _ in pairs])
        y = np.array([b for _, b in pairs])
        if np.any(~np.isfinite(t)) or np.any(~np.isfinite(y)):
            raise InvalidYoungFunction("Tabulated knots must be finite")
        if np.any(t <= 0):
            raise InvalidYoungFunction("Tabulated abscissae must be positive")
        if np.any(np.diff(t) <= 0):
            raise InvalidYoungFunction("Tabulated abscissae must be strictly increasing")
        if np.any(y < 0) or np.any(np.diff(y) < 0):
            raise InvalidYoungFunction("Tabulated values must be nonnegative and nondecreasing")
        self._t = t
        self._y = y
        with np.errstate(divide="ignore", invalid="ignore"):
            logy = np.log(np.where(y > 0, y, 1.0))
            k = np.where((y[:-1] > 0) & (y[1:] > 0), np.diff(logy) / np.diff(np.log(t)), 0.0)
        w = np.where((y[:-1] == 0) & (y[1:] > 0), np.diff(t), 0.0)
        # per piece: anchor T, Y, log-log slope K, linear width W, ceiling C
        self._pieces = np.stack([np.append(t[0], t), np.append(y[0], y),
                                 np.concatenate([k[:1], k, k[-1:]]),
                                 np.concatenate([[0.0], w, [0.0]]), np.append(y, np.inf)])
        self.domain_cap = domain_cap

    @property
    def knots(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self._t, self._y)]

    def _raw(self, t):
        T, Y, K, W, C = self._pieces.take(np.searchsorted(self._t, t, side="right"), axis=1)
        return np.minimum(np.where(W > 0, (t - T) / W * C, Y * (t / T) ** K), C)


def tabulate(fn: Callable[[np.ndarray], np.ndarray], t_lo: float, t_hi: float,
             points_per_decade: int = 200, domain_cap: float | None = None) -> Tabulated:
    """Dense log-spaced tabulation of a callable as a Tabulated instance."""
    if not (0 < t_lo < t_hi):
        raise ValueError("need 0 < t_lo < t_hi")
    n = max(2, int(round(points_per_decade * math.log10(t_hi / t_lo))) + 1)
    t = np.geomspace(t_lo, t_hi, n)
    y = np.asarray(fn(t), dtype=float)
    return Tabulated(list(zip(t.tolist(), y.tolist())), domain_cap=domain_cap)


class NumericComplement(YoungFunction):
    """Legendre conjugate Phi*(s) = sup_{t>0} (s t - Phi(t)) of a base function.

    The sup is located through a dense log-spaced table of the base built at
    construction: chord slopes bracket the argmax (they are nondecreasing for
    convex data), the discrete objective is taken at the bracketing knots,
    and one parabolic refinement in log t recovers the smooth maximum. All
    candidates are true objective evaluations, so the result never exceeds
    the exact supremum. Beyond the asymptotic slope of an uncapped base the
    conjugate is +inf.

    The knot of s, the count of table slopes below it, is what
    np.searchsorted(slopes, s, side="left") gives, read from an index
    built on the first evaluation (_knot_index), so a complement that is
    never evaluated costs only its table. Nonnegative floats order like
    their int64 bit patterns, so the high bits of s pick a bucket of the
    distinct slopes, the bucket's start holds the count below it, and a
    fixed-width binary search inside the bucket settles the rest; equal
    slopes (plateaus of the running maximum) count once as a distinct
    value whose first position is the answer.

    Serializes as a complement_of descriptor wrapping the base.
    """

    _T_LO = 1e-14
    _T_HI = 1e14
    _PER_DECADE = 200
    _SLOPE_TARGET = 1e13
    _T_CEIL = 1e290

    def __init__(self, base: YoungFunction):
        self.base = base
        self.domain_cap = None
        cap = base.domain_cap
        # The table must reach chord slope _SLOPE_TARGET so the conjugate is
        # finite wherever downstream integrands sample it; a base without a
        # linear asymptote needs the range extended until the slope gets
        # there or the values leave double range (then inf is the honest
        # answer beyond the edge).
        t_hi = self._T_HI
        while True:
            n = int(round(self._PER_DECADE * math.log10(t_hi / self._T_LO))) + 1
            t = np.geomspace(self._T_LO, t_hi, n)
            if cap is not None and np.isfinite(cap):
                t = t[t < cap]
                t = np.append(t, cap)
            with np.errstate(over="ignore"):
                y = base.eval(t)
            usable = np.isfinite(y) & (y < self._T_CEIL)
            if not usable.all():
                stop = int(np.argmin(usable))  # first unusable entry
                if stop < 2:
                    raise InvalidYoungFunction("base function overflows everywhere sampled")
                t, y = t[:stop], y[:stop]
                self._saturated = True  # table ends by overflow, not by a true cap
                break
            self._saturated = False
            if cap is not None and np.isfinite(cap):
                break
            if (y[-1] - y[-2]) / (t[-1] - t[-2]) >= self._SLOPE_TARGET or t_hi >= self._T_CEIL:
                break
            t_hi = min(t_hi * 1e4, self._T_CEIL)
        self._capped = cap is not None
        self._t = t
        self._u = np.log(t)
        self._y = y
        slopes = np.diff(y) / np.diff(t)
        self._slopes = np.maximum.accumulate(slopes)
        self._index = None

    def _knot_index(self):
        """The bucket index of the distinct slopes, in no more buckets than slopes.

        The slopes are sorted (a running maximum), so the distinct ones
        start where a slope differs from the one before. A bucket is a run
        of equal bit patterns >> shift. starts[b] counts the distinct
        slopes in the buckets below b, and the last entry, for everything
        above the top bucket, counts them all. A search of width
        2**steps - 1 from starts[b] covers any bucket, and the +inf
        padding past the last value stops it there. first[i] is the
        position in the table of the i-th distinct slope, and its last
        entry the table size.
        """
        # slopes below 0 lie below every s >= 0; + 0.0 turns -0.0 into 0.0
        below = int(np.searchsorted(self._slopes, 0.0))
        slopes = self._slopes[below:] + 0.0
        first = np.flatnonzero(np.append(True, slopes[1:] != slopes[:-1]))
        vals = slopes[first]
        keys = vals.view(np.int64)
        # shift >= 1 keeps the bucket of -0.0's pattern, -2**63, from wrapping
        shift = max(1, (int(keys[-1] - keys[0]) // vals.size).bit_length())
        bucket = (keys >> shift) - (keys[0] >> shift)
        starts = np.searchsorted(bucket, np.arange(bucket[-1] + 2))
        steps = int(np.diff(starts).max()).bit_length()
        padded = np.append(vals, np.full(1 << steps, np.inf))
        return (shift, int(keys[0] >> shift), starts, steps, padded,
                np.append(first + below, self._slopes.size))

    def _knot(self, s: np.ndarray) -> np.ndarray:
        """np.searchsorted(self._slopes, s, side="left") for s >= 0 (-0.0 included)."""
        if self._index is None:
            self._index = self._knot_index()
        shift, base, starts, steps, vals, first = self._index
        # -0.0 clips to bucket 0, where it counts nothing
        pos = starts.take((s.view(np.int64) >> shift) - base, mode="clip")
        for j in range(steps - 1, -1, -1):
            pos += (vals[pos + ((1 << j) - 1)] < s) << j
        return first.take(pos)

    def _objective(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return s * t - self.base.eval(t)

    def _raw(self, s):
        t, u, y = self._t, self._u, self._y
        slopes = self._slopes
        k = self._knot(s)

        top = k >= slopes.size
        kc = np.minimum(k, slopes.size - 1)
        k0 = np.maximum(kc - 1, 0)
        k2 = np.minimum(kc + 1, t.size - 1)

        obj0 = s * t[k0] - y[k0]
        obj1 = s * t[kc] - y[kc]
        obj2 = s * t[k2] - y[k2]
        out = np.maximum(np.maximum(obj0, obj1), obj2)

        # parabolic vertex through (u, obj) at the three bracket knots
        x0, x1, x2 = u[k0], u[kc], u[k2]
        d01, d21 = x1 - x0, x1 - x2
        num = d01 * d01 * (obj1 - obj2) - d21 * d21 * (obj1 - obj0)
        den = d01 * (obj1 - obj2) - d21 * (obj1 - obj0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ustar = x1 - 0.5 * num / den
        good = np.isfinite(ustar) & (den != 0) & (k0 < kc) & (kc < k2)
        ustar = np.clip(ustar, x0, x2)
        tstar = np.exp(np.where(good, ustar, x1))
        refined = self._objective(s, tstar)
        out = np.where(good, np.maximum(out, refined), out)

        out = np.maximum(out, 0.0)
        if np.any(top):
            if self._capped or self._saturated:
                # sup attained at the last tabulated point (exact for a true
                # cap; a lower bound past double-precision overflow)
                edge = s * t[-1] - y[-1]
                out = np.where(top, np.maximum(edge, 0.0), out)
            else:
                out = np.where(top, np.inf, out)
        return out


def complementary(phi: YoungFunction) -> NumericComplement:
    """The complementary (Legendre conjugate) Young function."""
    return NumericComplement(phi)


def _power_form(phi: YoungFunction) -> tuple[float, float] | None:
    """(q, s) when Phi is read as c t**q with no domain cap, else None.

    Then ||f||_{Phi,R} = s (mean_R f**q)**(1/q) with s = c**(1/q). An
    uncapped Power(r) is (r, 1). The conjugate of an uncapped Power(r),
    r > 1, is read as the exact one, (r - 1) r**(-r') t**r' with
    r' = r / (r - 1) (the sup of s t - t**r sits at t = (s/r)**(1/(r-1))),
    whose factor c**(1/r') is (r - 1)**(1/r') / r; the numeric table lies
    at most its table error below it.
    """
    if isinstance(phi, Power) and phi.domain_cap is None:
        return phi.r, 1.0
    if (isinstance(phi, NumericComplement) and isinstance(phi.base, Power)
            and phi.base.domain_cap is None and phi.base.r > 1.0):
        r = phi.base.r
        q = r / (r - 1.0)
        return q, (r - 1.0) ** (1.0 / q) / r
    return None


# Points per block of one inverse call: the solver keeps about a dozen
# arrays per point, so long vectors are solved a block at a time.
_INVERSE_CHUNK = 8192
# The bracket search multiplies by a factor that squares at every step,
# up to this cap.
_BRACKET_FACTOR_CAP = 1e16
_T_MAX = float(np.finfo(float).max)
# ITP stops a problem within its nmax = ceil(log2(w0 / (2 eps))) + 1 steps,
# at most 62 for a bracket inside the float range at tol >= 1e-15, and a
# problem whose ends are adjacent floats stops too (a tol below float
# resolution, or tol * end underflowing); this bound is only a guard.
_ITP_STEPS = 200


def _itp_point(a, b, fa, fb, j, nmax, eps, k1):
    """Next ITP probe (Oliveira & Takahashi, ACM TOMS 2020) in each [a, b].

    fa and fb are the values at the ends, of opposite sign around the root.
    The regula falsi point moves toward the midpoint by the truncation
    delta = max(k1 * w**2, eps) (kappa_2 = 2), then is projected into the
    minmax interval of radius eps * 2**(nmax - j) - w/2 about the midpoint;
    both steps act on its distance from the midpoint. The floor eps on
    delta keeps the truncation above float resolution on narrow brackets,
    where it would otherwise vanish and leave the slowest problems to the
    projection's halving. Where the regula falsi point is not strictly
    inside the bracket (an end value is not finite, or the values do not
    change sign), the probe is the midpoint.
    """
    w = b - a
    h = 0.5 * w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = h + fa * w / (fb - fa)  # midpoint minus regula falsi point
    dist = np.abs(d)
    # NaN and inf fail the test, so sigma = 0 leaves those at the midpoint
    sigma = np.where(dist < h, np.sign(d), 0.0)
    delta = np.maximum(k1 * w * w, eps)
    dist = np.fmax(np.fmin(dist - delta, eps * np.exp2(nmax - j) - h), 0.0)
    return a + h - sigma * dist


def _check_tol(tol: float) -> None:
    """The relative tolerance of a solve must lie in (0, 1): the stopping
    rule takes log1p(-tol), and the Orlicz sweep's skip rule widens bounds
    by (1 + 4 tol)**m, which a negative or NaN tol would turn into pruning
    every member."""
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be a finite number in (0, 1), got {tol!r}")


def _solve_bracketed(lo, hi, probe, log, tol: float, upper: bool) -> np.ndarray:
    """Certified roots of monotone problems: bracket search, then ITP steps.

    Each problem has one feasible end: hi when upper, else lo. probe(idx, t)
    returns (value, feasible) for the problems idx at the points t (one
    per problem, or one shared by all), and log(idx, value) puts values on
    the log scale the ITP steps interpolate, of opposite sign at feasible
    and infeasible points. The bracket search reads only feasible, so log
    is taken once of both final ends and then of each ITP probe. An idx
    array passed to probe is never changed, and the ITP steps pass the
    same one until some problem stops, so probe may keep work per idx. The
    start bracket 0 < lo <= hi is probed at both ends: once where lo ==
    hi, and as one shared point when every problem starts there
    (inverse's t = 1). An end on the wrong side becomes the other end, and
    a new end is probed a factor 2, 4, 16, ... (each the square of the
    last, at most 1e16) beyond it; only the problems that moved are
    probed again. The search has no step limit; it stops only at the
    float range. A feasible end that would have to pass the largest float
    raises NoBracket. A lower end that underflows to 0 before the bracket
    is found gives 0: when upper, every probe down to there was feasible;
    otherwise 0 itself is taken as the feasible end (for inverse,
    Phi(0) = 0).

    ITP steps in log space (see _itp_point) then shrink each bracket; a
    probe is evaluated at exactly the float that becomes the new end. A
    problem stops once hi - lo <= tol * (its feasible end), or once no
    float lies strictly between lo and hi, and that end is returned, so
    every result is certified by a probe. Problems drop out as they stop,
    so each one takes the same steps whichever problems share the call.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    n = lo.size
    res = np.zeros(n)
    two = np.flatnonzero(lo != hi)
    t = np.concatenate([lo, hi[two]])
    val, feasible = probe(np.concatenate([np.arange(n), two]), t[:1] if t.min() == t.max() else t)
    val = np.broadcast_to(val, feasible.shape)
    flo, fhi, ok_lo, ok_hi = val[:n].copy(), val[:n].copy(), feasible[:n], feasible[:n].copy()
    fhi[two], ok_hi[two] = val[n:], feasible[n:]

    # the upper end is wrong when it is infeasible (upper) or feasible
    # (not upper); otherwise the lower end is wrong when it is the reverse
    up = ok_hi != upper
    idx = np.flatnonzero(up | (ok_lo == upper))
    up = up[idx]
    under = np.zeros(n, dtype=bool)
    factor = 2.0
    while idx.size:
        with np.errstate(over="ignore"):
            t = np.where(up, np.minimum(hi[idx] * factor, _T_MAX), lo[idx] / factor)
        zero = t == 0.0
        if np.any(zero):
            under[idx[zero]] = True
            idx, up, t = idx[~zero], up[~zero], t[~zero]
            if not idx.size:
                break
        val, feasible = probe(idx, t)
        wrong = feasible != upper
        if np.any(up & wrong & (t == _T_MAX)):
            raise NoBracket("no bracket below the largest float")
        i, d = idx[up], idx[~up]
        lo[i], flo[i], hi[i], fhi[i] = hi[i], fhi[i], t[up], val[up]
        hi[d], fhi[d], lo[d], flo[d] = lo[d], flo[d], t[~up], val[~up]
        keep = np.where(up, wrong, ~wrong)
        idx, up = idx[keep], up[keep]
        factor = min(factor * factor, _BRACKET_FACTOR_CAP)

    eps = 0.5 * (-math.log1p(-tol) if upper else math.log1p(tol))
    idx = np.flatnonzero(~under)
    lo, hi, flo, fhi = lo[idx], hi[idx], log(idx, flo[idx]), log(idx, fhi[idx])
    a, b = np.log(lo), np.log(hi)
    w0 = b - a
    with np.errstate(divide="ignore"):
        k1 = 0.2 / w0
        nmax = np.ceil(np.log2(np.maximum(w0 / (2.0 * eps), 1.0))) + 1.0
    for j in range(_ITP_STEPS):
        end = hi if upper else lo
        done = (hi - lo <= tol * end) | (hi <= np.nextafter(lo, np.inf))
        if np.any(done):
            res[idx[done]] = end[done]
            keep = ~done
            idx, lo, hi, a, b, flo, fhi, k1, nmax = (
                v[keep] for v in (idx, lo, hi, a, b, flo, fhi, k1, nmax))
        if idx.size == 0:
            return res
        x = _itp_point(a, b, flo, fhi, j, nmax, eps, k1)
        t = np.exp(x)
        val, feasible = probe(idx, t)
        val = log(idx, val)
        above = feasible if upper else ~feasible
        below = ~above
        for new, upper_end, lower_end in ((t, hi, lo), (x, b, a), (val, fhi, flo)):
            np.copyto(upper_end, new, where=above)
            np.copyto(lower_end, new, where=below)
    res[idx] = hi if upper else lo
    return res


def inverse(phi: YoungFunction, y, tol: float = 1e-10):
    """Generalized inverse sup{t >= 0 : Phi(t) <= y}.

    Each positive y is one problem of _solve_bracketed on log Phi(t) / y
    over log t. Where Phi's formula inverts exactly (an uncapped Power, a
    Tabulated: _closed_inverse), the start bracket is the closed form g
    widened to [g (1 - tol/3), g (1 + tol/3)]: one probe of both ends
    certifies it, and an end the probe refutes moves by the bracket
    search. Every other family starts at [1, 1]. The returned t_lo has
    Phi(t_lo) <= y exactly and lies within a factor 1 + tol below the exact
    inverse; where Phi jumps to +inf the bracket closes on the jump point.
    A y so small that t_lo underflows gives 0. A Tabulated Phi is one
    clamped power law per piece that equals its knot values and never
    decreases (see Tabulated), so at a plateau's value the result is
    within tol below the plateau's right end. Raises NoBracket when an
    explicit domain cap makes y unreachable, or when Phi stays <= y up to
    the largest float (a Tabulated whose last segment is flat, at y of at
    least its value). Every point is solved on its own, so its result does
    not depend on the rest of the vector. Each distinct positive y is
    solved once (np.unique), in blocks of _INVERSE_CHUNK distinct values,
    and its t goes to every position that holds it: the same bits as one
    solve per position, for the work of the distinct values only. Raises
    ValueError unless 0 < tol < 1.
    """
    _check_tol(tol)
    arr = np.asarray(y, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).copy()
    if np.any(arr < 0) or np.any(np.isnan(arr)):
        raise ValueError("inverse expects y >= 0")

    if phi.domain_cap is not None and np.isfinite(phi.domain_cap):
        capval = phi.eval(float(phi.domain_cap))
        if np.any(arr > capval * (1.0 + tol) + 1e-300):
            raise NoBracket(
                f"y exceeds sup Phi = {capval:.6g} at the domain cap {phi.domain_cap:.6g}"
            )

    out = np.zeros_like(arr)
    pos = arr > 0
    if not np.any(pos):
        return float(out[0]) if scalar else out

    yq, where = np.unique(arr[pos], return_inverse=True)
    out[pos] = np.concatenate([
        _inverse_block(phi, yq[i:i + _INVERSE_CHUNK], tol)
        for i in range(0, yq.size, _INVERSE_CHUNK)
    ])[where]
    return float(out[0]) if scalar else out


def _closed_inverse(phi: YoungFunction, y: np.ndarray) -> np.ndarray | None:
    """Phi^{-1}(y) from Phi's own formula, where it inverts exactly, else None.

    An uncapped Power(r) gives y**(1/r). A Tabulated inverts the law of
    the piece p = searchsorted(knot values, y, side="right"), the piece
    whose left knot is the last one with value <= y (so a plateau gives its
    right end): T_p (y / Y_p)**(1 / K_p), or T_p + y (W_p / C_p) on a
    linear piece. A point with no usable answer (past a flat boundary
    segment, or out of float range) comes out nan, inf or 0. Only the exact
    classes qualify: a subclass may evaluate differently.
    """
    if type(phi) is Power and phi.domain_cap is None:
        return y ** (1.0 / phi.r)
    if type(phi) is not Tabulated:
        return None
    T, Y, K, W, C = phi._pieces.take(np.searchsorted(phi._y, y, side="right"), axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        return np.where(W > 0, T + y * (W / C), T * (y / Y) ** (1.0 / K))


def _inverse_block(phi: YoungFunction, y: np.ndarray, tol: float) -> np.ndarray:
    """inverse() on one block of positive y.

    Where _closed_inverse has an answer g, the start bracket is
    [g (1 - tol/3), g (1 + tol/3)], narrower than tol, so a guess whose
    ends the probe confirms stops after that one probe; a guess that
    misses (float rounding, a cap) moves its ends by the bracket search.
    Every other point starts at [1, 1].
    """
    logy = np.log(y)

    def probe(idx, t):
        ft = phi.eval(t)
        return ft, ft <= y[idx]

    def log(idx, ft):
        with np.errstate(divide="ignore"):
            return np.log(ft) - logy[idx]

    lo, hi = np.ones(y.size), np.ones(y.size)
    g = _closed_inverse(phi, y)
    if g is not None:
        with np.errstate(over="ignore"):
            a, b = g * (1.0 - tol / 3.0), g * (1.0 + tol / 3.0)
        ok = (a > 0) & (b <= _T_MAX)  # nan fails both tests
        lo[ok], hi[ok] = a[ok], b[ok]
    return _solve_bracketed(lo, hi, probe, log, tol, upper=False)


def phi_n_eval(n: int, t):
    """The companion scale t * log(e + t)^(n-1); n = 1 is the identity."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be an integer >= 1")
    arr = np.asarray(t, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = arr * np.log(_E + arr) ** (n - 1)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class SamplingSpec:
    """Log-spaced sample positions for the structural probes."""

    t_lo: float = 1e-3
    t_hi: float = 1e6
    count: int = 64

    def points(self) -> np.ndarray:
        if not (0 < self.t_lo < self.t_hi and self.count >= 2):
            raise ValueError("bad sampling spec")
        return np.geomspace(self.t_lo, self.t_hi, self.count)


@dataclass(frozen=True)
class ProbeReport:
    kind: str
    max_ratio: float
    argmax: tuple
    passed: bool
    tol: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "max_ratio": self.max_ratio,
            "argmax": list(self.argmax),
            "passed": self.passed,
            "tol": self.tol,
            "samples": self.samples,
        }


def probe_submultiplicative(phi: YoungFunction, samples: SamplingSpec = SamplingSpec(),
                            tol: float = 1e-6) -> ProbeReport:
    """Sampled check of Phi(t s) <= Phi(t) Phi(s) over a log-spaced pair grid."""
    pts = samples.points()
    tt, ss = np.meshgrid(pts, pts)
    tt, ss = tt.ravel(), ss.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        num = phi.eval(tt * ss)
        den = phi.eval(tt) * phi.eval(ss)
    ok = np.isfinite(num) & np.isfinite(den) & (den > 0)
    ratio = num[ok] / den[ok]
    if ratio.size == 0:
        return ProbeReport("submultiplicative", math.nan, (math.nan, math.nan), False, tol, 0)
    i = int(np.argmax(ratio))
    mx = float(ratio[i])
    return ProbeReport(
        "submultiplicative",
        mx,
        (float(tt[ok][i]), float(ss[ok][i])),
        mx <= 1.0 + tol,
        tol,
        int(ratio.size),
    )


def probe_doubling(phi: YoungFunction, samples: SamplingSpec = SamplingSpec(),
                   bound: float | None = None, tol: float = 1e-9) -> ProbeReport:
    """Empirical doubling constant sup Phi(2t) / Phi(t) over the sample set.

    No universal threshold is asserted; pass means the empirical sup is
    finite, or <= bound when one is supplied.
    """
    pts = samples.points()
    with np.errstate(over="ignore", invalid="ignore"):
        num = phi.eval(2.0 * pts)
        den = phi.eval(pts)
    ok = np.isfinite(den) & (den > 0)
    ratio = num[ok] / den[ok]
    if ratio.size == 0:
        return ProbeReport("doubling", math.nan, (math.nan,), False, tol, 0)
    i = int(np.argmax(ratio))
    mx = float(ratio[i])
    passed = np.isfinite(mx) if bound is None else mx <= bound * (1.0 + tol)
    return ProbeReport("doubling", mx, (float(pts[ok][i]),), bool(passed), tol, int(ratio.size))


_KINDS = {"power", "power_log", "power_log_log", "tabulated", "complement_of"}


def young_to_json(phi: YoungFunction) -> dict:
    """JSON-able descriptor; a complement serializes as its base wrapped in
    complement_of, since the table rebuild from the base is deterministic."""
    if isinstance(phi, NumericComplement):
        return {"kind": "complement_of", "base": young_to_json(phi.base)}
    if isinstance(phi, Power):
        d = {"kind": "power", "r": phi.r}
    elif isinstance(phi, PowerLog):
        d = {"kind": "power_log", "alpha": phi.alpha, "beta": phi.beta}
    elif isinstance(phi, PowerLogLog):
        d = {"kind": "power_log_log", "p": phi.p, "gamma": phi.gamma, "log_exp": phi.log_exp}
    elif isinstance(phi, Tabulated):
        d = {"kind": "tabulated", "knots": [[a, b] for a, b in phi.knots]}
    else:
        raise TypeError(f"unknown Young function type {type(phi).__name__}")
    if phi.domain_cap is not None:
        d["domain_cap"] = phi.domain_cap
    return d


def young_from_json(obj) -> YoungFunction:
    """Rebuild a Young function from a JSON descriptor (dict or string)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("descriptor must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind not in _KINDS:
        raise ValueError(f"unknown Young function kind {kind!r}")
    if kind == "complement_of":
        return complementary(young_from_json(obj["base"]))
    cap = obj.get("domain_cap")
    if kind == "power":
        return Power(float(obj["r"]), domain_cap=cap)
    if kind == "power_log":
        return PowerLog(float(obj["alpha"]), float(obj["beta"]), domain_cap=cap)
    if kind == "power_log_log":
        return PowerLogLog(
            float(obj["p"]),
            float(obj["gamma"]),
            float(obj.get("log_exp", 2.0)),
            domain_cap=cap,
        )
    return Tabulated(obj["knots"], domain_cap=cap)
