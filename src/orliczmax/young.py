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
    if np.any(arr < 0) or np.any(np.isnan(arr)):
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
    """Piecewise interpolation through (t, Phi(t)) knots.

    Interpolation is linear in log-log coordinates wherever both endpoint
    values are positive (exact for pure powers), linear in t across a
    zero-to-positive segment, and extrapolates by the boundary segment's
    log-log slope outside the knot range. Knot values must be nondecreasing;
    convexity of the represented function is the caller's responsibility.
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
        with np.errstate(divide="ignore"):
            self._logt = np.log(t)
            self._logy = np.where(y > 0, np.log(np.where(y > 0, y, 1.0)), -np.inf)
        self.domain_cap = domain_cap

    @property
    def knots(self) -> list[tuple[float, float]]:
        return [(float(a), float(b)) for a, b in zip(self._t, self._y)]

    def _segment_slope(self, i: int) -> float:
        # log-log slope of segment [i, i+1]; 0 for flat-zero segments
        if self._y[i] > 0 and self._y[i + 1] > 0:
            return float(
                (self._logy[i + 1] - self._logy[i]) / (self._logt[i + 1] - self._logt[i])
            )
        return 0.0

    def _raw(self, t):
        tk, yk = self._t, self._y
        out = np.empty_like(t)
        idx = np.searchsorted(tk, t, side="right") - 1

        below = idx < 0
        above = idx >= tk.size - 1
        inner = ~(below | above)

        if np.any(below):
            tb = t[below]
            if yk[0] == 0.0:
                out[below] = 0.0
            else:
                k = self._segment_slope(0)
                out[below] = yk[0] * (tb / tk[0]) ** k
        if np.any(above):
            ta = t[above]
            k = self._segment_slope(tk.size - 2)
            if yk[-1] == 0.0:
                out[above] = 0.0
            else:
                out[above] = yk[-1] * (ta / tk[-1]) ** k
        if np.any(inner):
            i = idx[inner]
            ti = t[inner]
            y0, y1 = yk[i], yk[i + 1]
            both = (y0 > 0) & (y1 > 0)
            res = np.empty_like(ti)
            if np.any(both):
                j = i[both]
                w = (np.log(ti[both]) - self._logt[j]) / (self._logt[j + 1] - self._logt[j])
                res[both] = np.exp(self._logy[j] + w * (self._logy[j + 1] - self._logy[j]))
            rest = ~both
            if np.any(rest):
                j = i[rest]
                w = (ti[rest] - tk[j]) / (tk[j + 1] - tk[j])
                res[rest] = yk[j] + w * (yk[j + 1] - yk[j])
            out[inner] = res
        return out


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

    def _objective(self, s: np.ndarray, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return s * t - self.base.eval(t)

    def _raw(self, s):
        t, u, y = self._t, self._u, self._y
        slopes = self._slopes
        k = np.searchsorted(slopes, s, side="left")

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


# Points per block of one inverse call: the solver keeps about a dozen
# arrays per point, so long vectors are solved a block at a time.
_INVERSE_CHUNK = 8192
# The bracket search multiplies by a factor that squares at every step,
# up to this cap.
_BRACKET_FACTOR_CAP = 1e16
_T_MAX = float(np.finfo(float).max)
# ITP stops a problem within its nmax = ceil(log2(w0 / (2 eps))) + 1 steps,
# at most 62 for a bracket inside the float range at tol >= 1e-15; this
# bound only ends a tol below float resolution, where no step can close
# the bracket to tol.
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
    problem stops once hi - lo <= tol * (its feasible end), and that end
    is returned, so every result is certified by a probe. Problems drop
    out as they stop, so each one takes the same steps whichever problems
    share the call.
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
        done = hi - lo <= tol * end
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
    over log t, from the start bracket [1, 1]. The returned t_lo has
    Phi(t_lo) <= y exactly and lies within a factor 1 + tol below the exact
    inverse; where Phi jumps to +inf the bracket closes on the jump point.
    A y so small that t_lo underflows gives 0. Raises NoBracket when an
    explicit domain cap makes y unreachable, or when Phi stays <= y up to
    the largest float. Every point is solved on its own, so its result does
    not depend on the rest of the vector; long vectors are solved in blocks
    of _INVERSE_CHUNK points.
    """
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

    yq = arr[pos]
    out[pos] = np.concatenate([
        _inverse_block(phi, yq[i:i + _INVERSE_CHUNK], tol)
        for i in range(0, yq.size, _INVERSE_CHUNK)
    ])
    return float(out[0]) if scalar else out


def _inverse_block(phi: YoungFunction, y: np.ndarray, tol: float) -> np.ndarray:
    """inverse() on one block of positive y."""
    logy = np.log(y)

    def probe(idx, t):
        ft = phi.eval(t)
        return ft, ft <= y[idx]

    def log(idx, ft):
        with np.errstate(divide="ignore"):
            return np.log(ft) - logy[idx]

    one = np.ones(y.size)
    return _solve_bracketed(one, one, probe, log, tol, upper=False)


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
