"""Tail-integral classification of Young functions.

The conditions tested are, for a growth exponent p and dimension n,

    plain mode:      integral_c^inf  Phi(t) / t^p  dt/t  < inf
    companion mode:  integral_c^inf  PhiN(Phi(t)) / t^p  dt/t  < inf

with PhiN(t) = t log(e+t)^(n-1). Partial integrals are computed by a
composite trapezoid rule on a log-spaced mesh with mesh doubling; the
verdict comes from fitting the tail model

    integrand ~ kappa * t^(-1-rho) * log(t)^sigma

across the same decades the partials cover. rho away from zero decides
immediately; otherwise the integral behaves like sum k^sigma and the
fitted log-power decides, with a dead band around the harmonic boundary
sigma = -1 reported as Inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFinite, VerdictConflict
from .young import Power, PowerLog, PowerLogLog, YoungFunction, _plain, phi_n_eval

__all__ = [
    "TailIntegralTrace",
    "Verdict",
    "classify",
    "analytic_verdict",
    "CONVERGES",
    "DIVERGES",
    "INCONCLUSIVE",
]

CONVERGES = "Converges"
DIVERGES = "Diverges"
INCONCLUSIVE = "Inconclusive"

_MODES = ("bp", "bp_star")
_RHO_MARGIN = 0.05
# margin on the fitted log-power when the power-law part is flat; a
# borderline integrand 1/(t log t) has sigma exactly -1 and must land in
# the dead band rather than on either side of it
_SIGMA_MARGIN = 0.25
_NOISE_FLOOR = 1e-12


def _integrand(phi: YoungFunction, p: float, n: int, mode: str, t: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        ft = phi.eval(t)
        if mode == "bp_star":
            ft = phi_n_eval(n, ft)
        out = ft / t ** (p + 1.0)
    if np.any(~np.isfinite(out)):
        bad = t[~np.isfinite(out)][0]
        raise NonFinite(f"integrand not finite at t={bad:.6g}")
    return out


@dataclass(frozen=True)
class TailIntegralTrace:
    cutoffs: tuple[float, ...]
    partials: tuple[float, ...]
    rho: float
    sigma: float
    kappa: float
    c: float
    p: float
    n: int
    mode: str
    mesh_per_decade: int

    to_dict = _plain


@dataclass(frozen=True)
class Verdict:
    label: str
    trace: TailIntegralTrace
    analytic: str | None

    def __post_init__(self):
        if self.analytic is not None and self.label != INCONCLUSIVE:
            if self.label != self.analytic:
                raise VerdictConflict(
                    f"numeric label {self.label} contradicts closed form {self.analytic} "
                    f"(mode={self.trace.mode}, p={self.trace.p}, n={self.trace.n})"
                )

    to_dict = _plain


def _cumulative_partials(phi, p, n, mode, c, cutoffs, per_decade) -> np.ndarray:
    """Trapezoid partials at every cutoff from one nested mesh.

    The mesh is built per decade segment with the cutoffs on segment
    boundaries, so the partials are prefix sums of positive terms and hence
    exactly nondecreasing.
    """
    edges = [c] + [x for x in cutoffs if x > c]
    total = 0.0
    out = []
    for a, b in zip(edges[:-1], edges[1:]):
        m = max(2, int(math.ceil(per_decade * math.log10(b / a))) + 1)
        u = np.linspace(math.log(a), math.log(b), m)
        t = np.exp(u)
        g = _integrand(phi, p, n, mode, t) * t
        total += float(np.trapezoid(g, u))
        out.append(total)
    return np.array(out)


def _fit_tail(phi, p, n, mode) -> tuple[float, float, float]:
    """Fit integrand * t ~ kappa * u^sigma * exp(-rho u) with u = log t.

    Samples at half-decade midpoints of [1e3, 1e12] and fits in two
    stages. Stage one estimates rho from {1, u, log u}. When rho is flat
    the verdict rides on sigma alone, so stage two refits with rho pinned
    to zero on {1, log u, log(u)/u}; the log(u)/u regressor absorbs the
    slowly decaying corrections the companion scale introduces
    (log(e + Phi(t)) = p log t - beta log log t + ...), which would
    otherwise bias sigma by a few tenths at these cutoffs. Fitting all
    four shapes at once is too collinear over nine decades to be stable.
    """
    ln10 = math.log(10.0)
    u = np.arange(3.25, 12.0, 0.5) * ln10
    t = np.exp(u)
    w = _integrand(phi, p, n, mode, t) * t
    good = w > 0
    if good.sum() < 5:
        return math.nan, math.inf, math.nan  # tail numerically zero
    u, w = u[good], np.log(w[good])
    lu = np.log(u)
    coarse = np.column_stack([np.ones_like(u), -u, lu])
    a, rho, sigma = (float(v) for v in np.linalg.lstsq(coarse, w, rcond=None)[0])
    if abs(rho) <= _RHO_MARGIN:
        flat = np.column_stack([np.ones_like(u), lu, lu / u])
        coef = np.linalg.lstsq(flat, w, rcond=None)[0]
        a, sigma = float(coef[0]), float(coef[1])
    return a, rho, sigma


def classify(phi: YoungFunction, p: float, n: int = 2, mode: str = "bp",
             c: float = 1.0, rel_tol: float = 1e-6) -> Verdict:
    """Convergence verdict for the tail integral, with full numeric trace.

    Labels: Converges / Diverges / Inconclusive. When the function belongs
    to a parametric family with a closed-form answer the verdict carries it,
    and a non-Inconclusive disagreement raises VerdictConflict.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    if not (0 < c <= 100.0):
        raise ValueError("lower limit c out of range")
    n = int(n)
    cutoffs = tuple(10.0**k for k in range(3, 13))

    per = 64
    partials = _cumulative_partials(phi, p, n, mode, c, cutoffs, per)
    while per < 2048:
        per *= 2
        nxt = _cumulative_partials(phi, p, n, mode, c, cutoffs, per)
        if np.allclose(nxt, partials, rtol=rel_tol, atol=1e-300):
            partials = nxt
            break
        partials = nxt

    total = partials[-1]
    incs = np.diff(partials)
    usable = incs > _NOISE_FLOOR * max(total, 1e-300)
    if total == 0.0 or not usable[-1] or usable.sum() < 3:
        # tail exhausted within double precision
        label = CONVERGES
        a = rho = sigma = math.nan
        kappa = 0.0
    else:
        a, rho, sigma = _fit_tail(phi, p, n, mode)
        kappa = math.exp(a) if np.isfinite(a) else 0.0
        if rho > _RHO_MARGIN:
            label = CONVERGES
        elif rho < -_RHO_MARGIN:
            label = DIVERGES
        elif sigma <= -1.0 - _SIGMA_MARGIN:
            label = CONVERGES
        elif sigma >= -1.0 + _SIGMA_MARGIN:
            label = DIVERGES
        else:
            label = INCONCLUSIVE

    trace = TailIntegralTrace(
        cutoffs=cutoffs,
        partials=tuple(float(v) for v in partials),
        rho=float(rho) if np.isfinite(rho) else math.nan,
        sigma=float(sigma) if np.isfinite(sigma) else math.nan,
        kappa=float(kappa),
        c=c,
        p=float(p),
        n=n,
        mode=mode,
        mesh_per_decade=per,
    )
    return Verdict(label=label, trace=trace, analytic=analytic_verdict(phi, p, n, mode))


def analytic_verdict(phi: YoungFunction, p: float, n: int = 2,
                     mode: str = "bp") -> str | None:
    """Closed-form verdict for the parametric families; None otherwise.

    Boundary equalities land on Diverges, matching the integral test.
    """
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}")
    n = int(n)
    if isinstance(phi, Power):
        return CONVERGES if phi.r < p else DIVERGES
    if isinstance(phi, PowerLog):
        a, b = phi.alpha, phi.beta
        if a < p:
            return CONVERGES
        if a > p:
            return DIVERGES
        thr = 1.0 if mode == "bp" else float(n)
        return CONVERGES if b > thr else DIVERGES
    if isinstance(phi, PowerLogLog):
        q, g, le = phi.p, phi.gamma, phi.log_exp
        if q < p:
            return CONVERGES
        if q > p:
            return DIVERGES
        thr = 1.0 if mode == "bp" else float(n)
        if le > thr:
            return CONVERGES
        if le < thr:
            return DIVERGES
        return CONVERGES if g > 1.0 else DIVERGES
    return None
