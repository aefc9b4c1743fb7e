"""At-site GP parameter estimation and return levels.

Maximum likelihood fixes the GP location at the POT threshold and uses a
quasi-Newton search on (log scale, shape) with analytic gradients,
multi-started from the probability-weighted-moment estimate, plus a
Newton polish so the gradient norm at the solution is certifiably small;
a search that cannot certify its optimum runs once more around a point
inside the data's support.
The polish and the reported covariance share one closed-form observed
information of (scale, shape).

The PWM fit pairs the L-moment estimator with its published asymptotic
covariance (valid for shape < 1/2); for heavy estimated shapes (> 0.4) a
seeded bootstrap replaces the asymptotics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import optimize
from scipy.stats import chi2

from .distributions import SHAPE_EPS, GpParams, gp_logpdf, gp_quantile
from .errors import FitError, InputError, InsufficientDataError
from .lmoments import gp_fit_lmom, sample_lmoments
from .pot import PotSeries

__all__ = [
    "GpFit",
    "ProfileCi",
    "gp_fit_mle",
    "gp_fit_pwm",
    "log_param_variances",
    "profile_ci",
    "quantile_variance",
    "return_level",
]

_XI_MIN, _XI_MAX = -0.99, 5.0
_MIN_EVENTS = 5
# shapes on which _profile_loglik starts its search
_PROFILE_GRID = np.linspace(_XI_MIN, 2.0, 31)


@dataclass(frozen=True)
class GpFit:
    """A fitted GP law, location at the threshold, plus uncertainty bookkeeping.

    ``covariance`` rows/columns follow (scale, shape); it is None when the
    observed information was not positive definite.  ``boundary`` marks an
    MLE whose shape ended on a search bound.
    """

    params: GpParams
    covariance: np.ndarray | None
    loglik: float
    method: str
    n: int
    boundary: bool = False


def _nll_grad(z: np.ndarray, x: np.ndarray, location: float):
    """Negative log likelihood and gradient in (log scale, shape).

    Off-support or numerically unrepresentable points return a large
    penalty growing with the violation (zero gradient) so line searches
    back off.
    """
    logs, xi = z
    if not np.all(np.isfinite(z)) or abs(logs) >= 700.0:
        mag = abs(logs) if math.isfinite(logs) else 1e6
        return 1e10 * (1.0 + mag), np.zeros_like(z)
    s = math.exp(logs)
    y = (x - location) / s
    n = x.size
    if np.any(y < 0.0):
        return 1e10 * (1.0 + float(np.sum(np.maximum(-y, 0.0)))), np.zeros_like(z)
    if abs(xi) < SHAPE_EPS:
        f = n * logs + float(np.sum(y))
        g_logs = n - float(np.sum(y))
        g_xi = float(np.sum(y - 0.5 * y * y))
    else:
        a = xi * y
        t = 1.0 + a
        if np.any(t <= 0.0):
            return 1e10 * (1.0 + float(np.sum(np.maximum(-t, 0.0)))), np.zeros_like(z)
        log_t = np.log(t)
        f = n * logs + (1.0 + 1.0 / xi) * float(np.sum(log_t))
        w = y / t
        g_logs = n - (1.0 + xi) * float(np.sum(w))
        if float(np.max(np.abs(a))) < 1e-3:
            # per peak the shape gradient is w + y**2 * chi(a) with
            # chi(a) = (a / t - log1p(a)) / a**2, whose closed form below
            # cancels to noise for small |a|; chi's Taylor series instead
            chi = -0.5 + a * (2.0 / 3.0 + a * (-0.75 + a * (0.8 + a * (-5.0 / 6.0))))
            g_xi = float(np.sum(w + y * y * chi))
        else:
            g_xi = (1.0 + 1.0 / xi) * float(np.sum(w)) - (1.0 / xi**2) * float(np.sum(log_t))
    return f, np.array([g_logs, g_xi])


def _observed_information(x: np.ndarray, location: float, scale: float, shape: float) -> np.ndarray:
    """Hessian of the negative log likelihood in (scale, shape), in closed form.

    With y = (x - location) / scale, a = shape * y and t = 1 + a, it needs
    every t > 0; |shape| < SHAPE_EPS is the exponential law, as in
    ``_nll_grad``.  The shape-shape term is y**3 * phi(a) - (y / t)**2 per
    peak, phi(a) = (2 log(1 + a) / a - 2 / t - a / t**2) / a**2.  That form
    cancels to rounding noise for small |a|, so below 1e-3 phi's Taylor
    series (2/3 at a = 0) takes over.
    """
    xi = 0.0 if abs(shape) < SHAPE_EPS else shape
    y = (x - location) / scale
    a = xi * y
    t = 1.0 + a
    w = y / t
    phi = np.empty_like(a)
    small = np.abs(a) < 1e-3
    b = a[small]
    phi[small] = 2.0 / 3.0 + b * (-1.5 + b * (2.4 + b * (-10.0 / 3.0 + b * 30.0 / 7.0)))
    b, tb = a[~small], t[~small]
    phi[~small] = (2.0 * np.log1p(b) / b - 2.0 / tb - b / tb**2) / b**2
    h_ss = ((1.0 + xi) * float(np.sum(w + w / t)) - x.size) / scale**2
    h_sx = float(np.sum(w * (y - 1.0) / t)) / scale
    h_xx = float(np.sum(y**3 * phi - w * w))
    return np.array([[h_ss, h_sx], [h_sx, h_xx]])


def _search_from(s0: float, xi0: float, x: np.ndarray, u: float):
    """Newton-polished best L-BFGS-B optimum from five starts around (s0, xi0).

    Returns (log scale, shape), the negative log likelihood there, whether
    the projected gradient is certifiably small, and that gradient's norm.
    """
    z0 = np.array([math.log(s0), xi0])
    bounds = [(z0[0] - 12.0, z0[0] + 12.0), (_XI_MIN, _XI_MAX)]
    delta = max(0.2 * abs(xi0), 0.1)
    starts = []
    for fs, fx in ((1.0, 0.0), (0.8, -delta), (1.2, delta), (0.8, delta), (1.2, -delta)):
        z = z0.copy()
        z[0] += math.log(fs)
        z[1] = float(np.clip(z[1] + fx, _XI_MIN + 0.01, _XI_MAX - 0.01))
        starts.append(z)

    best = None
    for z in starts:
        res = optimize.minimize(
            _nll_grad,
            z,
            args=(x, u),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
    z = np.asarray(best.x, dtype=float)

    # Newton polish until the projected gradient is certifiably small;
    # when the optimum sits on a shape bound the outward shape component
    # is projected away and the step works on log scale alone
    def proj_grad(zv, g):
        g = np.asarray(g, dtype=float).copy()
        if (zv[1] <= _XI_MIN + 1e-9 and g[1] > 0.0) or (zv[1] >= _XI_MAX - 1e-9 and g[1] < 0.0):
            g[1] = 0.0
        return g

    f_val, g_full = _nll_grad(z, x, u)
    tol = 1e-8 * max(1.0, abs(f_val))
    for _ in range(40):
        g_proj = proj_grad(z, g_full)
        g_norm = float(np.max(np.abs(g_proj)))
        if g_norm <= tol:
            break
        work = [0] if g_proj[1] == 0.0 and g_full[1] != 0.0 else [0, 1]
        # chain rule from (scale, shape) to (log scale, shape)
        sigma = math.exp(z[0])
        hess = _observed_information(x, u, sigma, z[1]) * np.outer([sigma, 1.0], [sigma, 1.0])
        hess[0, 0] += g_full[0]
        try:
            step = np.linalg.solve(hess[np.ix_(work, work)], -g_proj[work])
        except np.linalg.LinAlgError:
            break
        norm = float(np.max(np.abs(step)))
        if norm > 10.0:  # near-singular hessians propose absurd steps
            step *= 10.0 / norm
        scale = 1.0
        for _ in range(30):
            z_try = z.copy()
            z_try[work] = z[work] + scale * step
            z_try[1] = float(np.clip(z_try[1], _XI_MIN, _XI_MAX))
            f_try, g_try = _nll_grad(z_try, x, u)
            if f_try < 1e9 and float(np.max(np.abs(proj_grad(z_try, g_try)))) < g_norm:
                z, f_val, g_full = z_try, f_try, g_try
                break
            scale *= 0.5
        else:
            break
    g_final = float(np.max(np.abs(proj_grad(z, g_full))))
    return z, f_val, g_final <= max(tol, 1e-6), g_final


def gp_fit_mle(pot: PotSeries) -> GpFit:
    """Maximum-likelihood GP fit to event peaks, location at the POT threshold.

    L-BFGS-B runs from five starts around the PWM estimate, and the best
    optimum is Newton-polished.  When that polish cannot certify the
    optimum, the search runs once more around a point inside the support
    (shape at least -0.98, scale at least 1.1 |PWM shape| times the largest
    exceedance); fits that converge at the first search are untouched.
    ``boundary`` is set when the shape ends on its search bound
    (short-tailed samples pile up at -0.99).
    """
    x = pot.peaks
    u = pot.threshold
    if x.size < _MIN_EVENTS:
        raise InsufficientDataError(
            f"need at least {_MIN_EVENTS} events for a threshold-location fit, got {x.size}"
        )
    if np.ptp(x) == 0.0:
        raise FitError("event peaks are all equal; no GP fit exists")
    try:
        start = gp_fit_lmom(sample_lmoments(x), location=u)
        s0, xi0 = start.scale, start.shape
    except FitError:
        s0, xi0 = float(np.mean(x - u)), 0.5
    z, f_val, converged, g_final = _search_from(s0, xi0, x, u)
    if not converged:
        # starts off the support sit on the penalty, which has no slope to
        # follow: search once more around a point where every peak has density
        s_on = max(s0, 1.1 * abs(xi0) * float(np.max(x) - u))
        z, f_val, converged, g_final = _search_from(s_on, max(xi0, -0.98), x, u)
    if not converged:
        raise FitError(f"MLE did not converge (gradient norm {g_final:.2e})")

    params = GpParams(u, math.exp(z[0]), float(z[1]))
    covariance = None
    # a fit left on the penalty (f_val >= 1e9) lies off the support, where
    # the information does not exist
    if f_val < 1e9:
        info = _observed_information(x, u, params.scale, params.shape)
        det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
        if info[0, 0] > 0.0 and det > 0.0:
            covariance = np.array([[info[1, 1], -info[0, 1]], [-info[0, 1], info[0, 0]]]) / det
    return GpFit(
        params=params,
        covariance=covariance,
        loglik=-f_val,
        method="mle",
        n=x.size,
        boundary=bool(z[1] <= _XI_MIN + 1e-9 or z[1] >= _XI_MAX - 1e-9),
    )


def _pwm_asymptotic_covariance(scale: float, shape: float, n: int) -> np.ndarray:
    k = -shape
    den = (1.0 + 2.0 * k) * (3.0 + 2.0 * k)
    vss = scale**2 * (7.0 + 18.0 * k + 11.0 * k**2 + 2.0 * k**3) / den
    vsk = scale * (2.0 + k) * (2.0 + 6.0 * k + 7.0 * k**2 + 2.0 * k**3) / den
    vkk = (1.0 + k) * (2.0 + k) ** 2 * (1.0 + k + 2.0 * k**2) / den
    return np.array([[vss, -vsk], [-vsk, vkk]]) / n


def gp_fit_pwm(
    pot: PotSeries,
    variant: str = "unbiased",
    bootstrap_seed: int = 0,
    bootstrap_size: int = 500,
) -> GpFit:
    """Probability-weighted-moment GP fit with the location at the threshold.

    The covariance is the asymptotic PWM matrix for estimated shape <= 0.4
    and a seeded nonparametric bootstrap beyond that, where the asymptotic
    theory is unreliable.
    """
    x = pot.peaks
    if x.size < _MIN_EVENTS:
        raise InsufficientDataError(
            f"need at least {_MIN_EVENTS} events for a PWM fit, got {x.size}"
        )
    params = gp_fit_lmom(sample_lmoments(x, variant), location=pot.threshold)
    if params.shape <= 0.4:
        covariance = _pwm_asymptotic_covariance(params.scale, params.shape, x.size)
    else:
        rng = np.random.default_rng(bootstrap_seed)
        draws = []
        for _ in range(bootstrap_size):
            resample = rng.choice(x, size=x.size, replace=True)
            try:
                p = gp_fit_lmom(sample_lmoments(resample, variant), location=pot.threshold)
            except (FitError, InputError):
                continue
            draws.append((p.scale, p.shape))
        if len(draws) < bootstrap_size // 2:
            covariance = None
        else:
            covariance = np.cov(np.asarray(draws).T)
    loglik = float(np.sum(gp_logpdf(params, x)))
    return GpFit(
        params=params,
        covariance=covariance,
        loglik=loglik,
        method="pwm",
        n=x.size,
    )


def _check_rate_period(rate: float, period_years: float) -> None:
    if not math.isfinite(rate) or rate <= 0:
        raise InputError(f"event rate must be positive, got {rate!r}")
    if not math.isfinite(period_years) or rate * period_years <= 1.0:
        raise InputError(
            f"return period {period_years!r} needs rate * T > 1 (rate {rate!r})"
        )


def return_level(params: GpParams, rate: float, period_years: float) -> float:
    """Quantile exceeded once per ``period_years`` on average.

    With ``rate`` events per year, the T-year level is the GP quantile at
    non-exceedance probability 1 - 1/(rate * T); requires rate * T > 1.
    """
    _check_rate_period(rate, period_years)
    return float(gp_quantile(params, 1.0 - 1.0 / (rate * period_years)))


def quantile_variance(fit: GpFit, rate: float, period_years: float) -> float:
    """Delta-method variance of the T-year level under the fit covariance.

    The gradient of mu + sigma * (e**(a*xi) - 1) / xi with a = -log(1-p)
    in (sigma, xi) is propagated through the covariance; the location is
    the fixed threshold.
    """
    if fit.covariance is None:
        raise FitError("fit has no covariance; cannot derive a quantile variance")
    _check_rate_period(rate, period_years)
    sigma, xi = fit.params.scale, fit.params.shape
    a = math.log(rate * period_years)
    if abs(xi) < SHAPE_EPS:
        w, dw = a, a * a / 2.0
    else:
        e = math.exp(a * xi)
        w = (e - 1.0) / xi
        dw = (a * e * xi - (e - 1.0)) / xi**2
    grad = np.array([w, sigma * dw])
    return float(grad @ fit.covariance @ grad)


def log_param_variances(fit: GpFit, threshold_cv: float = 0.1) -> tuple[float, float, float]:
    """Variances of (log location, log scale, shape) for prior elicitation.

    Delta method on the fit covariance; a fixed location carries no
    estimation variance, so a threshold-uncertainty CV stands in for it.
    """
    if fit.covariance is None:
        raise FitError("fit has no covariance; cannot derive log-parameter variances")
    if not 0.0 <= threshold_cv < 1.0:
        raise InputError(f"threshold_cv must lie in [0, 1), got {threshold_cv!r}")
    var_log_sigma = float(fit.covariance[0, 0]) / fit.params.scale**2
    return threshold_cv**2, var_log_sigma, float(fit.covariance[1, 1])


class ProfileCi(NamedTuple):
    lower: float
    upper: float
    lower_unbounded: bool
    upper_unbounded: bool


def _profile_loglik(pot: PotSeries, p: float, q: float) -> float:
    """Profile log likelihood over shape at fixed quantile q.

    Each shape fixes the scale that puts the p-quantile at q.  The shape is
    scored on the 31-point ``_PROFILE_GRID`` and refined by bounded Brent
    between the grid neighbours of the best point.  The grid is one
    (31, n) array expression and each Brent step one pass over the
    exceedances d, with no ``GpParams`` and no ``gp_logpdf`` call.  Both
    repeat ``gp_logpdf``'s operations in its order (y = d / s,
    t = 1 + shape * y, -log s - (1 + 1/shape) * log t, summed pairwise),
    so every value equals the sum of ``gp_logpdf`` bit for bit: a change
    at rounding level could flip a bisection step of ``profile_ci``.
    Off-support shapes and non-positive or non-finite scales score 1e12.
    Support needs only t > 0 at the largest exceedance, since a PotSeries
    has no peak below its threshold.
    """
    u = pot.threshold
    d = pot.peaks - u
    d_max = float(d.max())

    def scale_for(xi: float) -> float:
        if abs(xi) < SHAPE_EPS:
            return (q - u) / (-math.log1p(-p))
        return (q - u) * xi / (math.expm1(-xi * math.log1p(-p)))

    def neg_ll(xi: float) -> float:
        # Brent passes numpy scalars; Python floats compute the same values
        # faster, and overflow to an infinite scale without a warning
        xi = float(xi)
        s = scale_for(xi)
        if s <= 0 or not math.isfinite(s):
            return 1e12
        y = d / s
        if abs(xi) < SHAPE_EPS:
            val = float((-math.log(s) - y).sum())
        elif 1.0 + xi * (d_max / s) <= 0.0:
            return 1e12
        else:
            log_t = np.log(np.maximum(1.0 + xi * y, 1e-300))
            val = float((-math.log(s) - (1.0 + 1.0 / xi) * log_t).sum())
        return -val if math.isfinite(val) else 1e12

    # no grid shape lies within SHAPE_EPS of 0, so every row takes the
    # shape != 0 form
    scales = [scale_for(xi) for xi in _PROFILE_GRID.tolist()]
    rows = [k for k, s in enumerate(scales) if s > 0 and math.isfinite(s)]
    s = np.array([scales[k] for k in rows])
    shape = _PROFILE_GRID[rows]
    log_s = np.array([math.log(v) for v in s])
    y = d / s[:, None]
    log_t = np.log(np.maximum(1.0 + shape[:, None] * y, 1e-300))
    sums = (-log_s[:, None] - (1.0 + 1.0 / shape)[:, None] * log_t).sum(axis=1)
    on_support = np.isfinite(sums) & (1.0 + shape * (d_max / s) > 0.0)
    values = np.full(_PROFILE_GRID.size, 1e12)
    values[rows] = np.where(on_support, -sums, 1e12)

    i = int(np.argmin(values))
    lo = _PROFILE_GRID[max(i - 1, 0)]
    hi = _PROFILE_GRID[min(i + 1, _PROFILE_GRID.size - 1)]
    res = optimize.minimize_scalar(neg_ll, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-8})
    return -min(float(res.fun), float(values[i]))


def profile_ci(
    pot: PotSeries,
    period_years: float,
    level: float = 0.90,
    *,
    fit: GpFit | None = None,
) -> ProfileCi:
    """Profile-likelihood interval for the T-year return level.

    Reparameterizes (scale, shape) -> (quantile, shape), profiles out the
    shape, and bisects the deviance 2 * (max - profile) against the chi^2(1)
    cutoff. Search is limited to [q_hat / 10, 10 * q_hat]; not crossing the
    cutoff in there sets the matching unbounded flag.  Each deviance costs
    one ``_profile_loglik``: a vectorized 31-shape grid plus bounded Brent
    on a scalar likelihood, both equal bit for bit to the sum of
    ``gp_logpdf``.  The bisection's steps, and so the bounds, therefore do
    not move with the faster arithmetic; a root finder in its place would
    move them by up to its 1e-4 * q_hat tolerance.

    ``fit`` is ``gp_fit_mle(pot)`` when the caller
    already has it; without it the record is fitted here.  A fit of
    another kind or of another record size raises InputError.
    """
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level!r}")
    if fit is None:
        fit = gp_fit_mle(pot)
    elif fit.method != "mle" or fit.n != pot.peaks.size:
        raise InputError(
            "profile_ci needs the MLE of the same record, got a "
            f"{fit.method} fit of {fit.n} events"
        )
    rate = pot.rate
    q_hat = return_level(fit.params, rate, period_years)
    p = 1.0 - 1.0 / (rate * period_years)
    cutoff = float(chi2.ppf(level, 1))
    ll_max = fit.loglik

    def deviance(q: float) -> float:
        return 2.0 * (ll_max - _profile_loglik(pot, p, q))

    def bisect(inside: float, outside: float) -> float:
        for _ in range(200):
            mid = 0.5 * (inside + outside)
            if abs(outside - inside) <= 1e-4 * q_hat:
                break
            if deviance(mid) > cutoff:
                outside = mid
            else:
                inside = mid
        return 0.5 * (inside + outside)

    floor = max(q_hat / 10.0, pot.threshold + 1e-9 * max(1.0, abs(pot.threshold)))
    lower, lower_unbounded = floor, True
    q_in = q_hat
    q_out = q_hat
    while q_out > floor:
        q_out = max(q_out * 0.85, floor)
        if deviance(q_out) > cutoff:
            lower, lower_unbounded = bisect(q_in, q_out), False
            break
        q_in = q_out

    ceiling = q_hat * 10.0
    upper, upper_unbounded = ceiling, True
    q_in = q_hat
    q_out = q_hat
    while q_out < ceiling:
        q_out = min(q_out * 1.2, ceiling)
        if deviance(q_out) > cutoff:
            upper, upper_unbounded = bisect(q_in, q_out), False
            break
        q_in = q_out

    return ProfileCi(float(lower), float(upper), lower_unbounded, upper_unbounded)
