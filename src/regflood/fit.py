"""At-site GP parameter estimation and return levels.

Maximum likelihood uses a quasi-Newton search on (log scale, shape) with
analytic gradients, multi-started from the probability-weighted-moment
estimate, plus a Newton polish so the gradient norm at the solution is
certifiably small. The free-location variant constrains the location to
stay a hair below the smallest observation (the likelihood increases
monotonically in the location, so that bound is always active; the fit
reports it as a boundary case).

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
_MIN_EVENTS_FIXED = 5
_MIN_EVENTS_FREE = 8


@dataclass(frozen=True)
class GpFit:
    """A fitted GP law plus uncertainty bookkeeping.

    ``covariance`` rows/columns follow (scale, shape) for fixed-location
    fits and (location, scale, shape) otherwise; it is None when the
    observed information was not positive definite.
    """

    params: GpParams
    covariance: np.ndarray | None
    loglik: float
    method: str
    location_fixed: bool
    n: int
    boundary: bool = False


def _nll_grad(z: np.ndarray, x: np.ndarray, location: float | None):
    """Negative log likelihood and gradient in packed coordinates.

    Packed coordinates are (log scale, shape) for fixed location and
    (location, log scale, shape) otherwise. Off-support or numerically
    unrepresentable points return a large penalty growing with the
    violation (zero gradient) so line searches back off.
    """
    if location is None:
        mu, logs, xi = z
    else:
        mu = location
        logs, xi = z
    if not np.all(np.isfinite(z)) or abs(logs) >= 700.0:
        mag = abs(logs) if math.isfinite(logs) else 1e6
        return 1e10 * (1.0 + mag), np.zeros_like(z)
    s = math.exp(logs)
    y = (x - mu) / s
    n = x.size
    if np.any(y < 0.0):
        return 1e10 * (1.0 + float(np.sum(np.maximum(-y, 0.0)))), np.zeros_like(z)
    if abs(xi) < SHAPE_EPS:
        f = n * logs + float(np.sum(y))
        g_logs = n - float(np.sum(y))
        g_xi = float(np.sum(y - 0.5 * y * y))
        g_mu = -n / s
    else:
        t = 1.0 + xi * y
        if np.any(t <= 0.0):
            return 1e10 * (1.0 + float(np.sum(np.maximum(-t, 0.0)))), np.zeros_like(z)
        log_t = np.log(t)
        f = n * logs + (1.0 + 1.0 / xi) * float(np.sum(log_t))
        w = y / t
        g_logs = n - (1.0 + xi) * float(np.sum(w))
        g_xi = (1.0 + 1.0 / xi) * float(np.sum(w)) - (1.0 / xi**2) * float(np.sum(log_t))
        g_mu = -(1.0 + xi) / s * float(np.sum(1.0 / t))
    if location is None:
        return f, np.array([g_mu, g_logs, g_xi])
    return f, np.array([g_logs, g_xi])


def _fd_hessian(grad_fn, z: np.ndarray) -> np.ndarray:
    dim = z.size
    hess = np.empty((dim, dim))
    for i in range(dim):
        step = 1e-5 * max(1.0, abs(z[i]))
        zp = z.copy()
        zp[i] += step
        zm = z.copy()
        zm[i] -= step
        hess[:, i] = (grad_fn(zp) - grad_fn(zm)) / (2.0 * step)
    return 0.5 * (hess + hess.T)


def _covariance_from_information(grad_fn, theta: np.ndarray) -> np.ndarray | None:
    hess = _fd_hessian(grad_fn, theta)
    try:
        eigvals = np.linalg.eigvalsh(hess)
        if np.any(eigvals <= 0.0):
            return None
        return np.linalg.inv(hess)
    except np.linalg.LinAlgError:
        return None


def gp_fit_mle(pot: PotSeries, location: str = "threshold") -> GpFit:
    """Maximum-likelihood GP fit to event peaks.

    ``location="threshold"`` (default) fixes the GP location at the POT
    threshold; ``location="free"`` estimates it, up against the constraint
    location <= min(peak) - 1e-6 * scale.
    """
    if location not in ("threshold", "free"):
        raise InputError(f"location must be 'threshold' or 'free', got {location!r}")
    x = pot.peaks
    fixed = location == "threshold"
    minimum = _MIN_EVENTS_FIXED if fixed else _MIN_EVENTS_FREE
    if x.size < minimum:
        raise InsufficientDataError(
            f"need at least {minimum} events for a {location}-location fit, got {x.size}"
        )
    if np.ptp(x) == 0.0:
        raise FitError("event peaks are all equal; no GP fit exists")
    lmom = sample_lmoments(x)
    if fixed:
        try:
            start = gp_fit_lmom(lmom, location=pot.threshold)
            s0, xi0 = start.scale, start.shape
        except FitError:
            s0, xi0 = float(np.mean(x - pot.threshold)), 0.5
        z0 = np.array([math.log(s0), xi0])
        bounds = [(z0[0] - 12.0, z0[0] + 12.0), (_XI_MIN, _XI_MAX)]
        loc_arg = pot.threshold
    else:
        try:
            start = gp_fit_lmom(lmom)
            mu0, s0, xi0 = start.location, start.scale, start.shape
        except (FitError, InputError):
            mu0, s0, xi0 = float(np.min(x)), float(np.std(x)), 0.1
        mu_cap = float(np.min(x)) - 1e-6 * s0
        mu0 = min(mu0, mu_cap - 0.01 * s0)
        z0 = np.array([mu0, math.log(s0), xi0])
        bounds = [(None, mu_cap), (z0[1] - 12.0, z0[1] + 12.0), (_XI_MIN, _XI_MAX)]
        loc_arg = None

    delta = max(0.2 * abs(xi0), 0.1)
    starts = []
    for fs, fx in ((1.0, 0.0), (0.8, -delta), (1.2, delta), (0.8, delta), (1.2, -delta)):
        z = z0.copy()
        z[-2] += math.log(fs)
        z[-1] = float(np.clip(z[-1] + fx, _XI_MIN + 0.01, _XI_MAX - 0.01))
        starts.append(z)

    best = None
    for z in starts:
        res = optimize.minimize(
            _nll_grad,
            z,
            args=(x, loc_arg),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
    z = np.asarray(best.x, dtype=float)

    # Newton polish on the unconstrained coordinates until the projected
    # gradient is certifiably small; when the optimum sits on a shape
    # bound (short-tailed samples pile up at _XI_MIN) the outward shape
    # component is projected away and the step works on the rest
    free_idx = np.arange(z.size) if fixed else np.array([1, 2])
    boundary = (not fixed) and z[0] >= bounds[0][1] - 1e-12

    def proj_grad(zv, g):
        g = np.asarray(g, dtype=float).copy()
        if (zv[-1] <= _XI_MIN + 1e-9 and g[-1] > 0.0) or (
            zv[-1] >= _XI_MAX - 1e-9 and g[-1] < 0.0
        ):
            g[-1] = 0.0
        return g

    f_val, g_full = _nll_grad(z, x, loc_arg)
    tol = 1e-8 * max(1.0, abs(f_val))
    for _ in range(40):
        g_proj = proj_grad(z, g_full)
        if float(np.max(np.abs(g_proj[free_idx]))) <= tol:
            break
        shape_pinned = g_proj[-1] == 0.0 and g_full[-1] != 0.0
        work_idx = free_idx[:-1] if shape_pinned else free_idx
        if work_idx.size == 0:
            break

        def grad_work(zw, idx=work_idx):
            full = z.copy()
            full[idx] = zw
            return _nll_grad(full, x, loc_arg)[1][idx]

        hess = _fd_hessian(grad_work, z[work_idx])
        try:
            step = np.linalg.solve(hess, -g_proj[work_idx])
        except np.linalg.LinAlgError:
            break
        norm = float(np.max(np.abs(step)))
        if norm > 10.0:  # near-singular hessians propose absurd steps
            step *= 10.0 / norm
        scale = 1.0
        g_norm = float(np.max(np.abs(g_proj[free_idx])))
        for _ in range(30):
            z_try = z.copy()
            z_try[work_idx] = z[work_idx] + scale * step
            z_try[-1] = float(np.clip(z_try[-1], _XI_MIN, _XI_MAX))
            f_try, g_try = _nll_grad(z_try, x, loc_arg)
            g_try_norm = float(np.max(np.abs(proj_grad(z_try, g_try)[free_idx])))
            if f_try < 1e9 and g_try_norm < g_norm:
                z, f_val, g_full = z_try, f_try, g_try
                break
            scale *= 0.5
        else:
            break
    g_final = float(np.max(np.abs(proj_grad(z, g_full)[free_idx])))
    if g_final > max(tol, 1e-6):
        raise FitError(f"MLE did not converge (gradient norm {g_final:.2e})")
    boundary = boundary or z[-1] <= _XI_MIN + 1e-9 or z[-1] >= _XI_MAX - 1e-9

    if fixed:
        params = GpParams(pot.threshold, math.exp(z[0]), z[1])
        theta = np.array([params.scale, params.shape])

        def grad_nat(th):
            zz = np.array([math.log(th[0]), th[1]])
            g = _nll_grad(zz, x, loc_arg)[1]
            return np.array([g[0] / th[0], g[1]])

    else:
        params = GpParams(z[0], math.exp(z[1]), z[2])
        theta = np.array([params.location, params.scale, params.shape])

        def grad_nat(th):
            zz = np.array([th[0], math.log(th[1]), th[2]])
            g = _nll_grad(zz, x, loc_arg)[1]
            return np.array([g[0], g[1] / th[1], g[2]])

    covariance = _covariance_from_information(grad_nat, theta)
    return GpFit(
        params=params,
        covariance=covariance,
        loglik=-f_val,
        method="mle",
        location_fixed=fixed,
        n=x.size,
        boundary=boundary,
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
    if x.size < _MIN_EVENTS_FIXED:
        raise InsufficientDataError(
            f"need at least {_MIN_EVENTS_FIXED} events for a PWM fit, got {x.size}"
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
        location_fixed=True,
        n=x.size,
    )


def return_level(params: GpParams, rate: float, period_years: float) -> float:
    """Quantile exceeded once per ``period_years`` on average.

    With ``rate`` events per year, the T-year level is the GP quantile at
    non-exceedance probability 1 - 1/(rate * T); requires rate * T > 1.
    """
    if not math.isfinite(rate) or rate <= 0:
        raise InputError(f"event rate must be positive, got {rate!r}")
    if not math.isfinite(period_years) or rate * period_years <= 1.0:
        raise InputError(
            f"return period {period_years!r} needs rate * T > 1 (rate {rate!r})"
        )
    return float(gp_quantile(params, 1.0 - 1.0 / (rate * period_years)))


def quantile_variance(fit: GpFit, rate: float, period_years: float) -> float:
    """Delta-method variance of the T-year level under the fit covariance.

    The gradient of mu + sigma * (e**(a*xi) - 1) / xi with a = -log(1-p)
    is propagated through the covariance; for fixed-location fits the
    location coordinate drops out.
    """
    if fit.covariance is None:
        raise FitError("fit has no covariance; cannot derive a quantile variance")
    if not math.isfinite(rate) or rate <= 0:
        raise InputError(f"event rate must be positive, got {rate!r}")
    if not math.isfinite(period_years) or rate * period_years <= 1.0:
        raise InputError(
            f"return period {period_years!r} needs rate * T > 1 (rate {rate!r})"
        )
    sigma, xi = fit.params.scale, fit.params.shape
    a = math.log(rate * period_years)
    if abs(xi) < SHAPE_EPS:
        w, dw = a, a * a / 2.0
    else:
        e = math.exp(a * xi)
        w = (e - 1.0) / xi
        dw = (a * e * xi - (e - 1.0)) / xi**2
    if fit.location_fixed:
        grad = np.array([w, sigma * dw])
    else:
        grad = np.array([1.0, w, sigma * dw])
    return float(grad @ fit.covariance @ grad)


def log_param_variances(fit: GpFit, threshold_cv: float = 0.1) -> tuple[float, float, float]:
    """Variances of (log location, log scale, shape) for prior elicitation.

    Delta method on the fit covariance; a fixed location carries no
    estimation variance, so a threshold-uncertainty CV stands in for it.
    """
    if fit.covariance is None:
        raise FitError("fit has no covariance; cannot derive log-parameter variances")
    mu = fit.params.location
    sigma = fit.params.scale
    if fit.location_fixed:
        if not 0.0 <= threshold_cv < 1.0:
            raise InputError(f"threshold_cv must lie in [0, 1), got {threshold_cv!r}")
        var_log_mu = threshold_cv**2
        var_log_sigma = float(fit.covariance[0, 0]) / sigma**2
        var_shape = float(fit.covariance[1, 1])
    else:
        if mu <= 0:
            raise InputError(
                f"log-location variance needs a positive location, got {mu!r}"
            )
        var_log_mu = float(fit.covariance[0, 0]) / mu**2
        var_log_sigma = float(fit.covariance[1, 1]) / sigma**2
        var_shape = float(fit.covariance[2, 2])
    return var_log_mu, var_log_sigma, var_shape


class ProfileCi(NamedTuple):
    lower: float
    upper: float
    lower_unbounded: bool
    upper_unbounded: bool


def _profile_loglik(pot: PotSeries, p: float, q: float) -> float:
    """Profile log likelihood over shape at fixed quantile q."""
    u = pot.threshold
    x = pot.peaks

    def scale_for(xi: float) -> float:
        if abs(xi) < SHAPE_EPS:
            return (q - u) / (-math.log1p(-p))
        return (q - u) * xi / (math.expm1(-xi * math.log1p(-p)))

    def neg_ll(xi: float) -> float:
        s = scale_for(xi)
        if s <= 0 or not math.isfinite(s):
            return 1e12
        val = float(np.sum(gp_logpdf(GpParams(u, s, xi), x)))
        return -val if math.isfinite(val) else 1e12

    grid = np.linspace(_XI_MIN, 2.0, 31)
    values = [neg_ll(float(g)) for g in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = optimize.minimize_scalar(neg_ll, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-8})
    return -min(float(res.fun), values[i])


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
    cutoff in there sets the matching unbounded flag.

    ``fit`` is the threshold-fixed ``gp_fit_mle(pot)`` when the caller
    already has it; without it the record is fitted here.  A fit of
    another kind or of another record size raises InputError.
    """
    if not 0.0 < level < 1.0:
        raise InputError(f"level must lie in (0, 1), got {level!r}")
    if fit is None:
        fit = gp_fit_mle(pot)
    elif fit.method != "mle" or not fit.location_fixed or fit.n != pot.peaks.size:
        raise InputError(
            "profile_ci needs the threshold-fixed MLE of the same record, got a "
            f"{fit.method} fit of {fit.n} events (location fixed: {fit.location_fixed})"
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
