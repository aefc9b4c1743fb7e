"""At-site GP parameter estimation and return levels.

Maximum likelihood fixes the GP location at the POT threshold and uses
Grimshaw's (1993) reduction: at fixed theta = shape / scale the best shape
is mean log(1 + theta * y), so the likelihood is profiled over theta on a
grid and refined by bounded Brent, and the best interior stationary point
is the MLE (Smith 1985).  The grid is scored as one array; each Brent step
scores one float with Python's branches around numpy's own scalar
ufuncs, so it pays for no array machinery and returns the array form's
floats bit for bit.  A certificate checks that the closed-form
score there is zero to rounding, after at most one Newton step.  One
pass, ``_derivatives``, gives the score and the closed-form observed
information of (scale, shape) at a point: the information takes the
Newton step, and the one at the certified point is inverted for the
reported covariance.  The log likelihood itself comes from
``distributions._gp_loglik``, as the profile and PWM ones do.  Bounded
Brent is the package's own ``_brent_bounded`` and no BLAS-backed
optimizer runs, so a fit never wakes OpenBLAS's thread pool; scipy
serves only special functions.

The PWM fit pairs the L-moment estimator with its published asymptotic
covariance (valid for shape < 1/2); for heavy estimated shapes (> 0.4) a
seeded bootstrap replaces the asymptotics, all its resamples drawn and
fitted as one array.

Profile-likelihood intervals cut the deviance at the chi^2(1) quantile,
taken from ``scipy.special.gammaincinv`` in the closed form that
``scipy.stats.chi2.ppf`` uses; the package does not import ``scipy.stats``.
An interval builds its record's profile once (the exceedances, their
extremes, log1p(-p) and the 31 grid shapes' scale denominators); each
deviance then scores the grid as numpy ops and refines it by Brent, which
stops at its first step inside the cutoff, since only that decision
counts.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincinv

from .distributions import SHAPE_EPS, GpParams, _gp_loglik, gp_quantile
from .errors import FitError, InputError, InsufficientDataError
from .lmoments import _pwm_float, gp_fit_lmom, sample_lmoments
from .pot import PotSeries

__all__ = [
    "THRESHOLD_CV",
    "GpFit",
    "ProfileCi",
    "gp_fit_mle",
    "gp_fit_pwm",
    "log_param_variances",
    "profile_ci",
    "quantile_variance",
    "return_level",
]

log = logging.getLogger("regflood")

_XI_MIN, _XI_MAX = -0.99, 5.0
_MIN_EVENTS = 5
# coefficient of variation of a POT threshold, the uncertainty that stands in
# for the fixed location's in the prior variances
THRESHOLD_CV = 0.1
_BOOTSTRAP_SIZE = 500
# shapes on which _profile_loglik starts its search, and the weight
# 1 / shape + 1 of each one's log1p sum
_PROFILE_GRID = np.linspace(_XI_MIN, 2.0, 31)
_PROFILE_WEIGHT = 1.0 / _PROFILE_GRID + 1.0
# log(1 + t), t = max(y) * shape / scale, at which _profile_search scores
# Grimshaw's profile on t in (-1, 1e4): even steps in log(1 + t) are dense
# near the support edge t = -1 and across the exponential law t = 0
_GRIMSHAW_GRID = np.linspace(-20.0, math.log1p(1e4), 200)


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


def _derivatives(d: np.ndarray, scale: float, shape: float) -> tuple[np.ndarray, np.ndarray]:
    """Score and observed information of the negative log likelihood.

    ``d`` holds the exceedances x - location.  With y = d / scale,
    a = shape * y, t = 1 + a and w = y / t, every t > 0, and |shape| <
    SHAPE_EPS taken as the exponential law, returns the gradient in
    (log scale, shape) and the Hessian in (scale, shape), both in closed
    form from one pass over the peaks.  Per peak the shape gradient is
    w + y**2 * chi(a), chi(a) = (a / t - log1p(a)) / a**2, and the
    shape-shape term y**3 * phi(a) - w**2, phi(a) = (2 log(1 + a) / a -
    2 / t - a / t**2) / a**2.  Both forms cancel to rounding noise for
    small |a|, so Taylor series take over: chi's when every |a| < 1e-3,
    phi's (2/3 at a = 0) peak by peak below that size.
    """
    xi = 0.0 if abs(shape) < SHAPE_EPS else shape
    y = d / scale
    a = xi * y
    t = 1.0 + a
    w = y / t
    sum_w = float(np.sum(w))
    g_logs = y.size - (1.0 + xi) * sum_w
    if float(np.max(np.abs(a))) < 1e-3:
        chi = -0.5 + a * (2.0 / 3.0 + a * (-0.75 + a * (0.8 + a * (-5.0 / 6.0))))
        g_xi = float(np.sum(w + y * y * chi))
    else:
        g_xi = (1.0 + 1.0 / xi) * sum_w - (1.0 / xi**2) * float(np.sum(np.log(t)))
    phi = np.empty_like(a)
    small = np.abs(a) < 1e-3
    b = a[small]
    phi[small] = 2.0 / 3.0 + b * (-1.5 + b * (2.4 + b * (-10.0 / 3.0 + b * 30.0 / 7.0)))
    b, tb = a[~small], t[~small]
    phi[~small] = (2.0 * np.log1p(b) / b - 2.0 / tb - b / tb**2) / b**2
    h_ss = ((1.0 + xi) * float(np.sum(w + w / t)) - y.size) / scale**2
    h_sx = float(np.sum(w * (y - 1.0) / t)) / scale
    h_xx = float(np.sum(y**3 * phi - w * w))
    return np.array([g_logs, g_xi]), np.array([[h_ss, h_sx], [h_sx, h_xx]])


# the golden-section fraction and tolerance unit of scipy's bounded Brent
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)


def _brent_bounded(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xatol: float,
    stop: Callable[[float], bool] | None = None,
) -> tuple[float, float]:
    """Minimum of f on [lo, hi] by bounded Brent (Brent 1973, ch. 5).

    scipy's bounded scalar minimizer step for step, on Python floats: the
    same golden-section and parabolic steps, tolerance updates and cap of
    500 evaluations, so it visits the same points and returns the same
    best point and f there.  Where f returns inf or nan, or a product
    overflows, the parabola's tests fail or its step is 0, so every step
    stays finite and sign and max need none of numpy's nan rules.  The
    returned f is the least value evaluated; when ``stop`` holds at an
    evaluated value, that point and value are returned at once.
    """
    a, b = lo, hi
    xf = nfc = fulc = a + _GOLDEN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = f(xf)
    if stop is not None and stop(fx):
        return xf, fx
    calls = 1
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        step = max(abs(rat), tol1)
        x = xf - step if rat < 0.0 else xf + step
        fu = f(x)
        if stop is not None and stop(fu):
            return x, fu
        calls += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if calls >= 500:
            break
    return xf, fx


def _profile_nll(v, y: np.ndarray, y_max: float, y_sum: float):
    """Grimshaw's profile negative log likelihood at v, a float or an array.

    With theta = shape / scale = expm1(v) / max(y), the shape that
    maximises the likelihood at fixed theta is mean log(1 + theta * y),
    clipped to the search bounds, and the scale is shape / theta.
    ``y_max`` and ``y_sum`` are y's largest value and sum.  Returns the
    profile, the scale and the clipped shape, each shaped like v.

    A float v, each step of Brent's refinement, is scored with Python's
    branches and float arithmetic around numpy's own ``expm1``, ``log1p``,
    ``log`` and pairwise ``np.add.reduce``, so it returns the floats the
    array form gives at ``[v]`` bit for bit; numpy's SIMD loops and libm
    round differently, so no ``math`` function stands in.  Where the scale
    is not positive, log scale is -inf or nan, and the float is handed to
    the array form, which gives those without a warning.
    """
    n = y.size
    if isinstance(v, float):
        theta = float(np.expm1(v)) / y_max
        t = theta * y
        np.log1p(t, out=t)
        s = float(np.add.reduce(t))
        # a nan mean stays nan, as np.maximum and np.minimum keep it
        xi = min(max(s / n, _XI_MIN), _XI_MAX)
        sigma = xi / theta if theta != 0.0 else y_sum / n
        if not sigma > 0.0:
            return tuple(float(a[0]) for a in _profile_nll(np.array([v]), y, y_max, y_sum))
        log_s = float(np.log(sigma))
        if abs(xi) < SHAPE_EPS:
            return n * log_s + y_sum / sigma, sigma, xi
        return n * log_s + (1.0 + 1.0 / xi) * s, sigma, xi
    theta = np.expm1(v) / y_max
    s = np.add.reduce(np.log1p(np.multiply.outer(theta, y)), axis=-1)
    xi = np.minimum(np.maximum(s / n, _XI_MIN), _XI_MAX)
    with np.errstate(divide="ignore", invalid="ignore"):
        sigma = np.where(theta != 0.0, xi / theta, y_sum / n)
        log_s = np.log(sigma)
        nll = np.where(
            np.abs(xi) < SHAPE_EPS,
            n * log_s + y_sum / sigma,
            n * log_s + (1.0 + 1.0 / xi) * s,
        )
    return nll, sigma, xi


def _profile_search(x: np.ndarray, u: float) -> np.ndarray:
    """(log scale, shape) of the MLE by Grimshaw's one-dimensional search.

    Every grid minimum of the profile with an unclipped shape is refined by
    ``_brent_bounded`` between its neighbours, each step one float call of
    ``_profile_nll``, and the best of these interior stationary points is
    the MLE, with the scale and shape of the step that scored it.  Only
    without one does the best minimum of the clipped profile, a fit on a
    shape bound, stand in.
    """
    y = x - u
    y_max, y_sum = float(y.max()), float(y.sum())
    grid = _GRIMSHAW_GRID
    nll, _, xi = _profile_nll(grid, y, y_max, y_sum)
    # a profile still falling at the grid's end is followed further out, up
    # to t = 1e16, where the scale falls below the rounding unit of max(y)
    while nll[-1] < nll[-2] and grid[-1] < 36.8:
        more = grid[-1] + 0.25 * np.arange(1, 41)
        f, _, r = _profile_nll(more, y, y_max, y_sum)
        grid, nll, xi = np.append(grid, more), np.append(nll, f), np.append(xi, r)
    inner = nll[1:-1]
    minima = np.flatnonzero((inner <= nll[:-2]) & (inner < nll[2:])) + 1
    interior = minima[(xi[minima] > _XI_MIN) & (xi[minima] < _XI_MAX)]
    candidates = interior if interior.size else minima if minima.size else [int(np.argmin(nll))]
    v = grid.tolist()
    best = None
    for i in candidates:
        # Brent's tolerance grows with |v|: search the offset from v[i]
        v0 = v[i]
        # the scale and shape at each offset scored; Brent returns one of them
        scored = {}

        def nll(dv: float) -> float:
            f, sigma, xi = _profile_nll(v0 + dv, y, y_max, y_sum)
            scored[dv] = sigma, xi
            return f

        dv, f = _brent_bounded(nll, v[max(i - 1, 0)] - v0, v[min(i + 1, len(v) - 1)] - v0, 1e-12)
        if best is None or f < best[0]:
            best = f, scored[dv]
    sigma, xi = best[1]
    return np.array([math.log(sigma), xi])


def _polish(z: np.ndarray, x: np.ndarray, u: float) -> tuple[np.ndarray, float, np.ndarray]:
    """Certify (log scale, shape) as a stationary point of the likelihood.

    On a shape bound the outward shape component of the score is projected
    away.  The point is certified when the projected score's largest
    component is at most tol = 1e-8 * max(1, |nll|).  Otherwise one full
    projected Newton step is kept if it stays on the support, does not
    raise the nll beyond rounding and lowers that norm; a norm still above
    max(tol, 1e-6) raises FitError.  Its message says so when the point is
    on the shape bound 5 and more than a sixth of the peaks lie on the
    threshold, where the likelihood has no maximum.  Returns the point, the
    nll there and the observed information in (scale, shape) there, all
    from the ``_derivatives`` pass that certified it.
    """

    def projected(zv, g):
        if (zv[1] <= _XI_MIN + 1e-9 and g[1] > 0.0) or (zv[1] >= _XI_MAX - 1e-9 and g[1] < 0.0):
            return np.array([g[0], 0.0])
        return g

    d = x - u
    d_min, d_max = float(d.min()), float(d.max())

    def nll(zv):
        return -_gp_loglik(d, d_min, d_max, math.exp(zv[0]), float(zv[1]))

    f_val = nll(z)
    sigma = math.exp(z[0])
    g_full, info = _derivatives(d, sigma, z[1])
    g_proj = projected(z, g_full)
    g_norm = float(np.max(np.abs(g_proj)))
    tol = 1e-8 * max(1.0, abs(f_val))
    if g_norm > tol:
        work = [0] if g_proj[1] == 0.0 and g_full[1] != 0.0 else [0, 1]
        # chain rule from (scale, shape) to (log scale, shape)
        hess = info * np.outer([sigma, 1.0], [sigma, 1.0])
        hess[0, 0] += g_full[0]
        try:
            step = np.linalg.solve(hess[np.ix_(work, work)], -g_proj[work])
        except np.linalg.LinAlgError:  # a singular hessian proposes no step
            step = np.zeros(len(work))
        norm = float(np.max(np.abs(step)))
        if norm > 10.0:  # near-singular hessians propose absurd steps
            step *= 10.0 / norm
        z_try = z.copy()
        z_try[work] += step
        z_try[1] = min(max(float(z_try[1]), _XI_MIN), _XI_MAX)
        f_try = nll(z_try)
        # off the support f_try is inf, so the step is refused here
        if f_try <= f_val + 1e-12 * max(1.0, abs(f_val)):
            s_try, info_try = _derivatives(d, math.exp(z_try[0]), z_try[1])
            g_try = float(np.max(np.abs(projected(z_try, s_try))))
            if g_try < g_norm:
                z, f_val, g_norm, info = z_try, f_try, g_try, info_try
    if g_norm > max(tol, 1e-6):
        message = f"MLE did not converge (gradient norm {g_norm:.2e})"
        # n0 peaks at y = 0 give log L ~ ((1 + 1/shape) * (n - n0) - n) * log(scale)
        tied = int(np.count_nonzero(x == u))
        if z[1] >= _XI_MAX - 1e-9 and (1.0 + 1.0 / _XI_MAX) * (x.size - tied) < x.size:
            message += (
                f": {tied} of {x.size} peaks lie on the threshold, so at the shape "
                f"bound {_XI_MAX:g} the likelihood grows without limit as the scale "
                "falls to 0 and has no maximum"
            )
        raise FitError(message)
    return z, f_val, info


def gp_fit_mle(pot: PotSeries) -> GpFit:
    """Maximum-likelihood GP fit to event peaks, location at the POT threshold.

    Grimshaw's profile search over theta = shape / scale finds the best
    interior stationary point of the likelihood, or, when there is none, the
    best fit with the shape on a search bound (short-tailed samples pile up
    at -0.99, marked by ``boundary``); a certificate on the score, after at
    most one Newton step, confirms it, and a fit it cannot certify raises
    FitError.  The covariance inverts the observed information that
    certificate computed at the fit; it is None unless that information
    is positive definite.  When every one of five starts around the PWM estimate lies
    off the data's support, the start with the least penalty is returned
    instead, with minus that penalty as its log likelihood, no covariance
    and a WARNING on the ``regflood`` logger: its likelihood, covariance
    and intervals are not usable.
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
    # where five starts around the PWM estimate all lie off the support
    # (1 + shape * y / scale <= 0 at the largest exceedance), the one with
    # the least penalty, 1e10 times one plus the peaks' total overshoot of
    # the support, is returned as it is: stored reference outputs hold
    # these fits
    delta = max(0.2 * abs(xi0), 0.1)
    starts = []
    for fs, fx in ((1.0, 0.0), (0.8, -delta), (1.2, delta), (0.8, delta), (1.2, -delta)):
        xi = min(max(float(xi0 + fx), _XI_MIN + 0.01), _XI_MAX - 0.01)
        starts.append(np.array([math.log(s0) + math.log(fs), xi]))
    y_max = float(np.max(x)) - u
    if all(z[1] <= -SHAPE_EPS and 1.0 + z[1] * (y_max / math.exp(z[0])) <= 0.0 for z in starts):
        penalties = [
            1e10 * (1.0 + float(np.sum(np.maximum(-(1.0 + z[1] * ((x - u) / math.exp(z[0]))), 0.0))))
            for z in starts
        ]
        k = int(np.argmin(penalties))
        log.warning(
            "MLE of %d events at station %s lies off the data's support; its "
            "likelihood, covariance and intervals are not usable",
            x.size,
            pot.station,
        )
        params = GpParams(u, math.exp(starts[k][0]), float(starts[k][1]))
        return GpFit(params=params, covariance=None, loglik=-penalties[k], method="mle", n=x.size)

    z, f_val, info = _polish(_profile_search(x, u), x, u)
    params = GpParams(u, math.exp(z[0]), float(z[1]))
    covariance = None
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


def gp_fit_pwm(pot: PotSeries, variant: str = "unbiased") -> GpFit:
    """Probability-weighted-moment GP fit with the location at the threshold.

    The covariance is the asymptotic PWM matrix for estimated shape <= 0.4
    and beyond that, where the asymptotic theory is unreliable, that of a
    nonparametric bootstrap of 500 resamples with generator seed 0; with
    fewer than 250 valid resamples there is no covariance.  The resamples
    are one (500, n) draw, fitted as arrays with the arithmetic of
    ``sample_lmoments`` and ``gp_fit_lmom``; a resample either of them
    would reject (constant, zero l1 or l2, mean at or below the threshold,
    implied shape >= 1) is skipped.  The log likelihood is ``_gp_loglik``'s,
    -inf when the fitted support excludes a peak; such a fit logs a WARNING
    on the ``regflood`` logger that counts the peaks beyond its endpoint.
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
        rng = np.random.default_rng(0)
        xs = np.sort(rng.choice(x, size=(_BOOTSTRAP_SIZE, x.size)), axis=1)
        l1, b1 = _pwm_float(xs, 1, variant).T
        l2 = 2 * b1 - l1
        excess = l1 - pot.threshold
        ok = (xs[:, -1] != xs[:, 0]) & (l2 > 0) & (l1 != 0) & (excess > 0)
        shape = 2.0 - excess[ok] / l2[ok]
        scale = excess[ok] * (1.0 - shape)
        fitted = shape < 1.0
        if np.count_nonzero(fitted) < _BOOTSTRAP_SIZE // 2:
            covariance = None
        else:
            # np.cov of a transposed (m, 2) array, the layout a list of
            # (scale, shape) pairs gives: a C-contiguous (2, m) stack moves
            # the covariance at rounding level
            covariance = np.cov(np.stack([scale[fitted], shape[fitted]], axis=1).T)
    d = x - pot.threshold
    loglik = _gp_loglik(d, float(d.min()), float(d.max()), params.scale, params.shape)
    if loglik == -math.inf:
        log.warning(
            "PWM fit of %d events at station %s puts %d of them beyond its upper "
            "endpoint; its likelihood is not usable",
            x.size,
            pot.station,
            int(np.count_nonzero(1.0 + (params.shape / params.scale) * d <= 0.0)),
        )
    return GpFit(
        params=params,
        covariance=covariance,
        loglik=loglik,
        method="pwm",
        n=x.size,
    )


def _check_rate_period(rate: float, period_years: float) -> float:
    """The non-exceedance probability p = 1 - 1/(rate * T) of the T-year level.

    Raises InputError unless ``rate`` is finite and positive and
    rate * T > 1, so that p lies in (0, 1).
    """
    if not math.isfinite(rate) or rate <= 0:
        raise InputError(f"event rate must be positive, got {rate!r}")
    if not math.isfinite(period_years) or rate * period_years <= 1.0:
        raise InputError(
            f"return period {period_years!r} needs rate * T > 1 (rate {rate!r})"
        )
    return 1.0 - 1.0 / (rate * period_years)


def return_level(params: GpParams, rate: float, period_years: float) -> float:
    """Quantile exceeded once per ``period_years`` on average.

    With ``rate`` events per year, the T-year level is the GP quantile at
    non-exceedance probability 1 - 1/(rate * T); requires rate * T > 1.
    """
    return float(gp_quantile(params, _check_rate_period(rate, period_years)))


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


def log_param_variances(fit: GpFit) -> tuple[float, float, float]:
    """Variances of (log location, log scale, shape) for prior elicitation.

    Delta method on the fit covariance; a fixed location carries no
    estimation variance, so the squared threshold CV ``THRESHOLD_CV``
    stands in for it.
    """
    if fit.covariance is None:
        raise FitError("fit has no covariance; cannot derive log-parameter variances")
    var_log_sigma = float(fit.covariance[0, 0]) / fit.params.scale**2
    return THRESHOLD_CV**2, var_log_sigma, float(fit.covariance[1, 1])


class ProfileCi(NamedTuple):
    """Profile-likelihood interval; an unbounded side stopped at its search limit."""

    lower: float
    upper: float
    lower_unbounded: bool
    upper_unbounded: bool


def _profile_grid(d: np.ndarray, d_max: float, dq: float, den: np.ndarray) -> np.ndarray:
    """Negative log likelihood of the exceedances ``d`` at each
    ``_PROFILE_GRID`` shape xi and its scale dq * xi / den, where ``den``
    holds expm1(-xi * log1p(-p)) per shape and dq = q - u: one (31, n)
    array of log1p(k * d), k = xi / scale, in ``_gp_loglik``'s arithmetic
    (no grid shape is within ``SHAPE_EPS`` of 0), so each row equals the
    kernel.  Each row is summed by numpy's pairwise sum and its log scale
    is ``math.log``'s, as the kernel computes them.  Rows are kept only
    where the kernel's own scalar test, 1 + k * max(d) > 0, puts every
    peak on the support, so ``log1p`` never sees -1.  The scales, k and
    that test are the scalar IEEE operations taken as numpy ops on all 31
    shapes at once, with no warning where a scale overflows or is 0.
    Off-support shapes and non-positive or non-finite scales score 1e12.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        s = dq * _PROFILE_GRID / den
        k = _PROFILE_GRID / s
        rows = np.flatnonzero((s > 0.0) & (s < math.inf) & (1.0 + k * d_max > 0.0))
    log_s = np.array([math.log(v) for v in s[rows].tolist()])
    log_t = np.log1p(k[rows, None] * d)
    sums = -d.size * log_s - _PROFILE_WEIGHT[rows] * log_t.sum(axis=1)
    values = np.full(_PROFILE_GRID.size, 1e12)
    values[rows] = np.where(np.isfinite(sums), -sums, 1e12)
    return values


def _profile_loglik(pot: PotSeries, p: float) -> Callable[..., float]:
    """Profile log likelihood over shape at a fixed p-quantile, as a
    function ``loglik(q, settled=None)`` of the quantile q.

    The record's profile is built once: the exceedances d and their
    extremes, log1p(-p) and each ``_PROFILE_GRID`` shape's denominator
    expm1(-xi * log1p(-p)).  Each shape fixes the scale that puts the
    p-quantile at q.  ``loglik`` scores the shape on the 31-point grid
    (``_profile_grid``) and refines it by ``_brent_bounded`` between the
    grid neighbours of the best point, each Brent step one ``_gp_loglik``
    call.  Off-support shapes and non-positive or non-finite scales score
    1e12.  ``settled`` is a test on a negative log likelihood that holds at
    every value below one where it holds.  When it holds at the grid's
    best value, that value is returned without Brent, and Brent stops at
    the first step where it holds.  Brent's result is the least value it
    evaluated, so the value returned then, never above the profile,
    settles exactly when the profile does.
    """
    u = pot.threshold
    d = pot.peaks - u
    d_min, d_max = float(d.min()), float(d.max())
    log_p = math.log1p(-p)
    grid = _PROFILE_GRID.tolist()
    den = np.array([math.expm1(-xi * log_p) for xi in grid])

    def loglik(q: float, settled: Callable[[float], bool] | None = None) -> float:
        dq = q - u

        def neg_ll(xi: float) -> float:
            # Python floats overflow to an infinite scale without a warning
            if abs(xi) < SHAPE_EPS:
                s = dq / -log_p
            else:
                s = dq * xi / math.expm1(-xi * log_p)
            if s <= 0 or not math.isfinite(s):
                return 1e12
            val = _gp_loglik(d, d_min, d_max, s, xi)
            return -val if math.isfinite(val) else 1e12

        values = _profile_grid(d, d_max, dq, den)
        i = int(np.argmin(values))
        grid_best = float(values[i])
        if settled is not None and settled(grid_best):
            return -grid_best
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
        _, f = _brent_bounded(neg_ll, lo, hi, 1e-8, settled)
        return -min(f, grid_best)

    return loglik


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
    cutoff in there sets the matching unbounded flag.  The profile is
    built once per call (``_profile_loglik``), and each deviance costs one
    call of it: a vectorized 31-shape grid plus bounded Brent on
    ``_gp_loglik``.  Brent can only raise the profile above the grid's
    best row and its own steps, so where that row alone puts the deviance
    within the cutoff the grid decides the step and Brent is skipped, and
    Brent stops at its first step within the cutoff; steps that end
    outside run Brent to its end.  The interval is the one the full
    deviance gives.  Bisection stops within 1e-4 * q_hat.

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
    p = _check_rate_period(pot.rate, period_years)
    q_hat = float(gp_quantile(fit.params, p))
    # the chi^2(1) quantile, in scipy.stats.chi2.ppf's own closed form
    cutoff = float(2.0 * gammaincinv(0.5, level))
    ll_max = fit.loglik

    def deviance(ll: float) -> float:
        return 2.0 * (ll_max - ll)

    profile = _profile_loglik(pot, p)

    def settles(f: float) -> bool:
        return deviance(-f) <= cutoff

    def beyond_cutoff(q: float) -> bool:
        # the profile is never below the grid's best row or a Brent step,
        # so the first of them within the cutoff puts q inside
        return deviance(profile(q, settles)) > cutoff

    def bisect(inside: float, outside: float) -> float:
        for _ in range(200):
            mid = 0.5 * (inside + outside)
            if abs(outside - inside) <= 1e-4 * q_hat:
                break
            if beyond_cutoff(mid):
                outside = mid
            else:
                inside = mid
        return 0.5 * (inside + outside)

    floor = max(q_hat / 10.0, pot.threshold + 1e-9 * max(1.0, abs(pot.threshold)))
    ceiling = q_hat * 10.0

    def walk_out(factor: float, limit: float) -> tuple[float, bool]:
        # steps of ``factor`` from q_hat towards ``limit`` until the deviance
        # crosses the cutoff, then bisection of the last step; a walk that
        # reaches its limit leaves that side unbounded
        q_in = q_out = q_hat
        while (limit - q_out) * (factor - 1.0) > 0.0:
            q_out = min(max(q_out * factor, floor), ceiling)
            if beyond_cutoff(q_out):
                return bisect(q_in, q_out), False
            q_in = q_out
        return limit, True

    lower, lower_unbounded = walk_out(0.85, floor)
    upper, upper_unbounded = walk_out(1.2, ceiling)
    return ProfileCi(float(lower), float(upper), lower_unbounded, upper_unbounded)
