"""Generalized Pareto and four-parameter kappa distributions.

The generalized Pareto (GP) family is parameterized as

    F(x) = 1 - (1 + shape * (x - location) / scale) ** (-1 / shape)

on the support {x >= location, 1 + shape * (x - location) / scale > 0},
with the exponential form F(x) = 1 - exp(-(x - location) / scale) as the
shape -> 0 limit. Positive shape gives a heavy upper tail; negative shape
a finite upper endpoint at location + scale / |shape|.

The kappa family extends GP with a second shape parameter h:

    x(F) = location + scale / k * (1 - ((1 - F**h) / h) ** k)

and reduces to GP (with GP shape = -k) at h = 1 and to the Gumbel law at
h = 0, k = 0. It is used as the simulation parent for heterogeneity tests.

All evaluators switch to the analytic shape -> 0 limit when |shape| falls
below ``SHAPE_EPS`` so quantiles and densities are continuous in shape.

``_gp_loglik`` is the package's one GP log-likelihood sum: the posterior
sampler, the MLE's certificate, the profile likelihood and the PWM fit call
it.  It takes the unscaled residuals y = x - location and sums
log1p(theta * y) with theta = shape / scale (Grimshaw 1993), so a caller
never divides its residuals by the scale; ``gp_logpdf`` computes each term
the same way and makes the same support decision.  It sums its terms with
numpy's pairwise ``np.add.reduce`` at every record size.  ``_loglik_bounds``
bounds the float the kernel returns without reading the peaks: it computes
the record's moments once and returns a closure that takes the largest
peak's term exactly and bounds the others' from those moments.  The
closure reads the scalars of a location (ybar, y_min, y_sec and y_max, the
residuals of the other peaks' mean, of the smallest, second largest and
largest peak) and of a scale (base = -n log sigma) as arguments, so the
sampler carries them across the moves that keep them and reads the peaks
only for the moves the bounds leave open.

A Gaussian kernel density estimate of a sample (``_kde_pdf``) serves the
posterior density output.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSampleError, InputError

__all__ = [
    "SHAPE_EPS",
    "GpParams",
    "KappaParams",
    "gp_cdf",
    "gp_logpdf",
    "gp_quantile",
    "gp_rescale",
    "gp_sample",
    "kappa_cdf",
    "kappa_quantile",
    "kappa_sample",
]

# Below this magnitude the shape is treated as exactly zero (exponential /
# Gumbel branch); keeps quantiles continuous and avoids 1/shape blowups.
SHAPE_EPS = 1e-8
# the float next to -1 towards 0: every t > -1 is at least this, so clamping
# log1p's argument here moves no on-support term
_ABOVE_MINUS_ONE = math.nextafter(-1.0, 0.0)
# u: one rounding of a float64 operation moves its result by at most u times it
_UNIT_ROUNDOFF = 2.0**-53
# bounds the rounding of 1 + theta y at the extremes, in units of 1 + |theta y|
_SLACK = 8.0 * _UNIT_ROUNDOFF
# Values per temporary array in blocked array work. 15,000 float64 values
# stay under glibc's default 128 KiB mmap threshold, so such temporaries are
# reused heap memory instead of fresh mmapped pages, whose page faults cost
# more than the arithmetic; far smaller blocks pay numpy's per-call overhead.
_BLOCK_VALUES = 15_000
# a Gaussian kernel farther than this many bandwidths is exp(-760.5), which
# underflows to exactly 0.0, so leaving such draws out changes no sum; it
# also spares np.exp its slow path for underflowing arguments.  It caps
# _kde_pdf's reach per point, which leaves out less than 2**-64 of the sum
_KDE_REACH = 39.0


def _finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} must be finite")
    return arr


def _points(values) -> tuple[np.ndarray, bool]:
    """``values`` as a 1-d float array, and whether they were one scalar."""
    arr = np.asarray(values, dtype=float)
    return np.atleast_1d(arr), arr.ndim == 0


def _maybe_scalar(result: np.ndarray, scalar: bool):
    return float(result[0]) if scalar else result


@dataclass(frozen=True)
class GpParams:
    """Generalized Pareto parameters (location, scale > 0, shape)."""

    location: float
    scale: float
    shape: float

    def __post_init__(self):
        for name in ("location", "scale", "shape"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"GP {name} must be finite, got {value!r}")
        if self.scale <= 0:
            raise InputError(f"GP scale must be positive, got {self.scale!r}")

    @property
    def upper_endpoint(self) -> float:
        """Finite upper support endpoint for negative shape, else inf."""
        if self.shape < -SHAPE_EPS:
            return self.location - self.scale / self.shape
        return math.inf


@dataclass(frozen=True)
class KappaParams:
    """Four-parameter kappa: location, scale > 0, shape_k > -1, shape_h.

    For shape_h < 0 the moment-existence condition shape_h * shape_k > -1
    must hold as well.
    """

    location: float
    scale: float
    shape_k: float
    shape_h: float

    def __post_init__(self):
        for name in ("location", "scale", "shape_k", "shape_h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InputError(f"kappa {name} must be finite, got {value!r}")
        if self.scale <= 0:
            raise InputError(f"kappa scale must be positive, got {self.scale!r}")
        if self.shape_k <= -1:
            raise InputError(f"kappa shape_k must exceed -1, got {self.shape_k!r}")
        if self.shape_h < 0 and self.shape_h * self.shape_k <= -1:
            raise InputError(
                "kappa with shape_h < 0 requires shape_h * shape_k > -1, got "
                f"shape_k={self.shape_k!r}, shape_h={self.shape_h!r}"
            )


def gp_cdf(params: GpParams, x):
    """GP distribution function, clamped to [0, 1] outside the support.

    Values below the location map to 0; values at or beyond the upper
    endpoint (negative shape) map to 1.
    """
    arr, scalar = _points(_finite_array(x, "x"))
    y = (arr - params.location) / params.scale
    xi = params.shape
    if abs(xi) < SHAPE_EPS:
        out = -np.expm1(-y)
    else:
        t = 1.0 + xi * y
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(t > 0.0, 1.0 - np.power(np.maximum(t, 1e-300), -1.0 / xi), 1.0)
    out = np.where(y < 0.0, 0.0, out)
    return _maybe_scalar(np.clip(out, 0.0, 1.0), scalar)


def gp_logpdf(params: GpParams, x):
    """GP log density; -inf off the support (x < location or beyond endpoint).

    The hard -inf (rather than an exception) is what the posterior samplers
    rely on to reject proposals that leave the support.
    """
    arr, scalar = _points(_finite_array(x, "x"))
    y = arr - params.location
    xi = params.shape
    log_sigma = math.log(params.scale)
    if abs(xi) < SHAPE_EPS:
        out = -log_sigma - y / params.scale
    else:
        # t = (xi / sigma) * y and its support test 1 + t > 0 as in _gp_loglik;
        # the clamp keeps log1p off -1 where the support test fails
        t = (xi / params.scale) * y
        out = np.where(
            1.0 + t > 0.0,
            -log_sigma - (1.0 + 1.0 / xi) * np.log1p(np.maximum(t, _ABOVE_MINUS_ONE)),
            -np.inf,
        )
    out = np.where(y < 0.0, -np.inf, out)
    return _maybe_scalar(out, scalar)


def _gp_loglik(
    y: np.ndarray, y_min: float, y_max: float, sigma: float, xi: float
) -> float:
    """GP log likelihood -n log sigma - (1/xi + 1) sum log1p(theta y) of the
    residuals ``y = x - mu``, theta = xi / sigma; -inf off the support.

    The support is decided on the extremes ``y_min`` and ``y_max``, which
    must be ``y.min()`` and ``y.max()``: rounding is monotone, so they
    decide exactly as the whole array would, and ``log1p`` never sees an
    argument of -1 or below.  The exponential law (|xi| < ``SHAPE_EPS``)
    is -n log sigma - sum(y) / sigma.  Both sums are numpy's pairwise
    ``np.add.reduce``, which ``fit._profile_grid`` repeats row by row.
    ``_loglik_bounds`` bounds the result from scalars only.
    """
    n = y.size
    if n == 0:
        return 0.0
    if y_min < 0.0:
        return -math.inf
    if abs(xi) < SHAPE_EPS:
        return -n * math.log(sigma) - float(np.add.reduce(y)) / sigma
    theta = xi / sigma
    if 1.0 + theta * y_max <= 0.0:
        return -math.inf
    t = theta * y
    np.log1p(t, out=t)
    return -n * math.log(sigma) - (1.0 / xi + 1.0) * float(np.add.reduce(t))


def _loglik_bounds(x: np.ndarray) -> tuple[Callable[..., tuple[float, float]], float, float]:
    """Bounds on the kernel's log likelihood of the peaks ``x``, from scalars.

    Returns ``(bounds, c, x_sec)``: c is the mean of the peaks but one
    largest (one of them, if several tie), x_sec the largest of those
    others (the record's second largest), and ``bounds(base, ybar, y_min,
    y_sec, y_max, sigma, xi)`` gives ``(lo, hi)`` around the float
    ``_gp_loglik(x - mu, y_min, y_max, sigma, xi)`` returns.  A caller
    passes the scalars of one location mu, ``ybar = c - mu``, ``y_min =
    x.min() - mu``, ``y_sec = x_sec - mu`` and ``y_max = x.max() - mu``,
    and of one scale, ``base = -n * math.log(sigma)`` as the kernel
    computes it, so the sampler carries them across the moves that keep mu
    or sigma.  On an empty record ``bounds`` returns (0, 0).

    The record's constants are computed once: n - 1, the central sums m2,
    m3 and m4 of the other peaks about c, max |x| over all n, and
    ``eps_n`` = 2 n (n + 16) u (u the unit roundoff), the rounding
    allowance of the margin.  It covers a left-to-right sum of the n
    terms, whose error bound is no smaller than that of the pairwise
    ``np.add.reduce`` the kernel sums with (Higham 1993).  m2, m3, m4 and
    c go through ``math.fsum``, so each central sum is within a few
    roundings of its value at c, and c is within 2u |c| of the other
    peaks' mean.  A single peak stands in for its own empty rest, which the
    bounds weigh by n - 1 = 0.

    The kernel's support tests give (-inf, -inf) here too.  With theta =
    xi / sigma, the largest peak's term log1p(theta y_max) is taken
    exactly, on the float the kernel's own residual holds.  The other
    n - 1 peaks, with g = theta / (1 + theta ybar), are expanded to third
    order about ybar:

        sum' log1p(theta y) = (n - 1) log1p(theta ybar) - g^2 m2 / 2
                              + g^3 m3 / 3 + R,

    and Lagrange's remainder puts R in [-theta^4 m4 / (4 lo^4),
    -theta^4 m4 / (4 hi^4)], lo and hi being the smaller and larger of
    1 + theta y_min and 1 + theta y_sec, each widened by its rounding.
    Leaving the largest peak out of the remainder is what keeps the bounds
    narrow on heavy tails and near the upper endpoint, where
    1 + theta y_max is far from 1 + theta ybar.  The exponential law
    (|xi| < ``SHAPE_EPS``) is base - ((n - 1) ybar + y_max) / sigma.  The
    margin, in units of ``eps_n``, has three parts:

    - q (1 + q)^4, where slope = |theta| / min(lo, 1) bounds the slope of
      log1p(theta y) over the other peaks and q = slope y_sec bounds
      their |log1p(theta y)| and |g (x - c)|: the rounding of the
      kernel's terms, of its sum and of its residuals fl(x - mu), and of
      this evaluation;
    - slope max|x|: the rounding of the centre c, which is within
      2u max|x| of the mean, so it moves ybar and leaves sum'(x - c)
      off 0.  Residuals far smaller than the peaks need it;
    - |log1p(theta y_max)|: the exact term's weight in the kernel's sum,
      and the few ulps by which the kernel's ``np.log1p`` and
      ``math.log1p`` may differ on it.

    The kernel ends in fl(base - fl(C S)), C = 1/xi + 1, which rounding
    keeps monotone in its sum S, so bounds on S bound its result.  When
    1 + theta y may reach 0 within rounding below the largest peak, or
    the margin or theta^4 overflows, the bounds are (-inf, inf).
    """
    n = x.size
    if n == 0:
        return (lambda base, ybar, y_min, y_sec, y_max, sigma, xi: (0.0, 0.0)), 0.0, 0.0
    # a single peak stands in for its own rest, which has weight n - 1 = 0
    rest = np.delete(x, int(np.argmax(x))) if n > 1 else x
    centre = math.fsum(rest.tolist()) / rest.size
    d = rest - centre
    d2 = d * d
    m2 = math.fsum(d2.tolist())
    m3 = math.fsum((d2 * d).tolist())
    # fourth powers or their sum beyond the float range make m4 inf, and
    # the closure's remainder test then widens the bounds
    with np.errstate(over="ignore"):
        d4 = (d2 * d2).tolist()
    try:
        m4 = math.fsum(d4)
    except OverflowError:
        m4 = math.inf
    xabs = float(np.abs(x).max())
    eps_n = 2.0 * n * (n + 16) * _UNIT_ROUNDOFF
    k = n - 1
    log1p, inf = math.log1p, math.inf

    def bounds(base, ybar, y_min, y_sec, y_max, sigma, xi):
        if y_min < 0.0:
            return -inf, -inf
        if -SHAPE_EPS < xi < SHAPE_EPS:
            # the kernel's fl(sum y) is (n - 1) ybar + y_max within e
            sy = k * ybar + y_max
            e = eps_n * (y_max + xabs)
            return base - (sy + e) / sigma, base - (sy - e) / sigma
        theta = xi / sigma
        t_max = theta * y_max
        if 1.0 + t_max <= 0.0:
            return -inf, -inf
        t_max = log1p(t_max)
        a = 1.0 + theta * y_min
        b = 1.0 + theta * y_sec
        if theta > 0.0:
            slope = theta
            slack = _SLACK * b
            lo, hi = a - slack, b + slack
        else:
            slope = -theta
            slack = _SLACK * (1.0 - theta * y_sec)
            lo, hi = b - slack, a + slack
            if lo <= 0.0:
                return -inf, inf
            if lo < 1.0:
                slope /= lo
        q = slope * y_sec
        q1 = 1.0 + q
        q1 *= q1
        e = eps_n * (q * q1 * q1 + slope * xabs + abs(t_max))
        tt = theta * theta
        t4 = 0.25 * tt * tt * m4
        # an overflowed theta^4 or m4 leaves the remainder inf or inf * 0 = nan
        if not (e < inf and t4 < inf):
            return -inf, inf
        t_bar = theta * ybar
        w = 1.0 + t_bar
        if not w > 0.0:
            # the rounded centre crossed the endpoint: no expansion point
            return -inf, inf
        g = theta / w
        g2 = g * g
        t2 = 0.5 * g2 * m2
        lo *= lo
        r_lo = t4 / (lo * lo)
        s = t_max + k * log1p(t_bar) - t2 + g2 * g * m3 / 3.0
        hi *= hi
        s_lo = s - r_lo - e
        s_hi = s - t4 / (hi * hi) + e
        c = 1.0 / xi + 1.0
        if c >= 0.0:
            return base - c * s_hi, base - c * s_lo
        return base - c * s_lo, base - c * s_hi

    return bounds, centre, float(rest.max())


def gp_quantile(params: GpParams, p):
    """GP quantile for non-exceedance probability p in [0, 1).

    x(p) = location + scale / shape * ((1 - p) ** -shape - 1), with the
    limit location - scale * log(1 - p) for shape -> 0.
    """
    arr, scalar = _points(p)
    # NaN and infinities fail a comparison, so no isfinite pass is needed
    if not np.all((arr >= 0.0) & (arr < 1.0)):
        raise InputError("probabilities must lie in [0, 1)")
    xi = params.shape
    if abs(xi) < SHAPE_EPS:
        out = params.location - params.scale * np.log1p(-arr)
    else:
        out = params.location + params.scale / xi * np.expm1(-xi * np.log1p(-arr))
    return _maybe_scalar(out, scalar)


def gp_sample(params: GpParams, n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """Draw n variates by inverse-CDF applied to uniforms from the given seed."""
    if n < 0:
        raise InputError(f"sample size must be non-negative, got {n!r}")
    rng = np.random.default_rng(seed)
    return np.asarray(gp_quantile(params, rng.random(n)))


def gp_rescale(params: GpParams, factor: float) -> GpParams:
    """Parameters of factor * X: location and scale multiply, shape is invariant."""
    if not math.isfinite(factor) or factor <= 0:
        raise InputError(f"rescale factor must be positive, got {factor!r}")
    return GpParams(factor * params.location, factor * params.scale, params.shape)


def _kappa_y(params: KappaParams, f: np.ndarray) -> np.ndarray:
    # y(F) = (1 - F**h) / h, with the h -> 0 limit -log F.
    h = params.shape_h
    if abs(h) < SHAPE_EPS:
        return -np.log(f)
    return -np.expm1(h * np.log(f)) / h


def kappa_quantile(params: KappaParams, p):
    """Kappa quantile for non-exceedance probability p in (0, 1).

    Uses the analytic k -> 0 and h -> 0 limit branches so the surface is
    continuous where the family degenerates (h=1 is GP, h=0=k is Gumbel).
    """
    arr, scalar = _points(p)
    # NaN and infinities fail a comparison, so no isfinite pass is needed
    if not np.all((arr > 0.0) & (arr < 1.0)):
        raise InputError("probabilities must lie in (0, 1)")
    y = _kappa_y(params, arr)
    k = params.shape_k
    if abs(k) < SHAPE_EPS:
        out = params.location - params.scale * np.log(y)
    else:
        out = params.location + params.scale / k * (1.0 - np.power(y, k))
    return _maybe_scalar(out, scalar)


def kappa_cdf(params: KappaParams, x):
    """Kappa distribution function, clamped to [0, 1] outside the support."""
    arr, scalar = _points(_finite_array(x, "x"))
    k = params.shape_k
    h = params.shape_h
    z = (arr - params.location) / params.scale
    if abs(k) < SHAPE_EPS:
        y = np.exp(-z)
    else:
        base = 1.0 - k * z
        # base <= 0 means x beyond the k-branch endpoint: above the upper
        # endpoint for k > 0 (F=1, y=0), below the lower one for k < 0 (y=inf).
        with np.errstate(invalid="ignore", divide="ignore"):
            y = np.where(base > 0.0, np.power(np.maximum(base, 1e-300), 1.0 / k), 0.0)
        if k < 0.0:
            y = np.where(base <= 0.0, np.inf, y)
    if abs(h) < SHAPE_EPS:
        out = np.exp(-y)
    else:
        hy = 1.0 - h * y
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.where(hy > 0.0, np.power(np.maximum(hy, 1e-300), 1.0 / h), 0.0)
    return _maybe_scalar(np.clip(out, 0.0, 1.0), scalar)


def _kde_pdf(sample: np.ndarray, points) -> np.ndarray:
    """Gaussian kernel density estimate of a 1-D sample at ``points``.

    The bandwidth is Scott's rule: the ``ddof=1`` standard deviation times
    n ** (-1/5), as in ``scipy.stats.gaussian_kde``, with which it agrees at
    rounding level.  A point sums the draws within its own reach R of it,
    in bandwidths: R = sqrt(r**2 + 2 (64 ln 2 + ln n)), r the distance to
    its nearest draw, capped at ``_KDE_REACH``.  Each of the at most n
    draws left out has a term below exp(-R**2 / 2), and the nearest draw's
    term exp(-r**2 / 2) is in the sum, so together they are less than
    2**-64 of it, below the sum's rounding: the result differs from the
    full sum only by the order of summation.  R is about 10.5 near 60,000
    draws, so on a padded 201-point grid over a normal sample a point sums
    a fifth of the draws, where the whole reach took three quarters.  The
    kernel sums run over blocks of at most ``_BLOCK_VALUES`` (point, draw)
    pairs in one reused buffer, so no (points, n) matrix is ever built.  A
    sample without spread has no bandwidth and raises
    DegenerateSampleError.
    """
    x = np.asarray(sample, dtype=float)
    n = x.size
    var = float(np.var(x, ddof=1))
    if not var > 0.0:
        raise DegenerateSampleError("sample has no spread; no kernel density estimate")
    h = math.sqrt(var) * n**-0.2
    # in bandwidth units, as gaussian_kde whitens both sides; sorted, so the
    # draws within reach of a point are one slice
    xw = np.sort(x) / h
    pw = np.atleast_1d(np.asarray(points, dtype=float)) / h
    near = np.searchsorted(xw, pw).clip(1, n - 1)
    r = np.minimum(np.abs(pw - xw[near - 1]), np.abs(xw[near] - pw))
    reach = np.hypot(r, math.sqrt(2.0 * (64.0 * math.log(2.0) + math.log(n))))
    reach = reach.clip(None, _KDE_REACH)
    first = np.searchsorted(xw, pw - reach)
    stop = np.searchsorted(xw, pw + reach, side="right")
    cols = min(n, _BLOCK_VALUES)
    rows = min(pw.size, max(1, _BLOCK_VALUES // cols))
    buf = np.empty((rows, cols))
    sums = np.zeros(pw.size)
    for r0 in range(0, pw.size, rows):
        p = pw[r0 : r0 + rows, None]
        c_first = int(first[r0 : r0 + rows].min())
        c_stop = int(stop[r0 : r0 + rows].max())
        for c0 in range(c_first, c_stop, cols):
            block = buf[: p.shape[0], : min(cols, c_stop - c0)]
            np.subtract(p, xw[c0 : c0 + block.shape[1]], out=block)
            np.square(block, out=block)
            block *= -0.5
            np.exp(block, out=block)
            sums[r0 : r0 + rows] += block.sum(axis=1)
    return sums / (n * h * math.sqrt(2.0 * math.pi))


def kappa_sample(params: KappaParams, n: int, seed: int | np.random.Generator | None = None) -> np.ndarray:
    """Draw n variates by inverse-CDF applied to uniforms from the given seed."""
    if n < 0:
        raise InputError(f"sample size must be non-negative, got {n!r}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    # keep u strictly inside (0, 1); random() can return exactly 0.0
    np.clip(u, 1e-15, 1.0 - 1e-16, out=u)
    return np.asarray(kappa_quantile(params, u))
