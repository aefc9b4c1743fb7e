"""Regional Bayesian estimation for a POT target site.

The prior on (location, scale, shape) is lognormal-lognormal-normal,
elicited from donor sites of the region, the sites of the index-flood
regression: each donor's one at-site fit, rescaled by its index flood, is
transported to the target through the predicted target index flood, and
the hyper-parameters are moment summaries of those pseudo-parameters.
The target site's own sample never enters the elicitation; that contract
is enforced, not just documented.  Posterior sampling is a component-wise
random-walk Metropolis in (log mu, log sigma, xi) through burn-in, then a
Metropolis-Hastings independence step from a multivariate t fitted to the
late burn-in states.  Each chain owns a generator stream spawned from the
seed and draws its random numbers in blocks: through burn-in one step
normal and one acceptance uniform per proposal.  A walk proposal
recomputes its coordinate's prior term and bounds its likelihood from the
record's moments and its largest peak's exact term (the closure of
``distributions._loglik_bounds``); most walk steps are decided on those
bounds.  A chain carries the bounds' scalars of its state: per location
the residuals of the other peaks' mean and of the smallest, second
largest and largest peak, and per scale -n log sigma, so a scale move
computes only the last and a shape move none.  The rest read the peaks
through ``distributions._gp_loglik``: the proposal first, and the current
state only when the proposal's exact value still leaves the step open.
The bounds are exact, so the walk's draws are those of evaluating every
proposal in full.  After burn-in each iteration makes one joint proposal;
a block of them is drawn and evaluated as numpy arrays, its likelihoods
as one array of residuals (``_loglik_rows``) whose rows are the kernel's
floats, and only the acceptance tests run one by one.  A chain whose late
burn-in the t would fit badly walks on instead.  Each chain logs one
DEBUG line with its proposals, kernel calls and rows, acceptances and
post-burn-in kernel.

Nothing here calls BLAS: the sampler works on Python floats and short
arrays, the t's covariance is ``np.add.reduce`` of products and its 3 x 3
Cholesky factor Python arithmetic, and the diagnostics and quantiles run
on numpy's own reductions and FFT.  Like a fit (see ``fit``), a Bayesian
analysis never wakes OpenBLAS's thread pool, whose workers would otherwise
spin on the other cores through the posterior summary after a threaded
call.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    SHAPE_EPS,
    GpParams,
    _gp_loglik,
    _loglik_bounds,
    gp_rescale,
)
from .errors import (
    ContractViolationError,
    ElicitationError,
    FitError,
    InputError,
)
from .fit import _check_rate_period, log_param_variances
from .indexflood import AreaRegression, fit_area_regression, predict_index_flood
from .pot import PotSeries
from .regional import Region, RegionSite

log = logging.getLogger("regflood")

_D_FLOOR = 1e-4
# pooled draws posterior_quantiles needs for its credible intervals
MIN_RETAINED_DRAWS = 500
# iterations per block of step normals and acceptance uniforms, per chain
_BLOCK = 500
# burn-in iterations per step-size adaptation
_ADAPT_WINDOW = 50
# After burn-in a chain proposes from a multivariate t with _T_DF degrees of
# freedom, fitted to the states of burn-in from the share _LATE_FROM of it
# on, its covariance scaled by _T_SCALE squared: heavier tails and a wider
# spread than the posterior's
_T_DF = 5
_T_SCALE = 1.3
_LATE_FROM = 0.5
# A chain walks on after burn-in with fewer late burn-in states than
# _MIN_LATE, when the walk moved a coordinate in fewer than _MIN_MOVES of
# them (the acceptance floor the sampler warns at), or when log pi - log q
# spreads over them (max - median) by more than _MAX_SPREAD: a t fitted to
# a stalled walk is too narrow, one that misses part of the posterior is
# rarely accepted there, and either chain would stick
_MIN_LATE = 200
_MIN_MOVES = 0.05
_MAX_SPREAD = 3.0
# values per (rows, n) block of residuals: 8192 float64 values are 64 KiB,
# under glibc's default 128 KiB mmap threshold, so blocks reuse heap memory
# (see distributions._BLOCK_VALUES)
_ROW_VALUES = 8192


@dataclass(frozen=True)
class PriorProvenance:
    """Where a prior came from: donor sites and the index-flood prediction."""

    target: str
    sites: tuple[str, ...]
    c_pred: float
    var_log_c: float


@dataclass(frozen=True)
class PriorSpec:
    """Hyper-parameters of the lognormal-lognormal-normal prior.

    ``gamma`` holds the means of (log mu, log sigma, xi) and ``d`` their
    variances; the marginals are independent.
    """

    gamma: tuple[float, float, float]
    d: tuple[float, float, float]
    provenance: PriorProvenance | None = None

    def __post_init__(self) -> None:
        if len(self.gamma) != 3 or len(self.d) != 3:
            raise InputError("prior needs 3 means and 3 variances")
        if not all(math.isfinite(g) for g in self.gamma):
            raise InputError(f"non-finite prior means {self.gamma!r}")
        if not all(v > 0 and math.isfinite(v) for v in self.d):
            raise InputError(f"prior variances must be positive, got {self.d!r}")

    def with_variances(self, d: Sequence[float]) -> "PriorSpec":
        """Same means with replaced variances (e.g. the flat d_i = 1000 mode)."""
        return replace(self, d=(float(d[0]), float(d[1]), float(d[2])))


def _donor_regression(sites: Sequence[RegionSite], index_method: str) -> AreaRegression:
    """Index-flood area regression over the donor sites, ``elicit_prior``'s donors."""
    return fit_area_regression(
        [(s.meta.code, s.meta.area_km2, s.index_flood(index_method)) for s in sites]
    )


def elicit_prior(region: Region, regression: AreaRegression) -> PriorSpec:
    """Elicit the prior for the region's target site from its donor sites.

    The donors are the sites of the index-flood regression.  Each donor's
    one at-site fit (``RegionSite.fit``) is rescaled by the donor's own
    ``region.index_method`` index flood; the resulting dimensionless
    parameters times the regression-predicted target index flood form the
    pseudo-parameter sample behind the hyper-parameters.  The MLE is equivariant under
    rescaling and the log-scale and shape variances are invariant, so no
    donor is refitted.  Donors whose fit or index flood fails are dropped
    with a warning.

    The location and scale variances combine the index-flood prediction
    variance with the mean per-donor estimation variances, whose location
    term is the squared threshold CV ``fit.THRESHOLD_CV``; the shape
    variance is the spread of the donor shapes.  All variances are floored
    at 1e-4.
    """
    target = region.target
    if target in regression.codes:
        raise ContractViolationError(
            f"index-flood regression was fitted with target site {target}; "
            "the target sample must not inform its own prior"
        )
    donors = tuple(region.site(code) for code in regression.codes)
    c_pred = predict_index_flood(regression, region.target_site.meta.area_km2)

    codes = []
    log_mu, log_sigma, shapes = [], [], []
    v_mu, v_sigma = [], []
    for site in donors:
        code = site.meta.code
        try:
            c = site.index_flood(region.index_method)
            vm, vs, _ = log_param_variances(site.fit)
        except (FitError, InputError) as exc:
            log.warning("dropping donor site %s from elicitation: %s", code, exc)
            continue
        params = gp_rescale(site.fit.params, 1.0 / c)
        if params.location <= 0:
            log.warning(
                "dropping donor site %s: non-positive rescaled location", code
            )
            continue
        codes.append(code)
        log_mu.append(math.log(params.location) + math.log(c_pred.value))
        log_sigma.append(math.log(params.scale) + math.log(c_pred.value))
        shapes.append(params.shape)
        v_mu.append(vm)
        v_sigma.append(vs)

    m = len(codes)
    if m < 3:
        raise ElicitationError(
            f"prior elicitation needs at least 3 usable donor sites, got {m}"
        )

    g1 = float(np.mean(log_mu))
    g2 = float(np.mean(log_sigma))
    g3 = float(np.mean(shapes))
    d1 = c_pred.var_log + float(np.mean(v_mu))
    d2 = c_pred.var_log + float(np.mean(v_sigma))
    d3 = float(np.sum((np.asarray(shapes) - g3) ** 2)) / (m - 1)
    d = tuple(max(v, _D_FLOOR) for v in (d1, d2, d3))
    return PriorSpec(
        gamma=(g1, g2, g3),
        d=d,
        provenance=PriorProvenance(
            target=target,
            sites=tuple(codes),
            c_pred=c_pred.value,
            var_log_c=c_pred.var_log,
        ),
    )


def log_prior(prior: PriorSpec, params: GpParams) -> float:
    """Log prior density of (mu, sigma, xi), including the 1/(mu sigma) Jacobian."""
    mu, sigma, xi = params.location, params.scale, params.shape
    if mu <= 0 or sigma <= 0:
        return -math.inf
    z = (math.log(mu), math.log(sigma), xi)
    out = 0.0
    for zi, gi, di in zip(z, prior.gamma, prior.d):
        out -= 0.5 * (math.log(2.0 * math.pi * di) + (zi - gi) ** 2 / di)
    return out - z[0] - z[1]


def log_posterior(prior: PriorSpec, pot: PotSeries, params: GpParams) -> float:
    """Unnormalized log posterior: log prior plus the GP log likelihood."""
    lp = log_prior(prior, params)
    if lp == -math.inf or pot.peaks.size == 0:
        return lp
    y = pot.peaks - params.location
    return lp + _gp_loglik(y, float(y.min()), float(y.max()), params.scale, params.shape)


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; adaptation runs every 50 burn-in iterations, never after."""

    chains: int = 4
    iterations: int = 20000
    burn_in: int = 5000
    thinning: int = 1

    def __post_init__(self) -> None:
        if self.chains < 1:
            raise InputError(f"need at least 1 chain, got {self.chains}")
        if self.iterations < 1000:
            raise InputError(
                f"need at least 1000 iterations, got {self.iterations}"
            )
        if not 0 <= self.burn_in < self.iterations:
            raise InputError(
                f"burn-in {self.burn_in} must lie in [0, {self.iterations})"
            )
        if self.thinning < 1:
            raise InputError(f"thinning must be >= 1, got {self.thinning}")


@dataclass(frozen=True)
class PosteriorChains:
    """Retained draws of (mu, sigma, xi) per chain; settings and seed stay with the caller."""

    draws: np.ndarray  # (chains, kept, 3)
    # (chains, 3), the share of post-burn-in iterations that moved each
    # coordinate: three equal values under the independence step
    acceptance: np.ndarray
    warnings: tuple[str, ...] = ()

    def pooled(self) -> np.ndarray:
        """All retained draws stacked, chain order fixed."""
        return self.draws.reshape(-1, 3)


def _initial_state(prior: PriorSpec, x: np.ndarray) -> np.ndarray:
    """A support-valid start in (log mu, log sigma, xi), prior-centered."""
    g1, g2, g3 = prior.gamma
    z = np.array([g1, g2, g3])
    if x.size == 0:
        return z
    xmin = float(x.min())
    xmax = float(x.max())
    if xmin <= 0 or math.exp(z[0]) >= xmin:
        z[0] = math.log(xmin) - 0.05 if xmin > 0 else g1
    if z[2] < 0.0:
        # negative shape: lift the scale until the support covers the data
        needed = -z[2] * (xmax - math.exp(z[0]))
        if math.exp(z[1]) <= needed:
            z[1] = math.log(needed) + 0.05
    return z


def _loglik_rows(
    x: np.ndarray, xmin: float, xmax: float, mu: np.ndarray, sigma: np.ndarray, xi: np.ndarray
) -> np.ndarray:
    """``_gp_loglik(x - mu[i], xmin - mu[i], xmax - mu[i], sigma[i], xi[i])``
    for every i, float for float; ``xmin`` and ``xmax`` are the extremes of
    the peaks ``x`` and every scale is positive and finite.

    The residuals of at most ``_ROW_VALUES`` values form one (rows, n)
    array, multiplied by theta = xi / sigma and taken through ``np.log1p``
    in place, and each row is summed by ``np.add.reduce`` along it, numpy's
    pairwise sum as the kernel's.  -n log sigma is ``math.log``'s, as the
    kernel computes it.  The support tests are the kernel's, on the
    extremes; a row off the support is zeroed before ``log1p`` and gives
    -inf.  Rows of the exponential law (|xi| < ``SHAPE_EPS``) sum their
    residuals instead.
    """
    n = x.size
    out = np.zeros(mu.size)
    if n == 0:
        return out
    step = max(_ROW_VALUES // n, 1)
    for lo in range(0, mu.size, step):
        m, s, k = mu[lo : lo + step], sigma[lo : lo + step], xi[lo : lo + step]
        theta = k / s
        expo = np.abs(k) < SHAPE_EPS
        has_expo = bool(expo.any())
        off = (xmin - m < 0.0) | (~expo & (1.0 + theta * (xmax - m) <= 0.0))
        has_off = bool(off.any())
        base = -n * np.array(list(map(math.log, s.tolist())))
        y = x - m[:, None]
        if has_expo:
            y_sum = np.add.reduce(y[expo], axis=1)
        y *= theta[:, None]
        if has_off:
            y[off] = 0.0
        np.log1p(y, out=y)
        rows = base - (1.0 / np.where(expo, 1.0, k) + 1.0) * np.add.reduce(y, axis=1)
        if has_expo:
            rows[expo] = base[expo] - y_sum / s[expo]
        if has_off:
            rows[off] = -math.inf
        out[lo : lo + step] = rows
    return out


def mcmc_sample(
    prior: PriorSpec,
    pot: PotSeries,
    config: McmcConfig = McmcConfig(),
    seed: int = 0,
) -> PosteriorChains:
    """Sample the posterior by a component-wise random walk through burn-in,
    then by a Metropolis-Hastings independence step fitted to burn-in.

    The walk lives in (log mu, log sigma, xi), where the prior is an
    independent normal and the location/scale positivity constraints
    vanish.  Each coordinate gets a Gaussian step with its own scale,
    adapted in windows during burn-in toward acceptance rates in
    [0.2, 0.5] and frozen afterwards where a chain walks on.  Chains own
    independent generator streams spawned from the seed, so results are
    reproducible and a chain's draws do not depend on how many chains run
    beside it.  After the three normals of its start, a walking chain
    draws its step normals and acceptance uniforms in blocks of ``_BLOCK``
    iterations and spends one normal and one uniform on every proposal,
    off-support ones included.
    A chain's start keeps the log target its support test evaluated.

    At the end of burn-in each chain fits a t with ``_T_DF`` degrees of
    freedom to its burn-in states from ``_LATE_FROM`` of burn-in on, in
    w = (nu, log sigma, xi) with nu = log(x_min - mu) (log mu for an empty
    record): their mean, and their covariance, summed by ``np.add.reduce``,
    times ``_T_SCALE`` squared, with its 3 x 3 Cholesky factor taken by
    hand.  After burn-in every iteration proposes one w from that fixed t
    (Tierney 1994); its tails are heavier than the posterior's, which keeps
    the chain uniformly ergodic (Mengersen & Tweedie 1996).  The log target
    in w gains the Jacobian nu - log mu, and a proposal with mu <= 0, or a
    mu or sigma that is 0 or overflows, is rejected.  A block of
    ``_ROW_VALUES // max(n, 3)`` iterations draws three normals per
    proposal, one chi-square and one uniform: the proposals, their log
    density, their prior terms and their log likelihoods (``_loglik_rows``)
    are numpy arrays, and the step accepts when the uniform's log is below
    log pi / q of the proposal minus that of the current state.  The chain
    walks on instead, for the rest of its run, when it has fewer than
    ``_MIN_LATE`` of those burn-in states, when the walk moved one of the
    coordinates in fewer than ``_MIN_MOVES`` of them, when their covariance
    is not positive definite, or when log pi / q over them spreads
    (max - median) by more than ``_MAX_SPREAD``.  Each decision reads
    burn-in only, so every chain is a homogeneous Metropolis-Hastings chain
    on the posterior after burn-in.  ``PosteriorChains.acceptance`` is the share of
    post-burn-in iterations that moved each coordinate, the same three
    values under the independence step.

    A walk proposal recomputes one prior term, then bounds its log likelihood
    by the closure of ``_loglik_bounds``, scalar arithmetic on the
    record's moments, the residuals' extremes and the largest peak's
    exact term.  The chain carries the closure's scalars of its current
    state: ybar = c - mu, y_min, y_sec = x_(n-1) - mu and y_max, the
    residuals of the other peaks' mean c and of the smallest, second
    largest and largest peak, are computed by a location proposal, and
    base = -n log sigma, as the kernel computes it, by a scale proposal;
    an accepted move stores them.  A location move above the smallest
    peak is rejected before the bounds.  The step accepts when
    log u < lp - lt for every log target lp and lt within their bounds
    and rejects when it holds for none; rounding is monotone, so either
    verdict is the one the exact floats give.
    Otherwise the kernel evaluates lp as the full target
    ``-0.5 (q0 + q1 + q2) + _gp_loglik(x - mu, ...)`` that an accepting
    move would have stored, and the step is decided on lp against lt's
    bounds the same way.  Only if that still leaves it open, which needs
    a current state accepted on bounds, does the kernel evaluate lt as
    well, and the step is decided on both floats.  So the walk's draws and
    acceptance are bit for bit those of evaluating every proposal: this
    is early rejection (Solonen et al. 2012) and delayed acceptance
    (Christen & Fox 2005) with exact bounds in place of a surrogate.
    The residuals ``y = x - mu`` are built only when the kernel runs, for
    a location move's current state only when that state is evaluated,
    and kept until a location move is accepted.

    Each chain logs one DEBUG line: its proposals (three per walk
    iteration, one per independence step), the kernel calls its walk moves
    made, the rows of ``_loglik_rows`` it evaluated (its late burn-in states
    and its proposals), its post-burn-in acceptances per coordinate and
    its post-burn-in kernel.  The calls are counted where the kernel runs,
    never per proposal.
    """
    x = np.asarray(pot.peaks, dtype=float)
    n = x.size
    g0, g1, g2 = prior.gamma
    d0, d1, d2 = prior.d
    # an empty record has no extremes; _gp_loglik and its bounds return 0
    # before using them
    xmin, xmax = (float(x.min()), float(x.max())) if n else (math.inf, -math.inf)
    bounds, centre, x_sec = _loglik_bounds(x)

    def target(y, y_min, y_max, sigma, xi, q0, q1, q2):
        # the log target as the move that accepted it computed it
        return -0.5 * (q0 + q1 + q2) + _gp_loglik(y, y_min, y_max, sigma, xi)

    def log_target(z: np.ndarray) -> float:
        lm, ls, xi = z.tolist()
        mu = math.exp(lm)
        q0 = (lm - g0) * (lm - g0) / d0
        q1 = (ls - g1) * (ls - g1) / d1
        q2 = (xi - g2) * (xi - g2) / d2
        return target(x - mu, xmin - mu, xmax - mu, math.exp(ls), xi, q0, q1, q2)

    def target_rows(lm, ls, xi, mu, sigma, nu):
        # the log target in w = (nu, log sigma, xi) of each row, as the walk
        # sums it, plus the Jacobian nu - log mu
        q0 = (lm - g0) * (lm - g0) / d0
        q1 = (ls - g1) * (ls - g1) / d1
        q2 = (xi - g2) * (xi - g2) / d2
        return -0.5 * (q0 + q1 + q2) + _loglik_rows(x, xmin, xmax, mu, sigma, xi) + (nu - lm)

    def fit_proposal(late):
        # the t fitted to the late burn-in states (lm, ls, xi, mu, sigma),
        # as its mean, Cholesky factor and the current state's log pi / q,
        # or None when the chain walks on
        k = len(late)
        if k < _MIN_LATE:
            return None
        lm, ls, xi, mu, sigma = (np.array(col) for col in zip(*late))
        if min(np.count_nonzero(np.diff(col)) for col in (lm, ls, xi)) < _MIN_MOVES * k:
            return None
        w = (np.log(xmin - mu) if n else lm, ls, xi)
        mean = [float(np.add.reduce(col)) / k for col in w]
        dev = [col - m for col, m in zip(w, mean)]
        f = _T_SCALE * _T_SCALE / (k - 1)
        (c00,), (c10, c11), (c20, c21, c22) = (
            [float(np.add.reduce(dev[i] * dev[j])) * f for j in range(i + 1)] for i in range(3)
        )
        if not c00 > 0.0:
            return None
        l00 = math.sqrt(c00)
        l10, l20 = c10 / l00, c20 / l00
        p11 = c11 - l10 * l10
        if not p11 > 0.0:
            return None
        l11 = math.sqrt(p11)
        l21 = (c21 - l20 * l10) / l11
        p22 = c22 - l20 * l20 - l21 * l21
        if not p22 > 0.0:
            return None
        chol = (l00, l10, l11, l20, l21, math.sqrt(p22))
        # the states' t log density, up to its constant, by forward substitution
        e0 = dev[0] / l00
        e1 = (dev[1] - l10 * e0) / l11
        e2 = (dev[2] - l20 * e0 - l21 * e1) / chol[5]
        log_q = -0.5 * (_T_DF + 3) * np.log1p((e0 * e0 + e1 * e1 + e2 * e2) / _T_DF)
        a = target_rows(lm, ls, xi, mu, sigma, w[0]) - log_q
        if float(a.max()) - float(np.median(a)) > _MAX_SPREAD:
            return None
        return mean, chol, float(a[-1])

    sd = np.sqrt(np.asarray(prior.d))
    start = _initial_state(prior, x)
    lt_start = log_target(start)
    if lt_start == -math.inf:
        raise FitError("no support-valid starting point for the sampler")

    burn_in, thinning, window = config.burn_in, config.thinning, _ADAPT_WINDOW
    draws = np.empty((config.chains, len(range(burn_in, config.iterations, thinning)), 3))
    acceptance = np.empty((config.chains, 3))
    streams = np.random.SeedSequence(seed).spawn(config.chains)

    for c in range(config.chains):
        rng = np.random.default_rng(streams[c])
        z = start + 0.1 * sd * rng.standard_normal(3)
        for _ in range(20):
            lt = log_target(z)
            if lt > -math.inf:
                break
            z = 0.5 * (z + start)
        else:
            z, lt = start.copy(), lt_start
        # bounds on the current log target: equal, and the float a full
        # evaluation gives, except after a move accepted on its bounds
        lt_lo = lt_hi = lt
        lm, ls, xi = z.tolist()
        mu, sigma = math.exp(lm), math.exp(ls)
        # the prior's quadratic term per coordinate; per location the
        # residuals of the other peaks' mean and of the smallest, second
        # largest and largest peak, and per scale -n log sigma, each kept
        # until an accepted move changes it.  The residuals y = x - mu are
        # built when a kernel needs them
        q0 = (lm - g0) * (lm - g0) / d0
        q1 = (ls - g1) * (ls - g1) / d1
        q2 = (xi - g2) * (xi - g2) / d2
        y, y_min, y_max = None, xmin - mu, xmax - mu
        ybar, y_sec = centre - mu, x_sec - mu
        base = -n * math.log(sigma)
        scales = 2.4 * sd
        s0, s1, s2 = scales.tolist()
        # accepted proposals per coordinate in this window and after burn-in
        acc0 = acc1 = acc2 = post0 = post1 = post2 = 0
        kernel_calls = 0  # of the moves, counted only where the kernel runs
        kept = []
        # the states after each burn-in iteration from late_from on
        late_from, late, joint = int(_LATE_FROM * burn_in), [], None
        for it in range(config.iterations):
            row = it % _BLOCK
            if row == 0:
                steps = rng.standard_normal((_BLOCK, 3)).tolist()
                log_u = np.log(rng.random((_BLOCK, 3))).tolist()
            n0, n1, n2 = steps[row]
            u0, u1, u2 = log_u[row]
            post = it >= burn_in

            # Each move accepts when u < lp - lt holds for every lp and lt in
            # their bounds and rejects when it holds for none.  Otherwise it
            # evaluates lp as the full target, and lt too only if u still
            # lies between lp - lt_hi and lp - lt_lo; lt_hi is then lt.
            lm_p = lm + s0 * n0
            mu_p = math.exp(lm_p)
            y_min_p = xmin - mu_p
            # a location above the smallest peak is off the support: rejected
            if y_min_p >= 0.0:
                q_p = (lm_p - g0) * (lm_p - g0) / d0
                y_max_p = xmax - mu_p
                ybar_p, y_sec_p = centre - mu_p, x_sec - mu_p
                prior_p = -0.5 * (q_p + q1 + q2)
                lo, hi = bounds(base, ybar_p, y_min_p, y_sec_p, y_max_p, sigma, xi)
                if u0 < (prior_p + lo) - lt_hi:
                    accept, y_p = True, None
                    lt_lo, lt_hi = prior_p + lo, prior_p + hi
                elif u0 >= (prior_p + hi) - lt_lo:
                    accept = False
                else:
                    kernel_calls += 1
                    y_p = x - mu_p
                    lp = target(y_p, y_min_p, y_max_p, sigma, xi, q_p, q1, q2)
                    if lp - lt_hi <= u0 < lp - lt_lo:
                        kernel_calls += 1
                        y = x - mu if y is None else y
                        lt_lo = lt_hi = target(y, y_min, y_max, sigma, xi, q0, q1, q2)
                    accept = u0 < lp - lt_hi
                    if accept:
                        lt_lo = lt_hi = lp
                if accept:
                    lm, mu, q0, y = lm_p, mu_p, q_p, y_p
                    y_min, y_max, ybar, y_sec = y_min_p, y_max_p, ybar_p, y_sec_p
                    acc0 += 1
                    post0 += post

            ls_p = ls + s1 * n1
            sigma_p = math.exp(ls_p)
            base_p = -n * math.log(sigma_p)
            q_p = (ls_p - g1) * (ls_p - g1) / d1
            prior_p = -0.5 * (q0 + q_p + q2)
            lo, hi = bounds(base_p, ybar, y_min, y_sec, y_max, sigma_p, xi)
            if u1 < (prior_p + lo) - lt_hi:
                accept = True
                lt_lo, lt_hi = prior_p + lo, prior_p + hi
            elif u1 >= (prior_p + hi) - lt_lo:
                accept = False
            else:
                kernel_calls += 1
                y = x - mu if y is None else y
                lp = target(y, y_min, y_max, sigma_p, xi, q0, q_p, q2)
                if lp - lt_hi <= u1 < lp - lt_lo:
                    kernel_calls += 1
                    lt_lo = lt_hi = target(y, y_min, y_max, sigma, xi, q0, q1, q2)
                accept = u1 < lp - lt_hi
                if accept:
                    lt_lo = lt_hi = lp
            if accept:
                ls, sigma, q1, base = ls_p, sigma_p, q_p, base_p
                acc1 += 1
                post1 += post

            xi_p = xi + s2 * n2
            q_p = (xi_p - g2) * (xi_p - g2) / d2
            prior_p = -0.5 * (q0 + q1 + q_p)
            lo, hi = bounds(base, ybar, y_min, y_sec, y_max, sigma, xi_p)
            if u2 < (prior_p + lo) - lt_hi:
                accept = True
                lt_lo, lt_hi = prior_p + lo, prior_p + hi
            elif u2 >= (prior_p + hi) - lt_lo:
                accept = False
            else:
                kernel_calls += 1
                y = x - mu if y is None else y
                lp = target(y, y_min, y_max, sigma, xi_p, q0, q1, q_p)
                if lp - lt_hi <= u2 < lp - lt_lo:
                    kernel_calls += 1
                    lt_lo = lt_hi = target(y, y_min, y_max, sigma, xi, q0, q1, q2)
                accept = u2 < lp - lt_hi
                if accept:
                    lt_lo = lt_hi = lp
            if accept:
                xi, q2 = xi_p, q_p
                acc2 += 1
                post2 += post

            if not post:
                if (it + 1) % window == 0:
                    rates = np.array([acc0, acc1, acc2], dtype=float) / window
                    factor = np.exp(1.2 * (rates - 0.35))
                    scales *= np.clip(factor, 0.5, 2.0)
                    scales = np.clip(scales, 1e-6, 100.0)
                    s0, s1, s2 = scales.tolist()
                    acc0 = acc1 = acc2 = 0
                if it >= late_from:
                    late.append((lm, ls, xi, mu, sigma))
                    if it + 1 == burn_in:
                        joint = fit_proposal(late)
                        if joint is not None:
                            break
            elif (it - burn_in) % thinning == 0:
                kept.append((mu, sigma, xi))
        if joint is None:
            kind, proposals, rows_done = "walk", 3 * config.iterations, 0
        else:
            kind = "independence step"
            proposals = 3 * burn_in + config.iterations - burn_in
            rows_done = len(late) + config.iterations - burn_in
            # one joint proposal per iteration from the fixed t, drawn and
            # evaluated a block at a time; visited holds the state after
            # each iteration
            (m0, m1, m2), (l00, l10, l11, l20, l21, l22), a_cur = joint
            cur, visited = (mu, sigma, xi), []
            size = _ROW_VALUES // max(n, 3)
            for first in range(burn_in, config.iterations, size):
                rows = min(size, config.iterations - first)
                z0, z1, z2 = rng.standard_normal((3, rows))
                g = rng.chisquare(_T_DF, rows)
                log_u = np.log(rng.random(rows)).tolist()
                r = np.sqrt(_T_DF / g)
                nu = m0 + r * (l00 * z0)
                ls_p = m1 + r * (l10 * z0 + l11 * z1)
                xi_p = m2 + r * (l20 * z0 + l21 * z1 + l22 * z2)
                log_q = -0.5 * (_T_DF + 3) * np.log1p((z0 * z0 + z1 * z1 + z2 * z2) / g)
                with np.errstate(over="ignore"):
                    sigma_p = np.exp(ls_p)
                    mu_p = xmin - np.exp(nu) if n else np.exp(nu)
                ok = np.flatnonzero(
                    (mu_p > 0.0) & (mu_p < math.inf) & (sigma_p > 0.0) & (sigma_p < math.inf)
                )
                a = np.full(rows, -math.inf)
                mu_ok, nu_ok = mu_p[ok], nu[ok]
                lm_ok = np.log(mu_ok) if n else nu_ok
                lp = target_rows(lm_ok, ls_p[ok], xi_p[ok], mu_ok, sigma_p[ok], nu_ok)
                a[ok] = lp - log_q[ok]
                states = zip(mu_p.tolist(), sigma_p.tolist(), xi_p.tolist())
                for lu, a_p, state in zip(log_u, a.tolist(), states):
                    if lu < a_p - a_cur:
                        a_cur, cur = a_p, state
                        post0 += 1
                    visited.append(cur)
            kept = visited[::thinning]
            post1 = post2 = post0
        draws[c] = kept
        acceptance[c] = np.array([post0, post1, post2], dtype=float) / (config.iterations - burn_in)
        log.debug(
            "mcmc chain %d: %d proposals, %d kernel calls, %d kernel rows, "
            "accepted %d/%d/%d of %d post-burn-in per coordinate by the %s",
            c, proposals, kernel_calls, rows_done, post0, post1, post2,
            config.iterations - burn_in, kind,
        )

    warnings = []
    for c in range(config.chains):
        for j, name in enumerate(("log-location", "log-scale", "shape")):
            rate = acceptance[c, j]
            if not 0.05 <= rate <= 0.8:
                msg = (
                    f"chain {c} {name} acceptance {rate:.3f} "
                    "outside [0.05, 0.8]"
                )
                warnings.append(msg)
                log.warning("%s", msg)
    return PosteriorChains(draws=draws, acceptance=acceptance, warnings=tuple(warnings))


@dataclass(frozen=True)
class ChainDiagnostics:
    """Split-chain PSR and ESS per parameter; acceptance is ``PosteriorChains.acceptance``."""

    psr: tuple[float, float, float] | None
    ess: tuple[float, float, float]


def _split_psr(samples: np.ndarray) -> float:
    """Potential scale reduction over split half-chains of one parameter."""
    half = samples.shape[1] // 2
    halves = np.concatenate([samples[:, :half], samples[:, half : 2 * half]])
    within = float(halves.var(axis=1, ddof=1).mean())
    between = half * float(halves.mean(axis=1).var(ddof=1))
    if within == 0.0:
        return math.inf if between > 0.0 else 1.0
    var_hat = (half - 1) / half * within + between / half
    return max(1.0, math.sqrt(var_hat / within))


def _ess_single(x: np.ndarray) -> float:
    """Effective sample size via paired autocorrelation sums.

    A chain whose centred squares sum to 0 has no autocorrelation to sum
    and counts as n draws.  That sum is numpy's ``np.add.reduce``, not a
    dot product: OpenBLAS runs a ``ddot`` of more than 10,000 terms on its
    thread pool, whose workers then spin on the other cores through the
    rest of the posterior summary.  A sum of non-negative rounded squares
    is 0 exactly when every square is, so both make the same decision.
    """
    n = x.size
    centered = x - x.mean()
    if float(np.add.reduce(centered * centered)) == 0.0:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(centered, nfft)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    pairs = n // 2
    gam = rho[0 : 2 * pairs : 2] + rho[1 : 2 * pairs : 2]
    bad = np.nonzero(gam <= 0.0)[0]
    if bad.size:
        gam = gam[: bad[0]]
    if gam.size == 0:
        return float(n)
    gam = np.minimum.accumulate(gam)
    tau = max(-1.0 + 2.0 * float(gam.sum()), 1.0 / n)
    return n / tau


def chain_diagnostics(chains: PosteriorChains) -> ChainDiagnostics:
    """Split-chain PSR and ESS per parameter; PSR needs at least 2 chains."""
    draws = chains.draws
    n_chains, kept, _ = draws.shape
    if kept < 4:
        raise InputError(f"diagnostics need at least 4 retained draws, got {kept}")
    if n_chains >= 2:
        psr = tuple(_split_psr(draws[:, :, j]) for j in range(3))
    else:
        psr = None
    ess = tuple(
        float(sum(_ess_single(draws[c, :, j]) for c in range(n_chains)))
        for j in range(3)
    )
    return ChainDiagnostics(psr=psr, ess=ess)


@dataclass(frozen=True)
class QuantileSummary:
    """Posterior summary of one return level."""

    period_years: float
    point: float
    lower: float
    upper: float


def posterior_quantiles(
    chains: PosteriorChains,
    rate: float,
    periods: Sequence[float],
    level: float = 0.90,
) -> tuple[QuantileSummary, ...]:
    """Posterior medians and equal-tailed credible intervals of return levels."""
    if not 0.0 < level < 1.0:
        raise InputError(f"credible level must lie in (0, 1), got {level!r}")
    pooled = chains.pooled()
    if pooled.shape[0] < MIN_RETAINED_DRAWS:
        raise InputError(
            f"need at least {MIN_RETAINED_DRAWS} retained draws, got {pooled.shape[0]}"
        )
    mu, sigma, xi = pooled[:, 0], pooled[:, 1], pooled[:, 2]
    lo_p = 0.5 * (1.0 - level)
    out = []
    small = np.abs(xi) < SHAPE_EPS
    safe = np.where(small, 1.0, xi)
    for period in periods:
        y = -math.log1p(-_check_rate_period(rate, period))
        levels = mu + sigma * np.where(small, y, np.expm1(safe * y) / safe)
        # np.quantile partitions at several kth, which costs more than this
        # sort; a sorted array gives it the same order statistics
        levels.sort()
        point, lo, hi = np.quantile(levels, [0.5, lo_p, 1.0 - lo_p])
        out.append(QuantileSummary(float(period), float(point), float(lo), float(hi)))
    return tuple(out)
