"""Regional Bayesian estimation for a POT target site.

The prior on (location, scale, shape) is lognormal-lognormal-normal,
elicited from donor sites of the region, the sites of the index-flood
regression: each donor's one at-site fit, rescaled by its index flood, is
transported to the target through the predicted target index flood, and
the hyper-parameters are moment summaries of those pseudo-parameters.
The target site's own sample never enters the elicitation; that contract
is enforced, not just documented.  Posterior sampling is a component-wise
random-walk Metropolis in (log mu, log sigma, xi).  Each chain owns a
generator stream spawned from the seed and draws its random numbers in
blocks, one step normal and one acceptance uniform per proposal; a
proposal recomputes only the prior term and the likelihood pieces its
coordinate moves.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .distributions import SHAPE_EPS, GpParams, gp_rescale
from .errors import (
    ContractViolationError,
    ElicitationError,
    FitError,
    InputError,
)
from .fit import log_param_variances
from .indexflood import AreaRegression, predict_index_flood
from .pot import PotSeries
from .regional import Region

log = logging.getLogger("regflood")

_D_FLOOR = 1e-4
# pooled draws posterior_quantiles needs for its credible intervals
MIN_RETAINED_DRAWS = 500
# iterations per block of step normals and acceptance uniforms, per chain
_BLOCK = 500


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


def elicit_prior(
    region: Region,
    regression: AreaRegression,
    *,
    threshold_cv: float = 0.1,
    index_method: str = "gp-fit",
) -> PriorSpec:
    """Elicit the prior for the region's target site from its donor sites.

    The donors are the sites of the index-flood regression.  Each donor's
    one at-site fit (``RegionSite.fit``) is rescaled by the donor's own
    index flood; the resulting dimensionless parameters times the
    regression-predicted target index flood form the pseudo-parameter
    sample behind the hyper-parameters.  The MLE is equivariant under
    rescaling and the log-scale and shape variances are invariant, so no
    donor is refitted.  Donors whose fit or index flood fails are dropped
    with a warning.

    The location and scale variances combine the index-flood prediction
    variance with the mean per-donor estimation variances; the shape
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
            c = site.index_flood(index_method).value
            vm, vs, _ = log_param_variances(site.fit, threshold_cv)
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
    w = (pot.peaks - params.location) / params.scale
    return lp + _gp_loglik(w, float(w.min()), float(w.max()), params.scale, params.shape)


def _gp_loglik(
    w: np.ndarray, w_min: float, w_max: float, sigma: float, xi: float
) -> float:
    """GP log likelihood from the scaled residuals ``w = (x - mu) / sigma``.

    The arithmetic is ``gp_logpdf``'s, and the support is decided on the
    extremes ``w_min`` and ``w_max``: rounding is monotone, so they decide
    exactly as the whole array would, and ``log`` never sees a
    non-positive argument.
    """
    n = w.size
    if n == 0:
        return 0.0
    if w_min < 0.0:
        return -math.inf
    if abs(xi) < SHAPE_EPS:
        return -n * math.log(sigma) - float(w.sum())
    if 1.0 + xi * w_max <= 0.0:
        return -math.inf
    return -n * math.log(sigma) - (1.0 / xi + 1.0) * float(np.log(1.0 + xi * w).sum())


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; adaptation only ever runs during burn-in."""

    chains: int = 4
    iterations: int = 20000
    burn_in: int = 5000
    thinning: int = 1
    adapt_window: int = 50

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
        if self.adapt_window < 10:
            raise InputError(
                f"adaptation window must be >= 10, got {self.adapt_window}"
            )


@dataclass(frozen=True)
class PosteriorChains:
    """Retained posterior draws of (mu, sigma, xi) per chain."""

    draws: np.ndarray  # (chains, kept, 3)
    acceptance: np.ndarray  # (chains, 3), post-burn-in rates per coordinate
    burn_in: int
    thinning: int
    seed: int
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


def mcmc_sample(
    prior: PriorSpec,
    pot: PotSeries,
    config: McmcConfig = McmcConfig(),
    seed: int = 0,
) -> PosteriorChains:
    """Sample the posterior by component-wise random-walk Metropolis.

    The walk lives in (log mu, log sigma, xi), where the prior is an
    independent normal and the location/scale positivity constraints
    vanish.  Each coordinate gets a Gaussian step with its own scale,
    adapted in windows during burn-in toward acceptance rates in
    [0.2, 0.5] and frozen afterwards.  Chains own independent generator
    streams spawned from the seed, so results are reproducible and a
    chain's draws do not depend on how many chains run beside it.  After
    the three normals of its start, a chain draws its step normals and
    acceptance uniforms in blocks of ``_BLOCK`` iterations and spends one
    normal and one uniform on every proposal, off-support ones included.

    A proposal recomputes one prior term and the likelihood; only a
    location move recomputes the residuals ``x - mu``, and one that
    falls above the smallest peak is rejected before any array work.
    """
    x = np.asarray(pot.peaks, dtype=float)
    g0, g1, g2 = prior.gamma
    d0, d1, d2 = prior.d
    # an empty record has no extremes; _gp_loglik returns 0 before using them
    xmin, xmax = (float(x.min()), float(x.max())) if x.size else (math.inf, -math.inf)

    def log_target(z: np.ndarray) -> float:
        mu, sigma = math.exp(z[0]), math.exp(z[1])
        dz = z - np.asarray(prior.gamma)
        quad = -0.5 * float((dz * dz / np.asarray(prior.d)).sum())
        w_min, w_max = (xmin - mu) / sigma, (xmax - mu) / sigma
        return quad + _gp_loglik((x - mu) / sigma, w_min, w_max, sigma, z[2])

    sd = np.sqrt(np.asarray(prior.d))
    base = _initial_state(prior, x)
    if log_target(base) == -math.inf:
        raise FitError("no support-valid starting point for the sampler")

    burn_in, thinning, window = config.burn_in, config.thinning, config.adapt_window
    draws = np.empty((config.chains, len(range(burn_in, config.iterations, thinning)), 3))
    acceptance = np.empty((config.chains, 3))
    streams = np.random.SeedSequence(seed).spawn(config.chains)

    for c in range(config.chains):
        rng = np.random.default_rng(streams[c])
        z = base + 0.1 * sd * rng.standard_normal(3)
        for _ in range(20):
            if log_target(z) > -math.inf:
                break
            z = 0.5 * (z + base)
        else:
            z = base.copy()
        lt = log_target(z)
        lm, ls, xi = z.tolist()
        mu, sigma = math.exp(lm), math.exp(ls)
        # the prior's quadratic term per coordinate, and the residuals x - mu
        # with their scaled form; a proposal recomputes only what it moves
        q0 = (lm - g0) * (lm - g0) / d0
        q1 = (ls - g1) * (ls - g1) / d1
        q2 = (xi - g2) * (xi - g2) / d2
        y = x - mu
        w = y / sigma
        w_min, w_max = (xmin - mu) / sigma, (xmax - mu) / sigma
        scales = 2.4 * sd
        s0, s1, s2 = scales.tolist()
        acc = [0, 0, 0]  # accepted proposals per coordinate in this window
        post_acc = [0, 0, 0]
        kept = []
        for it in range(config.iterations):
            row = it % _BLOCK
            if row == 0:
                steps = rng.standard_normal((_BLOCK, 3)).tolist()
                log_u = np.log(rng.random((_BLOCK, 3))).tolist()
            n0, n1, n2 = steps[row]
            u0, u1, u2 = log_u[row]
            post = it >= burn_in

            lm_p = lm + s0 * n0
            mu_p = math.exp(lm_p)
            q_p = (lm_p - g0) * (lm_p - g0) / d0
            if xmin - mu_p < 0.0:  # below the smallest peak: off support
                lp = -math.inf
            else:
                y_p = x - mu_p
                w_p = y_p / sigma
                w_min_p, w_max_p = (xmin - mu_p) / sigma, (xmax - mu_p) / sigma
                lp = -0.5 * (q_p + q1 + q2) + _gp_loglik(w_p, w_min_p, w_max_p, sigma, xi)
            if u0 < lp - lt:
                lm, mu, q0, lt = lm_p, mu_p, q_p, lp
                y, w, w_min, w_max = y_p, w_p, w_min_p, w_max_p
                acc[0] += 1
                post_acc[0] += post

            ls_p = ls + s1 * n1
            sigma_p = math.exp(ls_p)
            q_p = (ls_p - g1) * (ls_p - g1) / d1
            w_p = y / sigma_p
            w_min_p, w_max_p = (xmin - mu) / sigma_p, (xmax - mu) / sigma_p
            lp = -0.5 * (q0 + q_p + q2) + _gp_loglik(w_p, w_min_p, w_max_p, sigma_p, xi)
            if u1 < lp - lt:
                ls, sigma, q1, lt = ls_p, sigma_p, q_p, lp
                w, w_min, w_max = w_p, w_min_p, w_max_p
                acc[1] += 1
                post_acc[1] += post

            xi_p = xi + s2 * n2
            q_p = (xi_p - g2) * (xi_p - g2) / d2
            lp = -0.5 * (q0 + q1 + q_p) + _gp_loglik(w, w_min, w_max, sigma, xi_p)
            if u2 < lp - lt:
                xi, q2, lt = xi_p, q_p, lp
                acc[2] += 1
                post_acc[2] += post

            if not post:
                if (it + 1) % window == 0:
                    rates = np.asarray(acc, dtype=float) / window
                    factor = np.exp(1.2 * (rates - 0.35))
                    scales *= np.clip(factor, 0.5, 2.0)
                    scales = np.clip(scales, 1e-6, 100.0)
                    s0, s1, s2 = scales.tolist()
                    acc = [0, 0, 0]
            elif (it - burn_in) % thinning == 0:
                kept.append((mu, sigma, xi))
        draws[c] = kept
        acceptance[c] = np.asarray(post_acc, dtype=float) / (config.iterations - burn_in)

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
    return PosteriorChains(
        draws=draws,
        acceptance=acceptance,
        burn_in=config.burn_in,
        thinning=config.thinning,
        seed=seed,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class ChainDiagnostics:
    """Convergence summaries: split-chain PSR, ESS, acceptance rates."""

    psr: tuple[float, float, float] | None
    ess: tuple[float, float, float]
    acceptance: np.ndarray


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
    """Effective sample size via paired autocorrelation sums."""
    n = x.size
    centered = x - x.mean()
    var = float(centered @ centered)
    if var == 0.0:
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
    return ChainDiagnostics(psr=psr, ess=ess, acceptance=chains.acceptance)


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
    for period in periods:
        if rate * period <= 1.0:
            raise InputError(
                f"return period {period} y needs rate*period > 1, got rate {rate}"
            )
        y = -math.log1p(-(1.0 - 1.0 / (rate * period)))
        small = np.abs(xi) < SHAPE_EPS
        safe = np.where(small, 1.0, xi)
        levels = mu + sigma * np.where(small, y, np.expm1(safe * y) / safe)
        point, lo, hi = np.quantile(levels, [0.5, lo_p, 1.0 - lo_p])
        out.append(QuantileSummary(float(period), float(point), float(lo), float(hi)))
    return tuple(out)
