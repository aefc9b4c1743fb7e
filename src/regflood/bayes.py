"""Regional Bayesian estimation for a POT target site.

The prior on (location, scale, shape) is lognormal-lognormal-normal,
elicited from donor sites of the region, the sites of the index-flood
regression: each donor's one at-site fit, rescaled by its index flood, is
transported to the target through the predicted target index flood, and
the hyper-parameters are moment summaries of those pseudo-parameters.
The target site's own sample never enters the elicitation; that contract
is enforced, not just documented.  Posterior sampling is a component-wise
random-walk Metropolis in (log mu, log sigma, xi).
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
    add_dispersion: bool = False,
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

    The variance terms combine the index-flood prediction variance with
    the mean per-donor estimation variances; ``add_dispersion`` adds the
    empirical spread of the pseudo-values themselves on top (off by
    default).  All variances are floored at 1e-4.
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
    if add_dispersion:
        d1 += float(np.sum((np.asarray(log_mu) - g1) ** 2)) / (m - 1)
        d2 += float(np.sum((np.asarray(log_sigma) - g2) ** 2)) / (m - 1)
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
    if lp == -math.inf:
        return lp
    return lp + _gp_loglik(
        pot.peaks, params.location, params.scale, params.shape
    )


def _gp_loglik(x: np.ndarray, mu: float, sigma: float, xi: float) -> float:
    if x.size == 0:
        return 0.0
    y = x - mu
    if y.min() < 0.0:
        return -math.inf
    if abs(xi) < SHAPE_EPS:
        return -x.size * math.log(sigma) - float(y.sum()) / sigma
    t = 1.0 + xi * y / sigma
    if t.min() <= 0.0:
        return -math.inf
    return -x.size * math.log(sigma) - (1.0 / xi + 1.0) * float(np.log(t).sum())


@dataclass(frozen=True)
class McmcConfig:
    """Sampler settings; adaptation only ever runs during burn-in."""

    chains: int = 4
    iterations: int = 20000
    burn_in: int = 5000
    thinning: int = 1
    initial_scales: tuple[float, float, float] | None = None
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
        if self.initial_scales is not None and (
            len(self.initial_scales) != 3
            or any(s <= 0 for s in self.initial_scales)
        ):
            raise InputError(
                f"initial_scales must be 3 positive numbers, got {self.initial_scales!r}"
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
    streams spawned from the seed, so results are reproducible and
    independent of execution order.
    """
    x = np.asarray(pot.peaks, dtype=float)
    gamma = np.asarray(prior.gamma)
    d = np.asarray(prior.d)

    def log_target(z: np.ndarray) -> float:
        quad = -0.5 * float(((z - gamma) ** 2 / d).sum())
        return quad + _gp_loglik(x, math.exp(z[0]), math.exp(z[1]), z[2])

    if config.initial_scales is not None:
        scales0 = np.asarray(config.initial_scales, dtype=float)
    else:
        scales0 = 2.4 * np.sqrt(d)
    base = _initial_state(prior, x)
    if log_target(base) == -math.inf:
        raise FitError("no support-valid starting point for the sampler")

    kept_idx = range(config.burn_in, config.iterations, config.thinning)
    kept = len(kept_idx)
    draws = np.empty((config.chains, kept, 3))
    acceptance = np.empty((config.chains, 3))
    streams = np.random.SeedSequence(seed).spawn(config.chains)
    post_iters = config.iterations - config.burn_in

    for c in range(config.chains):
        rng = np.random.default_rng(streams[c])
        z = base + 0.1 * np.sqrt(d) * rng.standard_normal(3)
        for _ in range(20):
            if log_target(z) > -math.inf:
                break
            z = 0.5 * (z + base)
        else:
            z = base.copy()
        lt = log_target(z)
        scales = scales0.copy()
        window_acc = np.zeros(3)
        window_n = 0
        post_acc = np.zeros(3)
        k = 0
        for it in range(config.iterations):
            for j in range(3):
                prop = z.copy()
                prop[j] += scales[j] * rng.standard_normal()
                lp = log_target(prop)
                if lp > -math.inf and math.log(rng.random()) < lp - lt:
                    z = prop
                    lt = lp
                    window_acc[j] += 1
                    if it >= config.burn_in:
                        post_acc[j] += 1
            window_n += 1
            if it < config.burn_in and window_n == config.adapt_window:
                rates = window_acc / config.adapt_window
                factor = np.exp(1.2 * (rates - 0.35))
                scales *= np.clip(factor, 0.5, 2.0)
                scales = np.clip(scales, 1e-6, 100.0)
                window_acc[:] = 0.0
                window_n = 0
            if it >= config.burn_in and (it - config.burn_in) % config.thinning == 0:
                draws[c, k] = math.exp(z[0]), math.exp(z[1]), z[2]
                k += 1
        acceptance[c] = post_acc / post_iters

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
    if pooled.shape[0] < 500:
        raise InputError(
            f"need at least 500 retained draws, got {pooled.shape[0]}"
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
