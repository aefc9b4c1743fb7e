"""Region assembly, homogeneity screening, and the regional growth curve.

Discordancy measures how far each site's (t, t3, t4) vector sits from the
region's centroid in the metric of the between-site covariance:

    D_i = N / 3 * (u_i - u_bar)' S**-1 (u_i - u_bar),
    S = sum_i (u_i - u_bar)(u_i - u_bar)'

The heterogeneity statistics compare the observed dispersion of the site
ratios with what sampling noise alone would produce in a homogeneous
region, using a four-parameter kappa law fitted to the regional average
ratios as the simulation parent:

    H_k = (V_k - mean(V_k, sims)) / std(V_k, sims)

V1 is the record-length-weighted standard deviation of t; V2 and V3 are
weighted mean Euclidean distances from the regional average in the
(t, t3) and (t3, t4) planes. H1 below 1 is acceptably homogeneous, 1 to 2
probably heterogeneous, 2 and above definitively heterogeneous; clearly
negative H1 usually signals correlated sites rather than homogeneity.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import (
    GpParams,
    KappaParams,
    as_generator,
    gp_quantile,
    gp_sample,
    kappa_sample,
)
from .errors import DegenerateSampleError, FitError, InputError, InsufficientDataError
from .fit import GpFit, gp_fit_mle
from .indexflood import IndexFlood, StationMeta, _index_flood
from .lmoments import (
    LmomentSet,
    _lmoments_from_pwm,
    _pwm_float,
    gp_fit_lmom,
    kappa_fit_lmom,
    regional_average_lmoments,
    sample_lmoments,
)
from .pot import PotSeries

__all__ = [
    "DiscordancyReport",
    "GrowthCurve",
    "HeterogeneityReport",
    "Region",
    "RegionSite",
    "classify_h1",
    "discordancy",
    "discordancy_critical_value",
    "fit_simulation_parent",
    "growth_curve",
    "heterogeneity",
    "index_flood_quantile",
]

log = logging.getLogger("regflood")


@dataclass(frozen=True)
class RegionSite:
    """A region member: station descriptors and event series.

    ``fit``, the threshold-fixed MLE of the record, is made on first use and
    kept, as is a failure to fit; index floods, donor parameters and
    benchmarks all derive from this one fit.
    """

    meta: StationMeta
    pot: PotSeries

    @cached_property
    def _fit(self) -> GpFit | FitError | InputError:
        try:
            return gp_fit_mle(self.pot)
        except (FitError, InputError) as exc:
            return exc

    @property
    def fit(self) -> GpFit:
        if isinstance(self._fit, Exception):
            raise self._fit
        return self._fit

    def index_flood(self, method: str = "gp-fit") -> IndexFlood:
        """``at_site_index_flood`` of the record, from ``fit`` for ``gp-fit``."""
        return _index_flood(self.pot, lambda: self.fit, method, threshold_cv=0.1)


@dataclass(frozen=True)
class Region:
    """A pooling group of sites, one of which is the analysis target."""

    sites: tuple[RegionSite, ...]
    target: str

    def __post_init__(self):
        if len(self.sites) < 2:
            raise InputError(f"a region needs at least 2 sites, got {len(self.sites)}")
        codes = [s.meta.code for s in self.sites]
        if len(set(codes)) != len(codes):
            raise InputError("duplicate station codes in region")
        for s in self.sites:
            if s.meta.code != s.pot.station:
                raise InputError(
                    f"metadata code {s.meta.code!r} does not match event series "
                    f"station {s.pot.station!r}"
                )
        if self.target not in codes:
            raise InputError(f"target {self.target!r} is not a region member")

    @property
    def codes(self) -> tuple[str, ...]:
        return tuple(s.meta.code for s in self.sites)

    def site(self, code: str) -> RegionSite:
        for s in self.sites:
            if s.meta.code == code:
                return s
        raise InputError(f"no site {code!r} in region")

    @property
    def target_site(self) -> RegionSite:
        return self.site(self.target)

    def others(self, code: str | None = None) -> tuple[RegionSite, ...]:
        code = self.target if code is None else code
        return tuple(s for s in self.sites if s.meta.code != code)


# Upper critical values for the discordancy statistic by region size.
_D_CRITICAL = {
    5: 1.333, 6: 1.648, 7: 1.917, 8: 2.140, 9: 2.329,
    10: 2.491, 11: 2.632, 12: 2.757, 13: 2.869, 14: 2.971,
}


def discordancy_critical_value(n_sites: int) -> float:
    if n_sites >= 15:
        return 3.0
    return _D_CRITICAL.get(n_sites, 1.333)


@dataclass(frozen=True)
class DiscordancyReport:
    codes: tuple[str, ...]
    values: tuple[float, ...]
    critical: float
    flagged: tuple[str, ...]


def _site_ratios(region: Region) -> tuple[list[LmomentSet], np.ndarray, np.ndarray]:
    """Each site's sample L-moments, its (t, t3, t4) row and its length."""
    lmoms = []
    for s in region.sites:
        if len(s.pot) < 4:
            raise InsufficientDataError(
                f"site {s.meta.code} has {len(s.pot)} events; need at least 4"
            )
        lmoms.append(sample_lmoments(s.pot.peaks))
    ratios = np.array([[lm.t, lm.t3, lm.t4] for lm in lmoms], dtype=float)
    lengths = np.array([len(s.pot) for s in region.sites], dtype=float)
    return lmoms, ratios, lengths


def discordancy(region: Region) -> DiscordancyReport:
    """Per-site discordancy statistics with the size-dependent flag level."""
    if len(region.sites) < 4:
        raise InputError(
            f"discordancy needs at least 4 sites, got {len(region.sites)}"
        )
    _, u, _ = _site_ratios(region)
    n = u.shape[0]
    dev = u - u.mean(axis=0)
    s_mat = dev.T @ dev
    # Ratios are dimensionless O(1), so an absolute eigenvalue floor works;
    # scaled-copy sites leave S at rounding-noise scale without tripping LAPACK.
    eig = np.linalg.eigvalsh(s_mat)
    if eig[0] <= 1e-12:
        dup = _near_duplicate_sites(region, u)
        raise DegenerateSampleError(
            "singular ratio covariance in discordancy; near-identical L-moment "
            f"ratios at sites {', '.join(dup)}"
        )
    solved = np.linalg.solve(s_mat, dev.T)
    d = n / 3.0 * np.einsum("ij,ji->i", dev, solved)
    critical = discordancy_critical_value(n)
    codes = region.codes
    flagged = tuple(c for c, v in zip(codes, d) if v > critical)
    return DiscordancyReport(
        codes=codes,
        values=tuple(float(v) for v in d),
        critical=critical,
        flagged=flagged,
    )


def _near_duplicate_sites(region: Region, u: np.ndarray) -> list[str]:
    codes = region.codes
    dup = set()
    for i in range(len(codes)):
        for j in range(i + 1, len(codes)):
            if np.allclose(u[i], u[j], atol=1e-12):
                dup.update((codes[i], codes[j]))
    return sorted(dup) if dup else list(codes)


def fit_simulation_parent(lmom: LmomentSet) -> tuple[KappaParams | GpParams, str]:
    """Kappa parent for homogeneity simulations, or a GP fallback.

    The kappa fit can fail off its attainable ratio region or by
    non-convergence; the GP matched to (l1, l2, t3) then stands in, with a
    warning, so the screening still runs.
    """
    try:
        return kappa_fit_lmom(lmom), "kappa"
    except (FitError, InputError) as exc:
        log.warning("kappa parent unavailable (%s); falling back to GP", exc)
        return gp_fit_lmom(lmom), "gp"


@dataclass(frozen=True)
class HeterogeneityReport:
    h1: float
    h2: float
    h3: float
    v_observed: tuple[float, float, float]
    sim_mean: tuple[float, float, float]
    sim_std: tuple[float, float, float]
    parent: str
    parent_params: KappaParams | GpParams
    nsim: int
    seed: int
    classification: str
    correlation_note: bool


def classify_h1(h1: float) -> str:
    if h1 < 1.0:
        return "acceptably homogeneous"
    if h1 < 2.0:
        return "probably heterogeneous"
    return "definitively heterogeneous"


def _v_statistics(table: np.ndarray, w: np.ndarray, regional: np.ndarray) -> np.ndarray:
    """V1..V3 of each row of a (rows, sites, 3) table of (t, t3, t4).

    ``w`` holds the site weights, summing to 1, and ``regional`` the
    (rows, 3) weighted average ratios. The observed region is a table of
    one row, so observed and simulated V statistics share one formula.
    """
    d = table - regional[:, None, :]
    v1 = np.sqrt(d[..., 0] ** 2 @ w)
    v2 = np.sqrt(d[..., 0] ** 2 + d[..., 1] ** 2) @ w
    v3 = np.sqrt(d[..., 1] ** 2 + d[..., 2] ** 2) @ w
    return np.stack([v1, v2, v3], axis=-1)


def _sim_ratio_table(parent, kind: str, lengths: np.ndarray, nsim: int, rng) -> np.ndarray:
    """Simulated (nsim, n_sites, 3) table of (t, t3, t4) under the parent.

    Each sorted simulated sample goes through ``sample_lmoments``' own
    kernel (``_pwm_float`` and ``_lmoments_from_pwm``), so a row equals the
    ratios of that sample computed like an observed site's.
    """
    out = np.empty((nsim, lengths.size, 3))
    for i, n in enumerate(lengths.astype(int)):
        if kind == "kappa":
            x = kappa_sample(parent, nsim * n, rng).reshape(nsim, n)
        else:
            x = gp_sample(parent, nsim * n, rng).reshape(nsim, n)
        x.sort(axis=1)
        l1, l2, l3, l4 = _lmoments_from_pwm(*_pwm_float(x, 3, "unbiased").T)
        out[:, i, 0] = l2 / l1
        out[:, i, 1] = l3 / l2
        out[:, i, 2] = l4 / l2
    return out


def heterogeneity(region: Region, nsim: int = 500, seed: int = 0) -> HeterogeneityReport:
    """Hosking-Wallis style heterogeneity screening of the region.

    The observed site ratios and the simulated ones come from one
    L-moment estimator, and one ``_v_statistics`` scores both.
    """
    if nsim < 50:
        raise InputError(f"nsim must be at least 50, got {nsim!r}")
    lmoms, ratios, lengths = _site_ratios(region)
    regional = regional_average_lmoments(lmoms, lengths)
    reg_vec = np.array([regional.t, regional.t3, regional.t4])
    w = lengths / lengths.sum()
    v_obs = _v_statistics(ratios[None], w, reg_vec[None])[0]
    parent, kind = fit_simulation_parent(regional)
    rng = as_generator(seed)
    table = _sim_ratio_table(parent, kind, lengths, nsim, rng)
    v_sim = _v_statistics(table, w, np.einsum("s,rsk->rk", w, table))
    sim_mean = v_sim.mean(axis=0)
    sim_std = v_sim.std(axis=0, ddof=1)
    if np.any(sim_std == 0):
        raise DegenerateSampleError("degenerate simulation spread in heterogeneity")
    h = (v_obs - sim_mean) / sim_std
    return HeterogeneityReport(
        h1=float(h[0]),
        h2=float(h[1]),
        h3=float(h[2]),
        v_observed=tuple(float(v) for v in v_obs),
        sim_mean=tuple(float(v) for v in sim_mean),
        sim_std=tuple(float(v) for v in sim_std),
        parent=kind,
        parent_params=parent,
        nsim=nsim,
        seed=seed,
        classification=classify_h1(float(h[0])),
        correlation_note=bool(h[0] <= 0.0),
    )


@dataclass(frozen=True)
class GrowthCurve:
    """Dimensionless regional GP curve and how it was assembled."""

    params: GpParams
    members: tuple[str, ...]
    rescale: str
    index_floods: dict[str, float]


def growth_curve(
    region: Region,
    exclude: str | None = None,
    rescale: str = "index",
    index_method: str = "gp-fit",
) -> GrowthCurve:
    """Regional growth curve from record-length-weighted average L-moments.

    Each member's L-moments are divided by its index flood (``rescale =
    "index"``) or by its sample mean (``rescale = "mean"``); the curve is
    the free-location GP matched to the averaged L-moments.
    """
    if rescale not in ("index", "mean"):
        raise InputError(f"rescale must be 'index' or 'mean', got {rescale!r}")
    members = region.sites if exclude is None else region.others(exclude)
    if len(members) < 2:
        raise InputError("growth curve needs at least 2 member sites")
    lmoms = [sample_lmoments(s.pot.peaks) for s in members]
    lengths = [len(s.pot) for s in members]
    if rescale == "index":
        factors = [s.index_flood(index_method).value for s in members]
        avg = regional_average_lmoments(lmoms, lengths, scale_factors=factors)
    else:
        factors = [float(lm.l1) for lm in lmoms]
        avg = regional_average_lmoments(lmoms, lengths)
    codes = tuple(s.meta.code for s in members)
    return GrowthCurve(
        params=gp_fit_lmom(avg),
        members=codes,
        rescale=rescale,
        index_floods=dict(zip(codes, factors)),
    )


def index_flood_quantile(curve: GrowthCurve, index_flood: float, p: float) -> float:
    """Site quantile from the growth curve: C times the curve quantile at p."""
    if not math.isfinite(index_flood) or index_flood <= 0:
        raise InputError(f"index flood must be positive, got {index_flood!r}")
    return index_flood * float(gp_quantile(curve.params, p))
