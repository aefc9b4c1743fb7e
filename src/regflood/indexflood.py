"""Index flood estimation and its scaling relation with basin area.

The index flood of a site is its one-year return level: the quantile
exceeded once a year on average, i.e. non-exceedance 1 - 1/rate of the
event-peak law. Sites in a homogeneous region share a dimensionless
growth curve; each site's curve scales by its index flood.

For ungauged or weakly gauged targets the index flood is predicted from
basin area through the log-log regression C = a * A**b; the prediction
variance on the log scale carries both the curve uncertainty and (by
default) the residual site-to-site scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.stats import gaussian_kde

from .errors import InputError
from .fit import GpFit, gp_fit_mle, quantile_variance, return_level
from .pot import PotSeries

__all__ = [
    "AreaRegression",
    "IndexFlood",
    "StationMeta",
    "at_site_index_flood",
    "fit_area_regression",
    "predict_index_flood",
]


@dataclass(frozen=True)
class StationMeta:
    """Catchment descriptors for one gauging station."""

    code: str
    name: str
    area_km2: float
    x_km: float
    y_km: float
    record_start: int
    record_end: int

    def __post_init__(self):
        if not self.code:
            raise InputError("station code must be non-empty")
        if not math.isfinite(self.area_km2) or self.area_km2 <= 0:
            raise InputError(f"area must be positive, got {self.area_km2!r}")
        if self.record_end < self.record_start:
            raise InputError(
                f"record_end {self.record_end!r} precedes record_start {self.record_start!r}"
            )


class IndexFlood(NamedTuple):
    value: float
    var_log: float


def at_site_index_flood(
    pot: PotSeries,
    method: str = "gp-fit",
    threshold_cv: float = 0.1,
) -> IndexFlood:
    """One-year return level of a site with its log-scale variance.

    ``gp-fit`` propagates the MLE covariance through the quantile gradient
    (plus the threshold-uncertainty term for the fixed location);
    ``empirical`` uses the sample quantile of the peaks with its
    asymptotic density-based variance.  A region site gives the same
    value from its one kept fit: ``RegionSite.index_flood``.
    """
    return _index_flood(pot, lambda: gp_fit_mle(pot), method, threshold_cv)


def _index_flood(
    pot: PotSeries, fit_of: Callable[[], GpFit], method: str, threshold_cv: float
) -> IndexFlood:
    # also RegionSite.index_flood; only gp-fit calls fit_of, for the MLE of pot
    rate = pot.rate
    if rate <= 1.0:
        raise InputError(
            f"one-year level needs more than one event per year, got rate {rate!r}"
        )
    if method == "gp-fit":
        fit = fit_of()
        c = return_level(fit.params, rate, 1.0)
        var_q = quantile_variance(fit, rate, 1.0) if fit.covariance is not None else 0.0
        var_q += (threshold_cv * pot.threshold) ** 2
        if c <= 0:
            raise InputError(f"index flood must be positive, got {c!r}")
        return IndexFlood(c, var_q / c**2)
    if method == "empirical":
        x = pot.peaks
        if x.size < 10:
            raise InputError(
                f"empirical index flood needs at least 10 events, got {x.size}"
            )
        p = 1.0 - 1.0 / rate
        c = float(np.quantile(x, p))
        density = float(gaussian_kde(x)(c)[0])
        if density <= 0 or c <= 0:
            raise InputError("degenerate peak distribution; no empirical index flood")
        var_q = p * (1.0 - p) / (x.size * density**2)
        return IndexFlood(c, var_q / c**2)
    raise InputError(f"method must be 'gp-fit' or 'empirical', got {method!r}")


@dataclass(frozen=True)
class AreaRegression:
    """OLS of log index flood on log area: C = a * A**b."""

    a: float
    b: float
    s2: float
    r2: float
    n: int
    mean_log_area: float
    sxx: float
    codes: tuple[str, ...]
    excluded: str | None = None


def fit_area_regression(
    points: Sequence[tuple[str, float, float]],
    exclude: str | None = None,
) -> AreaRegression:
    """Fit the area scaling law from (code, area_km2, index_flood) triples.

    ``exclude`` drops one site (the usual leave-target-out step) before
    fitting; at least three sites must remain.
    """
    codes = [p[0] for p in points]
    if len(set(codes)) != len(codes):
        raise InputError("duplicate station codes in regression points")
    if exclude is not None:
        if exclude not in codes:
            raise InputError(f"excluded code {exclude!r} is not among the points")
        points = [p for p in points if p[0] != exclude]
        codes = [p[0] for p in points]
    if len(points) < 3:
        raise InputError(f"need at least 3 sites for the regression, got {len(points)}")
    areas = np.array([p[1] for p in points], dtype=float)
    values = np.array([p[2] for p in points], dtype=float)
    if np.any(areas <= 0) or np.any(values <= 0) or not (
        np.all(np.isfinite(areas)) and np.all(np.isfinite(values))
    ):
        raise InputError("areas and index floods must be positive and finite")
    z = np.log(areas)
    y = np.log(values)
    z_bar = float(np.mean(z))
    sxx = float(np.sum((z - z_bar) ** 2))
    if sxx == 0:
        raise InputError("all areas are equal; the scaling exponent is unidentifiable")
    b = float(np.sum((z - z_bar) * (y - np.mean(y))) / sxx)
    intercept = float(np.mean(y) - b * z_bar)
    residuals = y - (intercept + b * z)
    ssr = float(np.sum(residuals**2))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    return AreaRegression(
        a=math.exp(intercept),
        b=b,
        s2=ssr / (len(points) - 2),
        r2=r2,
        n=len(points),
        mean_log_area=z_bar,
        sxx=sxx,
        codes=tuple(codes),
        excluded=exclude,
    )


def predict_index_flood(
    regression: AreaRegression,
    area_km2: float,
) -> IndexFlood:
    """Index flood predicted from area, with its log-scale variance.

    The variance follows the standard OLS prediction formula
    for a new site, s2 * (1 + 1/n + (log A - mean)^2 / Sxx).
    """
    if not math.isfinite(area_km2) or area_km2 <= 0:
        raise InputError(f"area must be positive, got {area_km2!r}")
    z = math.log(area_km2)
    var_log = (
        regression.s2
        * (1.0 / regression.n + (z - regression.mean_log_area) ** 2 / regression.sxx)
        + regression.s2
    )
    return IndexFlood(regression.a * area_km2**regression.b, var_log)
