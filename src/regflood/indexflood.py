"""Index flood estimation and its scaling relation with basin area.

The index flood of a site is its one-year return level: the quantile
exceeded once a year on average, i.e. non-exceedance 1 - 1/rate of the
event-peak law. Sites in a homogeneous region share a dimensionless
growth curve; each site's curve scales by its index flood.

For ungauged or weakly gauged targets the index flood is predicted from
basin area through the log-log regression C = a * A**b; the prediction
variance on the log scale carries both the curve uncertainty and the
residual site-to-site scatter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSampleError, InputError
from .fit import GpFit, gp_fit_mle, return_level
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
    """Index flood predicted from basin area, with its log-scale variance."""

    value: float
    var_log: float


def at_site_index_flood(pot: PotSeries, method: str = "gp-fit") -> float:
    """One-year return level of a site.

    ``gp-fit`` takes it from the site's GP maximum likelihood fit;
    ``empirical`` is the sample quantile of the peaks, at least 10 of
    them, and equal peaks raise DegenerateSampleError.  A region site
    gives the same value from its one kept fit: ``RegionSite.index_flood``.
    """
    return _index_flood(pot, lambda: gp_fit_mle(pot), method)


def _index_flood(pot: PotSeries, fit_of: Callable[[], GpFit], method: str) -> float:
    # also RegionSite.index_flood; only gp-fit calls fit_of, for the MLE of pot
    rate = pot.rate
    if rate <= 1.0:
        raise InputError(
            f"one-year level needs more than one event per year, got rate {rate!r}"
        )
    if method == "gp-fit":
        c = return_level(fit_of().params, rate, 1.0)
    elif method == "empirical":
        x = pot.peaks
        if x.size < 10:
            raise InputError(
                f"empirical index flood needs at least 10 events, got {x.size}"
            )
        if x.min() == x.max():
            raise DegenerateSampleError("equal peaks; no empirical index flood")
        c = float(np.quantile(x, 1.0 - 1.0 / rate))
    else:
        raise InputError(f"method must be 'gp-fit' or 'empirical', got {method!r}")
    if c <= 0:
        raise InputError(f"index flood must be positive, got {c!r}")
    return c


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


def fit_area_regression(points: Sequence[tuple[str, float, float]]) -> AreaRegression:
    """Fit the area scaling law from (code, area_km2, index_flood) triples.

    Every point enters the fit, so a leave-target-out regression is given
    the points of the other sites only; at least three sites are needed.
    """
    codes = [p[0] for p in points]
    if len(set(codes)) != len(codes):
        raise InputError("duplicate station codes in regression points")
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
