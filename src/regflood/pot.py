"""Peaks-over-threshold extraction from discharge time series.

Events are built from local maxima above the threshold, swept in time
order. Two adjacent candidates stay separate events only when both parts
of the independence rule hold: their peaks are at least ``min_gap_days``
apart AND the trough between them drops below ``trough_fraction`` times
the smaller of the two peaks. Otherwise they merge and the larger value
becomes the event peak. Building events from candidate peaks (rather
than from runs of exceedances alone) keeps the event count monotone:
raising the threshold never adds events.

Record length is the span from first to last sample plus one median
sampling interval, with data gaps longer than ``max_missing_gap_days``
discounted (only one interval of each such gap is counted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import InputError, InsufficientDataError, SelectionError

__all__ = [
    "IndependenceRule",
    "DischargeSeries",
    "PotSeries",
    "ThresholdSelection",
    "extract_pot",
    "record_years",
    "select_threshold",
]

DAYS_PER_YEAR = 365.25


@dataclass(frozen=True)
class IndependenceRule:
    """Declustering rule: peak separation, trough depth, and gap accounting."""

    min_gap_days: float = 10.0
    trough_fraction: float = 2.0 / 3.0
    max_missing_gap_days: float = 30.0

    def __post_init__(self):
        if not math.isfinite(self.min_gap_days) or self.min_gap_days < 0:
            raise InputError(f"min_gap_days must be >= 0, got {self.min_gap_days!r}")
        if not 0.0 < self.trough_fraction <= 1.0:
            raise InputError(
                f"trough_fraction must lie in (0, 1], got {self.trough_fraction!r}"
            )
        if not math.isfinite(self.max_missing_gap_days) or self.max_missing_gap_days <= 0:
            raise InputError(
                f"max_missing_gap_days must be positive, got {self.max_missing_gap_days!r}"
            )


def _as_times(times) -> np.ndarray:
    try:
        arr = np.asarray(times, dtype="datetime64[s]")
    except (ValueError, TypeError) as exc:
        raise InputError(f"timestamps are not parseable: {exc}") from exc
    return arr


@dataclass(frozen=True)
class DischargeSeries:
    """A station's discharge record: strictly increasing times, values >= 0."""

    station: str
    times: np.ndarray
    discharge: np.ndarray

    def __post_init__(self):
        if not self.station:
            raise InputError("station code must be non-empty")
        times = _as_times(self.times)
        q = np.asarray(self.discharge, dtype=float)
        if times.ndim != 1 or q.ndim != 1 or times.size != q.size:
            raise InputError("times and discharge must be 1-D arrays of equal length")
        if times.size < 2:
            raise InputError("a discharge series needs at least two samples")
        if np.any(np.diff(times).astype("timedelta64[s]").astype(np.int64) <= 0):
            raise InputError("timestamps must be strictly increasing")
        if not np.all(np.isfinite(q)) or np.any(q < 0):
            raise InputError("discharge values must be finite and non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "discharge", q)

    def __len__(self) -> int:
        return self.times.size

    def day_offsets(self) -> np.ndarray:
        """Times as float days since the first sample."""
        return (self.times - self.times[0]) / np.timedelta64(1, "D")


def record_years(series: DischargeSeries, max_missing_gap_days: float = 30.0) -> float:
    """Effective record length in years, discounting long data gaps."""
    days = series.day_offsets()
    dt = np.diff(days)
    step = float(np.median(dt))
    span = days[-1] - days[0] + step
    long_gaps = dt[dt > max_missing_gap_days]
    span -= float(np.sum(long_gaps - step))
    return float(span) / DAYS_PER_YEAR


@dataclass(frozen=True)
class PotSeries:
    """Declustered event peaks above a threshold, with the record length.

    May hold zero events (useful for prior-only analyses); ``extract_pot``
    itself refuses to produce an empty series.
    """

    station: str
    threshold: float
    times: np.ndarray
    peaks: np.ndarray
    record_years: float

    def __post_init__(self):
        if not self.station:
            raise InputError("station code must be non-empty")
        if not math.isfinite(self.threshold):
            raise InputError(f"threshold must be finite, got {self.threshold!r}")
        if not math.isfinite(self.record_years) or self.record_years <= 0:
            raise InputError(f"record_years must be positive, got {self.record_years!r}")
        times = _as_times(self.times)
        peaks = np.asarray(self.peaks, dtype=float)
        if times.ndim != 1 or peaks.ndim != 1 or times.size != peaks.size:
            raise InputError("times and peaks must be 1-D arrays of equal length")
        if times.size > 1 and np.any(
            np.diff(times).astype("timedelta64[s]").astype(np.int64) <= 0
        ):
            raise InputError("event times must be strictly increasing")
        if not np.all(np.isfinite(peaks)) or np.any(peaks < self.threshold):
            raise InputError("all peaks must be finite and at least the threshold")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "peaks", peaks)

    def __len__(self) -> int:
        return self.peaks.size

    @property
    def rate(self) -> float:
        """Events per year."""
        return self.peaks.size / self.record_years

    @property
    def exceedances(self) -> np.ndarray:
        return self.peaks - self.threshold

    def rescaled(self, factor: float) -> "PotSeries":
        """Event series of factor * X: peaks and threshold multiply."""
        if not math.isfinite(factor) or factor <= 0:
            raise InputError(f"rescale factor must be positive, got {factor!r}")
        return replace(self, threshold=factor * self.threshold, peaks=factor * self.peaks)


def _candidate_peaks(q: np.ndarray, threshold: float) -> np.ndarray:
    above = q > threshold
    left = np.empty(q.size)
    left[0] = -np.inf
    left[1:] = q[:-1]
    right = np.empty(q.size)
    right[-1] = -np.inf
    right[:-1] = q[1:]
    # last index of a plateau wins, so each flat top yields one candidate
    return np.flatnonzero(above & (q >= left) & (q > right))


def extract_pot(
    series: DischargeSeries,
    threshold: float,
    rule: IndependenceRule = IndependenceRule(),
) -> PotSeries:
    """Decluster the series into independent event peaks above a threshold.

    The trough between each pair of consecutive candidate peaks comes from
    one ``np.minimum.reduceat`` over their (start, end) index pairs; the
    merge sweep then runs over Python floats.  Times enter only through
    the candidates' day offsets.
    """
    if not math.isfinite(threshold):
        raise InputError(f"threshold must be finite, got {threshold!r}")
    q = series.discharge
    cand = _candidate_peaks(q, threshold)
    if cand.size == 0:
        raise InsufficientDataError(
            f"no exceedances above threshold {threshold!r} for station {series.station}"
        )
    # interleaved (start, end) pairs: the even segments are the gaps, and
    # each gap ends at the next candidate rather than at the end of the
    # record, as reduceat's last segment would.  No gap is empty: a
    # candidate exceeds its right neighbour, which is therefore no candidate
    bounds = np.empty(2 * (cand.size - 1), dtype=np.intp)
    bounds[0::2] = cand[:-1] + 1
    bounds[1::2] = cand[1:]
    troughs = np.minimum.reduceat(q, bounds)[0::2].tolist()
    peaks = q[cand].tolist()
    days = ((series.times[cand] - series.times[0]) / np.timedelta64(1, "D")).tolist()
    min_gap, fraction = rule.min_gap_days, rule.trough_fraction
    kept: list[int] = []
    cur = 0
    cur_val = peaks[0]
    trough = math.inf
    for j in range(1, cand.size):
        trough = min(trough, troughs[j - 1])
        val = peaks[j]
        if days[j] - days[cur] >= min_gap and trough < fraction * min(cur_val, val):
            kept.append(cur)
            cur, cur_val, trough = j, val, math.inf
        elif val > cur_val:
            cur, cur_val, trough = j, val, math.inf
    kept.append(cur)
    events = cand[kept]
    return PotSeries(
        station=series.station,
        threshold=float(threshold),
        times=series.times[events],
        peaks=q[events],
        record_years=record_years(series, rule.max_missing_gap_days),
    )


class ThresholdSelection(NamedTuple):
    threshold: float
    rate: float


def select_threshold(
    series: DischargeSeries,
    target_rate: float,
    rule: IndependenceRule = IndependenceRule(),
    grid_size: int = 200,
) -> ThresholdSelection:
    """Largest quantile-grid threshold whose event rate meets the target.

    The grid spans the 50th to 99.99th percentiles of the discharge values;
    the event rate is non-increasing in the threshold, so a binary search
    (with a small linear sweep around the crossing) finds the answer.  Each
    probed threshold costs one ``extract_pot`` call; its rate is the event
    count over the record length, which the search computes once.
    """
    if not math.isfinite(target_rate) or target_rate <= 0:
        raise InputError(f"target rate must be positive, got {target_rate!r}")
    if grid_size < 2:
        raise InputError(f"grid_size must be at least 2, got {grid_size!r}")
    levels = np.linspace(0.5, 0.9999, grid_size)
    grid = np.unique(np.quantile(series.discharge, levels))

    years = record_years(series, rule.max_missing_gap_days)

    def rate_at(threshold: float) -> float:
        try:
            return len(extract_pot(series, threshold, rule)) / years
        except InsufficientDataError:
            return 0.0

    lo, hi = 0, grid.size - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if rate_at(float(grid[mid])) >= target_rate:
            lo = mid + 1
        else:
            hi = mid - 1
    # lo - 1 is the crossing under exact monotonicity; sweep a little in case
    # declustering makes the rate locally flat
    for idx in range(min(lo + 2, grid.size - 1), -1, -1):
        threshold = float(grid[idx])
        achieved = rate_at(threshold)
        if achieved >= target_rate:
            return ThresholdSelection(threshold, achieved)
    raise SelectionError(
        f"no grid threshold reaches {target_rate!r} events per year for "
        f"station {series.station} (best {rate_at(float(grid[0])):.3f})"
    )
