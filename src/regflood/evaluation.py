"""Experiment harness: truncation, benchmarks, error indices, rank scores.

The protocol mirrors the usual regional-model comparison: the target
record is truncated to m years, every model re-estimates its quantiles
from the short record (regional models keep full-length donor sites),
and the errors are normalized against the full-record local MLE
benchmark.  Synthetic regions with a controllable heterogeneity knob
make the whole loop reproducible at desk scale.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .bayes import McmcConfig, _donor_regression, elicit_prior, mcmc_sample, posterior_quantiles
from .distributions import GpParams, gp_quantile, gp_rescale, gp_sample
from .errors import InputError, NumericalError
from .fit import GpFit, _check_rate_period, gp_fit_mle, gp_fit_pwm, profile_ci, return_level
from .indexflood import StationMeta
from .lmoments import gp_population_lmoments, sample_lmoments
from .pot import (
    DAYS_PER_YEAR,
    DischargeSeries,
    PotSeries,
)
from .regional import Region, RegionSite, growth_curve, index_flood_quantile

log = logging.getLogger("regflood")

# return periods every experiment scores, and the ones its ranking uses
_RETURN_PERIODS = (2.0, 5.0, 10.0, 20.0)
_RANK_PERIODS = (5.0, 10.0, 20.0)
# synthetic regions: the dimensionless growth curve, whose location is the
# dimensionless threshold, and the first year of every synthetic record
_CURVE = GpParams(1.0, 0.55, 0.1)
_START_YEAR = 1970


# ------------------------------------------------------------- truncation


def truncate_pot(
    pot: PotSeries, m: float, anchor: str = "first", offset_years: float = 0.0
) -> PotSeries:
    """Keep an m-year window of an event series, measured on the event span.

    The window is anchored at the first or last event and may be shifted
    inward by ``offset_years`` (used by sliding-window evaluation).  The
    result's record length is exactly m years.
    """
    if anchor not in ("first", "last"):
        raise InputError(f"anchor must be 'first' or 'last', got {anchor!r}")
    if m <= 0:
        raise InputError(f"truncation length must be positive, got {m}")
    if offset_years < 0:
        raise InputError(f"offset must be non-negative, got {offset_years}")
    if m + offset_years > pot.record_years:
        raise InputError(
            f"cannot truncate to {m} years at offset {offset_years}: "
            f"record is {pot.record_years} years"
        )
    if pot.peaks.size == 0:
        return replace(pot, record_years=float(m))
    day = np.timedelta64(86400, "s")
    span = np.timedelta64(int(round(m * DAYS_PER_YEAR)), "D").astype("timedelta64[s]")
    shift = np.timedelta64(
        int(round(offset_years * DAYS_PER_YEAR)), "D"
    ).astype("timedelta64[s]")
    if anchor == "first":
        start = pot.times[0] + shift
        mask = (pot.times >= start) & (pot.times < start + span + day)
    else:
        end = pot.times[-1] - shift
        mask = (pot.times > end - span - day) & (pot.times <= end)
    return PotSeries(
        station=pot.station,
        threshold=pot.threshold,
        times=pot.times[mask],
        peaks=pot.peaks[mask],
        record_years=float(m),
    )


# -------------------------------------------------------------- benchmark


@dataclass(frozen=True)
class BenchmarkEntry:
    """Full-record benchmark of one return level with its profile interval."""

    period_years: float
    value: float
    lower: float
    upper: float
    reliable: bool


def benchmark_pot(
    pot: PotSeries,
    periods: Sequence[float],
    *,
    fit: GpFit | None = None,
) -> tuple[BenchmarkEntry, ...]:
    """Full-record MLE return levels with 90 % profile intervals.

    Periods beyond 0.6 times the record length are kept
    but flagged unreliable: the benchmark itself is too uncertain there
    to anchor error statistics.  ``fit`` is the record's threshold-fixed
    MLE when the caller already has it (``RegionSite.fit``); the levels
    and every profile interval then share it instead of refitting, and
    ``profile_ci`` rejects a fit of another kind with InputError.
    """
    if fit is None:
        fit = gp_fit_mle(pot)
    out = []
    for period in periods:
        value = return_level(fit.params, pot.rate, period)
        ci = profile_ci(pot, period, fit=fit)
        out.append(
            BenchmarkEntry(
                period_years=float(period),
                value=value,
                lower=ci.lower,
                upper=ci.upper,
                reliable=period <= 0.6 * pot.record_years,
            )
        )
    return tuple(out)


# --------------------------------------------------------- error indices


def _mean_rms(rel: np.ndarray) -> tuple[float, float]:
    """Mean and root mean square of relative errors: NBIAS and NRMSE."""
    return float(rel.mean()), float(np.sqrt((rel**2).mean()))


def nbias_nrmse(estimates: Sequence[float], reference: float) -> tuple[float, float]:
    """Normalized bias and RMS error of estimates against a reference value."""
    est = np.asarray(estimates, dtype=float)
    if est.size < 1:
        raise InputError("need at least one estimate")
    if reference == 0 or not math.isfinite(reference):
        raise InputError(f"reference value must be finite non-zero, got {reference!r}")
    return _mean_rms((est - reference) / reference)


@dataclass(frozen=True)
class RankScore:
    """Raw rank sum and its standardization onto [0, 1] (1 = best everywhere)."""

    r_o: float
    r_s: float


def rank_scores(
    table: Mapping[str, Sequence[float]],
    absolute: Sequence[bool] | None = None,
) -> dict[str, RankScore]:
    """Standardized rank scores across models from a criteria table.

    Each column is one criterion; models are ranked ascending (rank 1 is
    best), columns flagged in ``absolute`` rank by magnitude (bias-like
    criteria), and ties share the average rank.  Non-finite entries drop
    the model from that criterion only, shrinking the per-criterion field;
    the standardization then uses the per-model attainable range, which
    reduces to (pq - R_o)/(pq - q) for a complete table.
    """
    models = list(table)
    if len(models) < 2:
        raise InputError(f"rank scores need at least 2 models, got {len(models)}")
    q = {len(v) for v in table.values()}
    if len(q) != 1:
        raise InputError("all models must have the same number of criteria")
    n_crit = q.pop()
    if n_crit < 1:
        raise InputError("need at least one criterion")
    if absolute is None:
        absolute = [False] * n_crit
    if len(absolute) != n_crit:
        raise InputError("absolute flags must match the criteria count")

    values = np.array([[float(v) for v in table[m]] for m in models])
    r_o = {m: 0.0 for m in models}
    attainable = {m: 0.0 for m in models}
    appearances = {m: 0 for m in models}
    for c in range(n_crit):
        col = values[:, c]
        present = np.isfinite(col)
        if not np.all(present):
            dropped = [m for m, ok in zip(models, present) if not ok]
            log.warning(
                "criterion %d: dropping model(s) %s with missing values",
                c,
                ", ".join(dropped),
            )
        idx = np.nonzero(present)[0]
        if idx.size < 2:
            continue
        col = np.abs(col[idx]) if absolute[c] else col[idx]
        # average rank of a tie group: (values below + values at or below + 1) / 2
        below = (col[None, :] < col[:, None]).sum(axis=1)
        ranks = (below + (col[None, :] <= col[:, None]).sum(axis=1) + 1) / 2.0
        for i, rank in zip(idx, ranks):
            m = models[i]
            r_o[m] += float(rank)
            attainable[m] += float(idx.size)
            appearances[m] += 1

    out = {}
    for m in models:
        if appearances[m] == 0:
            log.warning("model %s has no rankable criteria; score undefined", m)
            out[m] = RankScore(r_o=math.nan, r_s=math.nan)
            continue
        denom = attainable[m] - appearances[m]
        if denom <= 0:
            out[m] = RankScore(r_o=r_o[m], r_s=math.nan)
            continue
        out[m] = RankScore(r_o=r_o[m], r_s=(attainable[m] - r_o[m]) / denom)
    return out


# --------------------------------------------------------- synthetic data


@dataclass(frozen=True)
class SynthSpec:
    """Blueprint of a synthetic region.

    Sites share the dimensionless GP growth curve (1.0, 0.55, 0.1), whose
    location is the dimensionless threshold, and every site records
    ``years`` years.  Basin areas are log-uniform on [30, 800] km2, and the
    per-site scale factors follow the area law 0.9 * A**0.8 times a
    lognormal scatter of log-sd 0.08.  ``lcv_dispersion`` spreads the site
    L-CVs over that factor (1 = homogeneous) by shifting locations.
    """

    n_sites: int = 14
    years: float = 37.0
    rate: float = 2.0
    lcv_dispersion: float = 1.0
    target: str = "S0"

    def __post_init__(self) -> None:
        if self.n_sites < 2:
            raise InputError(f"need at least 2 sites, got {self.n_sites}")
        if not (math.isfinite(self.rate) and self.rate > 1.0):
            raise InputError(f"event rate must be finite and exceed 1/year, got {self.rate}")
        if not (math.isfinite(self.lcv_dispersion) and self.lcv_dispersion >= 1.0):
            raise InputError(
                f"L-CV dispersion factor must be finite and >= 1, got {self.lcv_dispersion}"
            )
        if not (math.isfinite(self.years) and self.years > 0):
            raise InputError(f"record lengths must be finite and positive, got {self.years}")
        if round(self.rate * self.years) < 5:
            raise InputError("records too short: fewer than 5 events per site")


@dataclass(frozen=True)
class RegionTruth:
    """Ground truth behind a synthetic region, for oracle checks."""

    curve: GpParams
    site_params: dict[str, GpParams]
    scale_factors: dict[str, float]
    index_floods: dict[str, float]


def _even_times(n: int, years: float) -> np.ndarray:
    t0 = np.datetime64(f"{_START_YEAR}-01-01T00:00:00", "s")
    step = years * DAYS_PER_YEAR * 86400.0 / (n + 1)
    return t0 + ((1 + np.arange(n)) * step).astype(np.int64).astype("timedelta64[s]")


def synth_region(spec: SynthSpec, seed=0) -> tuple[Region, RegionTruth]:
    """Draw a synthetic region and its ground truth, deterministically."""
    rng = np.random.default_rng(seed)
    years = float(spec.years)
    base = gp_population_lmoments(_CURVE)
    t_base = base.l2 / base.l1
    tail = _CURVE.scale / (1.0 - _CURVE.shape)
    spread = np.linspace(-0.5, 0.5, spec.n_sites)
    sites = []
    site_params, scale_factors, index_floods = {}, {}, {}
    p1 = 1.0 - 1.0 / spec.rate
    for i in range(spec.n_sites):
        code = f"S{i}"
        area = float(np.exp(rng.uniform(np.log(30.0), np.log(800.0))))
        factor = 0.9 * area**0.8 * float(np.exp(rng.normal(0.0, 0.08)))
        t_i = t_base * spec.lcv_dispersion ** spread[i]
        loc_i = base.l2 / t_i - tail
        if loc_i <= 0:
            raise InputError(
                f"L-CV dispersion {spec.lcv_dispersion} pushes site {code} "
                "to a non-positive location"
            )
        dimless = GpParams(loc_i, _CURVE.scale, _CURVE.shape)
        params = gp_rescale(dimless, factor)
        n = int(round(spec.rate * years))
        peaks = gp_sample(params, n, rng)
        pot = PotSeries(
            station=code,
            threshold=params.location,
            times=_even_times(n, years),
            peaks=np.maximum(peaks, params.location),
            record_years=years,
        )
        meta = StationMeta(
            code=code,
            name=f"Synthetic {code}",
            area_km2=area,
            x_km=float(rng.uniform(0.0, 100.0)),
            y_km=float(rng.uniform(0.0, 100.0)),
            record_start=_START_YEAR,
            record_end=_START_YEAR + int(round(years)),
        )
        sites.append(RegionSite(meta, pot))
        site_params[code] = params
        scale_factors[code] = factor
        index_floods[code] = float(gp_quantile(params, p1))
    region = Region(tuple(sites), spec.target)
    truth = RegionTruth(
        curve=_CURVE,
        site_params=site_params,
        scale_factors=scale_factors,
        index_floods=index_floods,
    )
    return region, truth


def synth_daily_series(
    params: GpParams,
    rate: float = 2.0,
    years: float = 37.0,
    seed=0,
    station: str = "SYN",
) -> DischargeSeries:
    """Daily discharge series whose flood peaks follow the given GP law.

    The series starts on 1 January 1970.  Baseline flow stays well below
    the GP location (the natural POT threshold); events are isolated
    few-day hydrographs whose peaks are exact GP draws, so extraction at
    that threshold recovers them.
    """
    if rate <= 0:
        raise InputError(f"event rate must be positive, got {rate}")
    rng = np.random.default_rng(seed)
    n_days = int(round(years * DAYS_PER_YEAR))
    threshold = params.location
    if threshold <= 0:
        raise InputError(
            f"series generation needs a positive location, got {threshold!r}"
        )
    base = 0.25 * threshold * (1.0 + 0.3 * rng.random(n_days))
    # one extra event keeps the nominal rate reachable after the gap-aware
    # record-length accounting rounds the denominator up
    n_events = int(round(rate * years)) + 1
    slot = n_days / max(n_events, 1)
    q = base
    for k in range(n_events):
        day = int((k + float(rng.uniform(0.25, 0.75))) * slot)
        day = min(max(day, 2), n_days - 3)
        peak = float(gp_sample(params, 1, rng)[0])
        rise = 0.55 * peak
        fall = 0.45 * peak
        q[day] = max(q[day], peak)
        q[day - 1] = max(q[day - 1], rise)
        q[day + 1] = max(q[day + 1], fall)
        q[day + 2] = max(q[day + 2], 0.5 * fall)
    t0 = np.datetime64(f"{_START_YEAR}-01-01T00:00:00", "s")
    times = t0 + np.arange(n_days) * np.timedelta64(86400, "s")
    return DischargeSeries(station=station, times=times, discharge=q)


# ------------------------------------------------------------- experiment


def _reject_repeats(name: str, values: Sequence) -> None:
    repeated = [v for i, v in enumerate(values) if v in values[:i]]
    if repeated:
        raise InputError(f"{name} {repeated[0]!r} is listed twice")


@dataclass(frozen=True)
class EvalConfig:
    """Settings of one model-comparison experiment.

    Every experiment scores the return periods 2, 5, 10 and 20 years with
    90 % benchmark intervals, and ranks the models on 5, 10 and 20 years.
    """

    lengths: tuple[int, ...] = (5,)
    anchor: str = "first"
    models: tuple[str, ...] = ("MLE", "PWU", "PWB", "REG", "BAY")
    replicates: int = 1
    seed: int = 0
    sliding: bool = False
    mcmc: McmcConfig = field(
        default_factory=lambda: McmcConfig(chains=2, iterations=6000, burn_in=1500)
    )

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise InputError(f"need at least 1 replicate, got {self.replicates}")
        if not self.lengths or min(self.lengths) < 1:
            raise InputError(f"bad truncation lengths {self.lengths!r}")
        if self.anchor not in ("first", "last"):
            raise InputError(f"anchor must be 'first' or 'last', got {self.anchor!r}")
        if not self.models:
            raise InputError("need at least one model")
        unknown = set(self.models) - {"MLE", "PWU", "PWB", "REG", "BAY"}
        if unknown:
            raise InputError(f"unknown models {sorted(unknown)!r}")
        _reject_repeats("length", self.lengths)
        _reject_repeats("model", self.models)


@dataclass(frozen=True)
class EvalReport:
    """Aggregated error indices and rank scores of one experiment."""

    models: tuple[str, ...]
    periods: tuple[float, ...]
    rank_periods: tuple[float, ...]
    lengths: tuple[int, ...]
    replicates: int
    seed: int
    nbias: tuple[tuple[float, ...], ...]
    nrmse: tuple[tuple[float, ...], ...]
    k: tuple[tuple[int, ...], ...]
    r_o: tuple[float, ...]
    r_s: tuple[float, ...]
    benchmark: tuple[BenchmarkEntry, ...]
    missing: tuple[str, ...]

    def cell(self, model: str, period: float) -> tuple[float, float, int]:
        """(NBIAS, NRMSE, k) of one model at one return period."""
        i = self.models.index(model)
        j = self.periods.index(period)
        return self.nbias[i][j], self.nrmse[i][j], self.k[i][j]

    def score(self, model: str) -> float:
        """Standardized rank score R_S of one model (1 = best everywhere)."""
        return self.r_s[self.models.index(model)]


def _model_estimates(
    name: str,
    window: RegionSite,
    periods: Sequence[float],
    curve,
    prior,
    mcmc: McmcConfig,
    mcmc_seed: int,
    index_method: str,
) -> dict[float, float]:
    tpot = window.pot
    if name in ("MLE", "PWU", "PWB"):
        variant = "unbiased" if name == "PWU" else "biased"
        fit = window.fit if name == "MLE" else gp_fit_pwm(tpot, variant)
        return {T: return_level(fit.params, tpot.rate, T) for T in periods}
    if name == "REG":
        # the window's own factor, as the curve's members were rescaled
        if curve.rescale == "index":
            c = window.index_flood(index_method)
        else:
            c = float(sample_lmoments(tpot.peaks).l1)
        return {T: index_flood_quantile(curve, c, _check_rate_period(tpot.rate, T)) for T in periods}
    if name == "BAY":
        chains = mcmc_sample(prior, tpot, mcmc, seed=mcmc_seed)
        summaries = posterior_quantiles(chains, tpot.rate, periods)
        return {s.period_years: s.point for s in summaries}
    raise InputError(f"unknown model {name!r}")


def run_experiment(
    config: EvalConfig,
    region: Region | None = None,
    synth: SynthSpec | None = None,
) -> EvalReport:
    """Run the truncation experiment on a fixed or synthesized region.

    Exactly one of ``region`` and ``synth`` must be given; with ``synth``
    each replicate draws a fresh region from the spec.  The target record
    is truncated to each configured length (one anchored window, or every
    one-year shift when ``sliding``), every model re-estimates the return
    levels, and relative errors against the full-record MLE benchmark are
    pooled into NBIAS/NRMSE per model and period.  Each record, truncated
    windows included, is fitted once (``RegionSite.fit``).  The REG and BAY
    models take the region's index flood method and growth-curve rescaling.
    Failures leave missing cells, which shrink the ranking field rather than
    abort the run.
    """
    if (region is None) == (synth is None):
        raise InputError("provide exactly one of region and synth")
    root = np.random.SeedSequence(config.seed)
    rep_streams = root.spawn(max(config.replicates, 1))
    rels: dict[tuple[str, float], list[float]] = {
        (m, T): [] for m in config.models for T in _RETURN_PERIODS
    }
    missing: list[str] = []
    bench0: tuple[BenchmarkEntry, ...] = ()

    def lose(msg: str) -> None:
        missing.append(msg)
        log.warning("%s", msg)

    for r in range(config.replicates):
        synth_stream, model_stream = rep_streams[r].spawn(2)
        if synth is not None:
            the_region, _ = synth_region(synth, seed=synth_stream)
        else:
            the_region = region
        target = the_region.target
        target_site = the_region.target_site
        full = target_site.pot

        bench_params = target_site.fit.params
        bench_q = {
            T: return_level(bench_params, full.rate, T)
            for T in _RETURN_PERIODS
        }
        if r == 0:
            bench0 = benchmark_pot(full, _RETURN_PERIODS, fit=target_site.fit)

        curve = prior = None
        try:
            if "REG" in config.models:
                curve = growth_curve(the_region, exclude=target)
            if "BAY" in config.models:
                regression = _donor_regression(the_region.others(), the_region.index_method)
                prior = elicit_prior(the_region, regression)
        except (InputError, NumericalError) as exc:
            lose(f"replicate {r}: regional preparation failed: {exc}")

        m_streams = model_stream.spawn(len(config.lengths))
        for im, m in enumerate(config.lengths):
            if config.sliding:
                max_offset = int(full.record_years - m)
                offsets = [float(o) for o in range(max_offset + 1)]
            else:
                offsets = [0.0]
            window_seeds = m_streams[im].generate_state(len(offsets))
            for iw, offset in enumerate(offsets):
                try:
                    tpot = truncate_pot(full, m, config.anchor, offset_years=offset)
                except InputError as exc:
                    lose(f"replicate {r} m={m} offset {offset}: {exc}")
                    continue
                window = RegionSite(target_site.meta, tpot)
                for name in config.models:
                    if name == "REG" and curve is None:
                        continue
                    if name == "BAY" and prior is None:
                        continue
                    try:
                        est = _model_estimates(
                            name,
                            window,
                            _RETURN_PERIODS,
                            curve,
                            prior,
                            config.mcmc,
                            int(window_seeds[iw]),
                            the_region.index_method,
                        )
                    except (InputError, NumericalError) as exc:
                        lose(f"replicate {r} m={m} offset {offset} {name}: {exc}")
                        continue
                    for T in _RETURN_PERIODS:
                        rels[(name, T)].append((est[T] - bench_q[T]) / bench_q[T])

    n_models = len(config.models)
    n_periods = len(_RETURN_PERIODS)
    nbias = np.full((n_models, n_periods), math.nan)
    nrmse = np.full((n_models, n_periods), math.nan)
    counts = np.zeros((n_models, n_periods), dtype=int)
    for i, name in enumerate(config.models):
        for j, T in enumerate(_RETURN_PERIODS):
            errs = np.asarray(rels[(name, T)])
            counts[i, j] = errs.size
            if errs.size:
                nbias[i, j], nrmse[i, j] = _mean_rms(errs)

    if n_models >= 2:
        table = {}
        for i, name in enumerate(config.models):
            row = []
            for T in _RANK_PERIODS:
                j = _RETURN_PERIODS.index(T)
                row.extend((nbias[i, j], nrmse[i, j]))
            table[name] = row
        flags = [True, False] * len(_RANK_PERIODS)
        scores = rank_scores(table, absolute=flags)
        r_o = tuple(scores[name].r_o for name in config.models)
        r_s = tuple(scores[name].r_s for name in config.models)
    else:
        r_o = (math.nan,) * n_models
        r_s = (math.nan,) * n_models

    return EvalReport(
        models=config.models,
        periods=_RETURN_PERIODS,
        rank_periods=_RANK_PERIODS,
        lengths=config.lengths,
        replicates=config.replicates,
        seed=config.seed,
        nbias=tuple(tuple(row) for row in nbias),
        nrmse=tuple(tuple(row) for row in nrmse),
        k=tuple(tuple(int(v) for v in row) for row in counts),
        r_o=r_o,
        r_s=r_s,
        benchmark=bench0,
        missing=tuple(missing),
    )
