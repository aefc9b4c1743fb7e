"""File formats: CSV records, JSON artifacts and the region config.

Machine outputs are deterministic: floats are written in Python's
shortest exact round-trip form, keys keep insertion order, and nothing
except the run report carries a timestamp. Every JSON artifact embeds a
``schema_version`` and a ``kind`` tag so readers can refuse files they
do not understand. Missing numbers (failed cells) are stored as JSON
null, never as NaN.

The region config is a small YAML document; its grammar is documented
in the README. Site file paths inside the config resolve relative to
the config file's own directory.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np
import yaml

from .bayes import PriorProvenance, PriorSpec, QuantileSummary
from .distributions import GpParams
from .errors import InputError
from .evaluation import EvalReport, RegionTruth
from .indexflood import StationMeta
from .pot import (
    DischargeSeries,
    IndependenceRule,
    PotSeries,
    extract_pot,
    select_threshold,
)
from .regional import GrowthCurve, Region, RegionSite, _check_policy

__all__ = [
    "SCHEMA_VERSION",
    "RegionConfig",
    "SiteEntry",
    "build_region",
    "eval_report_payload",
    "load_region_config",
    "read_growth_curve_json",
    "read_json",
    "read_metadata_csv",
    "read_pot_json",
    "read_prior_json",
    "read_series_csv",
    "read_truth_json",
    "write_curve_csv",
    "write_density_csv",
    "write_growth_curve_json",
    "write_json",
    "write_metadata_csv",
    "write_pot_json",
    "write_prior_json",
    "write_region_config",
    "write_series_csv",
    "write_truth_json",
]

SCHEMA_VERSION = 1

_SERIES_HEADER = ["datetime", "discharge_m3s"]
_SERIES_HEADER_LINE = ",".join(_SERIES_HEADER) + "\n"
_META_HEADER = ["code", "name", "area_km2", "x_km", "y_km", "record_start", "record_end"]


def _num(x) -> float | None:
    """Float for JSON, with non-finite values mapped to null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _level_json(period_years, value, lower, upper) -> dict:
    """One return level of a JSON report with its interval, each through ``_num``."""
    return {
        "period_years": _num(period_years),
        "value": _num(value),
        "lower": _num(lower),
        "upper": _num(upper),
    }


# ---------------------------------------------------------------- CSV records


def write_series_csv(path, series: DischargeSeries) -> None:
    """Write a discharge record: ISO times to the second, shortest round-trip floats."""
    times = np.datetime_as_string(series.times, unit="s").tolist()
    values = map(repr, series.discharge.tolist())
    rows = "".join(f"{t},{q}\n" for t, q in zip(times, values))
    Path(path).write_text(_SERIES_HEADER_LINE + rows, encoding="utf-8", newline="")


def read_series_csv(path, station: str | None = None) -> DischargeSeries:
    """Read a two-column discharge record; errors name the data row.

    The file is read once and split into fields; the time column is
    converted by one ``np.array`` call and the discharge column by
    ``float``.  Input that this bulk pass cannot vouch for (quotes,
    carriage returns, a line without exactly one comma, an unparseable,
    missing, non-finite or negative value) goes to the row-by-row
    reader, which raises the row-numbered error or returns the same
    series.
    """
    path = Path(path)
    if station is None:
        station = path.stem
    columns = _series_columns(path)
    if columns is None:
        columns = _series_rows(path)
    try:
        return DischargeSeries(station, *columns)
    except InputError as exc:
        raise InputError(f"{path.name}: {exc}") from exc


def _series_columns(path: Path) -> tuple[np.ndarray, np.ndarray] | None:
    """Times and discharges of a well-formed record in bulk; None otherwise."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    if not text.startswith(_SERIES_HEADER_LINE) or '"' in text or "\r" in text:
        return None
    # separators must alternate comma, newline, comma, ...: exactly one
    # comma on every line, no blank line, and nothing after a final newline
    raw = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    seps = raw[(raw == ord(",")) | (raw == ord("\n"))]
    del raw  # each copy of the text goes as soon as it is used
    final_newline = text.endswith("\n")
    if not (
        np.all(seps[0::2] == ord(","))
        and np.all(seps[1::2] == ord("\n"))
        and final_newline == (seps.size % 2 == 0)
    ):
        return None
    fields = text.replace("\n", ",").split(",")
    del text
    if final_newline:
        fields.pop()
    n = len(fields) // 2 - 1
    if n < 1:
        return None
    try:
        times = np.array(fields[2::2], dtype="datetime64[s]")
        values = np.fromiter(map(float, fields[3::2]), dtype=float, count=n)
    except ValueError:
        return None
    if np.any(np.isnat(times)) or not np.all(np.isfinite(values)) or np.any(values < 0):
        return None
    return times, values


def _csv_rows(path: Path, header: list[str]):
    """The numbered data rows of a CSV file that must start with ``header``.

    The file is read and closed first; then a wrong header, and each row
    without one field per header column, raise InputError naming the file
    and the row, in order.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    got = rows[0] if rows else None
    if got != header:
        raise InputError(f"{path.name}: expected header {','.join(header)!r}, got {got!r}")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(header):
            raise InputError(
                f"{path.name} row {i}: expected {len(header)} fields, got {len(row)}"
            )
        yield i, row


def _write_csv(path, header: list[str], rows) -> None:
    """Write ``header`` and then ``rows`` with the csv module's quoting."""
    with open(Path(path), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _series_rows(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Times and discharges parsed row by row, raising on the first bad row."""
    times: list[np.datetime64] = []
    values: list[float] = []
    for i, row in _csv_rows(path, _SERIES_HEADER):
        try:
            t = np.datetime64(row[0], "s")
        except ValueError as exc:
            raise InputError(f"{path.name} row {i}: bad datetime {row[0]!r}") from exc
        if np.isnat(t):
            raise InputError(f"{path.name} row {i}: bad datetime {row[0]!r}")
        try:
            q = float(row[1])
        except ValueError as exc:
            raise InputError(f"{path.name} row {i}: bad discharge {row[1]!r}") from exc
        if not math.isfinite(q) or q < 0:
            raise InputError(
                f"{path.name} row {i}: discharge must be finite and "
                f"non-negative, got {row[1]}"
            )
        times.append(t)
        values.append(q)
    if not times:
        raise InputError(f"{path.name}: no data rows")
    return np.array(times, dtype="datetime64[s]"), np.array(values)


def write_metadata_csv(path, metas: Sequence[StationMeta]) -> None:
    """Write station metadata, one row per station, floats in round-trip form."""
    _write_csv(
        path,
        _META_HEADER,
        (
            [m.code, m.name, repr(float(m.area_km2)), repr(float(m.x_km)),
             repr(float(m.y_km)), m.record_start, m.record_end]
            for m in metas
        ),
    )


def read_metadata_csv(path) -> tuple[StationMeta, ...]:
    """Read station metadata; errors name the file and the data row."""
    path = Path(path)
    out: list[StationMeta] = []
    for i, row in _csv_rows(path, _META_HEADER):
        try:
            meta = StationMeta(
                code=row[0],
                name=row[1],
                area_km2=float(row[2]),
                x_km=float(row[3]),
                y_km=float(row[4]),
                record_start=int(row[5]),
                record_end=int(row[6]),
            )
        except (ValueError, InputError) as exc:
            raise InputError(f"{path.name} row {i}: {exc}") from exc
        out.append(meta)
    if not out:
        raise InputError(f"{path.name}: no stations")
    codes = [m.code for m in out]
    if len(set(codes)) != len(codes):
        raise InputError(f"{path.name}: duplicate station codes")
    return tuple(out)


# ------------------------------------------------------------- JSON artifacts


def write_json(path, kind: str, body: Mapping) -> None:
    """Write a versioned, kind-tagged JSON artifact (no NaN; timestamps only in run reports)."""
    obj = {"schema_version": SCHEMA_VERSION, "kind": kind}
    obj.update(body)
    with open(Path(path), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, allow_nan=False)
        fh.write("\n")


def read_json(path, kind: str) -> dict:
    """Read a JSON artifact, refusing another ``kind`` or schema version."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path.name}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path.name}: expected a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InputError(
            f"{path.name}: schema_version {version!r} not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    if obj.get("kind") != kind:
        raise InputError(
            f"{path.name}: kind {obj.get('kind')!r} is not a {kind!r} file"
        )
    return obj


def write_pot_json(path, pot: PotSeries) -> None:
    """Write an event series as a ``pot-series`` artifact."""
    write_json(
        path,
        "pot-series",
        {
            "station": pot.station,
            "threshold": float(pot.threshold),
            "record_years": float(pot.record_years),
            "times": [str(t) for t in pot.times],
            "peaks": [float(x) for x in pot.peaks],
        },
    )


@contextmanager
def _artifact(path, kind: str, what: str):
    """The body of a ``kind`` artifact; a missing or invalid value names the file."""
    obj = read_json(path, kind)
    try:
        yield obj
    except (KeyError, IndexError, ValueError, TypeError, AttributeError, InputError) as exc:
        raise InputError(f"{Path(path).name}: malformed {what}: {exc}") from exc


def read_pot_json(path) -> PotSeries:
    """Read a ``pot-series`` artifact; errors name the file."""
    with _artifact(path, "pot-series", "event series") as obj:
        return PotSeries(
            station=obj["station"],
            threshold=float(obj["threshold"]),
            times=np.array(obj["times"], dtype="datetime64[s]"),
            peaks=np.array(obj["peaks"], dtype=float),
            record_years=float(obj["record_years"]),
        )


def _params_payload(params: GpParams) -> dict:
    return {
        "location": float(params.location),
        "scale": float(params.scale),
        "shape": float(params.shape),
    }


def _params_from(obj: Mapping) -> GpParams:
    return GpParams(float(obj["location"]), float(obj["scale"]), float(obj["shape"]))


def write_growth_curve_json(path, curve: GrowthCurve) -> None:
    """Write a regional growth curve as a ``growth-curve`` artifact."""
    write_json(
        path,
        "growth-curve",
        {
            "params": _params_payload(curve.params),
            "members": list(curve.members),
            "rescale": curve.rescale,
            "index_floods": {k: float(v) for k, v in curve.index_floods.items()},
        },
    )


def read_growth_curve_json(path) -> GrowthCurve:
    """Read a ``growth-curve`` artifact; errors name the file."""
    with _artifact(path, "growth-curve", "growth curve") as obj:
        return GrowthCurve(
            params=_params_from(obj["params"]),
            members=tuple(obj["members"]),
            rescale=obj["rescale"],
            index_floods={k: float(v) for k, v in obj["index_floods"].items()},
        )


def write_prior_json(path, prior: PriorSpec) -> None:
    """Write prior hyper-parameters and their provenance as a ``prior`` artifact."""
    body: dict = {
        "gamma": [float(g) for g in prior.gamma],
        "d": [float(v) for v in prior.d],
    }
    if prior.provenance is None:
        body["provenance"] = None
    else:
        p = prior.provenance
        body["provenance"] = {
            "target": p.target,
            "sites": list(p.sites),
            "c_pred": float(p.c_pred),
            "var_log_c": float(p.var_log_c),
        }
    write_json(path, "prior", body)


def read_prior_json(path) -> PriorSpec:
    """Read a ``prior`` artifact; errors name the file."""
    with _artifact(path, "prior", "prior") as obj:
        prov = None
        if obj.get("provenance") is not None:
            p = obj["provenance"]
            prov = PriorProvenance(
                target=p["target"],
                sites=tuple(p["sites"]),
                c_pred=float(p["c_pred"]),
                var_log_c=float(p["var_log_c"]),
            )
        gamma = obj["gamma"]
        d = obj["d"]
        return PriorSpec(
            gamma=(float(gamma[0]), float(gamma[1]), float(gamma[2])),
            d=(float(d[0]), float(d[1]), float(d[2])),
            provenance=prov,
        )


def write_truth_json(path, truth: RegionTruth) -> None:
    """Write a synthetic region's ground truth as a ``region-truth`` artifact."""
    sites = {}
    for code in truth.site_params:
        sites[code] = {
            "params": _params_payload(truth.site_params[code]),
            "scale_factor": float(truth.scale_factors[code]),
            "index_flood": float(truth.index_floods[code]),
        }
    write_json(
        path,
        "region-truth",
        {"curve": _params_payload(truth.curve), "sites": sites},
    )


def read_truth_json(path) -> RegionTruth:
    """Read a ``region-truth`` artifact; errors name the file."""
    with _artifact(path, "region-truth", "ground truth") as obj:
        sites = obj["sites"]
        return RegionTruth(
            curve=_params_from(obj["curve"]),
            site_params={c: _params_from(s["params"]) for c, s in sites.items()},
            scale_factors={c: float(s["scale_factor"]) for c, s in sites.items()},
            index_floods={c: float(s["index_flood"]) for c, s in sites.items()},
        )


def eval_report_payload(report: EvalReport) -> dict:
    """JSON body of an evaluation report; failed cells become null."""
    return {
        "models": list(report.models),
        "periods": [float(T) for T in report.periods],
        "rank_periods": [float(T) for T in report.rank_periods],
        "lengths": [int(m) for m in report.lengths],
        "replicates": report.replicates,
        "seed": report.seed,
        "nbias": [[_num(x) for x in row] for row in report.nbias],
        "nrmse": [[_num(x) for x in row] for row in report.nrmse],
        "k": [[int(x) for x in row] for row in report.k],
        "r_o": [_num(x) for x in report.r_o],
        "r_s": [_num(x) for x in report.r_s],
        "benchmark": [
            _level_json(b.period_years, b.value, b.lower, b.upper) | {"reliable": b.reliable}
            for b in report.benchmark
        ],
        "missing": list(report.missing),
    }


# ---------------------------------------------------------------- plot data


def write_density_csv(path, grids: Sequence[tuple[str, np.ndarray, np.ndarray, np.ndarray]]) -> None:
    """Marginal density grids: (parameter, values, prior pdf, posterior pdf)."""
    _write_csv(
        path,
        ["parameter", "value", "prior_density", "posterior_density"],
        (
            [name, repr(float(v)), repr(float(fp)), repr(float(fq))]
            for name, values, prior_pdf, posterior_pdf in grids
            for v, fp, fq in zip(values, prior_pdf, posterior_pdf)
        ),
    )


def write_curve_csv(path, summaries: Sequence[QuantileSummary]) -> None:
    """Frequency-curve points: return period vs level with credible band."""
    _write_csv(
        path,
        ["period_years", "q_median", "q_lower", "q_upper"],
        (
            [repr(float(s.period_years)), repr(float(s.point)), repr(float(s.lower)),
             repr(float(s.upper))]
            for s in summaries
        ),
    )


# ---------------------------------------------------------------- region config


@dataclass(frozen=True)
class SiteEntry:
    """One station's files in a region config; paths already resolved."""

    code: str
    metadata: Path
    series: Path
    threshold: float | None = None


@dataclass(frozen=True)
class RegionConfig:
    """Parsed region configuration.

    Threshold policy is either one shared target event rate or an
    explicit threshold on every site, never a mixture.
    """

    target: str
    sites: tuple[SiteEntry, ...]
    target_rate: float | None
    rule: IndependenceRule = field(default_factory=IndependenceRule)
    index_method: str = "gp-fit"
    rescale: str = "index"

    def __post_init__(self) -> None:
        codes = [s.code for s in self.sites]
        if len(self.sites) < 2:
            raise InputError(f"a region needs at least 2 sites, got {len(codes)}")
        if len(set(codes)) != len(codes):
            raise InputError("duplicate station codes in config")
        if self.target not in codes:
            raise InputError(f"target {self.target!r} is not a listed site")
        explicit = [s.code for s in self.sites if s.threshold is not None]
        for s in self.sites:
            if s.threshold is not None and not math.isfinite(s.threshold):
                raise InputError(f"site {s.code}: threshold must be finite, got {s.threshold!r}")
        if self.target_rate is None:
            if len(explicit) != len(codes):
                missing = sorted(set(codes) - set(explicit))
                raise InputError(
                    f"threshold policy: no target rate and no threshold for "
                    f"sites {', '.join(missing)}"
                )
        else:
            if not math.isfinite(self.target_rate) or self.target_rate <= 0:
                raise InputError(
                    f"target rate must be positive, got {self.target_rate!r}"
                )
            if explicit:
                raise InputError(
                    "threshold policy: give either target_rate or per-site "
                    f"thresholds, not both (explicit: {', '.join(explicit)})"
                )
        _check_policy(self.index_method, self.rescale)


def _cfg_float(section: Mapping, key: str, default: float, where: str) -> float:
    value = section.get(key, default)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"{where}: {key} must be a number, got {value!r}")
    return float(value)


def load_region_config(path) -> RegionConfig:
    """Parse and validate a region config; referenced files must exist."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise InputError(f"{path.name}: invalid config: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path.name}: config must be a key-value document")
    known = {"target", "threshold", "independence", "index_flood_method", "rescale", "sites"}
    unknown = set(doc) - known
    if unknown:
        raise InputError(f"{path.name}: unknown keys {sorted(unknown)}")
    target = doc.get("target")
    if not isinstance(target, str) or not target:
        raise InputError(f"{path.name}: 'target' must name a station")

    thr = doc.get("threshold", {})
    if not isinstance(thr, dict):
        raise InputError(f"{path.name}: 'threshold' must be a section")
    per_site = thr.get("per_site")
    target_rate = thr.get("target_rate")
    if (per_site is None) == (target_rate is None):
        raise InputError(
            f"{path.name}: threshold needs exactly one of target_rate, per_site"
        )
    if per_site is not None and not isinstance(per_site, dict):
        raise InputError(f"{path.name}: threshold per_site must map code to value")

    ind = doc.get("independence", {})
    if not isinstance(ind, dict):
        raise InputError(f"{path.name}: 'independence' must be a section")
    defaults = IndependenceRule()
    rule = IndependenceRule(
        min_gap_days=_cfg_float(ind, "min_gap_days", defaults.min_gap_days, path.name),
        trough_fraction=_cfg_float(
            ind, "trough_fraction", defaults.trough_fraction, path.name
        ),
        max_missing_gap_days=_cfg_float(
            ind, "max_missing_gap_days", defaults.max_missing_gap_days, path.name
        ),
    )

    raw_sites = doc.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise InputError(f"{path.name}: 'sites' must be a non-empty list")
    base = path.parent
    entries = []
    for i, site in enumerate(raw_sites, start=1):
        if not isinstance(site, dict):
            raise InputError(f"{path.name}: site {i} must be a mapping")
        code = site.get("code")
        if not isinstance(code, str) or not code:
            raise InputError(f"{path.name}: site {i} needs a station code")
        for key in ("metadata", "series"):
            if not isinstance(site.get(key), str):
                raise InputError(f"{path.name}: site {code}: missing {key} file")
        meta_path = base / site["metadata"]
        series_path = base / site["series"]
        for p in (meta_path, series_path):
            if not p.is_file():
                raise InputError(f"{path.name}: site {code}: no such file {p}")
        threshold = None
        if per_site is not None:
            if code not in per_site:
                raise InputError(f"{path.name}: no threshold for site {code}")
            threshold = _cfg_float(per_site, code, math.nan, path.name)
        entries.append(
            SiteEntry(code=code, metadata=meta_path, series=series_path, threshold=threshold)
        )

    method = doc.get("index_flood_method", "gp-fit")
    rescale = doc.get("rescale", "index")
    if target_rate is not None:
        target_rate = _cfg_float(thr, "target_rate", 0.0, path.name)
    try:
        return RegionConfig(
            target=target,
            sites=tuple(entries),
            target_rate=target_rate,
            rule=rule,
            index_method=method if isinstance(method, str) else str(method),
            rescale=rescale if isinstance(rescale, str) else str(rescale),
        )
    except InputError as exc:
        raise InputError(f"{path.name}: {exc}") from exc


def write_region_config(path, config: RegionConfig) -> None:
    """Emit a config document; site paths are written relative to it."""
    path = Path(path)
    base = path.parent

    def rel(p: Path) -> str:
        try:
            return str(p.relative_to(base))
        except ValueError:
            return str(p)

    if config.target_rate is not None:
        threshold: dict = {"target_rate": config.target_rate}
    else:
        threshold = {"per_site": {s.code: s.threshold for s in config.sites}}
    doc = {
        "target": config.target,
        "threshold": threshold,
        "independence": {
            "min_gap_days": config.rule.min_gap_days,
            "trough_fraction": config.rule.trough_fraction,
            "max_missing_gap_days": config.rule.max_missing_gap_days,
        },
        "index_flood_method": config.index_method,
        "rescale": config.rescale,
        "sites": [
            {"code": s.code, "metadata": rel(s.metadata), "series": rel(s.series)}
            for s in config.sites
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False, default_flow_style=False)


def build_region(config: RegionConfig) -> Region:
    """Read every station's files and extract events per the config policy.

    The region carries the config's index flood method and growth-curve
    rescaling, so every estimate made from it follows them.
    """
    meta_cache: dict[Path, tuple[StationMeta, ...]] = {}
    sites = []
    for entry in config.sites:
        if entry.metadata not in meta_cache:
            meta_cache[entry.metadata] = read_metadata_csv(entry.metadata)
        meta = next(
            (m for m in meta_cache[entry.metadata] if m.code == entry.code), None
        )
        if meta is None:
            raise InputError(
                f"{entry.metadata.name}: no station {entry.code!r} in metadata"
            )
        series = read_series_csv(entry.series, station=entry.code)
        if entry.threshold is not None:
            threshold = entry.threshold
        else:
            threshold = select_threshold(series, config.target_rate, config.rule).threshold
        pot = extract_pot(series, threshold, config.rule)
        sites.append(RegionSite(meta, pot))
    return Region(tuple(sites), config.target, config.index_method, config.rescale)

