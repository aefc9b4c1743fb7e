import csv
import io
import math

import numpy as np
import pytest

from conftest import make_pot, make_spike_series
from regflood import fileio
from regflood.bayes import PriorProvenance, PriorSpec, QuantileSummary
from regflood.distributions import GpParams
from regflood.errors import InputError
from regflood.evaluation import (
    EvalConfig,
    RegionTruth,
    SynthSpec,
    run_experiment,
    synth_daily_series,
    synth_region,
)
from regflood.fileio import (
    _series_columns,
    _series_rows,
    RegionConfig,
    SiteEntry,
    build_region,
    eval_report_payload,
    load_region_config,
    read_growth_curve_json,
    read_json,
    read_metadata_csv,
    read_pot_json,
    read_prior_json,
    read_series_csv,
    read_truth_json,
    write_curve_csv,
    write_density_csv,
    write_growth_curve_json,
    write_json,
    write_metadata_csv,
    write_pot_json,
    write_prior_json,
    write_region_config,
    write_series_csv,
    write_truth_json,
)
from regflood.indexflood import StationMeta
from regflood.pot import DischargeSeries, IndependenceRule
from regflood.regional import GrowthCurve


def spiky_series(station="S1"):
    spikes = [(30 + 40 * i, 10.0 + 0.7 * i) for i in range(40)]
    return make_spike_series(40 * 40 + 60, spikes, base=1.0, station=station)


def test_series_csv_round_trip(tmp_path):
    series = spiky_series()
    path = tmp_path / "S1.csv"
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert back.station == "S1"
    assert np.array_equal(back.times, series.times)
    assert np.array_equal(back.discharge, series.discharge)


def test_series_csv_byte_identical(tmp_path):
    series = spiky_series()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(a, series)
    write_series_csv(b, series)
    assert a.read_bytes() == b.read_bytes()


def test_series_csv_header_line(tmp_path):
    path = tmp_path / "s.csv"
    write_series_csv(path, spiky_series())
    assert path.read_text().splitlines()[0] == "datetime,discharge_m3s"


def test_series_csv_bad_rows_name_the_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "datetime,discharge_m3s\n"
        "1970-01-01T00:00:00,1.0\n"
        "not-a-date,2.0\n"
    )
    with pytest.raises(InputError, match="row 2"):
        read_series_csv(path)
    path.write_text(
        "datetime,discharge_m3s\n"
        "1970-01-01T00:00:00,oops\n"
    )
    with pytest.raises(InputError, match="row 1"):
        read_series_csv(path)
    path.write_text("datetime,discharge_m3s\n1970-01-01T00:00:00,-3.0\n")
    with pytest.raises(InputError, match="row 1"):
        read_series_csv(path)
    path.write_text("datetime,discharge_m3s\n,1.0\n")
    with pytest.raises(InputError, match="row 1"):
        read_series_csv(path)


_ROWS = ["1970-01-01T00:00:00,1.5", "1970-01-02T00:00:00,2.25", "1970-01-03T00:00:00,0.5"]


def _record(*rows, end="\n"):
    return "\n".join(["datetime,discharge_m3s", *rows]) + end


# (case, file text, whether the bulk pass vouches for it)
_READER_CASES = [
    ("plain", _record(*_ROWS), True),
    ("crlf", _record(*_ROWS).replace("\n", "\r\n"), False),
    ("quoted fields", _record('"1970-01-01T00:00:00","1.5"', *_ROWS[1:]), False),
    ("trailing blank line", _record(*_ROWS, end="\n\n"), False),
    ("no final newline", _record(*_ROWS, end=""), True),
    ("whitespace around numbers", _record(*_ROWS[:2], "1970-01-03T00:00:00, 0.5 "), True),
    ("whitespace around a time", _record(*_ROWS[:2], " 1970-01-03T00:00:00,0.5"), True),
    ("nan", _record(*_ROWS[:2], "1970-01-03T00:00:00,nan"), False),
    ("inf", _record(*_ROWS[:2], "1970-01-03T00:00:00,inf"), False),
    ("negative", _record(*_ROWS[:2], "1970-01-03T00:00:00,-1"), False),
    ("exponent", _record(*_ROWS[:2], "1970-01-03T00:00:00,1e3"), True),
    ("empty time", _record(*_ROWS[:2], ",0.5"), False),
    ("date-only time", _record(*_ROWS[:2], "1970-01-03,0.5"), True),
    ("NaT", _record(*_ROWS[:2], "NaT,0.5"), False),
    ("third field", _record(*_ROWS[:2], "1970-01-03T00:00:00,0.5,7"), False),
    ("blank middle line", _record(_ROWS[0], "", *_ROWS[1:]), False),
    ("line without a comma", _record(*_ROWS, "1970-01-04T00:00:00"), False),
    ("last line without a comma", _record(*_ROWS, "1970-01-04T00:00:00", end=""), False),
    # one comma short on one line and one too many on the next: every
    # field still parses, as a year or a number
    ("comma moved to the next line", _record(_ROWS[0], "1971", "1972,1973,0.5"), False),
    ("one data row", _record(_ROWS[0]), True),
    ("no data rows", _record(), False),
    ("times out of order", _record(_ROWS[1], _ROWS[0]), True),
]


def _outcome(read, path):
    try:
        series = read(path)
    except InputError as exc:
        return "error", str(exc)
    return series.station, series.times.dtype, series.times.tolist(), series.discharge.tolist()


def _read_by_rows(path):
    columns = _series_rows(path)
    try:
        return DischargeSeries(path.stem, *columns)
    except InputError as exc:
        raise InputError(f"{path.name}: {exc}") from exc


@pytest.mark.parametrize("case,text,bulk", _READER_CASES, ids=[c[0] for c in _READER_CASES])
def test_series_csv_reader_matches_the_row_loop(tmp_path, case, text, bulk):
    path = tmp_path / "S1.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(read_series_csv, path) == _outcome(_read_by_rows, path)
    assert (_series_columns(path) is not None) == bulk


def _csv_writer_bytes(header, rows) -> bytes:
    """The file a ``csv.writer`` row loop writes: the oracle of every CSV writer."""
    oracle = io.StringIO(newline="")
    w = csv.writer(oracle, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return oracle.getvalue().encode("utf-8")


def test_series_csv_writer_matches_csv_writer(tmp_path):
    times = np.array(
        ["1850-03-01T06:00:00", "1969-12-31T23:59:59", "1970-01-01T00:00:00",
         "2038-01-19T03:14:08", "2100-02-28T12:30:00"],
        dtype="datetime64[s]",
    )
    series = DischargeSeries("S1", times, np.array([1e-300, 0.1, 1e16, 0.0, 123.456789]))
    path = tmp_path / "S1.csv"
    write_series_csv(path, series)
    rows = [[str(t), repr(float(q))] for t, q in zip(series.times, series.discharge)]
    assert path.read_bytes() == _csv_writer_bytes(["datetime", "discharge_m3s"], rows)


def test_series_csv_rejects_wrong_header_and_empty(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("time,flow\n1970-01-01T00:00:00,1.0\n")
    with pytest.raises(InputError, match="header"):
        read_series_csv(path)
    path.write_text("datetime,discharge_m3s\n")
    with pytest.raises(InputError, match="no data rows"):
        read_series_csv(path)


def test_metadata_csv_round_trip(tmp_path):
    metas = (
        StationMeta("S0", "Upper Brook", 123.4, 10.0, 20.0, 1969, 2005),
        StationMeta("S1", "Mill, Lower", 55.5, 11.0, 21.0, 1970, 2003),
    )
    path = tmp_path / "meta.csv"
    write_metadata_csv(path, metas)
    header = ["code", "name", "area_km2", "x_km", "y_km", "record_start", "record_end"]
    rows = [
        [m.code, m.name, repr(m.area_km2), repr(m.x_km), repr(m.y_km), m.record_start, m.record_end]
        for m in metas
    ]
    assert path.read_bytes() == _csv_writer_bytes(header, rows)
    assert b'"Mill, Lower"' in path.read_bytes()
    back = read_metadata_csv(path)
    assert back == metas
    # the comma inside a name survives csv quoting
    assert back[1].name == "Mill, Lower"


def test_metadata_csv_errors(tmp_path):
    path = tmp_path / "meta.csv"
    path.write_text("code,name,area_km2,x_km,y_km,record_start,record_end\n")
    with pytest.raises(InputError, match="no stations"):
        read_metadata_csv(path)
    path.write_text("code,name,area,x_km,y_km,record_start,record_end\nS0,A,1,0,0,1970,1980\n")
    with pytest.raises(InputError) as err:
        read_metadata_csv(path)
    assert str(err.value) == (
        "meta.csv: expected header 'code,name,area_km2,x_km,y_km,record_start,record_end', "
        "got ['code', 'name', 'area', 'x_km', 'y_km', 'record_start', 'record_end']"
    )
    path.write_text(
        "code,name,area_km2,x_km,y_km,record_start,record_end\n"
        "S0,A,10.0,0,0,1970,1980\n"
        "S1,B,20.0,0,0,1970\n"
    )
    with pytest.raises(InputError) as err:
        read_metadata_csv(path)
    assert str(err.value) == "meta.csv row 2: expected 7 fields, got 6"
    path.write_text(
        "code,name,area_km2,x_km,y_km,record_start,record_end\n"
        "S0,A,abc,0,0,1970,1980\n"
    )
    with pytest.raises(InputError, match="row 1"):
        read_metadata_csv(path)
    path.write_text(
        "code,name,area_km2,x_km,y_km,record_start,record_end\n"
        "S0,A,10.0,0,0,1970,1980\n"
        "S0,B,20.0,0,0,1970,1980\n"
    )
    with pytest.raises(InputError, match="duplicate"):
        read_metadata_csv(path)


def test_pot_json_round_trip(tmp_path):
    pot = make_pot([12.5, 14.0, 19.25, 13.0], 12.0, 2.0)
    path = tmp_path / "pot.json"
    write_pot_json(path, pot)
    back = read_pot_json(path)
    assert back.station == pot.station
    assert back.threshold == pot.threshold
    assert back.record_years == pot.record_years
    assert np.array_equal(back.times, pot.times)
    assert np.array_equal(back.peaks, pot.peaks)


def test_json_kind_and_version_checks(tmp_path):
    pot = make_pot([12.5, 14.0], 12.0, 1.0)
    path = tmp_path / "pot.json"
    write_pot_json(path, pot)
    with pytest.raises(InputError, match="kind"):
        read_json(path, "prior")
    text = path.read_text().replace('"schema_version": 1', '"schema_version": 99')
    path.write_text(text)
    with pytest.raises(InputError, match="schema_version"):
        read_pot_json(path)
    path.write_text("{ not json")
    with pytest.raises(InputError, match="invalid JSON"):
        read_pot_json(path)


def test_json_full_precision_round_trip(tmp_path):
    values = [1 / 3, math.pi, 0.1, 2.0**-40, 12345.678901234567]
    path = tmp_path / "x.json"
    write_json(path, "test", {"values": values})
    back = read_json(path, "test")
    assert back["values"] == values


def test_growth_curve_json_round_trip(tmp_path):
    curve = GrowthCurve(
        params=GpParams(1.0, 0.55, 0.1),
        members=("S1", "S2", "S3"),
        rescale="index",
        index_floods={"S1": 10.0, "S2": 20.5, "S3": 30.25},
    )
    path = tmp_path / "curve.json"
    write_growth_curve_json(path, curve)
    assert read_growth_curve_json(path) == curve


def test_prior_json_round_trip(tmp_path):
    prior = PriorSpec(
        gamma=(2.5, 1.8, 0.11),
        d=(0.04, 0.02, 0.01),
        provenance=PriorProvenance("S0", ("S1", "S2", "S3"), 12.25, 0.03),
    )
    path = tmp_path / "prior.json"
    write_prior_json(path, prior)
    assert read_prior_json(path) == prior
    bare = PriorSpec(gamma=(0.0, 0.0, 0.0), d=(1000.0, 1000.0, 1000.0))
    write_prior_json(path, bare)
    assert read_prior_json(path) == bare


def test_truth_json_round_trip(tmp_path):
    truth = RegionTruth(
        curve=GpParams(1.0, 0.55, 0.1),
        site_params={"S0": GpParams(5.0, 2.75, 0.1), "S1": GpParams(8.0, 4.4, 0.1)},
        scale_factors={"S0": 5.0, "S1": 8.0},
        index_floods={"S0": 9.1, "S1": 14.6},
    )
    path = tmp_path / "truth.json"
    write_truth_json(path, truth)
    assert read_truth_json(path) == truth


_CURVE = GpParams(1.0, 0.55, 0.1)


@pytest.mark.parametrize(
    "write, read, artifact, old, new, what",
    [
        (
            write_pot_json,
            read_pot_json,
            make_pot([12.5, 14.0], 12.0, 1.0),
            '"record_years": 1.0',
            '"record_years": -1.0',
            "event series",
        ),
        (
            write_growth_curve_json,
            read_growth_curve_json,
            GrowthCurve(_CURVE, ("S1", "S2"), "index", {"S1": 10.0, "S2": 20.5}),
            '"scale": 0.55',
            '"scale": -1.0',
            "growth curve",
        ),
        (
            write_growth_curve_json,
            read_growth_curve_json,
            GrowthCurve(_CURVE, ("S1", "S2"), "mean", {}),
            '"index_floods": {}',
            '"index_floods": []',
            "growth curve",
        ),
        (
            write_prior_json,
            read_prior_json,
            PriorSpec(gamma=(2.5, 1.8, 0.11), d=(0.04, 0.02, 0.01)),
            "0.04",
            "-0.04",
            "prior",
        ),
        (
            write_truth_json,
            read_truth_json,
            RegionTruth(_CURVE, {"S0": GpParams(5.0, 2.75, 0.1)}, {"S0": 5.0}, {"S0": 9.1}),
            '"scale": 2.75',
            '"scale": -1.0',
            "ground truth",
        ),
    ],
    ids=["pot", "growth-curve", "growth-curve-list", "prior", "truth"],
)
def test_typed_json_readers_name_the_file_of_an_invalid_value(
    tmp_path, write, read, artifact, old, new, what
):
    path = tmp_path / "artifact.json"
    write(path, artifact)
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    with pytest.raises(InputError, match=f"^artifact.json: malformed {what}: "):
        read(path)


def test_eval_report_payload_nan_becomes_null(tmp_path):
    config = EvalConfig(lengths=(5,), models=("MLE", "PWU"), seed=1)
    spec = SynthSpec(n_sites=4, years=30.0, lcv_dispersion=1.0)
    region, _ = synth_region(spec, seed=7)
    report = run_experiment(config, region=region)
    payload = eval_report_payload(report)
    path = tmp_path / "eval.json"
    write_json(path, "eval-report", payload)
    back = read_json(path, "eval-report")
    assert back["models"] == ["MLE", "PWU"]
    flat = [x for row in back["nbias"] for x in row]
    assert all(x is None or isinstance(x, float) for x in flat)
    # NaN never appears in the file text
    assert "NaN" not in path.read_text()


def test_plot_csv_shapes(tmp_path):
    grid = np.linspace(1.0, 2.0, 5)
    # a name with a comma is quoted
    dens = [("mu", grid, grid * 0.1, grid * 0.2), ("Mill, Lower", grid[:2], grid[:2], grid[:2] / 3)]
    dpath = tmp_path / "density.csv"
    write_density_csv(dpath, dens)
    lines = dpath.read_text().splitlines()
    assert lines[0] == "parameter,value,prior_density,posterior_density"
    assert len(lines) == 8
    assert lines[-1].startswith('"Mill, Lower",')
    rows = [
        [name, repr(float(v)), repr(float(fp)), repr(float(fq))]
        for name, values, prior_pdf, posterior_pdf in dens
        for v, fp, fq in zip(values, prior_pdf, posterior_pdf)
    ]
    assert dpath.read_bytes() == _csv_writer_bytes(lines[0].split(","), rows)
    summaries = [
        QuantileSummary(2.0, 10.0, 8.0, 13.0),
        QuantileSummary(10.0, 20.0, 15.0, 28.0),
    ]
    cpath = tmp_path / "curve.csv"
    write_curve_csv(cpath, summaries)
    lines = cpath.read_text().splitlines()
    assert lines[0] == "period_years,q_median,q_lower,q_upper"
    assert lines[1].startswith("2.0,10.0,")
    rows = [[repr(s.period_years), repr(s.point), repr(s.lower), repr(s.upper)] for s in summaries]
    assert cpath.read_bytes() == _csv_writer_bytes(lines[0].split(","), rows)


def region_files(tmp_path, n_sites=4, years=12.0, rate=2.0):
    """Write series + metadata files for a small region; returns entries."""
    metas = []
    entries = []
    for i in range(n_sites):
        code = f"S{i}"
        series = synth_daily_series(
            GpParams(10.0 + 2.0 * i, 5.0, 0.1), rate=rate, years=years,
            seed=100 + i, station=code,
        )
        spath = tmp_path / f"{code}.csv"
        write_series_csv(spath, series)
        metas.append(StationMeta(code, f"Site {code}", 50.0 * (i + 1), 0.0, float(i), 1970, 1982))
        entries.append((code, spath))
    mpath = tmp_path / "metadata.csv"
    write_metadata_csv(mpath, metas)
    return mpath, entries


def config_doc(mpath, entries, threshold_block="  target_rate: 2.0"):
    lines = [
        "target: S0",
        "threshold:",
        threshold_block,
        "independence:",
        "  min_gap_days: 10.0",
        "index_flood_method: gp-fit",
        "rescale: index",
        "sites:",
    ]
    for code, spath in entries:
        lines += [f"- code: {code}", f"  metadata: {mpath.name}", f"  series: {spath.name}"]
    return "\n".join(lines) + "\n"


def test_load_region_config_and_build(tmp_path):
    mpath, entries = region_files(tmp_path)
    cpath = tmp_path / "region.yaml"
    cpath.write_text(config_doc(mpath, entries))
    config = load_region_config(cpath)
    assert config.target == "S0"
    assert config.target_rate == 2.0
    assert config.rule.min_gap_days == 10.0
    assert config.rule.trough_fraction == IndependenceRule().trough_fraction
    assert [s.code for s in config.sites] == ["S0", "S1", "S2", "S3"]
    region = build_region(config)
    assert region.target == "S0"
    assert region.codes == ("S0", "S1", "S2", "S3")
    for site in region.sites:
        assert 1.4 <= site.pot.rate <= 2.6
        assert site.meta.area_km2 > 0
    assert (region.index_method, region.rescale) == ("gp-fit", "index")


def test_build_region_carries_the_index_flood_policy(tmp_path):
    mpath, entries = region_files(tmp_path)
    cpath = tmp_path / "region.yaml"
    cpath.write_text(
        config_doc(mpath, entries).replace(
            "index_flood_method: gp-fit\nrescale: index\n",
            "index_flood_method: empirical\nrescale: mean\n",
        )
    )
    region = build_region(load_region_config(cpath))
    assert (region.index_method, region.rescale) == ("empirical", "mean")


def test_region_config_per_site_thresholds(tmp_path):
    mpath, entries = region_files(tmp_path)
    block = "  per_site:\n" + "\n".join(
        f"    S{i}: {10.0 + 2.0 * i}" for i in range(4)
    )
    cpath = tmp_path / "region.yaml"
    cpath.write_text(config_doc(mpath, entries, threshold_block=block))
    config = load_region_config(cpath)
    assert config.target_rate is None
    assert config.sites[2].threshold == 14.0
    region = build_region(config)
    assert region.site("S2").pot.threshold == 14.0


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_region_config_rejects_a_non_finite_site_threshold_before_reading(
    tmp_path, monkeypatch, value
):
    mpath, entries = region_files(tmp_path)
    block = "  per_site:\n" + "\n".join(
        f"    S{i}: {value if i == 2 else 10.0 + 2.0 * i}" for i in range(4)
    )
    cpath = tmp_path / "region.yaml"
    cpath.write_text(config_doc(mpath, entries, threshold_block=block))
    opened = []
    monkeypatch.setattr(fileio, "read_series_csv", lambda path, **kw: opened.append(path))
    with pytest.raises(InputError, match=r"^region\.yaml: site S2: threshold must be finite"):
        build_region(load_region_config(cpath))
    assert opened == []


def test_region_config_errors(tmp_path):
    mpath, entries = region_files(tmp_path)
    cpath = tmp_path / "region.yaml"

    cpath.write_text(config_doc(mpath, entries).replace("target: S0", "target: S9"))
    with pytest.raises(InputError, match="S9"):
        load_region_config(cpath)

    cpath.write_text(config_doc(mpath, entries) + "mystery_key: 3\n")
    with pytest.raises(InputError, match="mystery_key"):
        load_region_config(cpath)

    doc = config_doc(mpath, entries).replace("series: S2.csv", "series: missing.csv")
    cpath.write_text(doc)
    with pytest.raises(InputError, match="missing.csv"):
        load_region_config(cpath)

    doc = config_doc(mpath, entries, threshold_block="  target_rate: 2.0\n  per_site: {S0: 1.0}")
    cpath.write_text(doc)
    with pytest.raises(InputError, match="exactly one"):
        load_region_config(cpath)


def test_region_config_round_trip(tmp_path):
    mpath, entries = region_files(tmp_path)
    config = RegionConfig(
        target="S1",
        sites=tuple(
            SiteEntry(code=code, metadata=mpath, series=spath)
            for code, spath in entries
        ),
        target_rate=2.0,
        rule=IndependenceRule(min_gap_days=7.0),
        index_method="gp-fit",
        rescale="index",
    )
    cpath = tmp_path / "region.yaml"
    write_region_config(cpath, config)
    back = load_region_config(cpath)
    assert back.target == "S1"
    assert back.target_rate == 2.0
    assert back.rule.min_gap_days == 7.0
    assert [s.code for s in back.sites] == [s.code for s in config.sites]
    assert [s.series for s in back.sites] == [s.series for s in config.sites]
    write_region_config(tmp_path / "again.yaml", back)
    assert (tmp_path / "again.yaml").read_bytes() == cpath.read_bytes()


def test_build_region_unknown_metadata_code(tmp_path):
    mpath, entries = region_files(tmp_path)
    bad = RegionConfig(
        target="S0",
        sites=(
            SiteEntry("S0", mpath, entries[0][1]),
            SiteEntry("S9", mpath, entries[1][1]),
        ),
        target_rate=2.0,
    )
    with pytest.raises(InputError, match="S9"):
        build_region(bad)
