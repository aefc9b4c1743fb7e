import math

import numpy as np
import pytest

from regflood.distributions import GpParams, gp_quantile, gp_sample
from regflood.errors import InputError
from regflood.indexflood import (
    StationMeta,
    at_site_index_flood,
    fit_area_regression,
    predict_index_flood,
)

from conftest import make_pot


def test_at_site_gp_fit_recovers_one_year_level():
    params = GpParams(5.0, 3.0, 0.1)
    # rate 2 / year: one-year level is the median event peak
    true_c = float(gp_quantile(params, 0.5))
    pot = make_pot(gp_sample(params, 8000, seed=3), 5.0, 4000.0)
    got = at_site_index_flood(pot)
    assert got.value == pytest.approx(true_c, rel=0.02)
    assert got.var_log > 0
    emp = at_site_index_flood(pot, method="empirical")
    assert emp.value == pytest.approx(true_c, rel=0.05)
    assert emp.var_log > 0


def test_at_site_variance_shrinks_with_record():
    params = GpParams(5.0, 3.0, 0.1)
    small = at_site_index_flood(make_pot(gp_sample(params, 40, seed=5), 5.0, 20.0))
    large = at_site_index_flood(make_pot(gp_sample(params, 400, seed=5), 5.0, 200.0))
    # the threshold-uncertainty floor stays; the fit part must shrink
    assert large.var_log < small.var_log


def test_at_site_requires_more_than_one_event_per_year():
    pot = make_pot([6.0, 7.0, 8.0, 9.0, 10.0], 5.0, 10.0)
    with pytest.raises(InputError):
        at_site_index_flood(pot)
    with pytest.raises(InputError):
        at_site_index_flood(make_pot([6.0] * 12, 5.0, 3.0), method="mystery")


def test_area_regression_exact_power_law():
    points = [(f"S{i}", a, 0.5 * a**1.2) for i, a in enumerate([30.0, 120.0, 480.0, 700.0])]
    reg = fit_area_regression(points)
    assert reg.a == pytest.approx(0.5, rel=1e-10)
    assert reg.b == pytest.approx(1.2, rel=1e-10)
    assert reg.s2 == pytest.approx(0.0, abs=1e-18)
    assert reg.r2 == pytest.approx(1.0)


def test_area_regression_hand_computed_case():
    points = [
        ("A", math.e**-1, math.e**1),
        ("B", 1.0, math.e**2),
        ("C", math.e, math.e**4),
    ]
    reg = fit_area_regression(points)
    assert reg.b == pytest.approx(1.5)
    assert reg.a == pytest.approx(math.exp(7.0 / 3.0))
    assert reg.s2 == pytest.approx(1.0 / 6.0)
    assert reg.sxx == pytest.approx(2.0)
    pred = predict_index_flood(reg, 1.0)
    assert pred.value == pytest.approx(math.exp(7.0 / 3.0))
    assert pred.var_log == pytest.approx((1.0 / 6.0) * (1.0 + 1.0 / 3.0))
    # the OLS variance of a new site's prediction, s2 (1 + 1/n + (z - z_bar)^2 / Sxx)
    far = predict_index_flood(reg, math.e**2)
    assert reg.mean_log_area == pytest.approx(0.0, abs=1e-15)
    assert far.var_log == pytest.approx((1.0 / 6.0) * (1.0 + 1.0 / 3.0 + 2.0**2 / 2.0))


def test_area_regression_exclude():
    points = [("A", 30.0, 4.0), ("B", 100.0, 11.0), ("C", 300.0, 40.0), ("D", 600.0, 70.0)]
    full = fit_area_regression(points)
    left_out = fit_area_regression(points, exclude="B")
    assert left_out.n == 3
    assert left_out.excluded == "B"
    assert "B" not in left_out.codes
    assert left_out.b != full.b
    with pytest.raises(InputError):
        fit_area_regression(points, exclude="Z")
    with pytest.raises(InputError):
        fit_area_regression(points[:2])
    with pytest.raises(InputError):
        fit_area_regression(points + [("A", 50.0, 5.0)])


def test_area_regression_synthetic_recovery():
    rng = np.random.default_rng(13)
    areas = np.exp(rng.uniform(np.log(30.0), np.log(800.0), size=14))
    c = 0.12 * areas**1.01 * np.exp(rng.normal(0.0, 0.15, size=14))
    reg = fit_area_regression([(f"S{i}", a, v) for i, (a, v) in enumerate(zip(areas, c))])
    assert reg.b == pytest.approx(1.01, abs=0.2)
    assert reg.r2 > 0.8
    # prediction variance is smallest at the centroid of the design
    v_mid = predict_index_flood(reg, math.exp(reg.mean_log_area)).var_log
    v_edge = predict_index_flood(reg, 5000.0).var_log
    assert v_mid < v_edge


def test_station_meta_validation():
    StationMeta("S1", "Somewhere", 100.0, 0.0, 0.0, 1970, 2003)
    with pytest.raises(InputError):
        StationMeta("", "X", 100.0, 0.0, 0.0, 1970, 2003)
    with pytest.raises(InputError):
        StationMeta("S1", "X", -5.0, 0.0, 0.0, 1970, 2003)
    with pytest.raises(InputError):
        StationMeta("S1", "X", 100.0, 0.0, 0.0, 2003, 1970)
