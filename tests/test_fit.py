import logging
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import gammaincinv
from scipy.stats import chi2

import regflood
from regflood import fit as fit_module
from regflood.cli import main
from regflood.distributions import (
    SHAPE_EPS,
    GpParams,
    _gp_loglik,
    gp_logpdf,
    gp_quantile,
    gp_sample,
)
from regflood.errors import FitError, InputError, InsufficientDataError
from regflood.fileio import read_pot_json
from regflood.fit import (
    _XI_MAX,
    _XI_MIN,
    GpFit,
    ProfileCi,
    _brent_bounded,
    _derivatives,
    _polish,
    _profile_grid,
    _profile_loglik,
    _profile_nll,
    _profile_search,
    gp_fit_mle,
    gp_fit_pwm,
    log_param_variances,
    profile_ci,
    quantile_variance,
    return_level,
)
from regflood.lmoments import gp_fit_lmom, sample_lmoments

from conftest import make_pot


def sample_pot(params, n, years, seed, threshold=None):
    threshold = params.location if threshold is None else threshold
    return make_pot(gp_sample(params, n, seed), threshold, years)


def test_mle_recovers_parameters():
    params = GpParams(1.0, 2.0, 0.15)
    pot = sample_pot(params, 20000, 10000.0, seed=1)
    fit = gp_fit_mle(pot)
    assert fit.params.location == 1.0
    assert fit.params.scale == pytest.approx(2.0, abs=0.06)
    assert fit.params.shape == pytest.approx(0.15, abs=0.03)
    assert fit.method == "mle" and not fit.boundary


@pytest.mark.parametrize("shape", [-0.25, 0.0, 0.3])
def test_mle_beats_pwm_loglik(shape):
    params = GpParams(2.0, 1.5, shape)
    pot = sample_pot(params, 150, 75.0, seed=shape.__hash__() % 1000)
    mle = gp_fit_mle(pot)
    pwm = gp_fit_pwm(pot)
    assert mle.loglik >= pwm.loglik - 1e-9


def test_mle_gradient_vanishes():
    pot = sample_pot(GpParams(0.0, 1.0, 0.1), 300, 150.0, seed=5)
    fit = gp_fit_mle(pot)
    s, xi = fit.params.scale, fit.params.shape
    y = pot.peaks / s
    t = 1.0 + xi * y
    d_scale = np.sum(-1.0 / s + (1.0 + xi) * y / (s * t))
    d_shape = np.sum(np.log(t) / xi**2 - (1.0 + 1.0 / xi) * y / t)
    assert abs(d_scale * s) < 1e-6
    assert abs(d_shape) < 1e-6


def test_mle_covariance_tracks_sampling_variance():
    params = GpParams(0.0, 1.0, 0.1)
    rng = np.random.default_rng(77)
    estimates = []
    reported = []
    for _ in range(200):
        pot = make_pot(gp_sample(params, 400, rng), 0.0, 200.0)
        fit = gp_fit_mle(pot)
        estimates.append([fit.params.scale, fit.params.shape])
        assert fit.covariance is not None
        reported.append(np.diag(fit.covariance))
    emp = np.var(np.asarray(estimates), axis=0)
    rep = np.mean(np.asarray(reported), axis=0)
    assert rep[0] == pytest.approx(emp[0], rel=0.35)
    assert rep[1] == pytest.approx(emp[1], rel=0.35)


@st.composite
def on_support_points(draw):
    """Random peaks above 0 and a (scale, shape) on their support, up to its edge."""
    peaks = gp_sample(
        GpParams(0.0, 1.0, draw(st.floats(-0.4, 0.6))),
        draw(st.integers(5, 60)),
        seed=draw(st.integers(0, 10_000)),
    )
    y_max = float(peaks.max())
    scale = draw(st.floats(0.05, 20.0))
    # the shape that leaves 1 + shape * y / scale = margin at the largest peak
    to_edge = st.floats(1e-4, 0.5).map(lambda m: -(1.0 - m) * scale / y_max)
    shape = draw(
        st.one_of(
            st.sampled_from([0.0, 1e-9, -1e-9]),
            st.floats(-1e-3, 1e-3),
            st.floats(-1.5, 3.0),
            to_edge,
        )
    )
    assume(1.0 + shape * y_max / scale >= 1e-4)
    return peaks, scale, shape


@settings(deadline=None, max_examples=300, derandomize=True)
@given(on_support_points())
def test_observed_information_matches_gradient_differences(point):
    x, scale, shape = point
    y_max = float(x.max()) / scale
    margin = 1.0 + min(shape, 0.0) * y_max

    def grad(s, k):
        g = _derivatives(x, s, k)[0]
        return np.array([g[0] / s, g[1]])

    def derivative(g, h):
        # five-point central difference; steps stay clear of the support edge
        return (8.0 * (g(h) - g(-h)) - (g(2.0 * h) - g(-2.0 * h))) / (12.0 * h)

    d_scale = derivative(lambda e: grad(scale + e, shape), 0.01 * margin * scale)
    d_shape = derivative(lambda e: grad(scale, shape + e), 0.01 * margin / y_max)
    # the mixed term comes from the scale gradient: the shape gradient's
    # closed form cancels to rounding noise at small shapes once some peak
    # has |shape * y| >= 1e-3
    numeric = np.array([[d_scale[0], d_shape[0]], [d_shape[0], d_shape[1]]])
    info = _derivatives(x, scale, shape)[1]
    assert info[0, 1] == info[1, 0]
    assert np.max(np.abs(info - numeric)) <= 2e-5 * np.max(np.abs(info))


def test_observed_information_is_continuous_where_the_series_takes_over():
    # one peak at y = 4: the shape-shape term switches from its Taylor
    # series to the closed form at shape * y = 1e-3
    x = np.array([4.0])
    for edge in (1e-3 / 4.0, -1e-3 / 4.0):
        below = _derivatives(x, 1.0, edge * (1.0 - 1e-9))[1]
        above = _derivatives(x, 1.0, edge * (1.0 + 1e-9))[1]
        np.testing.assert_allclose(below, above, rtol=1e-9)


@pytest.mark.parametrize("shape", [2e-8, 1e-7, 1e-6, 1e-5])
def test_shape_gradient_is_accurate_at_small_shapes(shape):
    # exponential peaks at scale 1; the reference is the gradient's
    # expansion in shape up to the shape**2 term
    y = gp_sample(GpParams(0.0, 1.0, 0.0), 50, seed=3)
    series = (
        np.sum(y - y * y / 2.0)
        + shape * np.sum(2.0 * y**3 / 3.0 - y * y)
        + shape**2 * np.sum(y**3 - 0.75 * y**4)
    )
    assert _derivatives(y, 1.0, shape)[0][1] == pytest.approx(series, rel=1e-9)


def test_mle_at_the_shape_bound_has_no_covariance():
    fit = gp_fit_mle(make_pot(np.linspace(1.0, 10.0, 12), 0.0, 6.0))
    assert fit.boundary and fit.params.shape == -0.99
    assert fit.covariance is None


# gp_fit_mle of seeded records as float.hex: scale, shape, log likelihood,
# boundary and the covariance's entries row by row (None without one)
_MLE_PINS = [
    pytest.param(
        lambda: sample_pot(GpParams(0.0, 2.0, 0.1), 5, 3.0, seed=3),
        ("0x1.234072f176be0p+0", "0x1.8265062519d72p-4", "-0x1.8778707cde11fp+2", False,
         ["0x1.670c6c6a99988p+0", "-0x1.f7b0f19601489p-1",
          "-0x1.f7b0f19601489p-1", "0x1.c54c41bc69b11p-1"]),
        id="5-peaks",
    ),
    pytest.param(
        lambda: sample_pot(GpParams(2.0, 1.0, 0.5), 8, 4.0, seed=11),
        ("0x1.fa5eca712664ap-3", "0x1.09ff0dfeed5f2p+0", "-0x1.488c8b2a9c876p+2", False,
         ["0x1.e9341b4e4c1a8p-6", "-0x1.d9073427263b1p-5",
          "-0x1.d9073427263b1p-5", "0x1.fe554d48a5ed6p-2"]),
        id="8-peaks",
    ),
    pytest.param(
        lambda: sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51),
        ("0x1.53e0b5a2acdd2p+1", "0x1.6087074bb5847p-2", "-0x1.577b4301b5024p+7", False,
         ["0x1.ed8e32f7de4e9p-3", "-0x1.5c5bf8547d637p-5",
          "-0x1.5c5bf8547d637p-5", "0x1.6cd9e42ee2df1p-6"]),
        id="74-peaks",
    ),
    pytest.param(
        lambda: make_pot(
            [100, 100, 110.3, 107.7, 113.0, 103.1, 130.0, 102.0, 113.5, 200.4, 121.0, 104.4],
            100.0,
            6.0,
        ),
        ("0x1.083f3e9236778p+3", "0x1.2f6d5df9fc879p-1", "-0x1.639017d93e450p+5", False,
         ["0x1.5db99ced295aap+4", "-0x1.8d0e1c95bf0e0p+0",
          "-0x1.8d0e1c95bf0e0p+0", "0x1.10df748eaad0ap-2"]),
        id="peaks-on-the-threshold",
    ),
    pytest.param(
        lambda: make_pot(np.linspace(1.0, 10.0, 12), 0.0, 6.0),
        ("0x1.3d129424e745ap+3", "-0x1.fae147ae147aep-1", "-0x1.bb17338cbcf18p+4", True, None),
        id="shape-bound",
    ),
    pytest.param(
        lambda: sample_pot(GpParams(0.0, 1.0, 0.7), 30, 15.0, seed=4),
        ("0x1.b789fb6cb4815p+0", "0x1.815862ea34583p-1", "-0x1.132e61691395dp+6", False,
         ["0x1.8da1dd36f482ap-2", "-0x1.01c22e4b1c0a4p-3",
          "-0x1.01c22e4b1c0a4p-3", "0x1.e0597c65dd6acp-4"]),
        id="heavy-tailed",
    ),
]


@pytest.mark.parametrize("record, expected", _MLE_PINS)
def test_mle_is_pinned(record, expected):
    # every float of these fits, bit for bit: the profile search's float
    # path and the certificate must not move them by an ulp
    fit = gp_fit_mle(record())
    scale, shape, loglik, boundary, covariance = expected
    assert fit.params.scale.hex() == scale
    assert float(fit.params.shape).hex() == shape
    assert float(fit.loglik).hex() == loglik
    assert fit.boundary is boundary
    if covariance is None:
        assert fit.covariance is None
    else:
        want = np.array([float.fromhex(h) for h in covariance]).reshape(2, 2)
        assert np.array_equal(fit.covariance, want)


@pytest.fixture(scope="module")
def seed17_pot(tmp_path_factory):
    """S0's record of the README session with simulate --seed 17."""
    d = tmp_path_factory.mktemp("seed17")
    assert main(["simulate", str(d / "region"), "--seed", "17"]) == 0
    out = d / "S0.pot.json"
    argv = ["extract", str(d / "region" / "S0.csv"), "--target-rate", "2", "--out", str(out)]
    assert main(argv) == 0
    return read_pot_json(out)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="every start lies off the support and the fit is the start with the least penalty",
)
def test_mle_stays_on_the_support(seed17_pot):
    # the fit's upper endpoint falls below the largest peak and its loglik
    # is the penalty value
    pot = seed17_pot
    fit = gp_fit_mle(pot)
    logpdf = gp_logpdf(fit.params, pot.peaks)
    assert np.all(np.isfinite(logpdf))
    assert fit.loglik == pytest.approx(float(np.sum(logpdf)), rel=1e-9)


def test_mle_off_the_support_is_logged(seed17_pot, caplog):
    with caplog.at_level(logging.WARNING, logger="regflood"):
        fit = gp_fit_mle(seed17_pot)
    assert fit.loglik < -1e9
    (record,) = [r for r in caplog.records if r.name == "regflood"]
    assert record.levelno == logging.WARNING
    assert f"MLE of {seed17_pot.peaks.size} events at station S0 lies off" in record.getMessage()
    assert "not usable" in record.getMessage()


def test_mle_off_the_support_is_the_lbfgsb_fit(seed17_pot):
    # every start of the former search lay off the support, where its
    # penalty has no slope; the start with the least penalty is kept as is
    params, loglik, boundary, has_cov = _lbfgsb_fit(seed17_pot)
    fit = gp_fit_mle(seed17_pot)
    assert (fit.params.scale, fit.params.shape) == params
    assert fit.loglik == loglik < -1e9
    assert fit.boundary == boundary and fit.covariance is None and not has_cov


def test_mle_restarts_inside_the_support():
    # the README region's (simulate --seed 11) 5-year evaluation window: the
    # PWM shape is -1.13, so the former quasi-Newton search's first run ended
    # on the penalty and a restart inside the support found this fit, which
    # the profile search finds at once
    peaks = [183.246, 142.167, 179.789, 310.593, 215.606, 178.539, 194.295,
             221.711, 154.927, 240.689, 215.607]
    fit = gp_fit_mle(make_pot(peaks, 122.636, 5.0))
    assert fit.params.scale == pytest.approx(136.335, rel=1e-5)
    assert fit.params.shape == pytest.approx(-0.68674, abs=1e-5)
    assert fit.loglik == pytest.approx(-57.5121, abs=1e-4)
    assert not fit.boundary
    assert fit.covariance is not None


# the 11-event window above, unrounded, and its PWM start
WINDOW_PEAKS = np.array([
    183.24599697538582, 142.16650674105517, 179.7894729161803, 310.5933438317312,
    215.60570697737492, 178.53942577684674, 194.294639228944, 221.71115141640075,
    154.92669436657536, 240.68932865528143, 215.607249441527,
])


def test_polish_never_raises_the_objective():
    # the point where the former search left this window (nll 59.2187):
    # accepting every Newton step that lowered the gradient norm walked on
    # to the shape bound 5.0 at nll 70.930; the Newton step from here
    # raises the nll, so it is refused and the point is not certified
    u = 122.63573355951273
    z0 = np.array([5.329839925180566, -0.904206599415566])
    assert math.exp(z0[0]) == pytest.approx(206.405, rel=1e-5)
    assert _former_nll_grad(z0, WINDOW_PEAKS, u)[0] == pytest.approx(59.2187, abs=1e-4)
    with pytest.raises(FitError, match="MLE did not converge"):
        _polish(z0, WINDOW_PEAKS, u)


def test_mle_never_calls_minimize(seed17_pot, monkeypatch):
    # scipy's L-BFGS-B solves with nrhs >= 2 in OpenBLAS, which wakes that
    # library's thread pool after every fit; the profile search uses
    # bounded Brent alone
    def refuse(*args, **kwargs):
        raise AssertionError("gp_fit_mle called scipy.optimize.minimize")

    monkeypatch.setattr(optimize, "minimize", refuse)
    assert not gp_fit_mle(sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51)).boundary
    assert gp_fit_mle(make_pot(np.linspace(1.0, 10.0, 12), 0.0, 6.0)).boundary
    assert gp_fit_mle(seed17_pot).loglik < -1e9


def test_library_never_imports_scipy_optimize():
    # bounded Brent is the package's own; scipy serves only special functions
    script = "import sys, regflood, regflood.cli; print('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(regflood.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def _brent_objective(kind, c, width, k=1.0, wall=math.nan, above=True):
    """An objective with its features at c on the scale ``width``."""
    if kind == "smooth":
        return lambda x: (x - c) * (x - c) + 0.5
    if kind == "multimodal":
        return lambda x: math.sin(k * (x - c) / width) + 0.1 * (x - c) / width
    if kind == "constant":
        return lambda x: 2.5
    if kind == "staircase":  # exact ties, and parabolas with their vertex on a point
        return lambda x: float(round(k * (x - c) / width) ** 2)
    if kind == "v":
        return lambda x: abs(x - c)
    # 1e12, inf or nan on one side of c
    return lambda x: wall if (x > c) == above else math.cos((x - c) / width)


@st.composite
def brent_problems(draw):
    """An objective, a bracket and xatol for bounded Brent.

    Brackets are up to 10 wide or as narrow as 1e-13, some with an end at
    0 as ``_profile_search`` poses them, and some as wide as 1e300 on
    either side, which use up the cap of 500 evaluations.  Objectives are
    smooth, multimodal, constant, staircases or |x - c|, or return 1e12,
    inf or nan beyond a point c.
    """
    width = 10.0 ** draw(st.floats(-13.0, 1.0))
    lo = draw(st.one_of(st.sampled_from([0.0, -width]), st.floats(-40.0, 40.0)))
    hi = lo + width
    if draw(st.integers(0, 9)) == 0:
        lo, hi = -(10.0 ** draw(st.floats(100.0, 300.0))), 10.0 ** draw(st.floats(100.0, 300.0))
        width = hi - lo
    c = lo + draw(st.floats(-0.5, 1.5)) * width
    kind = draw(st.sampled_from(["smooth", "multimodal", "constant", "staircase", "v", "wall"]))
    f = _brent_objective(
        kind,
        c,
        width,
        k=draw(st.sampled_from([1.0, 2.0, 3.0, 8.0, 16.0, 37.5])),
        wall=draw(st.sampled_from([1e12, math.inf, math.nan])),
        above=draw(st.booleans()),
    )
    return f, lo, hi, draw(st.sampled_from([1e-8, 1e-12]))


@settings(deadline=None, max_examples=1000, derandomize=True)
@given(brent_problems())
# a parabolic step of exactly 0, which scipy takes upwards
@example((_brent_objective("staircase", -0.0001622827269165387, 0.000343142541803026, k=8.0),
          -0.000343142541803026, 0.0, 1e-12))
# a bracket so wide that the search stops at the cap
@example((_brent_objective("v", 0.1, 2e300), -1e300, 1e300, 1e-12))
def test_brent_bounded_is_scipys_bounded_brent(problem):
    f, lo, hi, xatol = problem

    def counted(calls):
        def g(x):
            calls.append(x)
            return f(x)
        return g

    ours, theirs = [], []
    x, fx = _brent_bounded(counted(ours), lo, hi, xatol)
    with np.errstate(all="ignore"):  # scipy's numpy scalars warn on inf - inf
        res = optimize.minimize_scalar(counted(theirs), bounds=(lo, hi), method="bounded",
                                       options={"xatol": xatol})
    # the same points in the same order, and the same best point and value
    # to the bit, nan and the sign of zero included
    assert [float(v).hex() for v in ours] == [float(v).hex() for v in theirs]
    assert float(x).hex() == float(res.x).hex()
    assert float(fx).hex() == float(res.fun).hex()
    assert len(ours) == res.nfev


def _former_nll_grad(z: np.ndarray, x: np.ndarray, u: float):
    """The former search's objective in (log scale, shape): the negative log
    likelihood and its score, or off the support a penalty of 1e10 times one
    plus the peaks' total overshoot, with zero gradient."""
    sigma = math.exp(z[0])
    d = x - u
    f = -_gp_loglik(d, float(d.min()), float(d.max()), sigma, float(z[1]))
    y = d / sigma
    if f == math.inf:
        return 1e10 * (1.0 + float(np.sum(np.maximum(-(1.0 + z[1] * y), 0.0)))), np.zeros(2)
    return f, _derivatives(d, sigma, z[1])[0]


def _former_polish(z: np.ndarray, x: np.ndarray, u: float):
    """The former Newton polish: up to 40 projected Newton steps, each with up
    to 30 halvings, until the projected gradient is certifiably small.

    Returns (log scale, shape) and the objective there; raises gp_fit_mle's
    FitError when the gradient cannot be certified.
    """

    def proj_grad(zv, g):
        g = np.asarray(g, dtype=float).copy()
        if (zv[1] <= _XI_MIN + 1e-9 and g[1] > 0.0) or (zv[1] >= _XI_MAX - 1e-9 and g[1] < 0.0):
            g[1] = 0.0
        return g

    f_val, g_full = _former_nll_grad(z, x, u)
    tol = 1e-8 * max(1.0, abs(f_val))
    for _ in range(40):
        g_proj = proj_grad(z, g_full)
        g_norm = float(np.max(np.abs(g_proj)))
        if g_norm <= tol:
            break
        work = [0] if g_proj[1] == 0.0 and g_full[1] != 0.0 else [0, 1]
        # chain rule from (scale, shape) to (log scale, shape)
        sigma = math.exp(z[0])
        hess = _derivatives(x - u, sigma, z[1])[1] * np.outer([sigma, 1.0], [sigma, 1.0])
        hess[0, 0] += g_full[0]
        try:
            step = np.linalg.solve(hess[np.ix_(work, work)], -g_proj[work])
        except np.linalg.LinAlgError:
            break
        norm = float(np.max(np.abs(step)))
        if norm > 10.0:  # near-singular hessians propose absurd steps
            step *= 10.0 / norm
        scale = 1.0
        for _ in range(30):
            z_try = z.copy()
            z_try[work] = z[work] + scale * step
            z_try[1] = float(np.clip(z_try[1], _XI_MIN, _XI_MAX))
            f_try, g_try = _former_nll_grad(z_try, x, u)
            # a step must lower the gradient norm without raising the
            # objective beyond rounding
            if (
                f_try < 1e9
                and f_try <= f_val + 1e-12 * max(1.0, abs(f_val))
                and float(np.max(np.abs(proj_grad(z_try, g_try)))) < g_norm
            ):
                z, f_val, g_full = z_try, f_try, g_try
                break
            scale *= 0.5
        else:
            break
    g_final = float(np.max(np.abs(proj_grad(z, g_full))))
    if g_final > max(tol, 1e-6):
        raise FitError(f"MLE did not converge (gradient norm {g_final:.2e})")
    return z, f_val


def _lbfgsb_search_from(s0: float, xi0: float, x: np.ndarray, u: float):
    """Newton-polished best L-BFGS-B optimum from five starts around (s0, xi0).

    Returns (log scale, shape) and the negative log likelihood there;
    raises FitError when the polish cannot certify it.
    """
    z0 = np.array([math.log(s0), xi0])
    bounds = [(z0[0] - 12.0, z0[0] + 12.0), (_XI_MIN, _XI_MAX)]
    delta = max(0.2 * abs(xi0), 0.1)
    starts = []
    for fs, fx in ((1.0, 0.0), (0.8, -delta), (1.2, delta), (0.8, delta), (1.2, -delta)):
        z = z0.copy()
        z[0] += math.log(fs)
        z[1] = float(np.clip(z[1] + fx, _XI_MIN + 0.01, _XI_MAX - 0.01))
        starts.append(z)

    best = None
    for z in starts:
        res = optimize.minimize(
            _former_nll_grad,
            z,
            args=(x, u),
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": 300, "ftol": 1e-14, "gtol": 1e-10},
        )
        if best is None or res.fun < best.fun:
            best = res
    return _former_polish(np.asarray(best.x, dtype=float), x, u)


def _lbfgsb_fit(pot):
    """The MLE as the multi-start L-BFGS-B search with its restart found it.

    Returns (scale, shape), the log likelihood, the ``boundary`` flag and
    whether a covariance exists; raises the FitError that search raised.
    """
    x, u = pot.peaks, pot.threshold
    try:
        start = gp_fit_lmom(sample_lmoments(x), location=u)
        s0, xi0 = start.scale, start.shape
    except FitError:
        s0, xi0 = float(np.mean(x - u)), 0.5
    try:
        z, f_val = _lbfgsb_search_from(s0, xi0, x, u)
    except FitError:
        s_on = max(s0, 1.1 * abs(xi0) * float(np.max(x) - u))
        z, f_val = _lbfgsb_search_from(s_on, max(xi0, -0.98), x, u)
    has_cov = False
    if f_val < 1e9:
        info = _derivatives(x - u, math.exp(z[0]), float(z[1]))[1]
        det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
        has_cov = bool(info[0, 0] > 0.0 and det > 0.0)
    boundary = bool(z[1] <= _XI_MIN + 1e-9 or z[1] >= _XI_MAX - 1e-9)
    return (math.exp(z[0]), float(z[1])), -f_val, boundary, has_cov


@st.composite
def short_records(draw):
    """GP records of 5 to 120 events, some rounded to one decimal (ties)."""
    u = draw(st.floats(-5.0, 100.0))
    params = GpParams(u, draw(st.floats(0.5, 50.0)), draw(st.floats(-0.7, 0.8)))
    n = draw(st.integers(5, 120))
    x = gp_sample(params, n, seed=draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        x = np.maximum(np.round(x, 1), u)
    return make_pot(x, u, n / 2.0)


def _stationary(fit, pot):
    """Whether the (projected) likelihood gradient vanishes at the fit."""
    g = _derivatives(pot.peaks - pot.threshold, fit.params.scale, fit.params.shape)[0]
    if fit.boundary:
        g = g[:1]
    return float(np.max(np.abs(g))) <= 1e-6 * max(1.0, abs(fit.loglik))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(pot=short_records())
@example(pot=make_pot([1.0, 0.3, 0.0, 0.0, 1.7], 0.0, 2.5))
def test_mle_matches_the_lbfgsb_search(pot):
    try:
        params, loglik, boundary, has_cov = _lbfgsb_fit(pot)
    except FitError:
        # the quasi-Newton search could not certify its optimum; peaks on
        # the threshold leave the likelihood unbounded at the shape bound 5,
        # and the profile search certifies the fit at the bound -0.99
        try:
            fit = gp_fit_mle(pot)
        except FitError:
            return
        assert fit.boundary and _stationary(fit, pot)
        return
    fit = gp_fit_mle(pot)
    got = (fit.params.scale, fit.params.shape)
    if loglik < -1e9:  # off the support: the start with the least penalty
        assert got == params and fit.loglik == loglik
        assert not fit.boundary and fit.covariance is None
        return
    assert fit.loglik < -1e9 or _stationary(fit, pot)
    if fit.boundary != boundary:
        # the quasi-Newton search, run from around the PWM estimate, ended
        # on the shape bound though an interior stationary point exists, or
        # in a pocket of the profile too shallow for the grid; see
        # test_mle_prefers_an_interior_stationary_point
        assert boundary or fit.loglik > loglik
        return
    assert (fit.covariance is not None) == has_cov
    assert fit.params.scale == pytest.approx(params[0], rel=1e-6)
    assert fit.params.shape == pytest.approx(params[1], abs=1e-6 * max(1.0, abs(params[1])))
    assert fit.loglik >= loglik - 1e-9


@settings(deadline=None, max_examples=300, derandomize=True)
@given(pot=short_records())
def test_polish_is_the_former_polish(pot):
    # from the profile search's optimum the former 40-step polish takes no
    # Newton step or one full step, which is all the one-step polish takes
    x, u = pot.peaks, pot.threshold
    assume(np.ptp(x) > 0.0)
    z0 = _profile_search(x, u)

    def outcome(polish):
        try:
            z, f_val = polish(z0.copy(), x, u)[:2]
        except FitError as exc:
            return str(exc)
        return z.tolist(), f_val

    assert outcome(_polish) == outcome(_former_polish)


def _covariance_from(info: np.ndarray) -> np.ndarray:
    """The inverse of a 2 x 2 information matrix as gp_fit_mle forms it."""
    det = info[0, 0] * info[1, 1] - info[0, 1] ** 2
    return np.array([[info[1, 1], -info[0, 1]], [-info[0, 1], info[0, 0]]]) / det


@pytest.mark.parametrize("pot, steps", [
    # certified where the profile search left it
    (sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51), False),
    # a short_records draw (unrounded) on which the certificate takes its Newton step
    (make_pot(gp_sample(GpParams(28.3, 20.4, -0.7), 116, seed=791), 28.3, 58.0), True),
], ids=["no-step", "newton-step"])
def test_covariance_is_the_inverse_information_at_the_certified_point(pot, steps):
    x, u = pot.peaks, pot.threshold
    z0 = _profile_search(x, u)
    z = _polish(z0.copy(), x, u)[0]
    assert (z.tolist() != z0.tolist()) == steps
    fit = gp_fit_mle(pot)
    info = _derivatives(x - u, fit.params.scale, fit.params.shape)[1]
    assert fit.covariance.tobytes() == _covariance_from(info).tobytes()
    if steps:
        # the information before the step gives another covariance
        before = _derivatives(x - u, math.exp(z0[0]), float(z0[1]))[1]
        assert _covariance_from(before).tobytes() != fit.covariance.tobytes()


def test_mle_prefers_an_interior_stationary_point():
    # twelve peaks whose likelihood is higher on the shape bound -0.99 than
    # at its one interior stationary point; the quasi-Newton search stopped
    # on the bound, the MLE is the interior point (Smith 1985)
    pot = sample_pot(GpParams(10.0, 5.0, -0.3), 12, 6.0, seed=232)
    params, loglik, boundary, has_cov = _lbfgsb_fit(pot)
    assert boundary and params[1] == -0.99
    fit = gp_fit_mle(pot)
    assert not fit.boundary and fit.covariance is not None
    assert fit.params.shape == pytest.approx(-0.81236, abs=1e-5)
    assert loglik - fit.loglik == pytest.approx(0.0119, abs=1e-4)
    assert _stationary(fit, pot)


def test_mle_errors():
    with pytest.raises(InsufficientDataError):
        gp_fit_mle(make_pot([1.1, 1.2, 1.3], 1.0, 2.0))
    with pytest.raises(FitError):
        gp_fit_mle(make_pot([2.0] * 10, 1.0, 5.0))


def test_mle_names_peaks_on_the_threshold_when_the_likelihood_is_unbounded():
    # 4 of 12 peaks on the threshold: at the shape bound 5, log L grows as
    # (1.2 * 8 - 12) * log(scale) while the scale falls to 0
    peaks = [100, 100, 100, 100, 110.3, 107.7, 113.0, 103.1, 130.0, 102.0, 113.5, 200.4]
    pot = make_pot(peaks, 100.0, 6.0)
    z = _profile_search(pot.peaks, pot.threshold)
    assert z[1] == 5.0 and math.exp(z[0]) < 1e-13
    with pytest.raises(FitError) as exc:
        gp_fit_mle(pot)
    assert str(exc.value) == (
        "MLE did not converge (gradient norm 2.40e+00): 4 of 12 peaks lie on "
        "the threshold, so at the shape bound 5 the likelihood grows without "
        "limit as the scale falls to 0 and has no maximum"
    )


def _grimshaw_extension():
    """The points _profile_search adds while a profile still falls at the
    grid's end, round by round until 36.8."""
    grid = fit_module._GRIMSHAW_GRID
    while grid[-1] < 36.8:
        grid = np.append(grid, grid[-1] + 0.25 * np.arange(1, 41))
    return grid[fit_module._GRIMSHAW_GRID.size:].tolist()


@st.composite
def grimshaw_points(draw):
    """Peaks above 0 and a v = log(1 + max(y) * shape / scale) of Grimshaw's
    search: 0 (theta = 0, the exponential law), -30 (the largest peak
    pulls the mean log below -0.99 on 25 peaks or fewer, so the shape is
    clipped there), 36.8 (the grid's far end, clipped at 5), a point of the
    grid or of its extension, a v within 1e-9 of 0 (theta != 0, but the
    shape within SHAPE_EPS of 0), or anywhere between.  A v that Brent
    steps to, a grid point plus an offset, is 0 or at least 2**-57 in size
    (the ulp of -0.037, the grid point nearest 0), so none is drawn below
    that: the array form computes 1 / shape on every point, which
    overflows with a warning for a shape below about 1e-308."""
    y = gp_sample(
        GpParams(0.0, draw(st.floats(0.1, 50.0)), draw(st.floats(-0.45, 0.7))),
        draw(st.integers(5, 25)),
        seed=draw(st.integers(0, 10_000)),
    )
    v = draw(
        st.one_of(
            st.sampled_from(["exponential", "lower", "upper"]),
            st.sampled_from(fit_module._GRIMSHAW_GRID.tolist()),
            st.sampled_from(_grimshaw_extension()),
            st.floats(2.0**-57, 1e-9),
            st.floats(-1e-9, -(2.0**-57)),
            st.floats(-30.0, 39.25).filter(lambda v: v == 0.0 or abs(v) >= 2.0**-57),
        )
    )
    return y, v


@settings(deadline=None, max_examples=600, derandomize=True)
@given(grimshaw_points())
# five peaks, four on the threshold: the mean log underflows to a shape of
# 0 while theta is 5e-324, so the scale is 0 and the profile nan
@example((np.array([0.0, 0.0, 0.0, 0.0, 1.0]), 5e-324))
@example((np.array([0.0, 0.0, 0.0, 0.0, 0.5]), -5e-324))
def test_profile_nll_float_path_is_the_array_path_bit_for_bit(point):
    # the float path branches in Python where the array form branches in
    # numpy; every float it returns is the array form's, nan matching nan
    y, v = point
    value = {"exponential": 0.0, "lower": -30.0, "upper": 36.8}.get(v, v)
    y_max, y_sum = float(y.max()), float(y.sum())
    got = _profile_nll(value, y, y_max, y_sum)
    want = _profile_nll(np.array([value]), y, y_max, y_sum)
    assert [type(a) for a in got] == [float] * 3
    assert [a.hex() for a in got] == [float(b[0]).hex() for b in want]
    nll, sigma, xi = got
    if isinstance(v, str) or not 0.0 < abs(v) < 2.0**-57:
        # every drawn point has a finite profile; the explicit examples above
        # are the nan ones
        assert math.isfinite(nll) and sigma > 0.0
    if v == "exponential":
        assert xi == 0.0 and sigma == y_sum / y.size
    elif v == "lower":
        assert xi == _XI_MIN
    elif v == "upper":
        assert xi == _XI_MAX


def test_pwm_fit_matches_direct_formula():
    pot = sample_pot(GpParams(1.0, 2.0, 0.2), 80, 40.0, seed=21)
    fit = gp_fit_pwm(pot)
    lm = sample_lmoments(pot.peaks)
    shape = 2.0 - (lm.l1 - 1.0) / lm.l2
    assert fit.params.shape == pytest.approx(shape, rel=1e-12)
    assert fit.params.scale == pytest.approx((lm.l1 - 1.0) * (1.0 - shape), rel=1e-12)
    assert fit.covariance.shape == (2, 2)
    assert fit.covariance[0, 1] == fit.covariance[1, 0]


def test_pwm_asymptotic_covariance_calibrated():
    params = GpParams(0.0, 1.0, 0.1)
    rng = np.random.default_rng(11)
    ests = []
    rep = None
    for _ in range(400):
        fit = gp_fit_pwm(make_pot(gp_sample(params, 2000, rng), 0.0, 1000.0))
        ests.append([fit.params.scale, fit.params.shape])
        rep = fit.covariance
    emp = np.var(np.asarray(ests), axis=0)
    # covariance reported for n = 2000 should match the spread across fits
    assert np.diag(rep)[0] == pytest.approx(emp[0], rel=0.35)
    assert np.diag(rep)[1] == pytest.approx(emp[1], rel=0.35)


def test_pwm_bootstrap_for_heavy_shapes():
    pot = sample_pot(GpParams(0.0, 1.0, 0.6), 400, 200.0, seed=31)
    fit = gp_fit_pwm(pot)
    assert fit.params.shape > 0.4
    assert fit.covariance is not None
    assert np.all(np.diag(fit.covariance) > 0)
    again = gp_fit_pwm(pot)
    assert np.array_equal(fit.covariance, again.covariance)


def _bootstrap_by_loop(pot, variant):
    """gp_fit_pwm's bootstrap one resample at a time: the reference.

    Returns the covariance and the messages of the skipped resamples.
    """
    rng = np.random.default_rng(0)
    draws, skipped = [], []
    for _ in range(500):
        resample = rng.choice(pot.peaks, size=pot.peaks.size, replace=True)
        try:
            p = gp_fit_lmom(sample_lmoments(resample, variant), location=pot.threshold)
        except (FitError, InputError) as exc:
            skipped.append(str(exc))
            continue
        draws.append((p.scale, p.shape))
    covariance = np.cov(np.asarray(draws).T) if len(draws) >= 250 else None
    return covariance, skipped


def _assert_bootstrap_equals_loop(pot, variant):
    fit = gp_fit_pwm(pot, variant)
    assert fit.params.shape > 0.4
    expected, skipped = _bootstrap_by_loop(pot, variant)
    if expected is None:
        assert fit.covariance is None
    else:
        assert np.array_equal(fit.covariance, expected)
    return skipped


@st.composite
def heavy_pots(draw):
    n = draw(st.integers(5, 40))
    shape = draw(st.floats(0.5, 0.95))
    seed = draw(st.integers(0, 2**32 - 1))
    decimals = draw(st.sampled_from([None, 0, 1]))
    x = gp_sample(GpParams(1.0, 1.0, shape), n, seed)
    if decimals is not None:  # ties make constant and degenerate resamples
        x = np.maximum(np.round(x, decimals), 1.0)
    return make_pot(x, 1.0, n / 2.0)


@settings(deadline=None, max_examples=150, derandomize=True)
@given(pot=heavy_pots(), variant=st.sampled_from(["unbiased", "biased"]))
def test_pwm_bootstrap_equals_the_per_resample_loop(pot, variant):
    try:
        fit = gp_fit_pwm(pot, variant)
    except FitError:
        assume(False)
    assume(fit.params.shape > 0.4)
    _assert_bootstrap_equals_loop(pot, variant)


@pytest.mark.parametrize(
    "peaks, threshold, variant, reason",
    [
        # four equal peaks make a third of the resamples constant; biased
        # PWMs give those an l2 of 0.3 / n of their value, not 0
        ([1.1, 1.1, 1.1, 1.1, 9.0], 1.0, "biased", "constant sample"),
        # peaks a few ulps apart: l2 of some resamples rounds to 0, and their
        # mean to the threshold, though they are not constant
        ([1e17 + 32.0 * k for k in (0, 0, 0, 1, 2, 7)], 1e17, "unbiased", "zero L-scale"),
        # one peak far above the rest: some resamples imply a shape >= 1
        ([1.0, 1.1, 1.2, 1.5, 30.0], 1.0, "unbiased", "implied shape"),
    ],
)
def test_pwm_bootstrap_skips_what_the_loop_skips(peaks, threshold, variant, reason):
    skipped = _assert_bootstrap_equals_loop(make_pot(peaks, threshold, 4.0), variant)
    assert any(msg.startswith(reason) for msg in skipped)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99])
def test_profile_cutoff_is_the_chi2_quantile(level):
    # profile_ci's cutoff expression against scipy.stats
    assert float(2.0 * gammaincinv(0.5, level)) == float(chi2.ppf(level, 1))


def test_return_level_probability_mapping():
    params = GpParams(10.0, 5.0, 0.1)
    # two events per year: T = 10 years -> non-exceedance 0.95
    assert return_level(params, 2.0, 10.0) == pytest.approx(
        float(gp_quantile(params, 0.95)), rel=1e-14
    )
    assert return_level(params, 2.0, 1.0) == pytest.approx(
        float(gp_quantile(params, 0.5)), rel=1e-14
    )
    with pytest.raises(InputError):
        return_level(params, 2.0, 0.5)
    with pytest.raises(InputError):
        return_level(params, 0.0, 10.0)


def test_quantile_variance_grows_with_period_and_covers_the_truth():
    pot = sample_pot(GpParams(10.0, 5.0, 0.12), 74, 37.0, seed=19)
    fit = gp_fit_mle(pot)
    # longer horizons extrapolate further and are more uncertain
    assert quantile_variance(fit, pot.rate, 20.0) > quantile_variance(fit, pot.rate, 5.0)
    # calibration: the asymptotic band should cover the truth most of the time
    params = GpParams(10.0, 5.0, 0.1)
    truth = return_level(params, 2.0, 10.0)
    hits = 0
    for seed in range(60):
        p = sample_pot(params, 120, 60.0, seed=300 + seed)
        f = gp_fit_mle(p)
        q = return_level(f.params, p.rate, 10.0)
        half = 1.6449 * np.sqrt(quantile_variance(f, p.rate, 10.0))
        hits += q - half <= truth <= q + half
    assert hits >= 48
    with pytest.raises(InputError):
        quantile_variance(fit, pot.rate, 0.1)


def test_log_param_variances():
    pot = sample_pot(GpParams(1.0, 2.0, 0.1), 500, 250.0, seed=41)
    fit = gp_fit_mle(pot)
    v_mu, v_sigma, v_shape = log_param_variances(fit)
    assert v_mu == pytest.approx(0.01)
    assert v_sigma == pytest.approx(fit.covariance[0, 0] / fit.params.scale**2)
    assert v_shape == pytest.approx(fit.covariance[1, 1])
    bare = fit.__class__(
        params=fit.params,
        covariance=None,
        loglik=fit.loglik,
        method="mle",
        n=fit.n,
    )
    with pytest.raises(FitError):
        log_param_variances(bare)


def test_profile_ci_brackets_estimate():
    params = GpParams(5.0, 3.0, 0.1)
    pot = sample_pot(params, 74, 37.0, seed=51)
    fit = gp_fit_mle(pot)
    q10 = return_level(fit.params, pot.rate, 10.0)
    ci = profile_ci(pot, 10.0)
    assert not ci.lower_unbounded and not ci.upper_unbounded
    assert ci.lower < q10 < ci.upper
    # asymmetry: heavy right tail stretches the upper arm
    assert ci.upper - q10 > q10 - ci.lower


def test_profile_ci_reuses_the_callers_fit(fit_calls):
    pot = sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51)
    fit = gp_fit_mle(pot)
    fitted_here = profile_ci(pot, 10.0)
    assert len(fit_calls) == 1
    assert profile_ci(pot, 10.0, fit=fit) == fitted_here
    assert len(fit_calls) == 1


def test_profile_ci_rejects_a_fit_of_another_kind():
    pot = sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51)
    with pytest.raises(InputError):
        profile_ci(pot, 10.0, fit=gp_fit_pwm(pot))
    shorter = make_pot(pot.peaks[:-1], pot.threshold, pot.record_years)
    with pytest.raises(InputError):
        profile_ci(pot, 10.0, fit=gp_fit_mle(shorter))


def test_profile_ci_narrows_with_record_length():
    params = GpParams(5.0, 3.0, 0.1)
    short = profile_ci(sample_pot(params, 40, 20.0, seed=61), 10.0)
    long = profile_ci(sample_pot(params, 400, 200.0, seed=61), 10.0)
    assert (long.upper - long.lower) < (short.upper - short.lower)


def test_profile_ci_coverage():
    params = GpParams(5.0, 3.0, 0.1)
    true_q10 = float(gp_quantile(params, 0.95))
    rng = np.random.default_rng(71)
    hits = 0
    for _ in range(30):
        pot = make_pot(gp_sample(params, 74, rng), 5.0, 37.0)
        ci = profile_ci(pot, 10.0)
        if ci.lower <= true_q10 <= ci.upper:
            hits += 1
    assert hits >= 22  # 90% nominal; binomial slack for 30 draws


def _oracle_scale(pot, p, q, xi):
    """The scale that puts the p-quantile at q for shape xi."""
    u = pot.threshold
    # Brent passes numpy scalars, which warn where a scale overflows to inf
    with np.errstate(over="ignore"):
        if abs(xi) < SHAPE_EPS:
            return (q - u) / (-math.log1p(-p))
        return (q - u) * xi / (math.expm1(-xi * math.log1p(-p)))


def _oracle_neg_ll(pot, p, q, xi):
    """The profile's negative log likelihood at one shape, from gp_logpdf."""
    s = _oracle_scale(pot, p, q, xi)
    if s <= 0 or not math.isfinite(s):
        return 1e12
    val = float(np.sum(gp_logpdf(GpParams(pot.threshold, s, xi), pot.peaks)))
    return -val if math.isfinite(val) else 1e12


def _kernel_neg_ll(pot, p, q, xi):
    """The profile's negative log likelihood at one shape, from _gp_loglik."""
    s = _oracle_scale(pot, p, q, xi)
    if s <= 0 or not math.isfinite(s):
        return 1e12
    d = pot.peaks - pot.threshold
    val = _gp_loglik(d, float(d.min()), float(d.max()), s, xi)
    return -val if math.isfinite(val) else 1e12


def _oracle_profile_loglik(pot, p, q, neg_ll=_oracle_neg_ll):
    """The profile as it was computed before its vectorized form: one
    ``neg_ll`` call (gp_logpdf's by default) per grid shape and per step of
    scipy's bounded Brent."""
    grid = np.linspace(-0.99, 2.0, 31)
    values = [neg_ll(pot, p, q, float(g)) for g in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, grid.size - 1)]
    res = optimize.minimize_scalar(
        lambda xi: neg_ll(pot, p, q, float(xi)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-8},
    )
    return -min(float(res.fun), values[i])


@st.composite
def profile_points(draw):
    """Random peaks, a quantile level and a quantile q, plus a shape.

    q is near the true quantile (an interior optimum), far from it (an
    optimum at an end of the grid, where the grid's own value is returned),
    puts the largest peak at a negative grid shape's endpoint (to the last
    ulp), or makes every scale non-positive or overflow to inf.
    """
    u = draw(st.floats(-10.0, 100.0))
    params = GpParams(u, draw(st.floats(0.1, 50.0)), draw(st.floats(-0.45, 0.7)))
    n = draw(st.integers(5, 80))
    pot = make_pot(gp_sample(params, n, seed=draw(st.integers(0, 10_000))), u, n / 2.0)
    p = 1.0 - 1.0 / draw(st.sampled_from([1.5, 2.0, 10.0, 20.0, 100.0, 1000.0]))
    log_p = math.log1p(-p)
    # for a negative shape xi, this q puts the endpoint at the largest peak
    d_max = float(pot.peaks.max()) - u
    edge = st.sampled_from(fit_module._PROFILE_GRID[:10].tolist()).map(
        lambda xi: u - d_max * math.expm1(-xi * log_p)
    )
    q = draw(
        st.one_of(
            st.one_of(st.floats(0.5, 2.0), st.sampled_from([0.02, 0.1, 10.0, 100.0, 1e4])).map(
                lambda f: u + f * (float(gp_quantile(params, p)) - u)
            ),
            edge.flatmap(
                lambda e: st.sampled_from([e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)])
            ),
            st.sampled_from([u, u - 1.0, math.nextafter(u, -math.inf), 1.7e308]),
        )
    )
    xi = draw(st.one_of(st.sampled_from([0.0, 1e-9, -1e-9, 2e-8]), st.floats(-0.99, 2.0)))
    return pot, p, q, xi


def _profile_point(n):
    """A record of n peaks with q its true 10-year quantile, shape 0.1."""
    params = GpParams(3.0, 2.0, 0.1)
    pot = make_pot(gp_sample(params, n, seed=n), 3.0, n / 2.0)
    return pot, 0.95, float(gp_quantile(params, 0.95)), 0.1


@settings(deadline=None, max_examples=200, derandomize=True)
@given(profile_points())
@example(_profile_point(55))
@example(_profile_point(56))
def test_profile_loglik_equals_the_gp_logpdf_profile(point):
    pot, p, q, xi = point
    brent, grids = [], []
    brent_bounded, profile_grid = fit_module._brent_bounded, fit_module._profile_grid

    def brent_spy(fun, *args):
        brent.append(fun)
        return brent_bounded(fun, *args)

    def grid_spy(*args):
        grids.append(profile_grid(*args))
        return grids[-1]

    with (
        mock.patch.object(fit_module, "_brent_bounded", brent_spy),
        mock.patch.object(fit_module, "_profile_grid", grid_spy),
    ):
        got = _profile_loglik(pot, p)(q)
    # the kernel's value exactly: the scalar Brent step at shapes Brent
    # rarely visits (the grid, the exponential branch and anywhere on
    # [-0.99, 2]) and every row of the vectorized grid, whose scales come
    # from the denominators built once per profile
    (neg_ll,) = brent
    grid = fit_module._PROFILE_GRID.tolist()
    for shape in grid + [xi]:
        assert neg_ll(shape) == _kernel_neg_ll(pot, p, q, shape)
    (rows,) = grids
    assert rows.tolist() == [_kernel_neg_ll(pot, p, q, g) for g in grid]
    # gp_logpdf's sum, at rounding level
    assert got == pytest.approx(_oracle_profile_loglik(pot, p, q), rel=1e-12)


def test_profile_grid_has_no_exponential_row():
    # _profile_loglik scores every grid row with the shape != 0 form
    assert np.min(np.abs(fit_module._PROFILE_GRID)) >= SHAPE_EPS


def test_profile_grid_hands_log1p_no_off_support_row():
    # quantiles that put a negative grid shape's endpoint on the largest
    # peak, to the ulp: a row whose scalar support test fails never reaches
    # log1p, so nothing warns, and every row is still the kernel's
    pot = make_pot(gp_sample(GpParams(3.0, 2.0, -0.2), 40, seed=5), 3.0, 20.0)
    p = 0.95
    d = pot.peaks - pot.threshold
    d_max = float(d.max())
    grid = fit_module._PROFILE_GRID.tolist()
    den = np.array([math.expm1(-g * math.log1p(-p)) for g in grid])
    exact = 0
    for xi in grid[:10]:
        edge = pot.threshold - d_max * math.expm1(-xi * math.log1p(-p))
        for q in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)):
            scales = [_oracle_scale(pot, p, q, g) for g in grid]
            exact += sum(1.0 + g / s * d_max == 0.0 for g, s in zip(grid, scales))
            with np.errstate(all="raise"):
                rows = _profile_grid(d, d_max, q - pot.threshold, den)
            assert rows.tolist() == [_kernel_neg_ll(pot, p, q, g) for g in grid]
    # some rows put the largest peak exactly on the endpoint
    assert exact > 0


# (scale, shape, log likelihood) of the pinned records' MLE as the
# multi-start L-BFGS-B search found it, by record seed
_LBFGSB_MLE = {
    51: (2.6552951004614456, 0.34426508870636063, -171.7407455953081),
    7: (0.8621561458185576, -0.1791767861052962, -26.90017331251),
    3: (43.25240660705478, 0.045292258569962815, -721.8517701801762),
    11: (0.24725110863734537, 1.0390480873618104, -5.133578101742492),
}


@pytest.mark.parametrize(
    "params, n, seed, period, expected",
    [
        (GpParams(5.0, 3.0, 0.1), 74, 51, 10.0,
         ProfileCi(15.308863175510211, 26.81435997873895, False, False)),
        (GpParams(0.0, 1.0, -0.3), 40, 7, 50.0,
         ProfileCi(2.2028621819751986, 4.648715856009942, False, False)),
        (GpParams(100.0, 40.0, 0.25), 150, 3, 100.0,
         ProfileCi(304.6915622962089, 479.9692591764832, False, False)),
        (GpParams(2.0, 1.0, 0.5), 8, 11, 100.0,
         ProfileCi(6.219753118482023, 602.9270006769093, False, True)),
    ],
)
def test_profile_ci_is_pinned(params, n, seed, period, expected):
    # bounds of the gp_logpdf-based profile around the MLE that the former
    # quasi-Newton search found; the vectorized profile must reproduce them
    # exactly
    pot = sample_pot(params, n, n / 2.0, seed=seed)
    scale, shape, loglik = _LBFGSB_MLE[seed]
    fit = GpFit(GpParams(params.location, scale, shape), None, loglik, "mle", n)
    assert profile_ci(pot, period, fit=fit) == expected
    refit = gp_fit_mle(pot)
    assert refit.params.scale == pytest.approx(scale, rel=1e-7)
    assert refit.params.shape == pytest.approx(shape, rel=1e-7)
    assert refit.loglik == pytest.approx(loglik, rel=1e-7)


def _full_deviance_profile_ci(pot, period, fit, level=0.90):
    """profile_ci's walk-out and bisection with the full deviance at every
    step: the kernel's grid, then scipy's bounded Brent."""
    q_hat = return_level(fit.params, pot.rate, period)
    p = 1.0 - 1.0 / (pot.rate * period)
    cutoff = float(chi2.ppf(level, 1))

    def deviance(q):
        return 2.0 * (fit.loglik - _oracle_profile_loglik(pot, p, q, _kernel_neg_ll))

    def bisect(inside, outside):
        for _ in range(200):
            mid = 0.5 * (inside + outside)
            if abs(outside - inside) <= 1e-4 * q_hat:
                break
            if deviance(mid) > cutoff:
                outside = mid
            else:
                inside = mid
        return 0.5 * (inside + outside)

    floor = max(q_hat / 10.0, pot.threshold + 1e-9 * max(1.0, abs(pot.threshold)))
    ceiling = q_hat * 10.0

    def walk_out(factor, limit):
        q_in = q_out = q_hat
        while (limit - q_out) * (factor - 1.0) > 0.0:
            q_out = min(max(q_out * factor, floor), ceiling)
            if deviance(q_out) > cutoff:
                return bisect(q_in, q_out), False
            q_in = q_out
        return limit, True

    lower, lower_unbounded = walk_out(0.85, floor)
    upper, upper_unbounded = walk_out(1.2, ceiling)
    return ProfileCi(float(lower), float(upper), lower_unbounded, upper_unbounded)


def _counted_profile_ci(pot, period, fit):
    """profile_ci, with its deviance evaluations, Brent runs and Brent runs
    stopped early counted.  Each run is also made to its end: one that
    stopped early must settle its step as the full run's least value does."""
    counts = {"deviances": 0, "brent": 0, "stopped": 0}
    profile_loglik, brent_bounded = fit_module._profile_loglik, fit_module._brent_bounded

    def counted_profile(*args):
        loglik = profile_loglik(*args)

        def counted(*a):
            counts["deviances"] += 1
            return loglik(*a)

        return counted

    def checked_brent(f, lo, hi, xatol, stop=None):
        counts["brent"] += 1
        got = brent_bounded(f, lo, hi, xatol, stop)
        full = brent_bounded(f, lo, hi, xatol)
        if got != full:
            counts["stopped"] += 1
            assert stop(got[1]) and full[1] <= got[1]
        assert stop is None or stop(got[1]) == stop(full[1])
        return got

    with (
        mock.patch.object(fit_module, "_profile_loglik", counted_profile),
        mock.patch.object(fit_module, "_brent_bounded", checked_brent),
    ):
        ci = profile_ci(pot, period, fit=fit)
    return ci, counts


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    pot=st.builds(
        lambda n, shape, seed: sample_pot(GpParams(10.0, 4.0, shape), n, n / 2.0, seed=seed),
        st.integers(5, 120),
        st.floats(-0.45, 0.7),
        st.integers(0, 10_000),
    ),
    period=st.sampled_from([2.0, 10.0, 20.0, 100.0]),
)
@example(pot=sample_pot(GpParams(2.0, 1.0, 0.5), 8, 4.0, seed=11), period=100.0)
def test_profile_ci_is_the_full_deviance_walk(pot, period):
    # the grid settles some inside steps without Brent; every interval is
    # still the one the full deviance at every step gives
    try:
        fit = gp_fit_mle(pot)
    except FitError:
        assume(False)
    ci, counts = _counted_profile_ci(pot, period, fit)
    assert ci == _full_deviance_profile_ci(pot, period, fit)
    assert counts["brent"] <= counts["deviances"]


def test_profile_ci_skips_brent_where_the_grid_decides(seed17_pot):
    # the pinned 74-peak record; a record whose upper side is unbounded;
    # the seed-17 fit off the support, whose penalty log likelihood puts
    # every deviance far inside the cutoff.  On the first two, some Brent
    # runs stop at a step inside the cutoff, each deciding as its full run
    cases = [
        (sample_pot(GpParams(5.0, 3.0, 0.1), 74, 37.0, seed=51), 10.0),
        (sample_pot(GpParams(2.0, 1.0, 0.5), 8, 4.0, seed=11), 100.0),
        (seed17_pot, 10.0),
    ]
    runs = []
    for pot, period in cases:
        fit = gp_fit_mle(pot)
        ci, counts = _counted_profile_ci(pot, period, fit)
        assert ci == _full_deviance_profile_ci(pot, period, fit)
        runs.append((counts["brent"], counts["deviances"], counts["stopped"]))
    assert all(brent < deviances for brent, deviances, _ in runs)
    assert runs[0][2] > 0 and runs[1][2] > 0
    assert runs[2][0] == 0
