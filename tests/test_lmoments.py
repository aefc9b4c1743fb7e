from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regflood.distributions import GpParams, KappaParams, gp_sample
from regflood.errors import (
    DegenerateSampleError,
    FitError,
    InputError,
    InsufficientDataError,
)
from regflood.lmoments import (
    LmomentSet,
    gp_fit_lmom,
    gp_population_lmoments,
    kappa_fit_lmom,
    kappa_population_lmoments,
    regional_average_lmoments,
    sample_lmoments,
    sample_pwm,
)


def test_pwm_reference_values():
    assert sample_pwm([1, 2, 3], 1, "unbiased") == Fraction(4, 3)
    assert sample_pwm([1, 2, 3], 1, "biased") == Fraction(119, 90)
    assert float(sample_pwm([1, 2, 3], 1, "biased")) == pytest.approx(1.3222222222222222)
    assert sample_pwm(np.array([1.0, 2.0, 3.0]), 1, "unbiased") == pytest.approx(4.0 / 3.0)
    # order zero is the sample mean in both variants
    assert sample_pwm(np.array([4.0, 1.0, 7.0, 2.0]), 0, "biased") == pytest.approx(3.5)


def test_pwm_is_order_invariant():
    rng = np.random.default_rng(0)
    x = rng.gamma(2.0, 3.0, size=40)
    shuffled = x.copy()
    rng.shuffle(shuffled)
    for r in range(4):
        assert sample_pwm(x, r) == pytest.approx(sample_pwm(shuffled, r), rel=1e-14)


def test_pwm_errors():
    with pytest.raises(InsufficientDataError):
        sample_pwm([1.0, 2.0], 2, "unbiased")
    with pytest.raises(InputError):
        sample_pwm([1.0, 2.0, 3.0], -1)
    with pytest.raises(InputError):
        sample_pwm([1.0, 2.0, 3.0], 1, "plotting")
    with pytest.raises(InputError):
        sample_pwm(np.array([1.0, np.nan, 3.0]), 1)


def test_sample_lmoments_exact_rational():
    got = sample_lmoments([Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    assert got.l1 == Fraction(5, 2)
    assert got.l2 == Fraction(5, 6)
    assert got.t == Fraction(1, 3)
    assert got.t3 == 0
    assert got.t4 == 0
    # integers go through the same exact path
    assert sample_lmoments([1, 2, 3, 4]).l2 == Fraction(5, 6)


def test_sample_lmoments_float_matches_exact():
    vals = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5]
    exact = sample_lmoments(vals)
    approx = sample_lmoments(np.array(vals, dtype=float))
    assert approx.l1 == pytest.approx(float(exact.l1), rel=1e-14)
    assert approx.l2 == pytest.approx(float(exact.l2), rel=1e-14)
    assert approx.t3 == pytest.approx(float(exact.t3), rel=1e-12)
    assert approx.t4 == pytest.approx(float(exact.t4), rel=1e-12)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(
    st.lists(st.integers(0, 10**6), min_size=4, max_size=80).filter(
        lambda v: max(v) > min(v)
    )
)
def test_float_path_matches_exact_on_integer_samples(vals):
    # the float kernel and the rational path share the PWM-to-L-moment
    # algebra; a generated l2 or t3 can sit near zero, so errors are bounded
    # relative to the sample's magnitude, and a ratio's to that magnitude
    # over its divisor
    scale = max(vals)
    for variant in ("unbiased", "biased"):
        exact = sample_lmoments(vals, variant)
        approx = sample_lmoments(np.array(vals, dtype=float), variant)
        for r in range(4):
            b = sample_pwm(vals, r, variant)
            assert abs(sample_pwm(np.array(vals, dtype=float), r, variant) - b) <= 1e-12 * b
        assert abs(approx.l1 - exact.l1) <= 1e-12 * scale
        assert abs(approx.l2 - exact.l2) <= 1e-12 * scale
        assert abs(approx.t - exact.t) <= 1e-12 * scale / exact.l1
        assert abs(approx.t3 - exact.t3) <= 1e-12 * scale / exact.l2
        assert abs(approx.t4 - exact.t4) <= 1e-12 * scale / exact.l2


def test_sample_lmoments_errors():
    with pytest.raises(InsufficientDataError):
        sample_lmoments([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSampleError):
        sample_lmoments([2.0, 2.0, 2.0, 2.0])
    with pytest.raises(DegenerateSampleError):
        sample_lmoments([Fraction(2), Fraction(2), Fraction(2), Fraction(2)])


def test_sample_lmoments_consistency():
    params = GpParams(0.0, 1.0, 0.15)
    pop = gp_population_lmoments(params)
    got = sample_lmoments(gp_sample(params, 100000, seed=123))
    assert got.l1 == pytest.approx(pop.l1, rel=0.02)
    assert got.l2 == pytest.approx(pop.l2, rel=0.03)
    assert got.t3 == pytest.approx(pop.t3, abs=0.02)


def test_unbiased_l2_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=rng.integers(4, 50))
        assert sample_lmoments(x).l2 >= 0


def test_gp_population_lmoments_known_values():
    pop = gp_population_lmoments(GpParams(0.0, 1.0, 0.0))
    # exponential: l1 = 1, l2 = 1/2, t3 = 1/3, t4 = 1/6
    assert pop.l1 == pytest.approx(1.0)
    assert pop.l2 == pytest.approx(0.5)
    assert pop.t3 == pytest.approx(1.0 / 3.0)
    assert pop.t4 == pytest.approx(1.0 / 6.0)
    with pytest.raises(InputError):
        gp_population_lmoments(GpParams(0.0, 1.0, 1.0))


def test_gp_fit_lmom_known_location():
    fit = gp_fit_lmom(LmomentSet(1.25, 5.0 / 7.0, 0.5714, 0.25, 0.1), location=0.0)
    assert fit.shape == pytest.approx(0.25, abs=1e-12)
    assert fit.scale == pytest.approx(0.9375, abs=1e-12)
    assert fit.location == 0.0


def test_gp_fit_lmom_round_trip():
    for params in [GpParams(2.0, 1.0, 0.1), GpParams(0.0, 3.0, -0.2), GpParams(-1.0, 0.5, 0.0)]:
        pop = gp_population_lmoments(params)
        free = gp_fit_lmom(pop)
        assert free.location == pytest.approx(params.location, abs=1e-12)
        assert free.scale == pytest.approx(params.scale, rel=1e-12)
        assert free.shape == pytest.approx(params.shape, abs=1e-12)
        fixed = gp_fit_lmom(pop, location=params.location)
        assert fixed.scale == pytest.approx(params.scale, rel=1e-12)
        assert fixed.shape == pytest.approx(params.shape, abs=1e-12)


def test_gp_fit_lmom_monte_carlo_recovery():
    params = GpParams(2.0, 1.0, 0.1)
    fit = gp_fit_lmom(sample_lmoments(gp_sample(params, 50000, seed=99)))
    assert fit.location == pytest.approx(2.0, abs=0.05)
    assert fit.scale == pytest.approx(1.0, abs=0.05)
    assert fit.shape == pytest.approx(0.1, abs=0.05)


def test_gp_fit_lmom_errors():
    with pytest.raises(FitError):
        gp_fit_lmom(LmomentSet(1.0, 0.5, 0.5, 0.3, 0.2), location=2.0)
    with pytest.raises(FitError):
        # l1 - location <= l2 implies shape >= 1
        gp_fit_lmom(LmomentSet(1.0, 2.0, 2.0, 0.3, 0.2), location=0.0)
    with pytest.raises(InputError):
        gp_fit_lmom(LmomentSet(1.0, -0.5, -0.5, 0.3, 0.2))


def test_kappa_population_lmoments_gumbel():
    pop = kappa_population_lmoments(KappaParams(0.0, 1.0, 0.0, 0.0))
    assert pop.l1 == pytest.approx(0.5772156649015329, rel=1e-12)
    assert pop.l2 == pytest.approx(np.log(2.0), rel=1e-12)
    assert pop.t3 == pytest.approx(0.16992500144231237, rel=1e-10)
    assert pop.t4 == pytest.approx(0.15037499278843766, rel=1e-10)


def test_kappa_population_lmoments_special_cases():
    # h = 1 is GP with shape = -k
    kp = kappa_population_lmoments(KappaParams(1.0, 2.0, 0.3, 1.0))
    gp = gp_population_lmoments(GpParams(1.0, 2.0, -0.3))
    assert kp.l1 == pytest.approx(gp.l1, rel=1e-10)
    assert kp.l2 == pytest.approx(gp.l2, rel=1e-10)
    assert kp.t3 == pytest.approx(gp.t3, rel=1e-10)
    assert kp.t4 == pytest.approx(gp.t4, rel=1e-10)
    # h = -1, k = 0 is the logistic law: t3 = 0, t4 = 1/6, l2 = scale
    lg = kappa_population_lmoments(KappaParams(5.0, 2.0, 0.0, -1.0))
    assert lg.l1 == pytest.approx(5.0, abs=1e-10)
    assert lg.l2 == pytest.approx(2.0, rel=1e-10)
    assert lg.t3 == pytest.approx(0.0, abs=1e-10)
    assert lg.t4 == pytest.approx(1.0 / 6.0, rel=1e-10)


def test_kappa_population_lmoments_match_simulation():
    kp = KappaParams(0.0, 1.0, 0.2, -0.4)
    pop = kappa_population_lmoments(kp)
    from regflood.distributions import kappa_sample

    got = sample_lmoments(kappa_sample(kp, 200000, seed=17))
    assert got.l1 == pytest.approx(pop.l1, abs=0.02)
    assert got.l2 == pytest.approx(pop.l2, rel=0.02)
    assert got.t3 == pytest.approx(pop.t3, abs=0.01)
    assert got.t4 == pytest.approx(pop.t4, abs=0.01)


def test_kappa_lmoments_smooth_across_branch_switch():
    p_lo = kappa_population_lmoments(KappaParams(0.0, 1.0, 9.9e-8, 0.4))
    p_hi = kappa_population_lmoments(KappaParams(0.0, 1.0, 1.1e-7, 0.4))
    assert p_lo.t3 == pytest.approx(p_hi.t3, abs=1e-5)
    assert p_lo.t4 == pytest.approx(p_hi.t4, abs=1e-5)
    q_lo = kappa_population_lmoments(KappaParams(0.0, 1.0, 0.3, 5e-13))
    q_hi = kappa_population_lmoments(KappaParams(0.0, 1.0, 0.3, 2e-12))
    assert q_lo.t3 == pytest.approx(q_hi.t3, abs=1e-8)
    assert q_lo.t4 == pytest.approx(q_hi.t4, abs=1e-8)


def test_kappa_fit_lmom_recovers_parameters():
    kp = KappaParams(0.0, 1.0, 0.2, -0.4)
    fit = kappa_fit_lmom(kappa_population_lmoments(kp))
    assert fit.shape_k == pytest.approx(0.2, abs=1e-6)
    assert fit.shape_h == pytest.approx(-0.4, abs=1e-6)
    assert fit.location == pytest.approx(0.0, abs=1e-8)
    assert fit.scale == pytest.approx(1.0, rel=1e-7)


def test_kappa_fit_lmom_gumbel_ratios():
    lm = LmomentSet(
        l1=0.5772156649015329,
        l2=float(np.log(2.0)),
        t=float(np.log(2.0) / 0.5772156649015329),
        t3=0.16992500144231237,
        t4=0.15037499278843766,
    )
    fit = kappa_fit_lmom(lm)
    assert abs(fit.shape_k) < 1e-4
    assert abs(fit.shape_h) < 1e-3
    assert fit.location == pytest.approx(0.0, abs=1e-4)
    assert fit.scale == pytest.approx(1.0, abs=1e-4)


def test_kappa_fit_lmom_domain_error():
    # above the attainable region boundary t4 = (1 + 5 t3^2) / 6
    with pytest.raises(InputError):
        kappa_fit_lmom(LmomentSet(1.0, 0.3, 0.3, 0.2, 0.21))


def test_regional_average_ratio_mode():
    a = LmomentSet(10.0, 2.0, 0.2, 0.1, 0.12)
    b = LmomentSet(50.0, 25.0, 0.5, 0.3, 0.2)
    avg = regional_average_lmoments([a, b], [10, 30])
    assert avg.l1 == 1.0
    assert avg.t == pytest.approx(0.425)
    assert avg.l2 == pytest.approx(0.425)
    assert avg.t3 == pytest.approx(0.25)
    assert avg.t4 == pytest.approx(0.18)


def test_regional_average_scale_factors():
    a = LmomentSet(10.0, 2.0, 0.2, 0.1, 0.12)
    b = LmomentSet(50.0, 25.0, 0.5, 0.3, 0.2)
    avg = regional_average_lmoments([a, b], [10, 30], scale_factors=[10.0, 50.0])
    assert avg.l1 == pytest.approx(1.0)
    assert avg.l2 == pytest.approx(0.25 * 0.2 + 0.75 * 0.5)
    # equal-length sites with equal factors reduce to plain means
    eq = regional_average_lmoments([a, b], [5, 5], scale_factors=[1.0, 1.0])
    assert eq.l1 == pytest.approx(30.0)
    assert eq.l2 == pytest.approx(13.5)


def test_regional_average_errors():
    a = LmomentSet(10.0, 2.0, 0.2, 0.1, 0.12)
    with pytest.raises(InputError):
        regional_average_lmoments([], [])
    with pytest.raises(InputError):
        regional_average_lmoments([a], [1, 2])
    with pytest.raises(InputError):
        regional_average_lmoments([a], [0])
    with pytest.raises(InputError):
        regional_average_lmoments([a], [10], scale_factors=[-1.0])
