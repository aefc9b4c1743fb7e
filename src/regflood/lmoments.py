"""Sample and population L-moments, and L-moment parameter estimation.

Sample probability-weighted moments (PWMs) come in two variants:

* ``unbiased``: b_r = n**-1 * sum_j [C(j-1, r) / C(n-1, r)] * x_(j)
* ``biased``:   b_r = n**-1 * sum_j p_j**r * x_(j), p_j = (j - 0.35) / n

with x_(1) <= ... <= x_(n). The first four L-moments follow as

    l1 = b0,  l2 = 2 b1 - b0,  l3 = 6 b2 - 6 b1 + b0,
    l4 = 20 b3 - 30 b2 + 12 b1 - b0

and the dimensionless ratios are t = l2/l1, t3 = l3/l2, t4 = l4/l2.

Float arrays go through one vectorized PWM kernel, ``_pwm_float``, that
works on a single sorted sample or on a stack of them, and one helper,
``_lmoments_from_pwm``, turns PWMs into L-moments. The observed site
ratios and the simulated ratios of the heterogeneity test
(``regional._sim_ratio_table``) share this one estimator. Sequences of
exact numbers (int, fractions.Fraction) are computed in exact rational
arithmetic instead, through the same algebra helper, so rational samples
produce exactly rational results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.special import gammaln, psi

from .distributions import SHAPE_EPS, GpParams, KappaParams
from .errors import (
    DegenerateSampleError,
    FitError,
    InputError,
    InsufficientDataError,
)

__all__ = [
    "LmomentSet",
    "sample_pwm",
    "sample_lmoments",
    "gp_fit_lmom",
    "gp_population_lmoments",
    "kappa_fit_lmom",
    "kappa_population_lmoments",
    "regional_average_lmoments",
]

_EULER = 0.5772156649015328606

# below this magnitude of shape_k the kappa L-moments switch to the exact
# k = 0 (digamma) forms; the general branch loses precision as 1/k
_K_EPS = 1e-7


@dataclass(frozen=True)
class LmomentSet:
    """First two L-moments plus the L-CV, L-skewness and L-kurtosis ratios.

    Fields may hold exact rationals when produced by the exact path of
    :func:`sample_lmoments`.
    """

    l1: float
    l2: float
    t: float
    t3: float
    t4: float


def _check_variant(variant: str):
    if variant not in ("unbiased", "biased"):
        raise InputError(f"variant must be 'unbiased' or 'biased', got {variant!r}")


def _is_exact_sequence(sample) -> bool:
    if isinstance(sample, np.ndarray):
        return False
    try:
        return all(isinstance(v, numbers.Rational) for v in sample)
    except TypeError:
        return False


def _pwm_exact(values: list, r: int, variant: str) -> Fraction:
    n = len(values)
    xs = sorted(Fraction(v) for v in values)
    if variant == "unbiased":
        denom = math.comb(n - 1, r)
        total = sum(math.comb(j, r) * xs[j] for j in range(n))
        return total / (n * denom)
    total = Fraction(0)
    for j, x in enumerate(xs, start=1):
        p = Fraction(20 * j - 7, 20 * n)  # (j - 0.35) / n exactly
        total += p**r * x
    return total / n


def _pwm_float(xs: np.ndarray, r_max: int, variant: str) -> np.ndarray:
    """PWMs b_0 ... b_r_max of sorted samples along the last axis.

    ``xs`` is one sorted sample or a stack of them, ``(..., n)``; the
    result has shape ``(..., r_max + 1)``. A stacked row gets exactly the
    arithmetic of the same sample on its own, so observed and simulated
    samples share one estimator.
    """
    n = xs.shape[-1]
    j = np.arange(1, n + 1, dtype=float)
    b = [np.mean(xs, axis=-1)]
    if variant == "unbiased":
        w = np.ones(n)
        for i in range(1, r_max + 1):
            w = w * ((j - i) / (n - i))
            b.append(np.mean(w * xs, axis=-1))
    else:
        p = (j - 0.35) / n
        b.extend(np.mean(p**r * xs, axis=-1) for r in range(1, r_max + 1))
    return np.stack(b, axis=-1)


def _lmoments_from_pwm(b0, b1, b2, b3):
    """L-moments l1 ... l4 from PWMs: Fractions, floats or arrays alike."""
    return (
        b0,
        2 * b1 - b0,
        6 * b2 - 6 * b1 + b0,
        20 * b3 - 30 * b2 + 12 * b1 - b0,
    )


def sample_pwm(sample, r: int, variant: str = "unbiased"):
    """Sample probability-weighted moment b_r of the given variant.

    Exact sequences (ints, Fractions) are computed in rational arithmetic
    and return a Fraction; everything else returns a float.
    """
    _check_variant(variant)
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise InputError(f"PWM order must be a non-negative integer, got {r!r}")
    n = len(sample)
    if n == 0 or (variant == "unbiased" and r > n - 1):
        raise InsufficientDataError(
            f"need at least {r + 1} observations for unbiased PWM of order {r}, got {n}"
        )
    if _is_exact_sequence(sample):
        return _pwm_exact(list(sample), r, variant)
    xs = np.sort(np.asarray(sample, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise InputError("sample values must be finite")
    return float(_pwm_float(xs, r, variant)[r])


def sample_lmoments(sample, variant: str = "unbiased") -> LmomentSet:
    """First four sample L-moments as an :class:`LmomentSet`.

    Requires at least 4 observations; a constant sample has no usable
    L-moment ratios and raises :class:`DegenerateSampleError`.
    """
    _check_variant(variant)
    n = len(sample)
    if n < 4:
        raise InsufficientDataError(f"need at least 4 observations, got {n}")
    exact = _is_exact_sequence(sample)
    if exact:
        values = list(sample)
        if max(values) == min(values):
            raise DegenerateSampleError("constant sample has no L-moment ratios")
        b = [_pwm_exact(values, r, variant) for r in range(4)]
    else:
        xs = np.sort(np.asarray(sample, dtype=float))
        if not np.all(np.isfinite(xs)):
            raise InputError("sample values must be finite")
        if xs[-1] == xs[0]:
            raise DegenerateSampleError("constant sample has no L-moment ratios")
        b = _pwm_float(xs, 3, variant).tolist()
    l1, l2, l3, l4 = _lmoments_from_pwm(*b)
    if l2 == 0:
        raise DegenerateSampleError("zero L-scale; ratios undefined")
    if l1 == 0:
        raise DegenerateSampleError("zero mean; L-CV undefined")
    return LmomentSet(l1=l1, l2=l2, t=l2 / l1, t3=l3 / l2, t4=l4 / l2)


def gp_population_lmoments(params: GpParams) -> LmomentSet:
    """Population L-moments of a GP law (needs shape < 1 for a finite mean)."""
    xi = params.shape
    if xi >= 1:
        raise InputError(f"GP L-moments require shape < 1, got {xi!r}")
    l1 = params.location + params.scale / (1 - xi)
    l2 = params.scale / ((1 - xi) * (2 - xi))
    t3 = (1 + xi) / (3 - xi)
    t4 = (1 + xi) * (2 + xi) / ((3 - xi) * (4 - xi))
    t = l2 / l1 if l1 != 0 else math.nan
    return LmomentSet(l1=l1, l2=l2, t=t, t3=t3, t4=t4)


def gp_fit_lmom(lmom: LmomentSet, location: float | None = None) -> GpParams:
    """Method-of-L-moments GP fit.

    With ``location`` given (e.g. a known threshold) only scale and shape
    are estimated from (l1, l2); otherwise all three parameters come from
    (l1, l2, t3).
    """
    l1 = float(lmom.l1)
    l2 = float(lmom.l2)
    if l2 <= 0:
        raise InputError(f"l2 must be positive, got {l2!r}")
    if location is not None:
        excess = l1 - float(location)
        if excess <= 0:
            raise FitError(
                f"mean {l1!r} does not exceed the fixed location {location!r}"
            )
        shape = 2.0 - excess / l2
        if shape >= 1.0:
            raise FitError(f"implied shape {shape!r} >= 1; no valid GP fit")
        return GpParams(float(location), excess * (1.0 - shape), shape)
    t3 = float(lmom.t3)
    if not -1.0 < t3 < 1.0:
        raise InputError(f"t3 must lie in (-1, 1), got {t3!r}")
    shape = (3.0 * t3 - 1.0) / (1.0 + t3)
    scale = l2 * (1.0 - shape) * (2.0 - shape)
    return GpParams(l1 - scale / (1.0 - shape), scale, shape)


def _lngamma_diff(z: float, a: float) -> float:
    """log Gamma(z + a) - log Gamma(z) without large-argument cancellation."""
    if z < 1000.0:
        return float(gammaln(z + a) - gammaln(z))
    # Stirling series difference; exact to O(z**-5)
    return (
        (z - 0.5) * math.log1p(a / z)
        + a * math.log(z + a)
        - a
        + (1.0 / 12.0) * (1.0 / (z + a) - 1.0 / z)
        - (1.0 / 360.0) * ((z + a) ** -3 - z**-3)
    )


def kappa_population_lmoments(params: KappaParams) -> LmomentSet:
    """Population L-moments of the four-parameter kappa law.

    Branches analytically at shape_k == 0 (digamma forms) and shape_h == 0
    so the surface stays smooth across the Gumbel and GP degeneracies.
    """
    k = params.shape_k
    h = params.shape_h
    alpha = params.scale
    loc = params.location
    if abs(k) < _K_EPS:
        # k = 0: (j) * beta_(j-1) = loc + alpha * w_j
        if h > SHAPE_EPS:
            w = [psi(j / h + 1.0) + _EULER + math.log(h) for j in (1, 2, 3, 4)]
        elif h < -SHAPE_EPS:
            w = [psi(-j / h) + _EULER + math.log(-h) for j in (1, 2, 3, 4)]
        else:
            w = [math.log(j) + _EULER for j in (1, 2, 3, 4)]
        l1 = loc + alpha * w[0]
        l2 = alpha * (w[1] - w[0])
        t3 = (2 * w[2] - 3 * w[1] + w[0]) / (w[1] - w[0])
        t4 = (5 * w[3] - 10 * w[2] + 6 * w[1] - w[0]) / (w[1] - w[0])
    else:
        a = 1.0 + k
        if abs(h) < 1e-12:
            u1 = float(gammaln(a))
            d = [-k * math.log(r) for r in (2.0, 3.0, 4.0)]
        else:
            # log g_r = u1 + d_(r-1); shared phi keeps both h-signs stable
            if h > 0:
                zs = [r / h for r in (1.0, 2.0, 3.0, 4.0)]
            else:
                zs = [r / -h - k for r in (1.0, 2.0, 3.0, 4.0)]
            phis = [_lngamma_diff(z, a) for z in zs]
            u1 = float(gammaln(a)) - a * math.log(abs(h)) - phis[0]
            d = [math.log(r) - (phis[r - 1] - phis[0]) for r in (2, 3, 4)]
        g1 = math.exp(u1)
        big_d = [math.expm1(x) for x in d]  # g_r / g_1 - 1 for r = 2, 3, 4
        l1 = loc - alpha / k * math.expm1(u1)
        l2 = -alpha / k * g1 * big_d[0]
        t3 = (2 * big_d[1] - 3 * big_d[0]) / big_d[0]
        t4 = (5 * big_d[2] - 10 * big_d[1] + 6 * big_d[0]) / big_d[0]
    t = l2 / l1 if l1 != 0 else math.nan
    return LmomentSet(l1=l1, l2=l2, t=t, t3=t3, t4=t4)


def _kappa_ratios(k: float, h: float) -> tuple[float, float]:
    lm = kappa_population_lmoments(KappaParams(0.0, 1.0, k, h))
    return lm.t3, lm.t4


def _kappa_in_region(k: float, h: float) -> bool:
    if k <= -1.0 + 1e-9:
        return False
    if h < 0.0 and h * k <= -1.0 + 1e-9:
        return False
    return abs(k) <= 20.0 and abs(h) <= 50.0


def kappa_fit_lmom(lmom: LmomentSet, tol: float = 1e-8, max_iter: int = 100) -> KappaParams:
    """Fit kappa parameters by matching (l1, l2, t3, t4).

    Newton iteration on (shape_k, shape_h) with a finite-difference
    Jacobian and step halving, started from the GP sub-family (h = 1).
    Location and scale then follow linearly from l1 and l2.
    """
    l1 = float(lmom.l1)
    l2 = float(lmom.l2)
    t3 = float(lmom.t3)
    t4 = float(lmom.t4)
    if l2 <= 0:
        raise InputError(f"l2 must be positive, got {l2!r}")
    if not -1.0 < t3 < 1.0 or not -1.0 < t4 < 1.0:
        raise InputError(f"(t3, t4) = ({t3!r}, {t4!r}) is not a valid ratio pair")
    if t4 >= (1.0 + 5.0 * t3 * t3) / 6.0:
        raise InputError(
            f"(t3, t4) = ({t3!r}, {t4!r}) lies above the attainable kappa region"
        )

    def residual(k: float, h: float) -> np.ndarray:
        r3, r4 = _kappa_ratios(k, h)
        return np.array([r3 - t3, r4 - t4])

    k = (1.0 - 3.0 * t3) / (1.0 + t3)
    h = 1.0
    f = residual(k, h)
    norm = float(np.max(np.abs(f)))
    for _ in range(max_iter):
        if norm < tol:
            break
        jac = np.empty((2, 2))
        dk = 1e-6 * max(1.0, abs(k))
        dh = 1e-6 * max(1.0, abs(h))
        jac[:, 0] = (residual(k + dk, h) - f) / dk
        jac[:, 1] = (residual(k, h + dh) - f) / dh
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular Jacobian in kappa fit") from exc
        scale = 1.0
        improved = False
        for _ in range(40):
            k_new = k + scale * step[0]
            h_new = h + scale * step[1]
            if _kappa_in_region(k_new, h_new):
                f_new = residual(k_new, h_new)
                norm_new = float(np.max(np.abs(f_new)))
                if norm_new < norm:
                    k, h, f, norm = k_new, h_new, f_new, norm_new
                    improved = True
                    break
            scale *= 0.5
        if not improved:
            # stagnation at the numerical noise floor still counts if close
            if norm < 1e-6:
                break
            raise FitError(
                f"kappa fit made no progress at residual {norm:.3e} "
                f"for (t3, t4) = ({t3!r}, {t4!r})"
            )
    else:
        if norm >= 1e-6:
            raise FitError(
                f"kappa fit did not converge within {max_iter} iterations "
                f"(residual {norm:.3e})"
            )
    unit = kappa_population_lmoments(KappaParams(0.0, 1.0, k, h))
    alpha = l2 / unit.l2
    location = l1 - alpha * unit.l1
    return KappaParams(location, alpha, k, h)


def regional_average_lmoments(
    lmoms: Sequence[LmomentSet],
    lengths: Sequence[float],
    scale_factors: Sequence[float] | None = None,
) -> LmomentSet:
    """Record-length-weighted regional average of site L-moments.

    By default each site is rescaled by its own sample mean, so the result
    has l1 = 1 and the ratios are weighted means of the site ratios. When
    ``scale_factors`` are given (e.g. per-site index floods), the site
    L-moments are divided by them and averaged directly instead.
    """
    if len(lmoms) == 0:
        raise InputError("need at least one site")
    if len(lengths) != len(lmoms):
        raise InputError("lengths must match the number of sites")
    w = np.asarray(lengths, dtype=float)
    if np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise InputError("record lengths must be positive and finite")
    w = w / w.sum()
    if scale_factors is None:
        t = float(np.dot(w, [lm.t for lm in lmoms]))
        t3 = float(np.dot(w, [lm.t3 for lm in lmoms]))
        t4 = float(np.dot(w, [lm.t4 for lm in lmoms]))
        return LmomentSet(l1=1.0, l2=t, t=t, t3=t3, t4=t4)
    c = np.asarray(scale_factors, dtype=float)
    if c.shape != w.shape:
        raise InputError("scale_factors must match the number of sites")
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
        raise InputError("scale factors must be positive and finite")
    l1 = float(np.dot(w, [lm.l1 / ci for lm, ci in zip(lmoms, c)]))
    l2 = float(np.dot(w, [lm.l2 / ci for lm, ci in zip(lmoms, c)]))
    t3 = float(np.dot(w, [lm.t3 for lm in lmoms]))
    t4 = float(np.dot(w, [lm.t4 for lm in lmoms]))
    if l1 == 0:
        raise DegenerateSampleError("regional mean is zero; L-CV undefined")
    return LmomentSet(l1=l1, l2=l2, t=l2 / l1, t3=t3, t4=t4)
