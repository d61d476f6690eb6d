"""Probability distributions and seedable random generation.

Every Normal-family distribution here is parameterized by mean and
VARIANCE, not standard deviation. Only what the rest of the package
needs is implemented: the Normal density and quantile, and the
truncated-Normal log density and inverse-CDF transform that the
simulation scenarios use.

Every Normal tail probability goes through ``_erfc``, numpy array code
for Cody's rational Chebyshev approximations (W. J. Cody, Math. Comp.
23, 1969), tested to stay within 8 ulp of the correctly rounded
``math.erfc``. The standard-normal inverse CDF is Acklam's rational
approximation refined by one Newton step against that erfc-based CDF,
which brings the error well below 1e-10 in CDF terms without reaching
outside numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormalParams",
    "TruncatedNormalParams",
    "Rng",
    "normal_pdf",
    "normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Coefficients of Cody's erfc approximations, as in his CALERF routine.
# Each numerator lists its coefficients from the highest power down; each
# denominator is monic, so its leading 1 is left out.
_CODY_SMALL_NUM = (
    1.85777706184603153e-01, 3.16112374387056560e00, 1.13864154151050156e02,
    3.77485237685302021e02, 3.20937758913846947e03,
)
_CODY_SMALL_DEN = (
    2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
    2.84423683343917062e03,
)
_CODY_MID_NUM = (
    2.15311535474403846e-08, 5.64188496988670089e-01, 8.88314979438837594e00,
    6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
    1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03,
)
_CODY_MID_DEN = (
    1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
    1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
    3.43936767414372164e03, 1.23033935480374942e03,
)
_CODY_TAIL_NUM = (
    1.63153871373020978e-02, 3.05326634961232344e-01, 3.60344899949804439e-01,
    1.25781726111229246e-01, 1.60837851487422766e-02, 6.58749161529837803e-04,
)
_CODY_TAIL_DEN = (
    2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-01,
    6.05183413124413191e-02, 2.33520497626869185e-03,
)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# Acklam's coefficients for the inverse standard-normal CDF.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ACKLAM_PLOW = 0.02425


@dataclass(frozen=True)
class NormalParams:
    """Normal distribution given by mean and variance."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.variance)):
            raise ValueError("normal parameters must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


@dataclass(frozen=True)
class TruncatedNormalParams:
    """Normal(mean, variance) restricted to [lower, upper]."""

    mean: float
    variance: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.mean, self.variance, self.lower, self.upper))):
            raise ValueError("truncated-normal parameters must be finite")
        if self.variance <= 0.0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not self.lower < self.upper:
            raise ValueError("truncation bounds must satisfy lower < upper")

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)


class Rng:
    """Deterministic random generator with reproducible child streams.

    The bit generator is pinned to numpy's PCG64 seeded through a
    SeedSequence, so streams cannot drift with numpy versions or
    platform defaults. Parallel work derives children through
    ``spawn``, which uses SeedSequence.spawn; child identity depends
    only on the seed and the order of spawn calls.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        if _seq is None:
            if not isinstance(seed, (int, np.integer)) or seed < 0:
                raise ValueError("seed must be a non-negative integer")
            _seq = np.random.SeedSequence(int(seed))
        self.seed = int(seed)
        self._seq = _seq
        self.gen = np.random.Generator(np.random.PCG64(_seq))

    def spawn(self, n: int) -> list["Rng"]:
        """Return n independent child generators (advances the spawn counter)."""
        return [Rng(self.seed, _seq=s) for s in self._seq.spawn(n)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Rng(seed={self.seed})"


def _maybe_scalar(x: np.ndarray):
    return float(x) if x.ndim == 0 else x


def _checked_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    return x


def _normal_density(x, mean, sd):
    """Normal density at x, unchecked, for arrays of x and mean."""
    z = (x - mean) / sd
    return _INV_SQRT_2PI / sd * np.exp(-0.5 * z * z)


def normal_pdf(x, p: NormalParams):
    """Normal density at x: (2*pi*var)^(-1/2) exp(-(x-mean)^2 / (2*var))."""
    return _maybe_scalar(_normal_density(_checked_points(x), p.mean, p.sd))


def _rational(v: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """num(v) / den(v) by Horner's rule, in the coefficient layout above."""
    p = num[0] * v
    for c in num[1:-1]:
        p = (p + c) * v
    q = v + den[0]
    for c in den[1:]:
        q = q * v + c
    return (p + num[-1]) / q


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) as exp(-s^2) exp(-(y - s)(y + s)) with s = trunc(16 y) / 16.

    s^2 is exact, so the rounding error of y^2 never reaches the exponent.
    """
    s = np.trunc(16.0 * y) / 16.0
    return np.exp(-s * s) * np.exp(-(y - s) * (y + s))


def _erfc(x) -> np.ndarray:
    """Complementary error function of an array, in numpy array code.

    Cody's rational Chebyshev approximations (W. J. Cody, "Rational
    Chebyshev approximations for the error function", Math. Comp. 23,
    1969): erfc = 1 - y R(y^2) on |x| <= 0.46875, exp(-y^2) R(y) on
    (0.46875, 4] and exp(-y^2) (1/sqrt(pi) - R(1/y^2) / y^2) / y above
    4, with y = |x| and erfc(x) = 2 - erfc(-x) for x < 0. Within 8 ulp of
    math.erfc wherever that is a normal float (tests/test_dist.py); exactly
    0 and 2 at +inf and -inf, NaN at NaN. The result has the shape of x.
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    out = np.empty_like(y)
    small = y <= 0.46875
    tail = y > 4.0
    mid = ~(small | tail)  # NaN lands here and propagates
    if small.any():
        v = y[small]
        out[small] = 1.0 - v * _rational(v * v, _CODY_SMALL_NUM, _CODY_SMALL_DEN)
    if mid.any():
        v = y[mid]
        out[mid] = _exp_neg_square(v) * _rational(v, _CODY_MID_NUM, _CODY_MID_DEN)
    if tail.any():
        # erfc underflows to 0 well before 40; the cap keeps inf out of the split
        v = np.minimum(y[tail], 40.0)
        z = 1.0 / (v * v)
        r = (_INV_SQRT_PI - z * _rational(z, _CODY_TAIL_NUM, _CODY_TAIL_DEN)) / v
        out[tail] = _exp_neg_square(v) * r
    return np.where(x < 0.0, 2.0 - out, out)


def _std_lower_tail(z: np.ndarray) -> np.ndarray:
    return 0.5 * _erfc(-z / _SQRT2)


def _std_normal_quantile(prob: np.ndarray) -> np.ndarray:
    """Inverse standard-normal CDF: Acklam's approximation + one Newton step.

    Works on the lower half only; p > 1/2 is mapped through symmetry
    (1 - p is exact for p in [0.5, 1], so no cancellation).
    """
    flip = prob > 0.5
    q = np.where(flip, 1.0 - prob, prob)
    x = np.empty_like(q)

    lo = q < _ACKLAM_PLOW
    if lo.any():
        r = np.sqrt(-2.0 * np.log(q[lo]))
        c, d = _ACKLAM_C, _ACKLAM_D
        x[lo] = (
            ((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]
        ) / ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    mid = ~lo
    if mid.any():
        u = q[mid] - 0.5
        r = u * u
        a, b = _ACKLAM_A, _ACKLAM_B
        x[mid] = (
            ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        ) * u / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)

    # One Newton step; x <= 0 here so the erfc form of the CDF is accurate.
    cdf = _std_lower_tail(x)
    pdf = _normal_density(x, 0.0, 1.0)
    step = np.zeros_like(x)
    ok = pdf > 0.0
    step[ok] = (cdf[ok] - q[ok]) / pdf[ok]
    x = x - step
    return np.where(flip, -x, x)


def normal_quantile(prob, p: NormalParams):
    """Quantile of Normal(mean, variance) at prob; prob strictly inside (0, 1)."""
    prob = np.asarray(prob, dtype=float)
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise ValueError("prob must lie strictly inside (0, 1)")
    return _maybe_scalar(p.mean + p.sd * _std_normal_quantile(prob))


def _log_std_lower_tail(z: np.ndarray) -> np.ndarray:
    """log Phi(z), stable far into the lower tail (where erfc underflows)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    deep = z < -25.0
    if deep.any():
        zz = z[deep]
        # asymptotic expansion of Mills' ratio
        out[deep] = (
            -0.5 * zz * zz - np.log(-zz) - 0.5 * math.log(2.0 * math.pi)
            + np.log1p(-1.0 / (zz * zz) + 3.0 / (zz * zz * zz * zz))
        )
    rest = ~deep
    if rest.any():
        out[rest] = np.log(_std_lower_tail(z[rest]))
    return out


def _truncated_normal_logpdf_core(x, mean, sd, lower, upper):
    """Truncated-normal log density.

    Elementwise over broadcastable x/mean/sd; -inf outside [lower, upper].
    Stays finite even when the in-bounds mass underflows in linear space,
    which the simulation scenarios rely on (conditional means can sit far
    outside the truncation window).
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    a = (lower - mean) / sd
    b = (upper - mean) / sd
    flip = (a + b) > 0.0
    a_, b_ = np.where(flip, -b, a), np.where(flip, -a, b)
    log_pb = _log_std_lower_tail(b_)
    log_pa = _log_std_lower_tail(a_)
    log_mass = log_pb + np.log1p(-np.exp(np.minimum(log_pa - log_pb, 0.0)))
    z = (x - mean) / sd
    logpdf = -0.5 * z * z - np.log(sd) - 0.5 * math.log(2.0 * math.pi) - log_mass
    return np.where((x >= lower) & (x <= upper), logpdf, -np.inf)


def _truncated_normal_transform(mean, sd, lower, upper, u):
    """Map uniforms u to truncated-normal draws via the inverse CDF.

    Both standardized bounds are reflected into the lower tail first so
    neither CDF evaluation loses precision near 1.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    a = (lower - mean) / sd
    b = (upper - mean) / sd
    flip = (a + b) > 0.0
    a_, b_ = np.where(flip, -b, a), np.where(flip, -a, b)
    pa = _std_lower_tail(a_)
    pb = _std_lower_tail(b_)
    z = _std_normal_quantile(np.clip(pa + u * (pb - pa), 1e-320, 1.0 - 1e-16))
    z = np.where(flip, -z, z)
    return np.clip(mean + sd * z, lower, upper)
