"""Probability distributions and seedable random generation.

Every Normal-family distribution here is parameterized by mean and
VARIANCE, not standard deviation. Only what the rest of the package
needs is implemented: the Normal density and quantile, and the
truncated-Normal log density and inverse-CDF transform that the
simulation scenarios use. ``NormalParams`` and ``TruncatedNormalParams``
carry their own ``density(t)``, so either serves directly as the
numerator h of the weights (see ``assignment``).

Every Normal tail probability goes through ``_erfc``, numpy array code
for Cody's rational Chebyshev approximations (W. J. Cody, Math. Comp.
23, 1969), tested to stay within 8 ulp of the correctly rounded
``math.erfc``. The standard-normal inverse CDF is Acklam's rational
approximation refined by one Newton step against that erfc-based CDF,
which brings the error well below 1e-10 in CDF terms without reaching
outside numpy.

The kernels are built for arrays of thousands of elements: each formula
step is one in-place pass over a few buffers. A kernel with several
ranges runs one range's formula on every element, under a clamp that
keeps it finite and free of warnings, then overwrites the elements of
the other ranges by integer index: ``_erfc`` runs the (0.46875, 4]
formula on every |x| capped at 40, ``_log_std_lower_tail`` log Phi on z
clamped at -25, ``_std_normal_quantile`` Acklam's central formula on p
folded into (0, 1/2]. The truncated-Normal kernels evaluate both
standardized bounds in one stacked array. Each element still goes
through the same IEEE operations in the same order as when evaluated
alone, so no result depends on what shares its array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NormalParams",
    "TruncatedNormalParams",
    "Rng",
    "normal_quantile",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Coefficients of Cody's erfc approximations, as in his CALERF routine,
# and of Acklam's inverse normal CDF. Each polynomial lists its
# coefficients from the highest power down, as ``_horner`` takes them.
_CODY_SMALL_NUM = (
    1.85777706184603153e-01, 3.16112374387056560e00, 1.13864154151050156e02,
    3.77485237685302021e02, 3.20937758913846947e03,
)
_CODY_SMALL_DEN = (
    1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
    2.84423683343917062e03,
)
_CODY_MID_NUM = (
    2.15311535474403846e-08, 5.64188496988670089e-01, 8.88314979438837594e00,
    6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
    1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03,
)
_CODY_MID_DEN = (
    1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
    1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
    3.43936767414372164e03, 1.23033935480374942e03,
)
_CODY_TAIL_NUM = (
    1.63153871373020978e-02, 3.05326634961232344e-01, 3.60344899949804439e-01,
    1.25781726111229246e-01, 1.60837851487422766e-02, 6.58749161529837803e-04,
)
_CODY_TAIL_DEN = (
    1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-01,
    6.05183413124413191e-02, 2.33520497626869185e-03,
)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01, 1.0,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00, 1.0,
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

    def density(self, t):
        """Density at t: (2*pi*var)^(-1/2) exp(-(t-mean)^2 / (2*var))."""
        return _normal_density(_checked_points(t), self.mean, self.sd)


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

    @cached_property
    def _log_mass(self) -> np.ndarray:
        """The normalising log mass, computed on first use."""
        return _truncated_normal_log_mass(self.mean, self.sd, self.lower, self.upper)

    def density(self, t):
        t = _checked_points(t)
        return np.exp(_truncated_normal_logpdf_core(t, self.mean, self.sd, self.lower, self.upper, self._log_mass))


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


def _checked_points(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation points must be finite")
    return x


def _normal_density(x, mean, sd):
    """Normal density at x, unchecked, for arrays of x and mean."""
    z = (x - mean) / sd
    return _INV_SQRT_2PI / sd * np.exp(-0.5 * z * z)


def _horner(v: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with coefficients ``coefs`` (highest power first) at
    v, by Horner's rule: one in-place pass per step over a new array."""
    p = np.multiply(v, coefs[0])
    for c in coefs[1:-1]:
        p += c
        p *= v
    p += coefs[-1]
    return p


def _rational(v: np.ndarray, num: tuple, den: tuple) -> np.ndarray:
    """num(v) / den(v), both by Horner's rule, in a new array."""
    p = _horner(v, num)
    p /= _horner(v, den)
    return p


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) as exp(-s^2) exp(-(y - s)(y + s)) with s = trunc(16 y) / 16,
    in a new array.

    s^2 is exact, so the rounding error of y^2 never reaches the exponent.
    """
    s = np.multiply(y, 16.0)
    np.trunc(s, out=s)
    s /= 16.0
    e = np.negative(s)
    e *= s
    np.exp(e, out=e)
    d = np.subtract(s, y)  # -(y - s), exactly
    s += y
    d *= s
    np.exp(d, out=d)
    e *= d
    return e


def _erfc(x) -> np.ndarray:
    """Complementary error function of an array, in numpy array code.

    Cody's rational Chebyshev approximations (W. J. Cody, "Rational
    Chebyshev approximations for the error function", Math. Comp. 23,
    1969): erfc = 1 - y R(y^2) on |x| <= 0.46875, exp(-y^2) R(y) on
    (0.46875, 4] and exp(-y^2) (1/sqrt(pi) - R(1/y^2) / y^2) / y above
    4, with y = |x| and erfc(x) = 2 - erfc(-x) for x < 0. Within 8 ulp of
    math.erfc wherever that is a normal float (tests/test_dist.py); exactly
    0 and 2 at +inf and -inf, NaN at NaN. The result is a new array with
    the shape of x.
    """
    x = np.asarray(x, dtype=float)
    xf = x.reshape(-1)
    y = np.abs(xf)
    # erfc underflows to 0 well before 40; the cap keeps inf out of every formula
    np.minimum(y, 40.0, out=y)
    small = (y <= 0.46875).nonzero()[0]
    tail = (y > 4.0).nonzero()[0]
    if small.size + tail.size < y.size:  # NaN counts as mid range and propagates
        out = _exp_neg_square(y)
        out *= _rational(y, _CODY_MID_NUM, _CODY_MID_DEN)
    else:
        out = np.empty_like(y)
    if small.size:
        v = y[small]
        r = _rational(v * v, _CODY_SMALL_NUM, _CODY_SMALL_DEN)
        r *= v
        out[small] = np.subtract(1.0, r, out=r)
    if tail.size:
        v = y[tail]
        z = np.multiply(v, v)
        np.divide(1.0, z, out=z)
        r = _rational(z, _CODY_TAIL_NUM, _CODY_TAIL_DEN)
        r *= z
        np.subtract(_INV_SQRT_PI, r, out=r)
        r /= v
        r *= _exp_neg_square(v)
        out[tail] = r
    neg = (xf < 0.0).nonzero()[0]
    if neg.size:
        out[neg] = 2.0 - out[neg]
    return out.reshape(x.shape)


def _std_lower_tail(z) -> np.ndarray:
    """Phi(z) = erfc(-z / sqrt(2)) / 2, in a new array."""
    p = _erfc(np.divide(z, -_SQRT2))
    p *= 0.5
    return p


def _std_normal_quantile(prob) -> np.ndarray:
    """Inverse standard-normal CDF: Acklam's approximation + one Newton step.

    Works on the lower half only; p > 1/2 is mapped through symmetry
    (1 - p is exact for p in [0.5, 1], so no cancellation). The central
    formula's denominator has no root on (0, 1/2]. Returns a new array.
    """
    prob = np.asarray(prob, dtype=float)
    q = prob.flatten()
    flip = (q > 0.5).nonzero()[0]
    q[flip] = 1.0 - q[flip]
    u = q - 0.5
    r = np.multiply(u, u)
    x = _horner(r, _ACKLAM_A)
    x *= u
    x /= _horner(r, _ACKLAM_B)
    lo = (q < _ACKLAM_PLOW).nonzero()[0]
    if lo.size:
        x[lo] = _rational(np.sqrt(-2.0 * np.log(q[lo])), _ACKLAM_C, _ACKLAM_D)

    # One Newton step; x <= 0 here so the erfc form of the CDF is accurate.
    step = _std_lower_tail(x)
    step -= q
    # the standard density in place: _normal_density(x, 0.0, 1.0) to the
    # bit, since x - 0.0 and x / 1.0 are exact
    pdf = np.multiply(x, -0.5)
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf *= _INV_SQRT_2PI
    ok = pdf > 0.0
    np.divide(step, pdf, out=step, where=ok)
    np.subtract(x, step, out=x, where=ok)
    x[flip] = -x[flip]
    return x.reshape(prob.shape)


def normal_quantile(prob, p: NormalParams):
    """Quantile of Normal(mean, variance) at prob; prob strictly inside (0, 1)."""
    prob = np.asarray(prob, dtype=float)
    if not np.all((prob > 0.0) & (prob < 1.0)):
        raise ValueError("prob must lie strictly inside (0, 1)")
    return p.mean + p.sd * _std_normal_quantile(prob)


def _log_std_lower_tail(z) -> np.ndarray:
    """log Phi(z), stable far into the lower tail (where erfc underflows),
    in a new array."""
    z = np.asarray(z, dtype=float)
    out = _std_lower_tail(np.maximum(z, -25.0))
    np.log(out, out=out)
    zf = z.reshape(-1)
    deep = (zf < -25.0).nonzero()[0]
    if deep.size:
        zz = zf[deep]
        # asymptotic expansion of Mills' ratio; a power of z that overflows
        # to inf gives the right limit
        with np.errstate(over="ignore"):
            out.reshape(-1)[deep] = (
                -0.5 * zz * zz - np.log(-zz) - 0.5 * math.log(2.0 * math.pi)
                + np.log1p(-1.0 / (zz * zz) + 3.0 / (zz * zz * zz * zz))
            )
    return out


def _reflected_bounds(mean, sd, lower, upper):
    """Standardized bounds as one (2, ...) array, [-b, -a] where a + b > 0
    (that is, [min(a, -b), min(b, -a)]) so that neither CDF evaluation
    loses precision near 1; and the mask of reflected elements."""
    ab = np.empty((2,) + np.broadcast_shapes(np.shape(mean), np.shape(sd), np.shape(lower), np.shape(upper)))
    a, b = ab[0, ...], ab[1, ...]
    np.subtract(lower, mean, out=a)
    a /= sd
    np.subtract(upper, mean, out=b)
    b /= sd
    flip = (a + b) > 0.0
    np.minimum(ab, np.negative(ab[::-1]), out=ab)
    return ab, flip


def _truncated_normal_log_mass(mean, sd, lower, upper) -> np.ndarray:
    """log(Phi(b) - Phi(a)) of the standardized bounds, elementwise over
    broadcastable mean/sd; finite even where that mass underflows."""
    ab, _ = _reflected_bounds(mean, sd, lower, upper)
    log_p = _log_std_lower_tail(ab)
    log_pa, log_pb = log_p[0, ...], log_p[1, ...]
    np.subtract(log_pa, log_pb, out=log_pa)
    np.minimum(log_pa, 0.0, out=log_pa)
    np.exp(log_pa, out=log_pa)
    np.negative(log_pa, out=log_pa)
    np.log1p(log_pa, out=log_pa)
    log_pa += log_pb
    return log_pa


def _truncated_normal_logpdf_core(x, mean, sd, lower, upper, log_mass=None):
    """Truncated-normal log density.

    Elementwise over broadcastable x/mean/sd; -inf outside [lower, upper].
    Stays finite even when the in-bounds mass underflows in linear space,
    which the simulation scenarios rely on (conditional means can sit far
    outside the truncation window). ``log_mass`` is
    ``_truncated_normal_log_mass(mean, sd, lower, upper)`` when a caller
    already holds it; otherwise it is computed here.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if log_mass is None:
        log_mass = _truncated_normal_log_mass(mean, sd, lower, upper)
    shape = np.broadcast_shapes(x.shape, mean.shape, sd.shape, np.shape(lower), np.shape(upper))
    z = np.subtract(x, mean, out=np.empty(shape))
    z /= sd
    logpdf = np.multiply(z, -0.5, out=np.empty_like(z))
    logpdf *= z
    logpdf -= np.log(sd)
    logpdf -= 0.5 * math.log(2.0 * math.pi)
    logpdf -= log_mass
    inside = x >= lower
    inside &= x <= upper
    np.copyto(logpdf, -np.inf, where=~inside)
    return logpdf


def _truncated_normal_transform(mean, sd, lower, upper, u):
    """Map uniforms u to truncated-normal draws via the inverse CDF.

    Both standardized bounds are reflected into the lower tail first so
    neither CDF evaluation loses precision near 1.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    u = np.asarray(u, dtype=float)
    ab, flip = _reflected_bounds(mean, sd, lower, upper)
    p = _std_lower_tail(ab)
    pa, pb = p[0, ...], p[1, ...]
    np.subtract(pb, pa, out=pb)
    prob = np.multiply(u, pb, out=np.empty(np.broadcast_shapes(u.shape, pb.shape)))
    prob += pa
    np.clip(prob, 1e-320, 1.0 - 1e-16, out=prob)
    z = _std_normal_quantile(prob)
    z *= np.where(flip, -sd, sd)  # undoes the reflection: (-sd) z = sd (-z)
    z += mean
    return np.clip(z, lower, upper, out=z)
