"""Intervention (treatment-assignment) distributions and likelihood-ratio
weights.

The weight attached to a calibration point is the likelihood ratio

    w(t, x) = h(t) / (f_hat(t | x) + offset),

where h is a covariate-free assignment density (the counterfactual
allocation of interest) and f_hat the fitted generalized propensity
score. A numerator is anything with a ``density(t)`` method: the Normal
and truncated-Normal ones are ``dist.NormalParams`` and
``dist.TruncatedNormalParams`` themselves, and this module adds the
uniform and the decile-midpoint numerators. The offset is a field of
``conformal.ConformalConfig``. It defaults to zero, and a vanishing
denominator then raises ``PositivityError``: a zero conditional density
at an observed point is a positivity violation and should surface, not
be smoothed over.

The decile-midpoint variant reproduces a discretized allocation: the
numerator is a Normal centered at the midpoint of the decile containing
the treatment of interest, scaled by k for calibration treatments that
fall in a different decile (k = 1 means no scaling). With k < 1 the
numerator is deliberately not a normalized density; it is a weight
recipe. The ten numerators of one boundary set, s2 and k form a
``DecileMidpointFamily``, validated once and interned by the bytes of
its boundaries, which builds its ten members once: constructing a
``DecileMidpointAssignment`` returns the shared member of t_star's
decile, and members compare by identity. A band asks for a member per
grid point at the cost of a cache lookup, and weighs the members of a
family with one pass over the calibration treatments.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import FrozenInstanceError, dataclass

import numpy as np

from .dist import _checked_points, _normal_density

__all__ = [
    "UniformAssignment",
    "DecileMidpointAssignment",
    "DecileMidpointFamily",
    "PositivityError",
    "decile_boundaries",
    "likelihood_ratio",
]


class PositivityError(ValueError):
    """Zero GPS density (with zero offset) at a calibration point that
    carries assignment mass. A test point there is no error: its weight
    is +inf, and its interval the whole line."""


@dataclass(frozen=True)
class UniformAssignment:
    lower: float
    upper: float

    def __post_init__(self):
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("uniform assignment bounds must be finite")
        if not self.lower < self.upper:
            raise ValueError("uniform assignment needs lower < upper")

    def density(self, t):
        t = _checked_points(t)
        inside = (t >= self.lower) & (t <= self.upper)
        return np.where(inside, 1.0 / (self.upper - self.lower), 0.0)


# families held interned at once; a band asks for one, a study for none
_INTERNED_FAMILIES = 64


def _checked_boundaries(bl: list) -> None:
    """Raise ``ValueError`` unless the 11 decile boundaries in the list
    are finite and strictly increasing."""
    # strictly increasing between finite ends: every boundary is then finite
    if not (math.isfinite(bl[0]) and math.isfinite(bl[10]) and all(map(operator.lt, bl, bl[1:]))):
        if not all(map(math.isfinite, bl)):
            raise ValueError("boundaries must be finite")
        raise ValueError("boundaries must be 11 strictly increasing values")


class _Frozen:
    """An object whose ``__dict__`` is filled once, when it is built, and
    never changed, shown as the constructor call that ``__reduce__``
    gives."""

    def __repr__(self):
        return f"{type(self).__name__}{self.__reduce__()[1]}"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class DecileMidpointFamily(_Frozen):
    """The decile-midpoint numerators of one boundary set, s2 and k: a
    Normal with variance s2 centered at the midpoint of decile j, scaled
    by k outside decile j, for j = 0..9.

    The inputs are validated once, here, where the family also builds
    its ten members, one ``DecileMidpointAssignment`` per decile. It
    holds its boundaries as a read-only array, the 9 inner boundaries
    and the 10 midpoints. Families and members compare by identity.
    Instances are immutable.
    """

    def __init__(self, boundaries, s2: float, k: float = 1.0):
        b = np.array(boundaries, dtype=float)
        if b.shape != (11,):
            raise ValueError("boundaries must be 11 strictly increasing values")
        bl = b.tolist()
        _checked_boundaries(bl)
        if not 0.0 < k <= 1.0:
            raise ValueError("k must lie in (0, 1]")
        if not math.isfinite(s2):
            raise ValueError("s2 must be finite")
        if s2 <= 0.0:
            raise ValueError("s2 must be positive")
        b.flags.writeable = False  # and shown as a view, whose flag cannot be set back
        fields = dict(boundaries=b.view(), s2=float(s2), k=float(k))
        members = tuple(object.__new__(DecileMidpointAssignment) for _ in range(10))
        for j, h in enumerate(members):
            h.__dict__.update(fields, family=self, decile=j)
        self.__dict__.update(
            fields, _bl=tuple(bl), _sd=math.sqrt(s2), _inner=b[1:-1], _midpoints=0.5 * (b[:-1] + b[1:]),
            _members=members,
        )

    def __reduce__(self):
        return DecileMidpointFamily, (list(self._bl), self.s2, self.k)

    def density(self, t, deciles):
        """Densities of the members of the given deciles at the points t,
        ``deciles`` broadcasting against t: an integer gives the member's
        density at every point, and a column of m deciles against n
        points an (m, n) block, from one decile lookup of the points and
        one broadcast Normal density over the midpoints. Each element is
        bit-identical to the member's own density at that point."""
        deciles = np.asarray(deciles)
        if deciles.dtype.kind not in "iu" or np.any((deciles < 0) | (deciles > 9)):
            raise ValueError("deciles must be integers in 0..9")
        return self._density(_checked_points(t), deciles)

    def _density(self, t: np.ndarray, deciles):
        """``density`` at finite points and deciles in 0..9."""
        base = _normal_density(t, self._midpoints[deciles], self._sd)
        same = np.searchsorted(self._inner, t, side="right") == deciles
        return np.where(same, base, self.k * base)


@functools.lru_cache(maxsize=_INTERNED_FAMILIES)
def _family_of_bytes(raw: bytes, s2: float, k: float) -> DecileMidpointFamily:
    """The one family of the float64 boundaries with these bytes, s2 and
    k while it stays cached; bytes hash and compare faster than a tuple
    of 11 floats."""
    return DecileMidpointFamily(np.frombuffer(raw), s2, k)


class DecileMidpointAssignment(_Frozen):
    """Normal numerator centered at the midpoint of t_star's decile.

    Treatments outside t_star's decile get k times the same density.
    Construction returns the shared member of t_star's decile, ``decile``,
    in a ``DecileMidpointFamily``, ``family``: one object for every
    t_star in the decile and every spelling of the same boundary bytes,
    s2 and k, while the family stays interned. Members compare by
    identity, so a prediction band calibrates once per decile and
    weighs the members of a family together (``Calibration.bounds``).
    Boundaries that differ only in the sign of a zero, or a family
    evicted and built again, give other objects with bit-identical
    densities; a band weighs those apart, with the same results.

    Construction is lean, since a band asks for a member per grid
    point: it checks the shape of the boundaries, looks their family up,
    and resolves t_star's decile by bisection. ``boundaries`` is the
    family's read-only array. Members are immutable, and a pickled one
    comes back as its family's member.
    """

    def __new__(cls, boundaries, s2: float, t_star: float, k: float = 1.0):
        b = np.asarray(boundaries, dtype=float)
        if b.shape != (11,):
            raise ValueError("boundaries must be 11 strictly increasing values")
        family = _family_of_bytes(b.tobytes(), s2, k)
        if not math.isfinite(t_star):
            raise ValueError("t_star must be finite")
        # t_star's decile: the count of inner boundaries at or below it
        return family._members[bisect.bisect_right(family._bl, t_star, 1, 10) - 1]

    def __reduce__(self):
        # t_star is the decile's lower boundary: unlike the midpoint of two
        # adjacent floats, it always lies in the decile
        return DecileMidpointAssignment, (list(self.family._bl), self.s2, self.family._bl[self.decile], self.k)

    def density(self, t):
        return self.family._density(_checked_points(t), self.decile)


def decile_boundaries(treatments) -> np.ndarray:
    """Empirical 0%,10%,...,100% quantiles of the observed treatments.

    Uses linearly interpolated order statistics (numpy's default,
    Hyndman-Fan type 7); the midpoint of decile j is then
    (b_j + b_{j+1}) / 2. Treatments whose deciles tie, such as one value
    held by most of them, raise ``ValueError``, as the boundaries would
    in a ``DecileMidpointFamily``; fewer than 10 distinct values are
    fine when their deciles increase strictly.
    """
    t = np.asarray(treatments, dtype=float)
    if t.size == 0:
        raise ValueError("need treatment values for deciles")
    if not np.isfinite(t).all():
        raise ValueError("treatment values must be finite")
    b = np.percentile(t, np.linspace(0.0, 100.0, 11))
    _checked_boundaries(b.tolist())
    return b


def _first_three(t, mask) -> list:
    """Up to three distinct treatments at the masked elements, in array
    order, t broadcasting against the mask."""
    t, mask = np.broadcast_arrays(np.asarray(t, dtype=float), mask)
    return list(dict.fromkeys(t[mask].tolist()))[:3]


def likelihood_ratio(num, den, t):
    """Weight num / den from numerator values h(t) and offset GPS
    denominators at the treatments t.

    Weights are zero exactly where the numerator is, and +inf where the
    ratio overflows. A numerator that is negative or NaN raises
    ``ValueError``, and a denominator that is not positive (at or below
    zero, or NaN) under a positive numerator ``PositivityError``; each
    names up to three distinct offending treatments in array order.
    Inputs may be blocks of any shape, t broadcasting against them.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    invalid = ~(num >= 0.0)
    if invalid.any():
        raise ValueError(f"assignment density negative or NaN at t={_first_three(t, invalid)}")
    positive = den > 0.0
    bad = ~positive & (num > 0.0)
    if bad.any():
        what = "NaN" if np.isnan(np.broadcast_to(den, bad.shape)[bad]).any() else "zero"
        raise PositivityError(
            f"{what} propensity density with positive assignment mass at t={_first_three(t, bad)}; "
            "the shift requests treatments the observed data cannot support"
        )
    with np.errstate(over="ignore"):
        return np.where(num > 0.0, num / np.where(positive, den, 1.0), 0.0)

