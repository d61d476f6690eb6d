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
recipe.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property

import numpy as np

from .dist import NormalParams, _checked_points

__all__ = [
    "UniformAssignment",
    "DecileMidpointAssignment",
    "PositivityError",
    "decile_boundaries",
    "decile_index",
    "likelihood_ratio",
]


class PositivityError(ValueError):
    """Zero GPS density (with zero offset) at a point that carries
    assignment mass."""


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


class DecileMidpointAssignment:
    """Normal numerator centered at the midpoint of t_star's decile.

    Treatments outside t_star's decile get k times the same density.
    Two instances compare and hash equal exactly when their densities
    are the same: same boundaries, s2, k and decile of t_star, whatever
    t_star is within that decile. A prediction band relies on this to
    calibrate once per decile rather than once per grid point.

    A band builds one instance per grid point and keeps one per decile,
    so construction is lean: it validates the inputs and resolves
    t_star's decile from one list of the boundaries, with no array copy,
    and hashes the key once. The owned read-only ``boundaries`` array
    and the Normal numerator are built on first use. Instances are
    immutable. Unlike the other assignments this is a plain class: a
    dataclass field cannot be built lazily, and a frozen dataclass's
    per-field ``object.__setattr__`` made each construction about 1 µs
    slower.
    """

    def __init__(self, boundaries, s2: float, t_star: float, k: float = 1.0):
        b = np.asarray(boundaries, dtype=float)
        if b.shape != (11,):
            raise ValueError("boundaries must be 11 strictly increasing values")
        bl = b.tolist()
        # strictly increasing between finite ends: every boundary is then finite
        if not (math.isfinite(bl[0]) and math.isfinite(bl[10]) and all(map(operator.lt, bl, bl[1:]))):
            if not all(map(math.isfinite, bl)):
                raise ValueError("boundaries must be finite")
            raise ValueError("boundaries must be 11 strictly increasing values")
        if not 0.0 < k <= 1.0:
            raise ValueError("k must lie in (0, 1]")
        if not math.isfinite(s2):
            raise ValueError("s2 must be finite")
        if s2 <= 0.0:
            raise ValueError("s2 must be positive")
        if not math.isfinite(t_star):
            raise ValueError("t_star must be finite")
        # decile_index of t_star: the count of inner boundaries at or below it
        j = bisect.bisect_right(bl, t_star, 1, 10) - 1
        key = (tuple(bl), s2, k, j)
        self.__dict__.update(s2=s2, t_star=t_star, k=k, _key=key, _hash=hash(key))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"DecileMidpointAssignment(boundaries={list(self._key[0])}, s2={self.s2!r}, "
            f"t_star={self.t_star!r}, k={self.k!r})"
        )

    @cached_property
    def boundaries(self) -> np.ndarray:
        """The 11 increasing boundaries, an owned read-only array."""
        b = np.array(self._key[0])
        b.flags.writeable = False
        return b

    @cached_property
    def _numerator(self) -> NormalParams:
        bl, s2, _, j = self._key
        return NormalParams(0.5 * (bl[j] + bl[j + 1]), s2)

    def density(self, t):
        t = np.asarray(t, dtype=float)
        base = self._numerator.density(t)
        same = decile_index(self.boundaries, t) == self._key[3]
        return np.where(same, base, self.k * base)


def decile_boundaries(treatments) -> np.ndarray:
    """Empirical 0%,10%,...,100% quantiles of the observed treatments.

    Uses linearly interpolated order statistics (numpy's default,
    Hyndman-Fan type 7); the midpoint of decile j is then
    (b_j + b_{j+1}) / 2.
    """
    t = np.asarray(treatments, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("treatment values must be finite")
    if np.unique(t).size < 10:
        raise ValueError("need at least 10 distinct treatment values for deciles")
    return np.percentile(t, np.linspace(0.0, 100.0, 11))


def decile_index(boundaries, t):
    """0-based decile of a finite t; values beyond the outer boundaries
    clamp to 0/9, because only the 9 inner boundaries are searched."""
    b, t = np.asarray(boundaries, dtype=float), np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError("treatment values must be finite")
    return np.searchsorted(b[1:-1], t, side="right")


def likelihood_ratio(num, den, t):
    """Weight num / den from numerator values h(t) and offset GPS
    denominators at the treatments t.

    Weights are zero exactly where the numerator is; a denominator at or
    below zero under a positive numerator raises ``PositivityError``,
    naming up to three distinct offending treatments in array order.
    Inputs may be blocks of any shape, t broadcasting against them.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    bad = (den <= 0.0) & (num > 0.0)
    if np.any(bad):
        t = np.broadcast_to(np.asarray(t, dtype=float), bad.shape)
        t_bad = list(dict.fromkeys(t[bad].tolist()))[:3]
        raise PositivityError(
            f"zero propensity density with positive assignment mass at t={t_bad}; "
            "the shift requests treatments the observed data cannot support"
        )
    return np.where(num > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)

