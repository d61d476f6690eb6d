"""Intervention (treatment-assignment) distributions and stabilized weights.

The weight attached to a calibration point is the likelihood ratio

    w(t, x) = h(t) / (f_hat(t | x) + offset),

where h is a covariate-free assignment density (the counterfactual
allocation of interest) and f_hat the fitted generalized propensity
score. The default offset is zero and a vanishing denominator raises
``PositivityError``: a zero conditional density at an observed point is
a positivity violation and should surface, not be smoothed over.

The decile-midpoint variant reproduces a discretized allocation: the
numerator is a Normal centered at the midpoint of the decile containing
the treatment of interest, scaled by k for calibration treatments that
fall in a different decile (k = 1 means no scaling). With k < 1 the
numerator is deliberately not a normalized density; it is a weight
recipe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dist import (
    NormalParams,
    TruncatedNormalParams,
    _truncated_normal_logpdf_core,
    normal_pdf,
)

__all__ = [
    "AssignmentDist",
    "NormalAssignment",
    "TruncatedNormalAssignment",
    "UniformAssignment",
    "DecileMidpointAssignment",
    "WeightConfig",
    "PositivityError",
    "assignment_density",
    "decile_boundaries",
    "decile_index",
    "decile_midpoint",
    "likelihood_ratio",
    "stabilized_weight",
]


class PositivityError(ValueError):
    """Zero GPS density (with zero offset) at a point that carries
    assignment mass."""


@dataclass(frozen=True)
class NormalAssignment:
    params: NormalParams

    def density(self, t):
        return normal_pdf(t, self.params)


@dataclass(frozen=True)
class TruncatedNormalAssignment:
    params: TruncatedNormalParams

    def density(self, t):
        p = self.params
        out = np.exp(_truncated_normal_logpdf_core(np.asarray(t, dtype=float), p.mean, p.sd, p.lower, p.upper))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class UniformAssignment:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("uniform assignment needs lower < upper")

    def density(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.lower) & (t <= self.upper)
        out = np.where(inside, 1.0 / (self.upper - self.lower), 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DecileMidpointAssignment:
    """Normal numerator centered at the midpoint of t_star's decile.

    Treatments outside t_star's decile get k times the same density.
    t_star's decile and the numerator are resolved once, at construction.
    """

    boundaries: np.ndarray  # 11 increasing reals
    s2: float
    t_star: float
    k: float = 1.0

    def __post_init__(self):
        b = np.array(self.boundaries, dtype=float)
        if b.shape != (11,) or not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be 11 strictly increasing values")
        if not 0.0 < self.k <= 1.0:
            raise ValueError("k must lie in (0, 1]")
        if self.s2 <= 0.0:
            raise ValueError("s2 must be positive")
        b.flags.writeable = False
        object.__setattr__(self, "boundaries", b)
        object.__setattr__(self, "_decile", decile_index(b, self.t_star))
        object.__setattr__(self, "_numerator", NormalParams(decile_midpoint(b, self.t_star), self.s2))

    def density(self, t):
        t = np.asarray(t, dtype=float)
        base = normal_pdf(t, self._numerator)
        same = decile_index(self.boundaries, t) == self._decile
        out = np.where(same, base, self.k * base)
        return float(out) if out.ndim == 0 else out


AssignmentDist = (
    NormalAssignment | TruncatedNormalAssignment | UniformAssignment | DecileMidpointAssignment
)


@dataclass(frozen=True)
class WeightConfig:
    """Offset added to the GPS denominator (0 = hard positivity check)."""

    offset: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.offset) and self.offset >= 0.0):
            raise ValueError("offset must be finite and >= 0")


def assignment_density(h, t):
    """Numerator density h(t) of the stabilized weight."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr)):
        raise ValueError("treatment values must be finite")
    return h.density(t)


def decile_boundaries(treatments) -> np.ndarray:
    """Empirical 0%,10%,...,100% quantiles of the observed treatments.

    Uses linearly interpolated order statistics (numpy's default,
    Hyndman-Fan type 7); the midpoint of decile j is then
    (b_j + b_{j+1}) / 2.
    """
    t = np.asarray(treatments, dtype=float)
    if np.unique(t).size < 10:
        raise ValueError("need at least 10 distinct treatment values for deciles")
    return np.percentile(t, np.linspace(0.0, 100.0, 11))


def decile_index(boundaries, t):
    """0-based decile of t; values beyond the outer boundaries clamp to 0/9."""
    b = np.asarray(boundaries, dtype=float)
    return np.clip(np.searchsorted(b[1:-1], np.asarray(t, dtype=float), side="right"), 0, 9)


def decile_midpoint(boundaries, t) -> float:
    b = np.asarray(boundaries, dtype=float)
    j = int(decile_index(b, float(t)))
    return 0.5 * (b[j] + b[j + 1])


def likelihood_ratio(num, den, t):
    """Weight num / den from numerator values h(t) and offset GPS
    denominators at the treatments t.

    Weights are zero exactly where the numerator is; a denominator at or
    below zero under a positive numerator raises ``PositivityError``.
    Scalar inputs give a float.
    """
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    scalar = num.ndim == 0 and den.ndim == 0
    num, den = np.atleast_1d(num), np.atleast_1d(den)
    bad = (den <= 0.0) & (num > 0.0)
    if np.any(bad):
        t_bad = np.atleast_1d(np.asarray(t, dtype=float))[bad][:3]
        raise PositivityError(
            f"zero propensity density with positive assignment mass at t={t_bad.tolist()}; "
            "the shift requests treatments the observed data cannot support"
        )
    out = np.where(num > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
    return float(out[0]) if scalar else out


def stabilized_weight(h, gps, cfg: WeightConfig, t, x):
    """Likelihood-ratio weight h(t) / (gps.density(t, x) + offset).

    Vectorized over rows of (t, x). Weights are zero exactly where h
    puts no mass; a zero denominator under positive numerator raises
    ``PositivityError`` when the offset is zero.
    """
    return likelihood_ratio(assignment_density(h, t), gps.density(t, x) + cfg.offset, t)
