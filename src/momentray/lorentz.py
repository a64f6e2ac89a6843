"""Simple functions on box unions and exact Lorentz-scale norms.

Everything here is closed form: a simple function has finitely many values,
so its distribution function and decreasing rearrangement are step profiles
and all norm integrals reduce to finite sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sets import BoxUnionSet


class SimpleFunction:
    """Nonnegative simple function: weighted sum of disjoint box unions."""

    def __init__(self, weights, supports, validate=True):
        weights = tuple(float(w) for w in weights)
        supports = tuple(
            s if isinstance(s, BoxUnionSet) else BoxUnionSet([s]) for s in supports
        )
        if len(weights) != len(supports):
            raise ValueError("need one weight per support")
        if not weights:
            raise ValueError("need at least one term")
        if any(w <= 0 or not math.isfinite(w) for w in weights):
            raise ValueError("weights must be positive and finite")
        dims = {s.dim for s in supports}
        if len(dims) != 1:
            raise ValueError("supports must share a dimension")
        self.weights = weights
        self.supports = supports
        # every support's boxes in support order, each carrying its weight
        self.region = BoxUnionSet(
            np.concatenate([s.bounds for s in supports]), validate=validate
        )
        self.box_weights = np.repeat(weights, [s.n_boxes for s in supports])

    @property
    def dim(self):
        return self.supports[0].dim

    @property
    def support_measures(self):
        return np.array([s.measure for s in self.supports])

    def __call__(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for w, s in zip(self.weights, self.supports):
            out += w * s.contains_batch(pts)
        if np.asarray(points).ndim == 1:
            return float(out[0])
        return out

    def __repr__(self):
        return f"SimpleFunction({len(self.weights)} terms, dim={self.dim})"


@dataclass(frozen=True)
class StepProfile:
    """Decreasing rearrangement of a simple function as value/measure steps."""

    values: tuple
    measures: tuple

    def __post_init__(self):
        if len(self.values) != len(self.measures):
            raise ValueError("values and measures must pair up")
        vals = np.array(self.values)
        if vals.size and np.any(np.diff(vals) >= 0):
            raise ValueError("values must be strictly decreasing")
        if any(m <= 0 for m in self.measures):
            raise ValueError("measures must be positive")


def rearrangement(f):
    """Step profile of the decreasing rearrangement, equal values merged."""
    w = np.array(f.weights)
    m = f.support_measures
    order = np.argsort(-w)
    values, measures = [], []
    for i in order:
        if values and w[i] == values[-1]:
            measures[-1] += m[i]
        else:
            values.append(float(w[i]))
            measures.append(float(m[i]))
    return StepProfile(tuple(values), tuple(measures))


def lorentz_norm_from_steps(values, measures, s, r):
    """Exact Lorentz norm of a step rearrangement given as arrays.

    values need not be sorted; they are reordered decreasingly here.  With
    cumulative measures T_k the finite-r norm is
    (sum_k v_k^r (s/r) (T_k^{r/s} - T_{k-1}^{r/s}))^{1/r}, and r = inf gives
    sup_k v_k T_k^{1/s}.
    """
    v = np.asarray(values, dtype=float)
    mu = np.asarray(measures, dtype=float)
    if v.shape != mu.shape or v.ndim != 1:
        raise ValueError("values and measures must be 1-d arrays of equal size")
    if np.any(mu < 0) or np.any(v < 0):
        raise ValueError("values and measures must be nonnegative")
    keep = mu > 0
    v, mu = v[keep], mu[keep]
    if v.size == 0:
        return 0.0
    order = np.argsort(-v)
    v, mu = v[order], mu[order]
    cum = np.cumsum(mu)
    s = float(s)
    if not s > 0:
        raise ValueError("s must be positive")
    if np.isinf(r):
        return float(np.max(v * cum ** (1.0 / s)))
    r = float(r)
    if not r > 0:
        raise ValueError("r must be positive")
    prev = np.concatenate([[0.0], cum[:-1]])
    terms = v**r * (s / r) * (cum ** (r / s) - prev ** (r / s))
    return float(terms.sum() ** (1.0 / r))


def blockwise_lorentz_norm(values, measures, s, r):
    """ell^r aggregate of per-level Lorentz norms.

    Each (value, measure) pair is scored as its own characteristic bump,
    v (s/r)^{1/r} m^{1/s}, and the scores combine in ell^r:
    ((s/r) sum_k v_k^r m_k^{r/s})^{1/r}.  For profiles whose levels live at
    well separated scales this tracks the large-N behaviour of the true
    norm while staying a clean power sum; it is the functional the scaling
    study fits.
    """
    v = np.asarray(values, dtype=float)
    mu = np.asarray(measures, dtype=float)
    if v.shape != mu.shape or v.ndim != 1:
        raise ValueError("values and measures must be 1-d arrays of equal size")
    s = float(s)
    if not s > 0:
        raise ValueError("s must be positive")
    if np.isinf(r):
        return float(np.max(v * mu ** (1.0 / s)))
    r = float(r)
    if not r > 0:
        raise ValueError("r must be positive")
    return float(((s / r) * np.sum(v**r * mu ** (r / s))) ** (1.0 / r))


def lorentz_norm(f, s, r):
    """Lorentz norm of a simple function, exact via its step profile."""
    profile = rearrangement(f)
    return lorentz_norm_from_steps(
        np.array(profile.values), np.array(profile.measures), s, r
    )


def lp_norm(f, p):
    """Lebesgue p-norm of a simple function with disjoint supports."""
    p = float(p)
    if np.isinf(p):
        return float(max(f.weights))
    if not p > 0:
        raise ValueError("p must be positive")
    w = np.array(f.weights)
    m = f.support_measures
    return float((w**p * m).sum() ** (1.0 / p))
