"""Simple functions on box unions and exact Lorentz-scale norms.

Everything here is closed form: a simple function has finitely many values,
so its distribution function and decreasing rearrangement are step profiles
and all norm integrals reduce to finite sums.
"""

from __future__ import annotations

import numpy as np

from .sets import BoxUnionSet


class SimpleFunction:
    """Nonnegative simple function: weighted sum of disjoint box unions.

    Each support is a BoxUnionSet or the (d, 2) bounds of one box.  The
    supports' boxes are stacked in support order into region, which checks
    that they are disjoint; support_measures holds one measure per support.
    """

    def __init__(self, weights, supports):
        weights = np.array(weights, dtype=float)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-d sequence")
        bounds = [
            s.bounds if isinstance(s, BoxUnionSet) else np.asarray(s, dtype=float)[None]
            for s in supports
        ]
        counts = [b.shape[0] for b in bounds]
        if len(weights) != len(counts):
            raise ValueError("need one weight per support")
        if not counts:
            raise ValueError("need at least one term")
        if not np.all(np.isfinite(weights) & (weights > 0)):
            raise ValueError("weights must be positive and finite")
        if len({b.shape[1:] for b in bounds}) != 1:
            raise ValueError("supports must share a dimension")
        self.weights = weights
        self.region = BoxUnionSet(np.concatenate(bounds))
        self.support_measures = np.add.reduceat(self.region.box_volumes, np.cumsum(counts) - counts)

    def __repr__(self):
        return f"SimpleFunction({len(self.weights)} terms, dim={self.region.dim})"


def _check_supports(measures):
    # every norm refuses a step of zero measure rather than drop it silently
    if np.any(measures <= 0):
        raise ValueError("every support needs positive measure")


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
    if not (np.isfinite(v).all() and np.isfinite(mu).all()):
        raise ValueError("values and measures must be finite")
    if np.any(v < 0):
        raise ValueError("values must be nonnegative")
    _check_supports(mu)
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


def lorentz_norm(f, s, r):
    """Lorentz norm of a simple function, exact via its step profile."""
    return lorentz_norm_from_steps(f.weights, f.support_measures, s, r)


def lp_norm(f, p):
    """Lebesgue p-norm of a simple function with disjoint supports."""
    _check_supports(f.support_measures)
    p = float(p)
    if np.isinf(p):
        return float(f.weights.max())
    if not p > 0:
        raise ValueError("p must be positive")
    return float((f.weights**p * f.support_measures).sum() ** (1.0 / p))
