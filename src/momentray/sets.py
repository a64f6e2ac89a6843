"""Intervals, finite disjoint unions of axis-aligned boxes, and fiber cells."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo


# rows of the blocked all-pairs disjointness check: each block holds
# (rows, boxes, d) arrays, and a set of more boxes needs several blocks
_DISJOINT_BLOCK = 256


class BoxUnionSet:
    """Finite union of pairwise measure-disjoint axis-aligned closed boxes.

    Built from (d, 2) per-axis [lo, hi] bounds, one per box (or one
    (n, d, 2) array); los and his hold them as (n, d) arrays.
    """

    def __init__(self, boxes, validate=True):
        bounds = np.asarray(boxes, dtype=float)
        if bounds.size == 0:
            raise ValueError("need at least one box")
        if bounds.ndim != 3 or bounds.shape[2] != 2:
            raise ValueError("box bounds must have shape (d, 2), the same d for every box")
        if not np.all(np.isfinite(bounds)):
            raise ValueError("box bounds must be finite")
        self.los = bounds[:, :, 0].copy()
        self.his = bounds[:, :, 1].copy()
        if np.any(self.his < self.los):
            raise ValueError("box has an upper bound below its lower bound")
        if validate:
            self._check_disjoint()

    def _check_disjoint(self):
        # box i against boxes j >= start, so each pair is met once, row-major
        n = self.n_boxes
        for start in range(0, n - 1, _DISJOINT_BLOCK):
            stop = min(start + _DISJOINT_BLOCK, n)
            lo = np.maximum(self.los[start:stop, None, :], self.los[None, start:, :])
            hi = np.minimum(self.his[start:stop, None, :], self.his[None, start:, :])
            overlap = np.prod(np.clip(hi - lo, 0.0, None), axis=2)
            bad = np.argwhere(np.triu(overlap > 0.0, k=1))
            if bad.size:
                i, j = start + bad[0]
                raise ValueError(f"boxes {i} and {j} overlap with positive measure")

    @property
    def dim(self):
        return self.los.shape[1]

    @property
    def n_boxes(self):
        return self.los.shape[0]

    @property
    def bounds(self):
        return np.stack([self.los, self.his], axis=2)

    @property
    def measure(self):
        return float(np.prod(self.his - self.los, axis=1).sum())

    @property
    def box_volumes(self):
        return np.prod(self.his - self.los, axis=1)

    def contains_batch(self, points, atol=0.0):
        p = np.asarray(points, dtype=float)
        inside = np.zeros(p.shape[0], dtype=bool)
        for lo, hi in zip(self.los, self.his):
            inside |= np.all(p >= lo - atol, axis=1) & np.all(p <= hi + atol, axis=1)
        return inside

    def first_axis_span(self):
        return Interval(float(self.los[:, 0].min()), float(self.his[:, 0].max()))

    def dilated_nonisotropic(self, delta):
        """Scale axis i (0-based) by delta^(i+1); delta must be positive."""
        if delta <= 0:
            raise ValueError("dilation factor must be positive")
        powers = float(delta) ** np.arange(1, self.dim + 1)
        return BoxUnionSet(self.bounds * powers[:, None], validate=False)

    def to_jsonable(self):
        return self.bounds.tolist()

    def __repr__(self):
        return f"BoxUnionSet(dim={self.dim}, n_boxes={self.n_boxes}, measure={self.measure:g})"


def _is_count(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_interval(value):
    """An Interval from an Interval or a (lo, hi) pair: finite, lo <= hi."""
    return value if isinstance(value, Interval) else Interval(*value)


def fiber_cells(los, his, max_width):
    """Cut every row's fiber into equal cells of width at most max_width.

    los and his are (n, k) piece endpoints as transform.fiber_pieces returns
    them; a piece with his < los or a NaN end is empty.  Each row's pieces
    are sorted, touching or overlapping ones merged with a running maximum,
    and every merged interval of positive length is cut into
    max(1, ceil(length / max_width)) equal cells.  Returns (rows, centers,
    widths), one entry per cell, ordered by row and then along the line; a
    row's widths sum to its fiber measure.
    """
    if not max_width > 0:
        raise ValueError("max_width must be positive")
    valid = his >= los
    los = np.where(valid, los, np.inf)  # empty pieces sort last
    order = np.lexsort((his, los), axis=1)
    los, his, valid = (np.take_along_axis(a, order, axis=1) for a in (los, his, valid))
    reach = np.maximum.accumulate(np.where(valid, his, -np.inf), axis=1)
    start = valid.copy()
    start[:, 1:] &= los[:, 1:] > reach[:, :-1]
    last = valid.copy()
    last[:, :-1] &= start[:, 1:] | ~valid[:, 1:]
    rows, cols = np.nonzero(start)
    lo = los[rows, cols]
    length = reach[last] - lo
    positive = length != 0.0
    rows, lo, length = rows[positive], lo[positive], length[positive]
    counts = np.maximum(1, np.ceil(length / max_width).astype(int))
    width = np.repeat(length / counts, counts)
    index = np.arange(width.size) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.repeat(rows, counts), np.repeat(lo, counts) + (index + 0.5) * width, width
