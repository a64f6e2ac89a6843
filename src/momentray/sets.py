"""Intervals, axis-aligned boxes, finite disjoint unions, and fiber cells."""

from __future__ import annotations

import math
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


class Box:
    """Axis-aligned closed box given as per-axis [lo, hi] bounds."""

    def __init__(self, bounds):
        b = np.asarray(bounds, dtype=float)
        if b.ndim != 2 or b.shape[1] != 2 or b.shape[0] < 1:
            raise ValueError("bounds must have shape (d, 2)")
        if not np.all(np.isfinite(b)):
            raise ValueError("box bounds must be finite")
        if np.any(b[:, 1] < b[:, 0]):
            raise ValueError("box has an upper bound below its lower bound")
        self.los = b[:, 0].copy()
        self.his = b[:, 1].copy()

    @property
    def dim(self):
        return self.los.size

    @property
    def bounds(self):
        return np.stack([self.los, self.his], axis=1)

    def interval(self, axis):
        return Interval(self.los[axis], self.his[axis])

    def dilated_nonisotropic(self, delta):
        """Scale axis i (0-based) by delta^(i+1); delta must be positive."""
        if delta <= 0:
            raise ValueError("dilation factor must be positive")
        powers = float(delta) ** np.arange(1, self.dim + 1)
        return Box(np.stack([self.los * powers, self.his * powers], axis=1))

    def __repr__(self):
        spans = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in self.bounds)
        return f"Box({spans})"


class BoxUnionSet:
    """Finite union of pairwise measure-disjoint axis-aligned boxes."""

    def __init__(self, boxes, validate=True):
        boxes = [b if isinstance(b, Box) else Box(b) for b in boxes]
        if not boxes:
            raise ValueError("need at least one box")
        dim = boxes[0].dim
        if any(b.dim != dim for b in boxes):
            raise ValueError("all boxes must share the same dimension")
        self.los = np.stack([b.los for b in boxes])
        self.his = np.stack([b.his for b in boxes])
        if validate:
            self._check_disjoint()

    def _check_disjoint(self):
        for i in range(self.n_boxes - 1):
            lo = np.maximum(self.los[i], self.los[i + 1 :])
            hi = np.minimum(self.his[i], self.his[i + 1 :])
            overlaps = np.prod(np.clip(hi - lo, 0.0, None), axis=1)
            if np.any(overlaps > 0.0):
                j = i + 1 + int(np.argmax(overlaps > 0.0))
                raise ValueError(f"boxes {i} and {j} overlap with positive measure")

    @property
    def dim(self):
        return self.los.shape[1]

    @property
    def n_boxes(self):
        return self.los.shape[0]

    @property
    def boxes(self):
        return [Box(np.stack([lo, hi], axis=1)) for lo, hi in zip(self.los, self.his)]

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
        return BoxUnionSet(
            [b.dilated_nonisotropic(delta) for b in self.boxes], validate=False
        )

    @classmethod
    def from_box(cls, bounds):
        return cls([Box(bounds)], validate=False)

    def to_jsonable(self):
        return [b.bounds.tolist() for b in self.boxes]

    @classmethod
    def from_jsonable(cls, data, validate=True):
        return cls([Box(b) for b in data], validate=validate)

    def __repr__(self):
        return f"BoxUnionSet(dim={self.dim}, n_boxes={self.n_boxes}, measure={self.measure:g})"


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
    if max_width <= 0:
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
