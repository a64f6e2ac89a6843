"""Axis-aligned boxes, finite disjoint unions, and 1-d fiber sets."""

from __future__ import annotations

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
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError("interval endpoints must be finite")
        if self.hi < self.lo:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo

    @property
    def midpoint(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x, atol=0.0):
        return self.lo - atol <= x <= self.hi + atol

    def intersect(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if hi >= lo else None


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
    def volume(self):
        return float(np.prod(self.his - self.los))

    @property
    def bounds(self):
        return np.stack([self.los, self.his], axis=1)

    def interval(self, axis):
        return Interval(self.los[axis], self.his[axis])

    def contains(self, point, atol=0.0):
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= self.los - atol) and np.all(p <= self.his + atol))

    def overlap_volume(self, other):
        lo = np.maximum(self.los, other.los)
        hi = np.minimum(self.his, other.his)
        return float(np.prod(np.clip(hi - lo, 0.0, None)))

    def translated(self, shift):
        shift = np.asarray(shift, dtype=float)
        return Box(np.stack([self.los + shift, self.his + shift], axis=1))

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

    def contains(self, point, atol=0.0):
        p = np.asarray(point, dtype=float)
        inside = np.all(p >= self.los - atol, axis=1) & np.all(p <= self.his + atol, axis=1)
        return bool(inside.any())

    def contains_batch(self, points, atol=0.0):
        p = np.asarray(points, dtype=float)
        inside = np.zeros(p.shape[0], dtype=bool)
        for lo, hi in zip(self.los, self.his):
            inside |= np.all(p >= lo - atol, axis=1) & np.all(p <= hi + atol, axis=1)
        return inside

    def first_axis_span(self):
        return Interval(float(self.los[:, 0].min()), float(self.his[:, 0].max()))

    def bounding_box(self):
        return Box(np.stack([self.los.min(axis=0), self.his.max(axis=0)], axis=1))

    def translated(self, shift):
        return BoxUnionSet([b.translated(shift) for b in self.boxes], validate=False)

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


class FiberSet:
    """Finite union of disjoint closed intervals on the parameter line.

    Overlapping or touching input intervals are merged; empty inputs
    (hi < lo) are dropped.
    """

    def __init__(self, intervals=()):
        pairs = []
        for item in intervals:
            if isinstance(item, Interval):
                lo, hi = item.lo, item.hi
            else:
                lo, hi = float(item[0]), float(item[1])
            if hi >= lo:
                pairs.append((lo, hi))
        pairs.sort()
        los, his = [], []
        for lo, hi in pairs:
            if los and lo <= his[-1]:
                his[-1] = max(his[-1], hi)
            else:
                los.append(lo)
                his.append(hi)
        self.los = np.asarray(los, dtype=float)
        self.his = np.asarray(his, dtype=float)

    @property
    def n_intervals(self):
        return self.los.size

    @property
    def is_empty(self):
        return self.los.size == 0

    @property
    def measure(self):
        return float((self.his - self.los).sum())

    @property
    def intervals(self):
        return [Interval(lo, hi) for lo, hi in zip(self.los, self.his)]

    def contains(self, x, atol=0.0):
        return bool(np.any((self.los - atol <= x) & (x <= self.his + atol)))

    def cells(self, max_width):
        """Partition into equal cells of width <= max_width per interval.

        Returns (centers, widths); cell measures sum to the fiber measure.
        """
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        centers, widths = [], []
        for lo, hi in zip(self.los, self.his):
            length = hi - lo
            if length == 0.0:
                continue
            n = max(1, int(np.ceil(length / max_width)))
            w = length / n
            centers.append(lo + (np.arange(n) + 0.5) * w)
            widths.append(np.full(n, w))
        if not centers:
            return np.empty(0), np.empty(0)
        return np.concatenate(centers), np.concatenate(widths)

    def __repr__(self):
        spans = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self.los, self.his))
        return f"FiberSet({spans})"
