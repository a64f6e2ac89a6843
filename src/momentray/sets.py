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


class BoxUnionSet:
    """Finite union of pairwise measure-disjoint axis-aligned closed boxes.

    Built from (d, 2) per-axis [lo, hi] bounds, one per box (or one
    (n, d, 2) array); los and his hold them as (n, d) arrays.
    """

    def __init__(self, boxes):
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
        self._check_disjoint()

    def _check_disjoint(self):
        """Sweep the axis with the fewest candidates: sorted by lower bound, box p can
        overlap only later boxes q with lo[q] < hi[p], tested as min(hi) - max(lo) > 0."""
        if self.n_boxes < 2:  # no pair to test
            return
        position = np.arange(self.n_boxes)
        orders = np.argsort(self.los, axis=0, kind="stable")
        los, his = (b[orders, np.arange(self.dim)].T for b in (self.los, self.his))
        stops = np.array([np.searchsorted(lo, hi) for lo, hi in zip(los, his)])
        counts = np.maximum(stops - position - 1, 0)
        axis = np.argmin(counts.sum(axis=1))
        if not counts[axis].any():
            return
        order, counts = orders[:, axis], counts[axis]
        first = np.repeat(position, counts)
        second = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts) + first + 1
        i, j = order[first], order[second]
        overlap = np.ones(first.size, dtype=bool)
        for lo, hi in zip(self.los.T, self.his.T):
            overlap &= np.minimum(hi[i], hi[j]) - np.maximum(lo[i], lo[j]) > 0.0
        if overlap.any():
            pair = (np.minimum(i, j) * self.n_boxes + np.maximum(i, j))[overlap].min()
            i, j = divmod(int(pair), self.n_boxes)
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
        """Which of the (n, d) points lie in a box widened by atol; a single
        (d,) point is refused, not read as a batch of one."""
        p = np.asarray(points, dtype=float)
        if p.ndim != 2 or p.shape[1] != self.dim:
            raise ValueError("point dimension does not match the set")
        columns = p.T.copy()
        inside = np.zeros(p.shape[0], dtype=bool)
        for lo, hi in zip(self.los - atol, self.his + atol):
            box = np.ones(p.shape[0], dtype=bool)
            for x, a, b in zip(columns, lo, hi):
                box &= x >= a
                box &= x <= b
            inside |= box
        return inside

    def first_axis_span(self):
        return Interval(float(self.los[:, 0].min()), float(self.his[:, 0].max()))

    def dilated_nonisotropic(self, delta):
        """Scale axis i (0-based) by delta^(i+1); delta must be positive."""
        if delta <= 0:
            raise ValueError("dilation factor must be positive")
        powers = float(delta) ** np.arange(1, self.dim + 1)
        return BoxUnionSet(self.bounds * powers[:, None])

    def __repr__(self):
        return f"BoxUnionSet(dim={self.dim}, n_boxes={self.n_boxes}, measure={self.measure:g})"


def _is_count(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_interval(value):
    """An Interval from an Interval or a (lo, hi) pair: finite, lo <= hi."""
    return value if isinstance(value, Interval) else Interval(*value)


def fiber_cells(los, his, max_width, max_cells, seed):
    """Cut every row's fiber into equal cells of width at most max_width.

    los and his are (n, k) piece endpoints as transform.fiber_pieces returns
    them; a piece with his < los or a NaN end is empty.  Each row's pieces
    are sorted, touching or overlapping ones merged with a running maximum,
    and every merged interval of positive length is cut into
    max(1, ceil(length / max_width)) equal cells; a count, or a total over
    all rows, of 2^63 or more is refused.  When the total n exceeds
    max_cells, only a sorted draw of max_cells cell indices
    (default_rng(seed), without replacement) is built; each merged interval
    takes as many of the drawn cells as a search of its end in them counts,
    so past the draw no array longer than max_cells or the interval count
    is built.  Returns (rows, centers, widths, scale), one entry per built
    cell, ordered by row and then along the line, with scale = n / max_cells
    when cells were drawn and 1.0 otherwise; a row's widths sum to its fiber
    measure when every cell is built.
    """
    if not max_width > 0:
        raise ValueError("max_width must be positive")
    valid = his >= los
    los = np.where(valid, los, np.inf)  # empty pieces sort last
    order = np.lexsort((his, los), axis=1)
    order += np.arange(0, order.size, los.shape[1])[:, None]  # flat positions
    los, his, valid = (a.take(order) for a in (los, his, valid))
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
    with np.errstate(over="ignore"):
        cells = np.ceil(length / max_width)
    if not np.all(cells < 2.0**63):
        raise ValueError(f"a fiber needs 2^63 or more cells of width {max_width}")
    counts = np.maximum(1, cells.astype(int))
    ends = np.cumsum(counts)
    # counts are below 2^63, so a total past it wraps to a smaller running sum
    if np.any(ends[1:] <= ends[:-1]):
        raise ValueError(f"the fibers need 2^63 or more cells of width {max_width} in all")
    n = int(counts.sum())
    if n <= max_cells:
        cell, scale, built = np.arange(n), 1.0, counts
    else:
        cell = np.random.default_rng(seed).choice(n, size=max_cells, replace=False)
        cell.sort()
        scale = n / max_cells
        # the drawn cells below each segment's end give its share of them
        built = np.diff(np.searchsorted(cell, ends), prepend=0)
    segment = np.repeat(np.arange(ends.size), built)
    cell -= (ends - counts).take(segment)  # each cell's index in its segment
    width = (length / counts).take(segment)
    centers = cell + 0.5
    centers *= width
    centers += lo.take(segment)
    return rows.take(segment), centers, width, scale
