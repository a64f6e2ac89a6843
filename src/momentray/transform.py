"""The line transform, its dual, exact fibers, and box-pair pairings.

For a union of boxes E the fiber {s in I : gamma(x, s) in E} is solved in
closed form by one constraint solver for both line families: each box
contributes per-coordinate constraints coef * v**power in a range, so fiber
measures are exact and the only quadrature happens in outer integrals.
Coordinate j's constraint depends on (x1, x_j) alone, so the solver takes
arrays that broadcast and works in three stages, one box at a time.  The
table stage solves each constraint once per box and block of first-axis
rows on an x1-by-x_j table.  On a grid in d >= 3, where a table is far
smaller than the rows it spans, the reach test marks from the tables the
first-axis rows the box can reach.  The combine stage intersects the ranges
and adds the lengths to the running total at full size, only over the rows
reached, and hands each block of rows on once every box is in it: to one
output array, filled in place, or to the tensor midpoint rule, which sums
the block's rows at once and so never holds a grid's values whole.  A grid
is evaluated as a tensor product of its axes and its points are never
listed.  A point list goes through the same solver with its columns as the
tables, so grids, point lists and towers' fiber pieces all come from one
solver and agree bit for bit.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .sets import _is_count, as_interval

# quadrature points per chunk of the layered pairing's kernel
_CHUNK_LIMIT = 1 << 22
# values per table and points per pass of the exact-fiber kernel, whole
# first-axis rows on a grid: its 64 KiB temporaries stay under the
# allocator's mmap threshold and are reused, where one 4M-point pass maps and
# page-faults a fresh 32 MiB array for each of them
_BLOCK_ROWS = 8192


class NoIncidence(ValueError):
    """The lines through the given sets never meet the other set: a pairing,
    a grid transform or a tower level came out empty.  This is a measured
    outcome of the input, not a malformed request."""


@dataclass(frozen=True)
class QuadSpec:
    """Outer-integral quadrature for the box-pair pairings.

    "layered" (default) applies composite midpoint along the first
    coordinate only and integrates the remaining coordinates and the line
    parameter exactly, so its error is one-dimensional regardless of the
    ambient dimension.  "midpoint" is a full per-axis tensor midpoint rule.
    """

    method: str = "layered"
    step: float = 1.0 / 512.0

    def __post_init__(self):
        if self.method not in ("layered", "midpoint"):
            raise ValueError("method must be 'layered' or 'midpoint'")
        if not self.step > 0:
            raise ValueError("step must be positive")


def _interval_pair(interval):
    interval = as_interval(interval)
    return interval.lo, interval.hi


# ---------------------------------------------------------------------------
# exact fibers


def _orientation(coef):
    """(coef, pos, zero): pos is a bool where coef has one sign, else the mask
    coef > 0, and zero then the mask coef == 0, or None where none is."""
    pos = coef > 0.0
    if (all_pos := pos.all()) or (coef < 0.0).all():
        return coef, bool(all_pos), None
    zero = coef == 0.0
    return coef, pos, zero if zero.any() else None


def _coefficients(x1, d, dual):
    """The constraints' coefficients: x1 on the dual route, else x1**j for
    j = 1, ..., d - 1 along a last axis, each the previous times x1, so an
    overflow carries to the last, silently: the caller refuses it (numpy's
    pow costs about 80 ns a value)."""
    if dual:
        return x1
    coef = np.empty(x1.shape + (d - 1,))
    coef[..., 0] = x1
    with np.errstate(over="ignore"):
        for j in range(1, d - 1):
            np.multiply(coef[..., j - 1], x1, out=coef[..., j])
    return coef


def _tables(sides, coords, blo, bhi, flo, fhi, dual):
    """One box's constraint tables over a block of rows, (first, later).

    For j = 1, ..., d - 1, sides[j - 1] is the j-th constraint's
    _orientation, coords[j] the points' j-th coordinates and blo[j], bhi[j]
    the box's j-th side.  Both line families meet a box where the
    parameter v lies in its first-axis range [flo, fhi] and, for each
    j >= 1, coef * v**power lies in a range set by x_j and the box's j-th
    side: coef = x1**j and power 1 forward (x_j + s * x1**j), coef = x1
    and power j dual (x_j - x1 * t**j).  So constraint j's range is a table
    over (x1, x_j) alone.  The sign of coef does not depend on the box, so
    each constraint's orientation is resolved once per block of rows, point
    by point only where coef changes sign or vanishes (then the constraint
    holds for every v or none).  A range end that overflows is inf.

    first is constraint 1's range clipped to the first-axis range, (lo, hi).
    later holds, for each j >= 2, constraint j's halves (lo, hi): one range,
    or on the dual route for even j, where |v| is bounded, two when the
    range excludes 0; the second half is kept only when some point splits.
    A range with hi < lo is empty.
    """
    first, later = None, []
    for j, (coef, pos, zero) in enumerate(sides, start=1):
        cj = coords[j]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if dual:
                a, b = (cj - bhi[j]) / coef, (cj - blo[j]) / coef
            else:
                a, b = (blo[j] - cj) / coef, (bhi[j] - cj) / coef
        if isinstance(pos, bool):
            mlo, mhi = (a, b) if pos else (b, a)
        else:
            mlo, mhi = np.where(pos, a, b), np.where(pos, b, a)
        if zero is not None:
            ok = (cj >= blo[j]) & (cj <= bhi[j])
            mlo = np.where(zero, np.where(ok, -np.inf, np.inf), mlo)
            mhi = np.where(zero, np.where(ok, np.inf, -np.inf), mhi)
        if j == 1:
            first = np.maximum(flo, mlo, out=mlo), np.minimum(fhi, mhi, out=mhi)
        elif not dual or j % 2 == 1:
            if dual:
                mlo, mhi = (np.sign(m) * np.abs(m) ** (1.0 / j) for m in (mlo, mhi))
            later.append([(mlo, mhi)])
        else:
            hi_root, lo_root = (np.maximum(m, 0.0) ** (1.0 / j) for m in (mhi, mlo))
            feasible = mhi >= 0.0
            split = feasible & (mlo > 0.0)
            s1_lo = np.where(feasible, np.where(split, lo_root, -hi_root), np.inf)
            halves = [(s1_lo, np.where(feasible, hi_root, -np.inf))]
            s2_lo, s2_hi = np.where(split, -hi_root, np.inf), np.where(split, -lo_root, -np.inf)
            if (s2_lo <= s2_hi).any():
                halves.append((s2_lo, s2_hi))
            later.append(halves)
    return first, later


def _solve(region, coords, lo, hi, dual, block_rows):
    """The table stage, one solver for grids and point lists: per block of
    block_rows first-axis rows, box after box, (rows, flo, fhi, tables),
    rows the block's slice, [flo, fhi] the box's first-axis range clipped
    to [lo, hi] as Python's max(lo, .) and min(hi, .) take it, and tables
    as _tables gives them.

    coords holds one array per coordinate, all with one number of axes;
    they broadcast to the points' shape (the columns of a point list, or a
    grid's axes as an open mesh).  x1 varies along the first axis alone, so
    constraint j's table spans the block's rows and x_j's axes.  A forward
    coefficient x1**j that overflows is refused: the solver would divide
    inf by inf on a box the line never reaches, and an overflow carries to
    the last column.
    """
    d, (n, *_) = len(coords), coords[0].shape
    boxes = [
        (blo, bhi, max(lo, blo[0]), min(hi, bhi[0]))
        for blo, bhi in zip(region.los.tolist(), region.his.tolist())
    ]
    for start in range(0, max(n, 1), block_rows):
        rows = slice(start, start + block_rows)
        block = [c[rows] if c.shape[0] > 1 else c for c in coords]
        coef = _coefficients(block[0], d, dual)
        if dual:
            sides = [_orientation(coef)] * (d - 1)
        else:
            if not np.isfinite(coef[..., -1]).all():
                raise ValueError("a forward coefficient x1**j overflows: some x1 is too large for this dimension")
            sides = [_orientation(coef[..., j]) for j in range(d - 1)]
        for blo, bhi, flo, fhi in boxes:
            yield rows, flo, fhi, _tables(sides, block, blo, bhi, flo, fhi, dual)


def _components(tables, rows=None):
    """The fiber components (clo, chi) at the given rows of the tables (all
    of them by default), at full size: one for every choice of one half per
    later constraint, each narrowed constraint after constraint."""
    first, later = tables
    for halves in itertools.product(*later):
        clo, chi = first if rows is None else (first[0][rows], first[1][rows])
        for h_lo, h_hi in halves:
            if rows is not None:
                h_lo, h_hi = h_lo[rows], h_hi[rows]
            clo, chi = np.maximum(clo, h_lo), np.minimum(chi, h_hi)
        yield clo, chi


def _reach(tables, flo, fhi):
    """Per first-axis row, whether the box is reached: False only where
    some constraint's range, clipped to the first-axis range, is empty at
    every point of the row.  NaN counts as reached."""
    first, later = tables
    axes = tuple(range(1, first[0].ndim))
    reached = (~(first[0] > first[1])).any(axis=axes)
    for halves in later:
        hit = None
        for h_lo, h_hi in halves:
            ok = ~(np.maximum(flo, h_lo) > np.minimum(fhi, h_hi))
            hit = ok if hit is None else hit | ok
        reached &= hit.any(axis=axes)
    return reached


def _length(clo, chi):
    """max(chi - clo, 0), written over chi, which no stage reads again."""
    length = np.subtract(chi, clo, out=chi)
    return np.maximum(length, 0.0, out=length)


def _runs(mask):
    """(start, stop) of each run of True in a 1-d mask."""
    edges = np.flatnonzero(np.diff(mask, prepend=False, append=False))
    return zip(edges[::2].tolist(), edges[1::2].tolist())


def _combined(region, coords, lo, hi, dual, out=None):
    """The exact-fiber kernel over the points coords spans, in three stages:
    per block of first-axis rows, (rows, acc), acc the block's fiber
    measures, yielded once every box has been added to it.  acc is out's
    block, filled in place, or without out a fresh array of the block alone.

    Tables: _solve's constraint ranges over (x1, x_j), once per block of
    first-axis rows and box, at most _BLOCK_ROWS values each (or one row).
    Reach: where the tables are narrower than the rows (a grid in d >= 3),
    the rows the box reaches.  Combine: each component's intersection,
    length and running total at full size, over the rows the box reaches
    in blocks of at most _BLOCK_ROWS points (or one row), or where the
    tables are as wide as the rows, over the whole block.  Box i's lengths
    are added to the total after box i - 1's; a row skipped would have
    added exactly +0.0, so every value keeps its bits.
    """
    shape = np.broadcast(*coords).shape if out is None else out.shape
    points = math.prod(shape[1:])
    width = max([math.prod(c.shape[1:]) for c in coords[1:]])
    step = max(1, _BLOCK_ROWS // points)
    solved = _solve(region, coords, lo, hi, dual, max(1, _BLOCK_ROWS // width))
    for rows, boxes in itertools.groupby(solved, key=lambda item: item[0]):
        if out is None:
            acc = np.zeros((len(range(shape[0])[rows]), *shape[1:]))
        else:
            acc = out[rows]
        for _, flo, fhi, tables in boxes:
            if width == points:
                for clo, chi in _components(tables):
                    acc += _length(clo, chi)
                continue
            for start, stop in _runs(_reach(tables, flo, fhi)):
                for r in range(start, stop, step):
                    block = slice(r, min(r + step, stop))
                    for clo, chi in _components(tables, block):
                        acc[block] += _length(clo, chi)
        yield rows, acc


def _fiber_measures(region, coords, lo, hi, dual):
    """Fiber measures at the points coords spans, in their broadcast shape:
    _combined filling one array in place, so grids, point lists and towers
    take the same kernel."""
    total = np.zeros(np.broadcast(*coords).shape)
    for _ in _combined(region, coords, lo, hi, dual, total):
        pass
    return total


def _fiber_points(region, points, interval):
    """(X, lo, hi): the points as a finite (n, d) array, and the interval."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[1] != region.dim:
        raise ValueError("point dimension does not match the set")
    if X.shape[1] < 2:
        raise ValueError("points need at least 2 coordinates: d = 1 has no line complex")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite")
    return X, *_interval_pair(interval)


def fiber_measure_batch(region, points, interval, *, dual):
    """Exact fiber measures for a batch of points, (n, d) -> (n,), along the
    dual lines (parameter t) or the forward lines (parameter s).

    One point (d,) is a batch of one.  The points' columns go through the
    broadcast kernel (_fiber_measures) that evaluates grids, so a point
    list and a grid give the same values at the same points bit for bit.
    """
    X, lo, hi = _fiber_points(region, points, interval)
    return _fiber_measures(region, X.T, lo, hi, dual)


def fiber_pieces(region, points, interval, dual=False):
    """Exact fiber pieces for a batch of points: (los, his), each (n, k).

    Column k is one box's fiber, or one component of it on the dual route,
    for every point; a piece with his < los is empty.  Pieces from touching
    boxes can touch, so point i's fiber is the union of row i's pieces, which
    sets.fiber_cells merges and cuts into cells.
    """
    X, lo, hi = _fiber_points(region, points, interval)
    chunks = _solve(region, X.T, lo, hi, dual, max(1, len(X)))
    los, his = zip(*(piece for *_, tables in chunks for piece in _components(tables)))
    return np.stack(los, axis=1), np.stack(his, axis=1)


# ---------------------------------------------------------------------------
# box-pair pairing <X chi_E, chi_F>


def _cell_axis(lo, hi, n):
    """The centres and the width of n equal cells over [lo, hi]."""
    w = (hi - lo) / n
    return lo + (np.arange(n) + 0.5) * w, w


def _grid_axes(lo, hi, step):
    """_cell_axis with the fewest cells no wider than step (to 1e-12)."""
    return _cell_axis(lo, hi, max(1, int(np.ceil((hi - lo) / step - 1e-12))))


def _midpoint_pairing(source, region, lo, hi, step, dual):
    """Full tensor midpoint rule over region's boxes of source's fiber measures.

    Each box's grid is evaluated as a tensor product of its axes and never
    held whole: each block of first-axis rows the kernel finishes is
    reduced to its rows' sums at once, and the box's sum is the sum of those
    row sums, so it does not depend on how the rows are blocked.
    """
    total = 0.0
    for blo, bhi in zip(region.los, region.his):
        axes, widths = zip(*(_grid_axes(a, b, step) for a, b in zip(blo, bhi)))
        row_sums = np.zeros(axes[0].size)
        for rows, acc in _combined(source, np.ix_(*axes), lo, hi, dual):
            row_sums[rows] = acc.reshape(len(acc), -1).sum(axis=1)
        total += float(row_sums.sum()) * float(np.prod(widths))
    return total


@functools.cache
def _leggauss(n):
    # looked up at call time: numpy loads np.polynomial on first access
    return np.polynomial.legendre.leggauss(n)


def _breakpoints(diffs, sc, exps, v_lo, v_hi):
    """Each row's breakpoints, (slots, rows), clipped to [v_lo, v_hi] and
    sorted: v_lo, 0, v_hi and the real roots of v**exps[j] == c / sc[j]
    for the edge differences c in diffs[j].  A NaN slot (no real root)
    holds v_lo and an infinite one (zero scale) v_lo or v_hi."""
    pts = np.empty((3 + 4 * sum(1 if e % 2 else 2 for e in exps), len(sc[0])))
    pts[0], pts[1], pts[-1] = v_lo, 0.0, v_hi
    k = 2
    with np.errstate(divide="ignore", invalid="ignore"):
        for c, s, e in zip(diffs, sc, exps):
            if e == 1:
                np.divide(c, s, out=pts[k : k + 4])
            elif e % 2:
                ratio = c / s
                pts[k : k + 4] = np.copysign(np.abs(ratio) ** (1.0 / e), ratio)
            else:
                root = (c / s) ** (1.0 / e)  # NaN where the ratio is negative
                pts[k : k + 4], pts[k + 4 : k + 8] = -root, root
            k += 4 if e % 2 else 8
    np.fmin(np.fmax(pts, v_lo, out=pts), v_hi, out=pts)  # NaN -> v_lo
    pts[1:-1].sort(axis=0)  # v_lo and v_hi are in place
    return pts


def _overlap_product_integrals(a_lo, a_hi, b_lo, b_hi, scales, exps, v_lo, v_hi):
    """Exact integrals over v in [v_lo, v_hi], one per row i, of
    prod_j |[a_j] ∩ ([b_j] + scales[j][i] * v**exps[j])|.

    The integrand is piecewise polynomial, so between the breakpoints a
    Gauss-Legendre rule of sufficient order is exact.  Every operation runs
    along the rows: breakpoints are laid out (slots, rows) and quadrature
    points (nodes, segments, rows).  The spare slots make zero-width
    segments; the leading and trailing ones, zero-width on every row of a
    chunk, are sliced off before the integrand is evaluated.  Node values
    and segments are added one after another in a fixed order, so a
    zero-width segment adds exactly 0 and a row's value does not depend on
    the chunking.  A chunk holds at most _CHUNK_LIMIT quadrature points
    before trimming.
    """
    out = np.zeros(len(scales[0]))
    if v_hi <= v_lo:
        return out
    a_lo, a_hi, b_lo, b_hi = (x.tolist() for x in (a_lo, a_hi, b_lo, b_hi))
    edges = zip(a_lo, a_hi, b_lo, b_hi)
    diffs = np.array([(al - bl, al - bh, ah - bl, ah - bh) for al, ah, bl, bh in edges])
    nodes, weights = _leggauss(sum(exps) // 2 + 1)
    n_seg = 2 + 4 * sum(1 if e % 2 else 2 for e in exps)
    block = max(1, _CHUNK_LIMIT // (n_seg * nodes.size))
    for start in range(0, out.size, block):
        sc = [s[start : start + block] for s in scales]
        pts = _breakpoints(diffs[:, :, None], sc, exps, v_lo, v_hi)
        # each row's v_lo copies lead and its v_hi copies trail
        first = bisect.bisect_right(pts.max(axis=1).tolist(), v_lo) - 1
        last = bisect.bisect_left(pts.min(axis=1).tolist(), v_hi)
        lo, hi = pts[first:last], pts[first + 1 : last + 1]
        half = hi - lo
        half *= 0.5
        mid = hi + lo
        mid *= 0.5
        v = half * nodes[:, None, None]
        v += mid
        prod = None
        for j, e in enumerate(exps):  # in place: few (nodes, segments, rows) arrays live
            shift = (v**e if e > 1 else v) * sc[j]
            ov = np.add(b_hi[j], shift)
            np.minimum(a_hi[j], ov, out=ov)
            ov -= np.maximum(a_lo[j], np.add(b_lo[j], shift, out=shift), out=shift)
            np.maximum(ov, 0.0, out=ov)
            prod = ov if prod is None else np.multiply(prod, ov, out=prod)
        prod *= weights[:, None, None]
        seg = prod[0]
        for p in prod[1:]:
            seg += p
        seg *= half
        row = out[start : start + block]
        for s in seg:
            row += s
    return out


def _pairing_layered(E, F, lo, hi, step, dual):
    """Pairing value with midpoint in the first coordinate only.

    Primal route: for each first coordinate y of a point of F, the fiber
    measure integrated exactly over F's remaining coordinates and the line
    parameter.  Dual route: the mirror image over E with the parameter
    running through the window, where breakpoints come from real roots of
    the parameter powers.  Contributions add exactly across box pairs
    because a line point lies in at most one box of a disjoint union.
    All first-axis midpoints of a box pair go through one kernel call, with
    one row of scales per remaining coordinate: -y**j on the primal route,
    the midpoints themselves on the dual route.
    """
    d = E.dim
    if dual:
        outer, inner, exps = E, F, tuple(range(1, d))
    else:
        outer, inner, exps = F, E, (1,) * (d - 1)
    total = 0.0
    for o_lo, o_hi in zip(outer.los, outer.his):
        centers, w = _grid_axes(o_lo[0], o_hi[0], step)
        if dual:
            scales = [centers] * (d - 1)
        else:
            scales = -(centers[:, None] ** np.arange(1, d)).T
        for i_lo, i_hi in zip(inner.los, inner.his):
            v_lo, v_hi = max(lo, i_lo[0]), min(hi, i_hi[0])
            if v_hi <= v_lo:
                continue
            vals = _overlap_product_integrals(
                o_lo[1:], o_hi[1:], i_lo[1:], i_hi[1:], scales, exps, v_lo, v_hi
            )
            total += w * float(vals.sum())
    return float(total)


def _check_covers(lo, hi, region, what, name):
    span = region.first_axis_span()
    if span.lo < lo - 1e-12 or span.hi > hi + 1e-12:
        raise ValueError(
            f"{what} [{lo}, {hi}] does not cover {name}'s first-axis span "
            f"[{span.lo}, {span.hi}]"
        )


def _pairing(E, F, span, quad, dual):
    """Both pairings: the primal route integrates E's fibers over the
    interval, the dual route F's dual fibers over the window, which must
    cover F's first-axis span."""
    if E.dim != F.dim:
        raise ValueError("E and F must share a dimension")
    quad = quad or QuadSpec()
    lo, hi = _interval_pair(span)
    if dual:
        _check_covers(lo, hi, F, "window", "F")
    if quad.method == "layered":
        return _pairing_layered(E, F, lo, hi, quad.step, dual)
    source, region = (F, E) if dual else (E, F)
    return _midpoint_pairing(source, region, lo, hi, quad.step, dual)


def bilinear_form(E, F, interval, quad=None):
    """Pairing <X chi_E, chi_F> with exact inner fibers over the interval."""
    return _pairing(E, F, interval, quad, dual=False)


def bilinear_form_dual(E, F, window, quad=None):
    """Pairing <chi_E, X* chi_F> with exact dual fibers over the window.

    Equals bilinear_form(E, F, I) when the interval covers E's first-axis
    span and the window covers F's; the window condition is enforced here.
    """
    return _pairing(E, F, window, quad, dual=True)


def adjointness_gap(E, F, interval, window, quad=None):
    """Both sides of the pairing identity and their relative gap.

    The identity needs the interval to cover E's first-axis span and the
    window to cover F's (otherwise one side silently loses incidences), so
    both conditions are enforced.
    """
    lo, hi = _interval_pair(interval)
    _check_covers(lo, hi, E, "interval", "E")
    primal = bilinear_form(E, F, (lo, hi), quad)
    dual = bilinear_form_dual(E, F, window, quad)
    denom = max(abs(primal), abs(dual))
    return {
        "primal": primal,
        "dual": dual,
        "abs_gap": abs(primal - dual),
        "rel_gap": abs(primal - dual) / denom if denom > 0 else 0.0,
    }


# ---------------------------------------------------------------------------
# the transform on per-box midpoint grids


@dataclass
class CellBlock:
    """Midpoint grid over one region box with transform values attached."""

    widths: np.ndarray
    center_values: np.ndarray
    corner_values: np.ndarray | None = None  # no longer filled; bench/ reads it

    @property
    def cell_volume(self):
        return float(np.prod(self.widths))


def region_cell_values(source, region, interval, grid_n, dual=False):
    """Evaluate the transform of chi_source on per-box grids over region."""
    if not _is_count(grid_n):
        raise ValueError(f"grid_n must be an integer, got {grid_n!r}")
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {grid_n!r}")
    lo, hi = _interval_pair(interval)
    blocks = []
    for blo, bhi in zip(region.los, region.his):
        axes, widths = zip(*(_cell_axis(a, b, grid_n) for a, b in zip(blo, bhi)))
        vals = _fiber_measures(source, np.ix_(*axes), lo, hi, dual)
        blocks.append(CellBlock(widths=np.array(widths), center_values=vals))
    return blocks
