"""The line transform, its dual, exact fibers, and box-pair pairings.

For a union of boxes E the fiber {s in I : gamma(x, s) in E} is solved in
closed form by one constraint solver for both line families: each box
contributes per-coordinate constraints coef * v**power in a range, so fiber
measures are exact and the only quadrature happens in outer integrals.
Coordinate j's constraint depends on (x1, x_j) alone, so the solver takes
arrays that broadcast.  A grid is evaluated as a tensor product of its
axes, its constraints on x1-by-x_j tables and its points never listed, with
the boxes as one more leading broadcast axis taken a chunk at a time.  A
point list goes through the same kernel with its columns as the arrays, so
grids, point lists and towers' fiber pieces all come from one solver.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .sets import _is_count, as_interval

_CHUNK_LIMIT = 1 << 22
# points x boxes per pass of the exact-fiber kernel, whole first-axis rows on
# a grid: its 64 KiB temporaries stay under the allocator's mmap threshold and
# are reused, where one 4M-point pass maps and page-faults a fresh 32 MiB
# array for each of them
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


def _box_chunks(region, coords, lo, hi):
    """(blo, bhi, first_lo, first_hi) per slice of at most _BLOCK_ROWS
    points x boxes: the bounds, blo[j] shaped (boxes, 1, ...) or a scalar
    for a lone box (numpy adds about 0.5 us to each operation on a 2-d
    array), and fresh (boxes, *points) first-axis ranges, each box's
    clipped to the interval as Python's max(lo, .) and min(hi, .) take it
    (lo where they tie)."""
    shape = np.broadcast(*coords).shape
    size = max(1, _BLOCK_ROWS // max(1, math.prod(shape)))
    tail = (...,) + (None,) * len(shape)
    los, his = region.los.T[tail], region.his.T[tail]
    first = np.array([region.los[:, 0], region.his[:, 0]])
    first[0][first[0] <= lo] = lo
    first[1][first[1] >= hi] = hi
    first = first[tail]
    for start in range(0, region.n_boxes, size):
        boxes = slice(start, min(start + size, region.n_boxes))
        block = np.empty((2, boxes.stop - start, *shape))
        block[...] = first[:, boxes]
        blo, bhi = (region.los[start], region.his[start]) if size == 1 else (los[:, boxes], his[:, boxes])
        yield blo, bhi, block[0], block[1]


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


def _solve(sides, coords, chunks, dual):
    """The constraint solver: for each chunk, its fiber components as
    (clo, chi, present), clo and chi shaped as first_lo; a piece with
    chi < clo is empty.

    A chunk is (blo, bhi, first_lo, first_hi).  For j = 1, ..., d - 1,
    sides[j - 1] is the j-th constraint's _orientation, coords[j] the
    points' j-th coordinates and blo[j], bhi[j] the boxes' j-th sides; they
    broadcast against first_lo and first_hi, the boxes' fresh first-axis
    ranges, which the solver narrows in place.  Both line families meet a
    box where the parameter v lies in its first-axis range and, for each
    j >= 1, coef * v**power lies in a range set by x_j and the box's j-th
    side: coef = x1**j and power 1 forward (x_j + s * x1**j), coef = x1
    and power j dual (x_j - x1 * t**j).  The sign of coef does not depend
    on the box, so each constraint's orientation is resolved once per call,
    point by point only where coef changes sign or vanishes (then the
    constraint holds for every v or none).  A single range narrows the
    components in place.  An even power bounds |v|, which splits a
    component in two when the range excludes 0; a box has the second
    component only when some point splits, which the per-box mask present
    records.
    """
    for blo, bhi, first_lo, first_hi in chunks:
        every = np.ones(len(first_lo), dtype=bool)
        comps = [(first_lo, first_hi, every)]
        for j, (coef, pos, zero) in enumerate(sides, start=1):
            cj = coords[j]
            with np.errstate(divide="ignore", invalid="ignore"):
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
            if not dual or j % 2 == 1:
                if dual and j > 1:
                    mlo, mhi = (np.sign(m) * np.abs(m) ** (1.0 / j) for m in (mlo, mhi))
                for clo, chi, _ in comps:
                    np.maximum(clo, mlo, out=clo)
                    np.minimum(chi, mhi, out=chi)
                continue
            hi_root, lo_root = (np.maximum(m, 0.0) ** (1.0 / j) for m in (mhi, mlo))
            feasible = mhi >= 0.0
            split = feasible & (mlo > 0.0)
            s1_lo = np.where(feasible, np.where(split, lo_root, -hi_root), np.inf)
            s1_hi = np.where(feasible, hi_root, -np.inf)
            s2_lo = np.where(split, -hi_root, np.inf)
            s2_hi = np.where(split, -lo_root, -np.inf)
            present = (s2_lo <= s2_hi).reshape(len(first_lo), -1).any(axis=1)
            halves = [(s1_lo, s1_hi, every)]
            if present.any():
                halves.append((s2_lo, s2_hi, present))
            comps = [
                (np.maximum(clo, h_lo), np.minimum(chi, h_hi), p if q is every else p & q)
                for clo, chi, p in comps
                for h_lo, h_hi, q in halves
            ]
        yield comps


def _fiber_chunks(region, coords, lo, hi, dual):
    """Per chunk of boxes, _solve's comps for every point coords spans, with
    the boxes as one more leading broadcast axis.

    coords holds one array per coordinate; they broadcast to the points'
    shape (the columns of a point list, or a grid's axes as an open mesh).
    Each constraint's _orientation is resolved once, the dual route's one
    coefficient once for all of them.  A forward coefficient x1**j that
    overflows is refused: the solver would divide inf by inf on a box the
    line never reaches, and an overflow carries to the last column.
    """
    d = len(coords)
    coef = _coefficients(coords[0], d, dual)
    if dual:
        sides = [_orientation(coef)] * (d - 1)
    else:
        if not np.isfinite(coef[..., -1]).all():
            raise ValueError("a forward coefficient x1**j overflows: some x1 is too large for this dimension")
        sides = [_orientation(coef[..., j]) for j in range(d - 1)]
    return _solve(sides, coords, _box_chunks(region, coords, lo, hi), dual)


def _box_order(comps):
    """(plo, phi) for each box of a chunk and each component it has, box after
    box, as the pieces of one box at a time would come."""
    for k in range(len(comps[0][0])):
        for plo, phi, present in comps:
            if present[k]:
                yield plo[k], phi[k]


def _fiber_measures(region, coords, lo, hi, dual):
    """Fiber measures at the points coords spans, in their broadcast shape:
    the broadcast kernel, which evaluates grids and point lists alike.

    The kernel runs over blocks of whole first-axis rows of about
    _BLOCK_ROWS points, and within a block over chunks of boxes as one more
    leading broadcast axis, at most _BLOCK_ROWS points x boxes a pass, so no
    (points, boxes) array is held whole; an array that is constant along the
    first axis is shared by every block.  Box i's lengths are added to the
    total after box i - 1's, as one box at a time would add them.
    """
    shape = np.broadcast(*coords).shape
    total = np.zeros(shape)
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        block = [c[rows] if c.shape[0] > 1 else c for c in coords]
        acc = total[rows]
        for comps in _fiber_chunks(region, block, lo, hi, dual):
            for plo, phi, _ in comps:
                np.maximum(np.subtract(phi, plo, out=phi), 0.0, out=phi)
            for _, length in _box_order(comps):
                acc += length
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
    chunks = _fiber_chunks(region, X.T, lo, hi, dual)
    los, his = zip(*(piece for comps in chunks for piece in _box_order(comps)))
    return np.stack(los, axis=1), np.stack(his, axis=1)


# ---------------------------------------------------------------------------
# box-pair pairing <X chi_E, chi_F>


def _grid_axes(lo, hi, step):
    n = max(1, int(np.ceil((hi - lo) / step - 1e-12)))
    w = (hi - lo) / n
    centers = lo + (np.arange(n) + 0.5) * w
    return centers, w


def _midpoint_pairing(source, region, lo, hi, step, dual):
    """Full tensor midpoint rule over region's boxes of source's fiber measures.

    Each box's grid is summed in groups of whole first-axis rows of at most
    _CHUNK_LIMIT points (or one row); a group is evaluated as a tensor
    product of its axes, so no point array is built.
    """
    total = 0.0
    for blo, bhi in zip(region.los, region.his):
        axes, widths = zip(*(_grid_axes(a, b, step) for a, b in zip(blo, bhi)))
        cellvol = float(np.prod(widths))
        group = max(1, _CHUNK_LIMIT // math.prod(a.size for a in axes[1:]))
        box_total = 0.0
        for i0 in range(0, axes[0].size, group):
            mesh = np.ix_(axes[0][i0 : i0 + group], *axes[1:])
            vals = _fiber_measures(source, mesh, lo, hi, dual)
            box_total += float(vals.sum()) * cellvol
        total += box_total
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
        widths = (bhi - blo) / grid_n
        axes = [lo_a + (np.arange(grid_n) + 0.5) * w for lo_a, w in zip(blo, widths)]
        vals = _fiber_measures(source, np.ix_(*axes), lo, hi, dual)
        blocks.append(CellBlock(widths=widths, center_values=vals))
    return blocks
