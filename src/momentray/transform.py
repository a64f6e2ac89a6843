"""The line transform, its dual, exact fibers, and box-pair pairings.

For a union of boxes E the fiber {s in I : gamma(x, s) in E} is solved in
closed form: each box contributes an intersection of per-coordinate
constraints that are linear in s (forward family) or monomial in t (dual
family), so fiber measures are exact and the only quadrature happens in
outer integrals.  Coordinate j's constraint depends on (x1, x_j) alone, so
one kernel takes per-axis coordinate arrays that broadcast: the columns of
a point list, or a grid's axes.  A grid is evaluated as a tensor product,
its constraints on x1-by-x_j tables, and its points are never listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lorentz import SimpleFunction
from .sets import BoxUnionSet, _is_count, as_interval

_CHUNK_LIMIT = 1 << 22
# points per pass of the exact-fiber kernel, whole first-axis rows on a grid:
# its 64 KiB temporaries stay under the allocator's mmap threshold and are
# reused, where one 4M-point pass maps and page-faults a fresh 32 MiB array
# for each of them
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


def _primal_pieces(region, coords, lo, hi):
    """Per box i, (i, slo, shi): the fiber endpoints at every point.

    coords holds one array per coordinate; they broadcast to the points'
    shape (the columns of a point list, or a grid's axes as an open mesh).
    The line through x meets a box where s lies in its first-axis range and
    x_j + s * x1**j in its j-th range, each constraint linear in s and a
    function of (x1, x_j) alone.  A piece with shi < slo is empty.
    """
    d, x1 = len(coords), coords[0]
    powers = x1[..., None] ** np.arange(1, d)
    for i, (blo, bhi) in enumerate(zip(region.los, region.his)):
        slo = np.full(x1.shape, max(lo, blo[0]))
        shi = np.full(x1.shape, min(hi, bhi[0]))
        for j in range(1, d):
            coef = powers[..., j - 1]
            cj = coords[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                a = (blo[j] - cj) / coef
                b = (bhi[j] - cj) / coef
            lo_j = np.where(coef > 0, a, b)
            hi_j = np.where(coef > 0, b, a)
            zero = coef == 0.0
            if np.any(zero):
                ok = (cj >= blo[j]) & (cj <= bhi[j])
                lo_j = np.where(zero, np.where(ok, -np.inf, np.inf), lo_j)
                hi_j = np.where(zero, np.where(ok, np.inf, -np.inf), hi_j)
            slo = np.maximum(slo, lo_j)
            shi = np.minimum(shi, hi_j)
        yield i, slo, shi


def _dual_pieces(region, coords, lo, hi):
    """Per box i, (i, clo, chi) for each component of the fiber at every point.

    coords as for _primal_pieces.  The dual line meets a box where t lies in
    its first-axis range and x1 * t**j in x_j minus its j-th range, again a
    function of (x1, x_j) alone.  For even j that is a range of |t|, which
    splits a component in two when it excludes 0; a component is added only
    when some point splits.  A piece with chi < clo is empty.
    """
    d, x1 = len(coords), coords[0]
    zero = x1 == 0.0
    any_zero = np.any(zero)
    for i, (blo, bhi) in enumerate(zip(region.los, region.his)):
        comps = [(np.full(x1.shape, max(lo, blo[0])), np.full(x1.shape, min(hi, bhi[0])))]
        for j in range(1, d):
            tlo = coords[j] - bhi[j]
            thi = coords[j] - blo[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                r1 = tlo / x1
                r2 = thi / x1
            mlo = np.minimum(r1, r2)
            mhi = np.maximum(r1, r2)
            if any_zero:
                ok = (tlo <= 0.0) & (0.0 <= thi)
                mlo = np.where(zero, np.where(ok, -np.inf, np.inf), mlo)
                mhi = np.where(zero, np.where(ok, np.inf, -np.inf), mhi)
            inv = 1.0 / j
            if j == 1:
                halves = [(mlo, mhi)]
            elif j % 2 == 1:
                halves = [(np.sign(mlo) * np.abs(mlo) ** inv, np.sign(mhi) * np.abs(mhi) ** inv)]
            else:
                hi_root = np.maximum(mhi, 0.0) ** inv
                lo_root = np.maximum(mlo, 0.0) ** inv
                feasible = mhi >= 0.0
                split = feasible & (mlo > 0.0)
                s1_lo = np.where(feasible, np.where(split, lo_root, -hi_root), np.inf)
                s1_hi = np.where(feasible, hi_root, -np.inf)
                s2_lo = np.where(split, -hi_root, np.inf)
                s2_hi = np.where(split, -lo_root, -np.inf)
                halves = [(s1_lo, s1_hi)]
                if np.any(s2_lo <= s2_hi):
                    halves.append((s2_lo, s2_hi))
            comps = [
                (np.maximum(clo, h_lo), np.minimum(chi, h_hi))
                for clo, chi in comps
                for h_lo, h_hi in halves
            ]
        for clo, chi in comps:
            yield i, clo, chi


def _pieces(region, coords, lo, hi, dual):
    return (_dual_pieces if dual else _primal_pieces)(region, coords, lo, hi)


def _fiber_measures(region, coords, lo, hi, dual, weights=None):
    """Fiber measures at the points coords spans, in their broadcast shape.

    The kernel runs one box at a time over blocks of whole first-axis rows
    of about _BLOCK_ROWS points, so no (points, pieces) array is held; an
    array that is constant along the first axis is shared by every block.
    """
    shape = np.broadcast(*coords).shape
    total = np.zeros(shape)
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        rows = slice(start, start + step)
        block = [c[rows] if c.shape[0] > 1 else c for c in coords]
        for i, plo, phi in _pieces(region, block, lo, hi, dual):
            length = np.clip(phi - plo, 0.0, None)
            total[rows] += length if weights is None else weights[i] * length
    return total


def _fiber_points(region, points):
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[1] != region.dim:
        raise ValueError("point dimension does not match the set")
    return X


def fiber_measure_batch(region, points, interval, dual=False, weights=None):
    """Exact fiber measures for a batch of points, shape (n, d) -> (n,).

    With weights (one per box), box i's fiber length counts weights[i]
    times: the transform of the step function sum_i w_i 1_{box i}.
    """
    lo, hi = _interval_pair(interval)
    X = _fiber_points(region, points)
    if weights is not None and len(weights) != region.n_boxes:
        raise ValueError("need one weight per box")
    out = _fiber_measures(region, X.T, lo, hi, dual, weights)
    return float(out[0]) if np.ndim(points) == 1 else out


def fiber_pieces(region, points, interval, dual=False):
    """Exact fiber pieces for a batch of points: (los, his), each (n, k).

    Column k is one box's fiber, or one component of it on the dual route,
    for every point; a piece with his < los is empty.  Pieces from touching
    boxes can touch, so point i's fiber is the union of row i's pieces, which
    sets.fiber_cells merges and cuts into cells.
    """
    lo, hi = _interval_pair(interval)
    X = _fiber_points(region, points)
    _, los, his = zip(*_pieces(region, X.T, lo, hi, dual))
    return np.stack(los, axis=1), np.stack(his, axis=1)


# ---------------------------------------------------------------------------
# the transform and its dual on points


def apply_x(f, interval, x):
    """Line transform of f at x: integral of f(gamma(x, s)) over s in I.

    Exact for box unions and simple functions.  Accepts a single point (d,)
    or a batch (n, d).
    """
    interval = as_interval(interval)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(f, BoxUnionSet):
        out = fiber_measure_batch(f, X, interval)
    elif isinstance(f, SimpleFunction):
        out = fiber_measure_batch(f.region, X, interval, weights=f.box_weights)
    else:
        raise TypeError(f"unsupported integrand type: {type(f).__name__}")
    return float(out[0]) if np.asarray(x).ndim == 1 else out


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


_GL_CACHE = {}


def _leggauss(n):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _overlap_product_integrals(a_lo, a_hi, b_lo, b_hi, scales, exps, v_lo, v_hi):
    """Exact integrals over v in [v_lo, v_hi], one per row i of scales, of
    prod_j |[a_j] ∩ ([b_j] + scales[i, j] * v**exps[j])|.

    The integrand is piecewise polynomial: each factor is piecewise linear
    in the shift, so between shift-crossing breakpoints a Gauss-Legendre
    rule of sufficient order is exact.  Every row has the same breakpoint
    slots: v_lo, v_hi, 0 and the real roots of v**exps[j] == c / scales[i, j]
    for the four edge differences c.  A slot without a real root (NaN) or
    without a finite one (zero scale) holds v_lo, so after clipping and
    sorting the spare slots are zero-width segments that add exactly 0.
    Rows are processed in chunks of at most _CHUNK_LIMIT quadrature points.
    """
    diffs = np.stack([a_lo - b_lo, a_lo - b_hi, a_hi - b_lo, a_hi - b_hi], axis=1)
    nodes, weights = _leggauss(sum(exps) // 2 + 1)
    n_seg = 2 + 4 * sum(1 if e % 2 else 2 for e in exps)
    block = max(1, _CHUNK_LIMIT // (n_seg * nodes.size))
    out = np.empty(scales.shape[0])
    for start in range(0, scales.shape[0], block):
        sc = scales[start : start + block]
        n = sc.shape[0]
        cols = [np.full((n, 1), v_lo), np.full((n, 1), v_hi), np.zeros((n, 1))]
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, e in enumerate(exps):
                ratio = diffs[j] / sc[:, j, None]
                if e == 1:
                    cols.append(ratio)
                elif e % 2:
                    cols.append(np.copysign(np.abs(ratio) ** (1.0 / e), ratio))
                else:
                    root = ratio ** (1.0 / e)  # NaN where ratio < 0
                    cols.extend((-root, root))
        pts = np.concatenate(cols, axis=1)
        pts[~np.isfinite(pts)] = v_lo
        np.clip(pts, v_lo, v_hi, out=pts)
        pts.sort(axis=1)
        half = 0.5 * (pts[:, 1:] - pts[:, :-1])
        mid = 0.5 * (pts[:, 1:] + pts[:, :-1])
        v = mid[:, :, None] + half[:, :, None] * nodes
        prod = np.ones_like(v)
        for j, e in enumerate(exps):
            shift = sc[:, j, None, None] * v**e
            ov = np.minimum(a_hi[j], b_hi[j] + shift) - np.maximum(a_lo[j], b_lo[j] + shift)
            np.clip(ov, 0.0, None, out=ov)
            prod *= ov
        out[start : start + block] = (half * (prod @ weights)).sum(axis=1)
    return out


def _pairing_layered(E, F, lo, hi, step, dual):
    """Pairing value with midpoint in the first coordinate only.

    Primal route: for each first coordinate y of a point of F, the fiber
    measure integrated exactly over F's remaining coordinates and the line
    parameter.  Dual route: the mirror image over E with the parameter
    running through the window, where breakpoints come from real roots of
    the parameter powers.  Contributions add exactly across box pairs
    because a line point lies in at most one box of a disjoint union.
    All first-axis midpoints of a box pair go through one kernel call.
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
            scales = np.repeat(centers[:, None], d - 1, axis=1)
        else:
            scales = -(centers[:, None] ** np.arange(1, d))
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


def bilinear_form(E, F, interval, quad=None):
    """Pairing <X chi_E, chi_F> with exact inner fibers over the interval."""
    if E.dim != F.dim:
        raise ValueError("E and F must share a dimension")
    quad = quad or QuadSpec()
    lo, hi = _interval_pair(interval)
    if quad.method == "layered":
        return _pairing_layered(E, F, lo, hi, quad.step, dual=False)
    return _midpoint_pairing(E, F, lo, hi, quad.step, dual=False)


def bilinear_form_dual(E, F, window, quad=None):
    """Pairing <chi_E, X* chi_F> with exact dual fibers over the window.

    Equals bilinear_form(E, F, I) when the interval covers E's first-axis
    span and the window covers F's; the window condition is enforced here.
    """
    if E.dim != F.dim:
        raise ValueError("E and F must share a dimension")
    quad = quad or QuadSpec()
    lo, hi = _interval_pair(window)
    _check_covers(lo, hi, F, "window", "F")
    if quad.method == "layered":
        return _pairing_layered(E, F, lo, hi, quad.step, dual=True)
    return _midpoint_pairing(F, E, lo, hi, quad.step, dual=True)


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
