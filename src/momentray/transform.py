"""The line transform, its dual, exact fibers, and box-pair pairings.

For a union of boxes E the fiber {s in I : gamma(x, s) in E} is solved in
closed form: each box contributes an intersection of per-coordinate
constraints that are linear in s (forward family) or monomial in t (dual
family), so fiber measures are exact and the only quadrature happens in
outer integrals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sets import BoxUnionSet, as_interval

_CHUNK_LIMIT = 1 << 22


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


def _primal_pieces(region, X, lo, hi):
    """Per box, the fiber endpoints (slo, shi) of every row of X.

    The line through x meets a box where s lies in its first-axis range
    and x_j + s * x1**j in its j-th range, each constraint linear in s.
    A piece with shi < slo is empty.
    """
    n, d = X.shape
    x1 = X[:, 0]
    powers = x1[:, None] ** np.arange(1, d)[None, :]
    for blo, bhi in zip(region.los, region.his):
        slo = np.full(n, max(lo, blo[0]))
        shi = np.full(n, min(hi, bhi[0]))
        for j in range(1, d):
            coef = powers[:, j - 1]
            cj = X[:, j]
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
        yield slo, shi


def _dual_pieces(region, X, lo, hi):
    """Per box, the component endpoints (clo, chi) of every row of X.

    The dual line meets a box where t lies in its first-axis range and
    x1 * t**j in x_j minus its j-th range.  For even j that is a range of
    |t|, which splits a component in two when it excludes 0; a column is
    added only when some row splits.  A piece with chi < clo is empty.
    """
    n, d = X.shape
    x1 = X[:, 0]
    zero = x1 == 0.0
    for blo, bhi in zip(region.los, region.his):
        comp_lo = [np.full(n, max(lo, blo[0]))]
        comp_hi = [np.full(n, min(hi, bhi[0]))]
        for j in range(1, d):
            tlo = X[:, j] - bhi[j]
            thi = X[:, j] - blo[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                r1 = tlo / x1
                r2 = thi / x1
            mlo = np.minimum(r1, r2)
            mhi = np.maximum(r1, r2)
            if np.any(zero):
                ok = (tlo <= 0.0) & (0.0 <= thi)
                mlo = np.where(zero, np.where(ok, -np.inf, np.inf), mlo)
                mhi = np.where(zero, np.where(ok, np.inf, -np.inf), mhi)
            inv = 1.0 / j
            if j % 2 == 1:
                if j == 1:
                    s1_lo, s1_hi = mlo, mhi
                else:
                    s1_lo = np.sign(mlo) * np.abs(mlo) ** inv
                    s1_hi = np.sign(mhi) * np.abs(mhi) ** inv
                s2_lo = np.full(n, np.inf)
                s2_hi = np.full(n, -np.inf)
            else:
                hi_root = np.maximum(mhi, 0.0) ** inv
                lo_root = np.maximum(mlo, 0.0) ** inv
                feasible = mhi >= 0.0
                split = feasible & (mlo > 0.0)
                s1_lo = np.where(feasible, np.where(split, lo_root, -hi_root), np.inf)
                s1_hi = np.where(feasible, hi_root, -np.inf)
                s2_lo = np.where(split, -hi_root, np.inf)
                s2_hi = np.where(split, -lo_root, -np.inf)
            new_lo, new_hi = [], []
            for clo, chi in zip(comp_lo, comp_hi):
                new_lo.append(np.maximum(clo, s1_lo))
                new_hi.append(np.minimum(chi, s1_hi))
                if np.any(s2_lo <= s2_hi):
                    new_lo.append(np.maximum(clo, s2_lo))
                    new_hi.append(np.minimum(chi, s2_hi))
            comp_lo, comp_hi = new_lo, new_hi
        yield from zip(comp_lo, comp_hi)


def _pieces(region, X, lo, hi, dual):
    return (_dual_pieces if dual else _primal_pieces)(region, X, lo, hi)


def _fiber_measures(region, X, lo, hi, dual):
    # one box at a time, so no (n, pieces) array is ever held
    total = np.zeros(X.shape[0])
    for plo, phi in _pieces(region, X, lo, hi, dual):
        total += np.clip(phi - plo, 0.0, None)
    return total


def _fiber_points(region, points):
    X = np.atleast_2d(np.asarray(points, dtype=float))
    if X.shape[1] != region.dim:
        raise ValueError("point dimension does not match the set")
    return X


def fiber_measure_batch(region, points, interval, dual=False):
    """Exact fiber measures for a batch of points, shape (n, d) -> (n,)."""
    lo, hi = _interval_pair(interval)
    X = _fiber_points(region, points)
    out = _fiber_measures(region, X, lo, hi, dual)
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
    los, his = zip(*_pieces(region, X, lo, hi, dual))
    return np.stack(los, axis=1), np.stack(his, axis=1)


# ---------------------------------------------------------------------------
# the transform and its dual on points


def _is_simple_function(f):
    return hasattr(f, "weights") and hasattr(f, "supports")


def apply_x(f, interval, x):
    """Line transform of f at x: integral of f(gamma(x, s)) over s in I.

    Exact for box unions and simple functions.  Accepts a single point (d,)
    or a batch (n, d).
    """
    interval = as_interval(interval)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(f, BoxUnionSet):
        out = fiber_measure_batch(f, X, interval)
    elif _is_simple_function(f):
        out = np.zeros(X.shape[0])
        for w, support in zip(f.weights, f.supports):
            out += w * fiber_measure_batch(support, X, interval)
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


def _midpoint_box_sum(values_fn, blo, bhi, step):
    axes, widths = [], []
    for lo_a, hi_a in zip(blo, bhi):
        centers, w = _grid_axes(lo_a, hi_a, step)
        axes.append(centers)
        widths.append(w)
    cellvol = float(np.prod(widths))
    counts = [a.size for a in axes]
    rest = int(np.prod(counts[1:])) if len(counts) > 1 else 1
    block = max(1, _CHUNK_LIMIT // max(rest, 1))
    total = 0.0
    for i0 in range(0, counts[0], block):
        sub = [axes[0][i0 : i0 + block]] + axes[1:]
        mesh = np.meshgrid(*sub, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        total += float(values_fn(pts).sum()) * cellvol
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


def _outer_integral(values_fn, region, step):
    return sum(
        _midpoint_box_sum(values_fn, blo, bhi, step)
        for blo, bhi in zip(region.los, region.his)
    )


def bilinear_form(E, F, interval, quad=None):
    """Pairing <X chi_E, chi_F> with exact inner fibers over the interval."""
    if E.dim != F.dim:
        raise ValueError("E and F must share a dimension")
    quad = quad or QuadSpec()
    lo, hi = _interval_pair(interval)
    if quad.method == "layered":
        return _pairing_layered(E, F, lo, hi, quad.step, dual=False)
    return _outer_integral(
        lambda pts: _fiber_measures(E, pts, lo, hi, False), F, quad.step
    )


def bilinear_form_dual(E, F, window, quad=None):
    """Pairing <chi_E, X* chi_F> with exact dual fibers over the window.

    Equals bilinear_form(E, F, I) when the interval covers E's first-axis
    span and the window covers F's; the window condition is enforced here.
    """
    if E.dim != F.dim:
        raise ValueError("E and F must share a dimension")
    quad = quad or QuadSpec()
    lo, hi = _interval_pair(window)
    span = F.first_axis_span()
    if span.lo < lo - 1e-12 or span.hi > hi + 1e-12:
        raise ValueError(
            f"window [{lo}, {hi}] does not cover F's first-axis span "
            f"[{span.lo}, {span.hi}]"
        )
    if quad.method == "layered":
        return _pairing_layered(E, F, lo, hi, quad.step, dual=True)
    return _outer_integral(
        lambda pts: _fiber_measures(F, pts, lo, hi, True), E, quad.step
    )


def adjointness_gap(E, F, interval, window, quad=None):
    """Both sides of the pairing identity and their relative gap.

    The identity needs the interval to cover E's first-axis span and the
    window to cover F's (otherwise one side silently loses incidences), so
    both conditions are enforced.
    """
    lo, hi = _interval_pair(interval)
    span = E.first_axis_span()
    if span.lo < lo - 1e-12 or span.hi > hi + 1e-12:
        raise ValueError(
            f"interval [{lo}, {hi}] does not cover E's first-axis span "
            f"[{span.lo}, {span.hi}]"
        )
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

    lows: np.ndarray
    widths: np.ndarray
    counts: tuple
    center_values: np.ndarray
    corner_values: np.ndarray | None = None  # no longer filled; bench/ reads it

    @property
    def cell_volume(self):
        return float(np.prod(self.widths))


def region_cell_values(source, region, interval, grid_n, dual=False):
    """Evaluate the transform of chi_source on per-box grids over region."""
    lo, hi = _interval_pair(interval)
    blocks = []
    for blo, bhi in zip(region.los, region.his):
        counts = tuple(int(grid_n) for _ in range(region.dim))
        widths = (bhi - blo) / np.array(counts)
        axes = [
            blo[a] + (np.arange(counts[a]) + 0.5) * widths[a]
            for a in range(region.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        vals = _fiber_measures(source, pts, lo, hi, dual)
        blocks.append(
            CellBlock(
                lows=blo.copy(),
                widths=widths,
                counts=counts,
                center_values=vals.reshape(counts),
            )
        )
    return blocks
