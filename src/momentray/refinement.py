"""Desk-scale method of refinements: parameter towers over a set pair.

A tower starts from a base point, takes the exact parameter fiber into the
opposite set, keeps the above-average part, and repeats with the two line
families alternating.  Cells partition exact fiber sets, so every stored
parameter tuple genuinely maps into the prescribed set; discretization only
controls how finely rich fibers are subdivided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    PHI,
    PSI,
    estimate_c_d,
    incidence_path,
    jacobian_closed_form,
    jacobian_numeric,
)
from .sets import BoxUnionSet, FiberSet, Interval
from .transform import bilinear_form, fiber_measure_batch, fiber_pieces


@dataclass(frozen=True)
class TowerConfig:
    cell_width: float = 1.0 / 32.0
    keep_fraction: float = 0.5
    base_candidates: int = 64
    max_nodes: int = 20000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        if self.cell_width <= 0:
            raise ValueError("cell_width must be positive")
        if self.base_candidates < 1 or self.max_nodes < 1:
            raise ValueError("base_candidates and max_nodes must be positive")


class TowerCollapse(ValueError):
    """A refinement level emptied out; carries the level label."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"tower collapse at level {label}")


@dataclass
class TowerLevel:
    label: int
    param_kind: str  # "t" (dual family) or "s" (forward family)
    target: str  # "E" or "F"
    measure: float
    threshold: float
    min_kept_fiber: float
    n_nodes: int
    params: np.ndarray = field(repr=False)  # (n, depth_so_far) cell centers
    widths: np.ndarray = field(repr=False)  # (n, depth_so_far)
    weights: np.ndarray = field(repr=False)  # (n,) subsampling multipliers
    parent_idx: np.ndarray = field(repr=False)  # (n,) index into previous level


@dataclass
class Tower:
    dim: int
    start: str  # "phi" or "psi"
    base: np.ndarray
    levels: list
    E: BoxUnionSet
    F: BoxUnionSet
    interval: Interval
    window: Interval
    config: TowerConfig

    @property
    def depth(self):
        return len(self.levels)

    @property
    def top(self):
        return self.levels[-1]


def _sample_points(region, count, rng):
    vols = region.box_volumes
    idx = rng.choice(region.n_boxes, size=count, p=vols / vols.sum())
    lo = region.los[idx]
    hi = region.his[idx]
    return lo + rng.uniform(size=(count, region.dim)) * (hi - lo)


def _advance_points(points, values, use_dual):
    """Apply one line-family step to a batch of points, one value each."""
    points = np.asarray(points, dtype=float)
    values = np.asarray(values, dtype=float)
    d = points.shape[1]
    out = np.empty_like(points)
    out[:, 0] = values
    exps = np.arange(1, d)[None, :]
    if use_dual:
        out[:, 1:] = points[:, 1:] - points[:, 0:1] * values[:, None] ** exps
    else:
        out[:, 1:] = points[:, 1:] + values[:, None] * points[:, 0:1] ** exps
    return out


def _level_plan(start, d):
    if start == "phi":
        labels = range(1, d + 1)
        first_kind = "t"
    elif start == "psi":
        labels = range(2, d + 2)
        first_kind = "s"
    else:
        raise ValueError("start must be 'phi' or 'psi'")
    plan = []
    kind = first_kind
    for label in labels:
        target = "F" if kind == "t" else "E"
        plan.append((label, kind, target))
        kind = "s" if kind == "t" else "t"
    return plan


def build_tower(E, F, interval, window, start="phi", config=None, base=None):
    """Grow a full-depth parameter tower over the pair by greedy refinement.

    The base point is drawn from E (phi start) or F (psi start) to maximize
    the first-level fiber; each level partitions the exact fibers of its
    nodes into cells, then keeps nodes whose next fiber clears the
    keep_fraction bar.  Raises TowerCollapse when a level empties.
    """
    config = config or TowerConfig()
    d = E.dim
    if F.dim != d:
        raise ValueError("E and F must share a dimension")
    interval = interval if isinstance(interval, Interval) else Interval(*interval)
    window = window if isinstance(window, Interval) else Interval(*window)
    plan = _level_plan(start, d)
    rng = np.random.default_rng(config.seed)

    first_kind = plan[0][1]
    source = E if first_kind == "t" else F
    fiber_target = F if first_kind == "t" else E
    fiber_range = window if first_kind == "t" else interval
    fiber_dual = first_kind == "t"

    if base is None:
        candidates = _sample_points(source, config.base_candidates, rng)
        measures = fiber_measure_batch(
            fiber_target, candidates, fiber_range, dual=fiber_dual
        )
        base = candidates[np.argmax(measures)]  # the first maximum
    base = np.asarray(base, dtype=float)

    los, his = fiber_pieces(fiber_target, base, fiber_range, dual=fiber_dual)
    fiber0 = FiberSet(zip(los[0], his[0]))
    if fiber0.is_empty:
        raise TowerCollapse(plan[0][0])
    centers, widths = fiber0.cells(config.cell_width)
    params = centers[:, None]
    widths = widths[:, None]
    weights = np.ones(centers.size)
    parent_idx = np.full(centers.size, -1)
    levels = [
        TowerLevel(
            label=plan[0][0],
            param_kind=plan[0][1],
            target=plan[0][2],
            measure=float((widths.prod(axis=1) * weights).sum()),
            threshold=0.0,
            min_kept_fiber=float(fiber0.measure),
            n_nodes=centers.size,
            params=params,
            widths=widths,
            weights=weights,
            parent_idx=parent_idx,
        )
    ]

    points = _advance_points(
        np.tile(base, (centers.size, 1)), centers, use_dual=fiber_dual
    )

    for label, kind, target in plan[1:]:
        prev = levels[-1]
        tgt_set = F if target == "F" else E
        rng_param = window if kind == "t" else interval
        los, his = fiber_pieces(tgt_set, points, rng_param, dual=(kind == "t"))
        measures = np.clip(his - los, 0.0, None).sum(axis=1)
        node_vols = prev.widths.prod(axis=1) * prev.weights
        mean = float((measures * node_vols).sum() / node_vols.sum())
        threshold = config.keep_fraction * mean
        keep = measures >= threshold
        if threshold == 0.0:
            keep &= measures > 0.0
        if not keep.any():
            raise TowerCollapse(label)

        child_params, child_widths, child_weights, child_parent = [], [], [], []
        kept_indices = np.flatnonzero(keep)
        for i in kept_indices:
            c, w = FiberSet(zip(los[i], his[i])).cells(config.cell_width)
            if c.size == 0:
                continue
            stem = np.repeat(prev.params[i][None, :], c.size, axis=0)
            stem_w = np.repeat(prev.widths[i][None, :], c.size, axis=0)
            child_params.append(np.concatenate([stem, c[:, None]], axis=1))
            child_widths.append(np.concatenate([stem_w, w[:, None]], axis=1))
            child_weights.append(np.full(c.size, prev.weights[i]))
            child_parent.append(np.full(c.size, i))
        if not child_params:
            raise TowerCollapse(label)
        params = np.concatenate(child_params)
        widths = np.concatenate(child_widths)
        weights = np.concatenate(child_weights)
        parent_idx = np.concatenate(child_parent)

        if params.shape[0] > config.max_nodes:
            sub_rng = np.random.default_rng(config.seed + label)
            pick = np.sort(
                sub_rng.choice(params.shape[0], size=config.max_nodes, replace=False)
            )
            factor = params.shape[0] / config.max_nodes
            params = params[pick]
            widths = widths[pick]
            weights = weights[pick] * factor
            parent_idx = parent_idx[pick]

        levels.append(
            TowerLevel(
                label=label,
                param_kind=kind,
                target=target,
                measure=float((widths.prod(axis=1) * weights).sum()),
                threshold=threshold,
                min_kept_fiber=float(measures[keep].min()),
                n_nodes=params.shape[0],
                params=params,
                widths=widths,
                weights=weights,
                parent_idx=parent_idx,
            )
        )
        base_rep = np.tile(base, (params.shape[0], 1))
        points = base_rep
        use_dual = start == "phi"
        for col in range(params.shape[1]):
            points = _advance_points(points, params[:, col], use_dual=use_dual)
            use_dual = not use_dual

    return Tower(
        dim=d,
        start=start,
        base=base,
        levels=levels,
        E=E,
        F=F,
        interval=interval,
        window=window,
        config=config,
    )


def check_tower_structure(tower, samples=200, seed=0, atol=1e-9):
    """Sampled audit of the tower's structural guarantees.

    Checks that node tuples extend their parents coordinate-for-coordinate
    and that every prefix of the incidence path lands in the prescribed set
    (E after forward steps, F after dual steps).  Returns the fraction of
    sampled checks that passed and the number checked.
    """
    rng = np.random.default_rng(seed)
    checked = passed = 0
    start_dual = tower.start == "phi"
    for li, level in enumerate(tower.levels):
        n = level.params.shape[0]
        take = min(n, max(1, samples // len(tower.levels)))
        idx = rng.choice(n, size=take, replace=False)
        for i in idx:
            ok = True
            if li > 0:
                parent = tower.levels[li - 1]
                pi = level.parent_idx[i]
                if not np.array_equal(
                    level.params[i, :-1], parent.params[pi]
                ):
                    ok = False
            path = incidence_path(
                tower.base,
                level.params[i],
                start="dual" if start_dual else "primal",
            )
            use_dual = start_dual
            for point in path:
                target = tower.F if use_dual else tower.E
                if not target.contains(point, atol=atol):
                    ok = False
                use_dual = not use_dual
            checked += 1
            passed += ok
    return passed / checked, checked


_C_CACHE = {}


def _measured_constant(kind, d):
    key = (kind, d)
    if key not in _C_CACHE:
        _C_CACHE[key] = estimate_c_d(kind, d, samples=12, seed=0).mean
    return _C_CACHE[key]


def image_volume_lower_bound(tower, use_closed_form=True, constant=None):
    """Integral of |Jacobian| over the top-level cells.

    Up to the bounded-multiplicity constant of the degree argument, this
    lower-bounds the volume of the image of the top level under the
    iterated incidence map.
    """
    kind = PHI if tower.start == "phi" else PSI
    if constant is None and use_closed_form:
        constant = abs(_measured_constant(kind, tower.dim))
    top = tower.top
    vols = top.widths.prod(axis=1) * top.weights
    total = 0.0
    for i in range(top.params.shape[0]):
        if use_closed_form:
            j = abs(jacobian_closed_form(kind, tower.base[0], top.params[i]))
            j *= constant
        else:
            j = abs(jacobian_numeric(kind, tower.base, top.params[i]))
        total += float(vols[i]) * j
    return total


def _map_param_grid(tower, offs):
    """Image points of an offs-grid placed inside every top cell."""
    top = tower.top
    pts = []
    for i in range(top.params.shape[0]):
        p = top.params[i]
        w = top.widths[i]
        grid = np.stack(
            [g.reshape(-1) for g in np.meshgrid(*[p[a] + offs * w[a] for a in range(2)], indexing="ij")],
            axis=1,
        )
        pts.append(grid)
    pts = np.concatenate(pts)
    points = np.tile(tower.base, (pts.shape[0], 1))
    use_dual = tower.start == "phi"
    for col in range(2):
        points = _advance_points(points, pts[:, col], use_dual=use_dual)
        use_dual = not use_dual
    return points


def rasterized_image_measure(tower, raster_n=256, sub=None):
    """Direct image-volume estimate for plane towers by rasterization.

    Maps a grid inside every top cell through the incidence map and counts
    hit cells of a raster over the image bounding box.  The grid density is
    chosen so neighbouring image points land within one raster cell of each
    other (estimated from cell-corner displacements), otherwise the count
    undershoots through coverage gaps.
    """
    if tower.dim != 2:
        raise ValueError("rasterization oracle is for dimension 2 only")
    corners = _map_param_grid(tower, np.array([-0.5, 0.5]))
    lo = corners.min(axis=0)
    hi = corners.max(axis=0)
    span = np.where(hi - lo > 0, hi - lo, 1.0)
    cell = span / raster_n
    if sub is None:
        quad = corners.reshape(-1, 2, 2, 2)
        step_a = np.abs(quad[:, 1, :, :] - quad[:, 0, :, :]) / cell
        step_b = np.abs(quad[:, :, 1, :] - quad[:, :, 0, :]) / cell
        needed = max(step_a.max(), step_b.max())
        sub = int(np.clip(np.ceil(1.5 * needed), 3, 64))
    offs = (np.arange(sub) + 0.5) / sub - 0.5
    points = _map_param_grid(tower, offs)
    ij = np.clip(((points - lo) / cell).astype(int), 0, raster_n - 1)
    flat = np.unique(ij[:, 0] * raster_n + ij[:, 1])
    return flat.size * float(cell.prod())


def tower_report(tower, quad=None):
    """Pairing value, per-level predicted averages, and the image integral."""
    t_value = bilinear_form(tower.E, tower.F, tower.interval, quad)
    rows = []
    for level in tower.levels:
        predicted = (
            t_value / tower.E.measure
            if level.param_kind == "t"
            else t_value / tower.F.measure
        )
        rows.append(
            {
                "label": level.label,
                "param_kind": level.param_kind,
                "target": level.target,
                "n_nodes": level.n_nodes,
                "measure": level.measure,
                "threshold": level.threshold,
                "min_kept_fiber": level.min_kept_fiber,
                "predicted_average": predicted,
                "threshold_over_predicted": (
                    level.threshold / predicted if predicted > 0 else math.inf
                ),
            }
        )
    image = image_volume_lower_bound(tower)
    d = tower.dim
    delta_top = tower.top.min_kept_fiber
    if tower.start == "phi":
        rhs = (
            delta_top**2
            * (t_value / tower.F.measure) ** (d - 2)
            * (t_value / tower.E.measure) ** (d * (d - 1) // 2)
        )
        subject = tower.E.measure
    else:
        rhs = (
            delta_top**d
            * (t_value / tower.F.measure) ** (d - 1)
            * (t_value / tower.E.measure) ** ((d * d - d + 2) // 2 - d)
        )
        subject = tower.F.measure
    return {
        "t_value": t_value,
        "levels": rows,
        "image_integral": image,
        "delta_top": delta_top,
        "predicted_rhs": rhs,
        "subject_measure": subject,
        "ratio": subject / rhs if rhs > 0 else math.inf,
    }


def enumerate_tower_bruteforce(
    E, F, base, interval, window, start="phi", keep_fraction=0.5, grid_n=64
):
    """Plane-only dense-grid tower enumeration used as an oracle.

    Replaces exact fiber arithmetic with point-membership counting on a
    grid_n discretization of the parameter ranges and applies the same
    keep rule, returning the two level measures.
    """
    if E.dim != 2:
        raise ValueError("brute-force enumeration is for dimension 2 only")
    interval = interval if isinstance(interval, Interval) else Interval(*interval)
    window = window if isinstance(window, Interval) else Interval(*window)
    base = np.asarray(base, dtype=float)

    if start == "phi":
        rng1, dual1, tgt1 = window, True, F
        rng2, dual2, tgt2 = interval, False, E
    else:
        rng1, dual1, tgt1 = interval, False, E
        rng2, dual2, tgt2 = window, True, F

    w1 = rng1.length / grid_n
    c1 = rng1.lo + (np.arange(grid_n) + 0.5) * w1
    p1 = _advance_points(np.tile(base, (grid_n, 1)), c1, use_dual=dual1)
    mask1 = tgt1.contains_batch(p1)
    if not mask1.any():
        raise TowerCollapse(1)
    level1 = float(mask1.sum()) * w1

    w2 = rng2.length / grid_n
    c2 = rng2.lo + (np.arange(grid_n) + 0.5) * w2
    idx1 = np.flatnonzero(mask1)
    rep = np.repeat(p1[idx1], grid_n, axis=0)
    vals = np.tile(c2, idx1.size)
    p2 = _advance_points(rep, vals, use_dual=dual2)
    inside = tgt2.contains_batch(p2).reshape(idx1.size, grid_n)
    fiber_m = inside.sum(axis=1) * w2
    threshold = keep_fraction * float(fiber_m.mean())
    keep = fiber_m >= threshold
    if threshold == 0.0:
        keep &= fiber_m > 0.0
    if not keep.any():
        raise TowerCollapse(2)
    level2 = float((fiber_m[keep]).sum()) * w1
    return [level1, level2]
