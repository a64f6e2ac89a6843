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

from .geometry import estimate_c_d, incidence_path, jacobian_closed_form, line_step
from .sets import BoxUnionSet, Interval, as_interval, fiber_cells
from .sharpness import _dual_rhs, _primal_rhs
from .transform import NoIncidence, bilinear_form, fiber_measure_batch, fiber_pieces


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


class TowerCollapse(NoIncidence):
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
    the first-level fiber.  Every level, the first included, takes the exact
    fibers of the previous level's nodes (of the base alone at first), keeps
    the nodes whose fiber clears the keep_fraction bar (at level 1 every
    nonempty fiber), and cuts the kept fibers into cells, which become the
    level's nodes.  Raises TowerCollapse when a level empties.
    """
    config = config or TowerConfig()
    d = E.dim
    if F.dim != d:
        raise ValueError("E and F must share a dimension")
    interval = as_interval(interval)
    window = as_interval(window)
    plan = _level_plan(start, d)
    rng = np.random.default_rng(config.seed)

    if base is None:
        dual = plan[0][1] == "t"
        candidates = _sample_points(E if dual else F, config.base_candidates, rng)
        measures = fiber_measure_batch(
            F if dual else E, candidates, window if dual else interval, dual=dual
        )
        base = candidates[np.argmax(measures)]  # the first maximum
    base = np.asarray(base, dtype=float)

    # the root node: the base point, with no parameters yet
    params = widths = np.empty((1, 0))
    weights = np.ones(1)
    points = base[None]
    levels = []
    for label, kind, target in plan:
        dual = kind == "t"
        tgt_set = F if target == "F" else E
        los, his = fiber_pieces(tgt_set, points, window if dual else interval, dual=dual)
        measures = np.clip(his - los, 0.0, None).sum(axis=1)
        node_vols = widths.prod(axis=1) * weights
        mean = float((measures * node_vols).sum() / node_vols.sum())
        threshold = config.keep_fraction * mean if levels else 0.0
        keep = (measures >= threshold) & (measures > 0.0)
        if not keep.any():
            raise TowerCollapse(label)

        kept = np.flatnonzero(keep)
        rows, centers, cell_widths = fiber_cells(los[kept], his[kept], config.cell_width)
        parent_idx = kept[rows]
        params = np.concatenate([params[parent_idx], centers[:, None]], axis=1)
        widths = np.concatenate([widths[parent_idx], cell_widths[:, None]], axis=1)
        weights = weights[parent_idx]

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
        points = line_step(points[parent_idx], params[:, -1], dual)

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
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = np.random.default_rng(seed)
    checked = passed = 0
    for li, level in enumerate(tower.levels):
        n = level.params.shape[0]
        take = min(n, max(1, samples // tower.depth))
        idx = rng.choice(n, size=take, replace=False)
        ok = np.ones(take, dtype=bool)
        if li > 0:
            parent = tower.levels[li - 1].params[level.parent_idx[idx]]
            ok &= (level.params[idx, :-1] == parent).all(axis=1)
        path = incidence_path(tower.base, level.params[idx], tower.start)
        # prefix j must land in the target of level j
        for points, step in zip(path, tower.levels):
            target = tower.F if step.target == "F" else tower.E
            ok &= target.contains_batch(points, atol=atol)
        checked += take
        passed += int(ok.sum())
    return passed / checked, checked


_C_CACHE = {}


def _measured_constant(kind, d):
    key = (kind, d)
    if key not in _C_CACHE:
        _C_CACHE[key] = estimate_c_d(kind, d, samples=12, seed=0).mean
    return _C_CACHE[key]


def image_volume_lower_bound(tower):
    """Integral of |Jacobian| over the top-level cells.

    Up to the bounded-multiplicity constant of the degree argument, this
    lower-bounds the volume of the image of the top level under the
    iterated incidence map.
    """
    constant = abs(_measured_constant(tower.start, tower.dim))
    top = tower.top
    vols = top.widths.prod(axis=1) * top.weights
    jac = np.abs(jacobian_closed_form(tower.start, tower.base[0], top.params))
    return float((vols * (jac * constant)).sum())


def _map_param_grid(tower, offs):
    """Image points of an offs-grid placed inside every top cell."""
    top = tower.top
    axes = top.params[:, :, None] + offs * top.widths[:, :, None]  # (n, 2, m)
    grid = np.stack(np.broadcast_arrays(axes[:, 0, :, None], axes[:, 1, None, :]), axis=-1)
    return incidence_path(tower.base, grid.reshape(-1, 2), tower.start)[-1]


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
    bound = _primal_rhs if tower.start == "phi" else _dual_rhs
    rhs = bound(d, delta_top, t_value / tower.F.measure, t_value / tower.E.measure)
    subject = tower.E.measure if tower.start == "phi" else tower.F.measure
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
    interval = as_interval(interval)
    window = as_interval(window)
    base = np.asarray(base, dtype=float)

    if start == "phi":
        rng1, dual1, tgt1 = window, True, F
        rng2, dual2, tgt2 = interval, False, E
    else:
        rng1, dual1, tgt1 = interval, False, E
        rng2, dual2, tgt2 = window, True, F

    w1 = rng1.length / grid_n
    c1 = rng1.lo + (np.arange(grid_n) + 0.5) * w1
    p1 = line_step(base, c1, dual1)
    mask1 = tgt1.contains_batch(p1)
    if not mask1.any():
        raise TowerCollapse(1)
    level1 = float(mask1.sum()) * w1

    w2 = rng2.length / grid_n
    c2 = rng2.lo + (np.arange(grid_n) + 0.5) * w2
    idx1 = np.flatnonzero(mask1)
    rep = np.repeat(p1[idx1], grid_n, axis=0)
    vals = np.tile(c2, idx1.size)
    p2 = line_step(rep, vals, dual2)
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
