"""Desk-scale method of refinements: parameter towers over a set pair.

A tower starts from a base point, takes the exact parameter fiber into the
opposite set, keeps the above-average part, and repeats with the two line
families alternating.  Cells partition exact fiber sets, so every stored
parameter tuple genuinely maps into the prescribed set; discretization only
controls how finely rich fibers are subdivided.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import estimate_c_d, incidence_path, jacobian_closed_form, line_step
from .sets import BoxUnionSet, Interval, _is_count, as_interval, fiber_cells
from .sharpness import _two_slice
from .transform import NoIncidence, bilinear_form, fiber_pieces


@dataclass(frozen=True)
class TowerConfig:
    cell_width: float = 1.0 / 32.0
    keep_fraction: float = 0.5
    max_nodes: int = 20000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.keep_fraction <= 1:
            raise ValueError("keep_fraction must be in (0, 1]")
        if not self.cell_width > 0:
            raise ValueError("cell_width must be positive")
        if not (_is_count(self.max_nodes) and _is_count(self.seed)):
            raise ValueError("max_nodes and seed must be integers")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


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


# per start: the parameter kinds of alternate levels ("t" dual, "s" forward)
# and the first level's label
_STARTS = {"phi": ("ts", 1), "psi": ("st", 2)}
# batches of 64 base candidates drawn before the first level collapses
_BASE_BATCHES = 16


def _level_plan(start, d):
    if start not in _STARTS:
        raise ValueError("start must be 'phi' or 'psi'")
    kinds, first = _STARTS[start]
    return [(first + i, kinds[i % 2], "F" if kinds[i % 2] == "t" else "E") for i in range(d)]


def _extend_rows(table, rows, column):
    """table's rows gathered by index with column appended, filled a column at
    a time: the same array as concatenating table[rows] and column."""
    out = np.empty((rows.size, table.shape[1] + 1))
    for j in range(table.shape[1]):
        out[:, j] = table[:, j].take(rows)
    out[:, -1] = column
    return out


def _row_products(table):
    """table.prod(axis=1) with the same bits (left to right along each row),
    multiplied a column at a time; table has at least one column."""
    product = table[:, 0].copy()
    for column in table.T[1:]:
        product *= column
    return product


def build_tower(E, F, interval, window, start="phi", config=None, base=None):
    """Grow a full-depth parameter tower over the pair by greedy refinement.

    Unless given, the base point is the one of 64 points drawn from E (phi
    start) or F (psi start) with the largest first-level fiber.  While no
    point of a batch has a nonempty first fiber, the same generator draws
    another 64, up to _BASE_BATCHES = 16 batches (1,024 points); the first
    batch, and so every base found in it, is unchanged by the retries.
    Every level, the first included, takes the exact fibers of the previous
    level's nodes (of the base alone at first), keeps the nodes whose fiber
    clears the keep_fraction bar (at level 1 every nonempty fiber), and cuts
    the kept fibers into cells, which become the level's nodes.  Past
    config.max_nodes cells, fiber_cells (seeded seed + label) cuts only a
    draw of max_nodes of them, and the nodes' weights carry the factor it
    returns.  The top level's nodes are not stepped to points, since
    no level reads them.  Raises TowerCollapse when a level empties, at the
    first level when all 16 batches miss.
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
        source, target, span = (E, F, window) if dual else (F, E, interval)
        for _ in range(_BASE_BATCHES):
            candidates = _sample_points(source, 64, rng)
            los, his = fiber_pieces(target, candidates, span, dual=dual)
            measures = np.clip(his - los, 0.0, None).sum(axis=1)
            if measures.max() > 0.0:
                break
        base = candidates[np.argmax(measures)]  # the first maximum
    base = np.asarray(base, dtype=float)

    # the root node: the base point, with no parameters yet
    params = widths = np.empty((1, 0))
    weights = node_vols = np.ones(1)
    points = base[None]
    levels = []
    for i, (label, kind, target) in enumerate(plan):
        dual = kind == "t"
        tgt_set = F if target == "F" else E
        los, his = fiber_pieces(tgt_set, points, window if dual else interval, dual=dual)
        measures = np.clip(his - los, 0.0, None).sum(axis=1)
        mean = float((measures * node_vols).sum() / node_vols.sum())
        threshold = config.keep_fraction * mean if levels else 0.0
        keep = (measures >= threshold) & (measures > 0.0)
        if not keep.any():
            raise TowerCollapse(label)

        kept = np.flatnonzero(keep)
        rows, centers, cell_widths, scale = fiber_cells(
            los[kept], his[kept], config.cell_width, config.max_nodes, config.seed + label
        )
        parent_idx = kept.take(rows)
        weights = weights.take(parent_idx)
        weights *= scale
        params = _extend_rows(params, parent_idx, centers)
        widths = _extend_rows(widths, parent_idx, cell_widths)
        node_vols = _row_products(widths)
        node_vols *= weights

        levels.append(
            TowerLevel(
                label=label,
                param_kind=kind,
                target=target,
                measure=float(node_vols.sum()),
                threshold=threshold,
                min_kept_fiber=float(measures[keep].min()),
                n_nodes=params.shape[0],
                params=params,
                widths=widths,
                weights=weights,
                parent_idx=parent_idx,
            )
        )
        if i + 1 < len(plan):
            points = line_step(points.take(parent_idx, axis=0), centers, dual)

    return Tower(dim=d, start=start, base=base, levels=levels, E=E, F=F, interval=interval)


def check_tower_structure(tower, samples=200, seed=0):
    """Sampled audit of the tower's structural guarantees.

    Checks that node tuples extend their parents coordinate-for-coordinate
    and that every prefix of the incidence path lands in the prescribed set
    (E after forward steps, F after dual steps), to within 1e-9 of its
    boundary.  Returns the fraction of
    sampled checks that passed and the number checked.
    """
    if not _is_count(samples) or samples < 1:
        raise ValueError(f"samples must be an integer of at least 1, got {samples!r}")
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
            ok &= target.contains_batch(points, atol=1e-9)
        checked += take
        passed += int(ok.sum())
    return passed / checked, checked


@functools.cache
def _measured_constant(kind, d):
    return estimate_c_d(kind, d, samples=12, seed=0).mean


def image_volume_lower_bound(tower):
    """Integral of |Jacobian| over the top-level cells.

    Up to the bounded-multiplicity constant of the degree argument, this
    lower-bounds the volume of the image of the top level under the
    iterated incidence map.
    """
    constant = abs(_measured_constant(tower.start, tower.dim))
    top = tower.top
    vols = _row_products(top.widths) * top.weights
    jac = np.abs(jacobian_closed_form(tower.start, tower.base[0], top.params))
    return float((vols * (jac * constant)).sum())


def tower_report(tower):
    """Pairing value, per-level predicted averages, and the image integral."""
    t_value = bilinear_form(tower.E, tower.F, tower.interval)
    rows = []
    for level in tower.levels:
        # a dual step's average fiber is t / |E|, a forward step's t / |F|
        predicted = t_value / (tower.E if level.param_kind == "t" else tower.F).measure
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
    delta_top = tower.top.min_kept_fiber
    subject, rhs, ratio = _two_slice(
        tower.dim, delta_top, t_value, tower.E.measure, tower.F.measure, tower.start == "psi"
    )
    return {
        "t_value": t_value,
        "levels": rows,
        "image_integral": image,
        "delta_top": delta_top,
        "predicted_rhs": rhs,
        "subject_measure": subject,
        "ratio": ratio,
    }


def enumerate_tower_bruteforce(E, F, base, interval, window, start="phi", grid_n=64):
    """Plane-only dense-grid tower enumeration used as an oracle.

    Replaces exact fiber arithmetic with point-membership counting on a
    grid_n discretization of the parameter ranges and applies the default
    keep rule (half the mean fiber), returning the two level measures.
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
    threshold = 0.5 * float(fiber_m.mean())
    keep = (fiber_m >= threshold) & (fiber_m > 0.0)
    if not keep.any():
        raise TowerCollapse(2)
    level2 = float((fiber_m[keep]).sum()) * w1
    return [level1, level2]
