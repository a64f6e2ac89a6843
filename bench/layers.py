"""Per-layer metrics: work counts taken at the layer boundary, self times
from the span tree.

The layers are the modules of the momentray package.  Work counts are
computed from each call's inputs and outputs (never from timing), so they
repeat exactly for one seed.  Self time is a span's duration minus the
spans nested inside it.
"""

from __future__ import annotations

import math

import numpy as np

from momentray.transform import QuadSpec

LAYERS = (
    "transform",
    "geometry",
    "refinement",
    "sharpness",
    "lorentz",
    "corpus",
    "acceptance",
    "cli",
)

# span name of the benchmark's own per-operation span (not a layer)
OP_SPAN = "bench.op"

# (name, unit, better); the order is the order of BENCHMARK.json
PER_LAYER = [
    ("transform.pairing.calls", "count", "lower"),
    ("transform.pairing.midpoints", "count", "lower"),
    ("transform.pairing.self_s", "s", "lower"),
    *[
        (f"transform.pairing.{route}.{what}.d{d}", unit, "lower")
        for route in ("primal", "dual")
        for d in (2, 3)
        for what, unit in (("midpoints", "count"), ("us_per_midpoint", "us"))
    ],
    ("transform.midpoint.points", "count", "lower"),
    ("transform.midpoint.self_s", "s", "lower"),
    ("transform.fiber.calls", "count", "lower"),
    ("transform.fiber.points", "count", "lower"),
    ("transform.fiber.points_per_call", "points/call", "higher"),
    ("transform.fiber.self_s", "s", "lower"),
    ("transform.fiber.points_per_s", "points/s", "higher"),
    ("transform.line_fiber.calls", "count", "lower"),
    ("transform.line_fiber.self_s", "s", "lower"),
    ("transform.grid.points", "count", "lower"),
    ("transform.grid.self_s", "s", "lower"),
    ("transform.apply_x.calls", "count", "lower"),
    ("transform.apply_x.self_s", "s", "lower"),
    ("geometry.jacobian_closed_form.calls", "count", "lower"),
    ("geometry.jacobian_closed_form.self_s", "s", "lower"),
    ("geometry.estimate_c_d.samples", "count", "lower"),
    ("geometry.estimate_c_d.self_s", "s", "lower"),
    ("geometry.jacobian_numeric.self_s", "s", "lower"),
    ("refinement.build_tower.self_s", "s", "lower"),
    ("refinement.tower.nodes", "count", "lower"),
    *[(f"refinement.tower.nodes.level{i}", "count", "lower") for i in (1, 2, 3)],
    ("refinement.tower.collapsed", "count", "lower"),
    ("refinement.tower_report.self_s", "s", "lower"),
    ("refinement.image_volume_lower_bound.self_s", "s", "lower"),
    ("refinement.check_tower_structure.self_s", "s", "lower"),
    ("refinement.bruteforce.self_s", "s", "lower"),
    ("sharpness.check_rwt.calls", "count", "lower"),
    ("sharpness.check_rwt.self_s", "s", "lower"),
    ("sharpness.lemma2.self_s", "s", "lower"),
    ("sharpness.verify_minorant.pieces", "count", "lower"),
    ("sharpness.verify_minorant.self_s", "s", "lower"),
    ("sharpness.scaling.self_s", "s", "lower"),
    ("corpus.build.self_s", "s", "lower"),
    ("corpus.entries", "count", "lower"),
    ("lorentz.norm.self_s", "s", "lower"),
    *[(f"acceptance.criterion_{i}.s", "s", "lower") for i in range(1, 10)],
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.spans", "count", "lower"),
    ("trace.wall_s.untraced", "s", "lower"),
    ("trace.wall_s.traced", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.untraced_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, _ in PER_LAYER}


# ---------------------------------------------------------------------------
# work counts per call, computed from inputs and outputs


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _bounds(interval):
    if hasattr(interval, "lo"):
        return float(interval.lo), float(interval.hi)
    return float(interval[0]), float(interval[1])


def _axis_nodes(lo, hi, step):
    # node count of the package's composite midpoint rule on [lo, hi]
    return max(1, int(math.ceil((hi - lo) / step - 1e-12)))


def _layered_midpoints(outer, inner, lo, hi, step):
    """First-axis nodes of outer's boxes, once per inner box whose
    first-axis extent meets [lo, hi] (the pairs the kernel integrates)."""
    total = 0
    for o_lo, o_hi in zip(outer.los, outer.his):
        nodes = _axis_nodes(o_lo[0], o_hi[0], step)
        for i_lo, i_hi in zip(inner.los, inner.his):
            if min(hi, i_hi[0]) > max(lo, i_lo[0]):
                total += nodes
    return total


def _tensor_points(region, step):
    return sum(
        int(np.prod([_axis_nodes(a, b, step) for a, b in zip(lo, hi)]))
        for lo, hi in zip(region.los, region.his)
    )


def _pairing_hook(dual):
    def hook(args, kwargs, result):
        E, F = args[0], args[1]
        lo, hi = _bounds(_arg(args, kwargs, 2, "window" if dual else "interval"))
        quad = _arg(args, kwargs, 3, "quad") or QuadSpec()  # the package default
        method = quad.method
        attrs = {"route": "dual" if dual else "primal", "dim": E.dim, "method": method}
        if method == "layered":
            outer, inner = (E, F) if dual else (F, E)
            attrs["midpoints"] = _layered_midpoints(outer, inner, lo, hi, quad.step)
        elif method == "midpoint":
            attrs["points"] = _tensor_points(E if dual else F, quad.step)
        return attrs

    return hook


def _fiber_hook(args, kwargs, result):
    return {"points": int(np.size(result))}


def _grid_hook(args, kwargs, result):
    points = 0
    for block in result:
        points += block.center_values.size
        if block.corner_values is not None:
            points += block.corner_values.size
    return {"points": points}


def _tower_hook(args, kwargs, tower):
    return {"nodes": [level.n_nodes for level in tower.levels]}


def _minorant_hook(args, kwargs, result):
    spec = args[0]
    return {"pieces": spec.k_max - spec.n_start + 1}


def _estimate_hook(args, kwargs, result):
    return {"samples": result.samples}


def _corpus_hook(args, kwargs, result):
    return {"entries": len(result)}


HOOKS = {
    "transform.bilinear_form": _pairing_hook(dual=False),
    "transform.bilinear_form_dual": _pairing_hook(dual=True),
    "transform.fiber_measure_batch": _fiber_hook,
    "transform.region_cell_values": _grid_hook,
    "refinement.build_tower": _tower_hook,
    "sharpness.verify_minorant": _minorant_hook,
    "geometry.estimate_c_d": _estimate_hook,
    "corpus.build_default_corpus": _corpus_hook,
}

_LEMMA2 = (
    "sharpness.lemma2_grid_primal",
    "sharpness.lemma2_grid_dual",
    "sharpness.lemma2_shrinking_sweep",
    "sharpness.check_lemma2_primal",
    "sharpness.check_lemma2_dual",
)
_SCALING = ("sharpness.scaling_experiment", "sharpness.necessity_check")
_NORMS = (
    "lorentz.lorentz_norm",
    "lorentz.lp_norm",
    "lorentz.lorentz_norm_from_steps",
    "lorentz.blockwise_lorentz_norm",
)


# ---------------------------------------------------------------------------
# metrics of one traced pass


def layer_metrics(recorder, traced_wall_s, untraced_wall_s):
    """Every PER_LAYER metric from the spans of one traced pass."""
    name_id, parent, dur, self_ns = recorder.arrays()
    names = recorder.names
    n_names = len(names)
    self_by = np.bincount(name_id, weights=self_ns, minlength=n_names) / 1e9
    calls_by = np.bincount(name_id, minlength=n_names)
    ids = {name: i for i, name in enumerate(names)}

    def self_s(*span_names):
        return float(sum(self_by[ids[n]] for n in span_names if n in ids))

    def calls(span_name):
        return int(calls_by[ids[span_name]]) if span_name in ids else 0

    grouped = {}
    for idx, attrs in recorder.attrs.items():
        grouped.setdefault(names[name_id[idx]], []).append((idx, attrs))

    def attr_spans(span_name):
        return grouped.get(span_name, [])

    def counted(span_name, key):
        return sum(a.get(key, 0) for _, a in attr_spans(span_name))

    m = {}

    # transform: pairing and midpoint routes
    pair_calls = midpoints = mid_points = 0
    pair_self = mid_self = 0.0
    per_route = {}
    for span_name in ("transform.bilinear_form", "transform.bilinear_form_dual"):
        for idx, attrs in attr_spans(span_name):
            if "raised" in attrs:
                continue
            s = self_ns[idx] / 1e9
            if attrs["method"] == "layered":
                pair_calls += 1
                pair_self += s
                midpoints += attrs["midpoints"]
                key = (attrs["route"], attrs["dim"])
                got = per_route.setdefault(key, [0, 0.0])
                got[0] += attrs["midpoints"]
                got[1] += s
            elif attrs["method"] == "midpoint":
                mid_points += attrs["points"]
                mid_self += s
    m["transform.pairing.calls"] = pair_calls
    m["transform.pairing.midpoints"] = midpoints
    m["transform.pairing.self_s"] = pair_self
    for route in ("primal", "dual"):
        for d in (2, 3):
            count, secs = per_route.get((route, d), (0, 0.0))
            m[f"transform.pairing.{route}.midpoints.d{d}"] = count
            m[f"transform.pairing.{route}.us_per_midpoint.d{d}"] = (
                1e6 * secs / count if count else 0.0
            )
    m["transform.midpoint.points"] = mid_points
    m["transform.midpoint.self_s"] = mid_self

    # transform: fibers, grids, the transform on points
    fiber_points = counted("transform.fiber_measure_batch", "points")
    fiber_calls = calls("transform.fiber_measure_batch")
    fiber_self = self_s("transform.fiber_measure_batch")
    m["transform.fiber.calls"] = fiber_calls
    m["transform.fiber.points"] = fiber_points
    m["transform.fiber.points_per_call"] = (
        fiber_points / fiber_calls if fiber_calls else 0.0
    )
    m["transform.fiber.self_s"] = fiber_self
    m["transform.fiber.points_per_s"] = (
        fiber_points / fiber_self if fiber_self > 0 else 0.0
    )
    m["transform.line_fiber.calls"] = calls("transform.line_fiber")
    m["transform.line_fiber.self_s"] = self_s("transform.line_fiber")
    m["transform.grid.points"] = counted("transform.region_cell_values", "points")
    m["transform.grid.self_s"] = self_s("transform.region_cell_values")
    m["transform.apply_x.calls"] = calls("transform.apply_x")
    m["transform.apply_x.self_s"] = self_s("transform.apply_x")

    # geometry
    m["geometry.jacobian_closed_form.calls"] = calls("geometry.jacobian_closed_form")
    m["geometry.jacobian_closed_form.self_s"] = self_s("geometry.jacobian_closed_form")
    m["geometry.estimate_c_d.samples"] = counted("geometry.estimate_c_d", "samples")
    m["geometry.estimate_c_d.self_s"] = self_s("geometry.estimate_c_d")
    m["geometry.jacobian_numeric.self_s"] = self_s("geometry.jacobian_numeric")

    # refinement
    towers = attr_spans("refinement.build_tower")
    level_nodes = [0, 0, 0]
    for _, attrs in towers:
        for i, n in enumerate(attrs.get("nodes", ())[:3]):
            level_nodes[i] += n
    m["refinement.build_tower.self_s"] = self_s("refinement.build_tower")
    m["refinement.tower.nodes"] = sum(
        sum(a.get("nodes", ())) for _, a in towers
    )
    for i in (1, 2, 3):
        m[f"refinement.tower.nodes.level{i}"] = level_nodes[i - 1]
    m["refinement.tower.collapsed"] = sum(
        1 for _, a in towers if a.get("raised") == "TowerCollapse"
    )
    m["refinement.tower_report.self_s"] = self_s("refinement.tower_report")
    m["refinement.image_volume_lower_bound.self_s"] = self_s(
        "refinement.image_volume_lower_bound"
    )
    m["refinement.check_tower_structure.self_s"] = self_s(
        "refinement.check_tower_structure"
    )
    m["refinement.bruteforce.self_s"] = self_s("refinement.enumerate_tower_bruteforce")

    # sharpness
    m["sharpness.check_rwt.calls"] = calls("sharpness.check_rwt")
    m["sharpness.check_rwt.self_s"] = self_s("sharpness.check_rwt")
    m["sharpness.lemma2.self_s"] = self_s(*_LEMMA2)
    m["sharpness.verify_minorant.pieces"] = counted(
        "sharpness.verify_minorant", "pieces"
    )
    m["sharpness.verify_minorant.self_s"] = self_s("sharpness.verify_minorant")
    m["sharpness.scaling.self_s"] = self_s(*_SCALING)

    # corpus, lorentz
    m["corpus.build.self_s"] = self_s("corpus.build_default_corpus")
    m["corpus.entries"] = counted("corpus.build_default_corpus", "entries")
    m["lorentz.norm.self_s"] = self_s(*_NORMS)

    # acceptance: criteria as the suite runs them at top level, nested reruns included
    criterion = {}
    for name, nid in ids.items():
        if name.startswith("acceptance.criterion_"):
            criterion[nid] = int(name.split("_")[1])
    crit_s = dict.fromkeys(range(1, 10), 0.0)
    if criterion:
        for idx in np.flatnonzero(np.isin(name_id, list(criterion))):
            p = parent[idx]
            while p >= 0 and name_id[p] not in criterion:
                p = parent[p]
            if p < 0:
                crit_s[criterion[name_id[idx]]] += dur[idx] / 1e9
    for i in range(1, 10):
        m[f"acceptance.criterion_{i}.s"] = crit_s[i]

    # layer totals and what the spans leave unaccounted
    layer_total = 0.0
    for layer in LAYERS:
        total = self_s(*[n for n in names if n.split(".", 1)[0] == layer])
        m[f"{layer}.self_s"] = total
        layer_total += total
    m["trace.spans"] = int(name_id.size)
    m["trace.wall_s.untraced"] = untraced_wall_s
    m["trace.wall_s.traced"] = traced_wall_s
    m["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
    m["trace.untraced_s"] = traced_wall_s - layer_total
    return m
