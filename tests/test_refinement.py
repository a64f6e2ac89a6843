"""Tests for the greedy refinement towers and their oracles."""

import numpy as np
import pytest

from momentray.acceptance import random_box_pair
from momentray.corpus import build_default_corpus
from momentray.geometry import incidence_path, jacobian_numeric
from momentray.refinement import (
    Tower,
    TowerCollapse,
    TowerConfig,
    build_tower,
    check_tower_structure,
    enumerate_tower_bruteforce,
    image_volume_lower_bound,
    rasterized_image_measure,
    tower_report,
)
from momentray.sets import Box, BoxUnionSet, Interval
from momentray.transform import fiber_measure_batch


def unit_pair(d):
    E = BoxUnionSet([Box(np.array([[0.0, 1.0]] * d))])
    F = BoxUnionSet([Box(np.array([[0.0, 1.0]] * d))])
    return E, F


def test_config_validation():
    with pytest.raises(ValueError):
        TowerConfig(keep_fraction=0.0)
    with pytest.raises(ValueError):
        TowerConfig(cell_width=-1.0)
    with pytest.raises(ValueError):
        TowerConfig(max_nodes=0)


# ---------------------------------------------------------------------------
# tower construction


def test_tower_level_plan_both_starts():
    E, F = unit_pair(2)
    phi = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    assert isinstance(phi, Tower)
    assert phi.depth == 2
    assert [lv.label for lv in phi.levels] == [1, 2]
    assert [lv.param_kind for lv in phi.levels] == ["t", "s"]
    assert [lv.target for lv in phi.levels] == ["F", "E"]

    psi = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="psi", base=(0.5, 0.5))
    assert psi.depth == 2
    assert [lv.label for lv in psi.levels] == [2, 3]
    assert [lv.param_kind for lv in psi.levels] == ["s", "t"]
    assert [lv.target for lv in psi.levels] == ["E", "F"]

    with pytest.raises(ValueError):
        build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="chi")


def test_structure_audit_is_clean():
    E, F = unit_pair(2)
    for start in ("phi", "psi"):
        tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start=start, base=(0.5, 0.5))
        fraction, checked = check_tower_structure(tower, samples=120, seed=1)
        assert checked > 0
        assert fraction == 1.0


def test_structure_audit_clean_in_3d():
    E, F = unit_pair(3)
    config = TowerConfig(cell_width=1.0 / 16.0, max_nodes=4000)
    tower = build_tower(
        E, F, (0.0, 1.0), (0.0, 1.0), start="phi", config=config, base=(0.5, 0.5, 0.5)
    )
    assert tower.depth == 3
    fraction, checked = check_tower_structure(tower, samples=90, seed=2)
    assert checked > 0
    assert fraction == 1.0


def test_non_incident_pair_collapses():
    E, _ = unit_pair(2)
    far = BoxUnionSet([Box(np.array([[0.0, 1.0], [50.0, 51.0]]))])
    with pytest.raises(TowerCollapse) as exc:
        build_tower(E, far, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    assert exc.value.label == 1


def test_node_cap_rescales_weights():
    E, F = unit_pair(2)
    full = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    capped_cfg = TowerConfig(max_nodes=40)
    capped = build_tower(
        E, F, (0.0, 1.0), (0.0, 1.0), start="phi", config=capped_cfg, base=(0.5, 0.5)
    )
    assert full.top.n_nodes > 40
    assert capped.top.n_nodes == 40
    assert capped.top.weights.max() > 1.0
    # the subsample is importance-preserving: total measure barely moves
    assert capped.top.measure == pytest.approx(full.top.measure, rel=0.25)


def _parent_fibers(tower, li):
    """Exact fiber measures and cell volumes of level li's parents.

    The parents of level 1 are the base point alone, with volume 1.
    """
    level = tower.levels[li]
    dual = level.param_kind == "t"
    target = tower.F if level.target == "F" else tower.E
    if li == 0:
        points, vols = tower.base[None], np.ones(1)
    else:
        parent = tower.levels[li - 1]
        points = incidence_path(tower.base, parent.params, tower.start)[-1]
        vols = parent.widths.prod(axis=1) * parent.weights
    rng = tower.window if dual else tower.interval
    return fiber_measure_batch(target, points, rng, dual=dual), vols


def _conserved_levels(tower):
    """Check every level below the node cap; return how many were checked.

    Cells partition the kept parents' fibers, so a level's measure is the
    sum over kept parents of fiber measure times parent cell volume.
    """
    checked = 0
    for li, level in enumerate(tower.levels):
        if level.n_nodes >= tower.config.max_nodes:
            continue  # possibly subsampled
        measures, vols = _parent_fibers(tower, li)
        kept = (measures >= level.threshold) & (measures > 0.0)
        expected = float((measures[kept] * vols[kept]).sum())
        assert level.measure == pytest.approx(expected, rel=1e-12, abs=0.0), (
            tower.start, level.label,
        )
        checked += 1
    return checked


def test_level_measures_conserve_kept_fiber_mass():
    """On every corpus tower (d = 2, 3) and a d = 4 random pair."""
    checked = 0
    for entry in build_default_corpus():
        for start in ("phi", "psi"):
            try:
                tower = build_tower(
                    entry.E, entry.F, entry.interval, entry.window, start=start
                )
            except TowerCollapse:
                continue
            checked += _conserved_levels(tower)
    assert checked >= 130
    E, F = random_box_pair(4, np.random.default_rng(0))
    espan, fspan = E.first_axis_span(), F.first_axis_span()
    config = TowerConfig(cell_width=1.0 / 8.0, max_nodes=4000)
    for start in ("phi", "psi"):
        tower = build_tower(
            E, F, (espan.lo - 0.1, espan.hi + 0.1), (fspan.lo - 0.1, fspan.hi + 0.1),
            start=start, config=config,
        )
        assert tower.depth == 4
        assert _conserved_levels(tower) == tower.depth


# ---------------------------------------------------------------------------
# oracles


def test_levels_match_bruteforce_enumeration():
    E, F = unit_pair(2)
    for start in ("phi", "psi"):
        tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start=start, base=(0.5, 0.5))
        brute = enumerate_tower_bruteforce(
            E, F, tower.base, (0.0, 1.0), (0.0, 1.0), start=start, grid_n=128
        )
        for level, oracle in zip(tower.levels, brute):
            assert 0.5 <= level.measure / oracle <= 2.0


def test_bruteforce_rejects_higher_dimensions():
    E, F = unit_pair(3)
    with pytest.raises(ValueError):
        enumerate_tower_bruteforce(E, F, (0.5, 0.5, 0.5), (0.0, 1.0), (0.0, 1.0))


def test_image_bound_sits_below_rasterized_measure():
    E, F = unit_pair(2)
    tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    lower = image_volume_lower_bound(tower)
    raster = rasterized_image_measure(tower, raster_n=256)
    assert lower > 0.0
    assert lower <= raster * 1.2
    assert lower >= raster * 0.3


def test_image_bound_routes_agree():
    """The closed-form integral equals |numeric Jacobian| over the same cells."""
    E, F = unit_pair(2)
    tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    top = tower.top
    vols = top.widths.prod(axis=1) * top.weights
    numeric = sum(
        vol * abs(jacobian_numeric(tower.start, tower.base, params))
        for vol, params in zip(vols, top.params)
    )
    assert image_volume_lower_bound(tower) == pytest.approx(numeric, rel=1e-6)


def test_rasterization_is_plane_only():
    E, F = unit_pair(3)
    config = TowerConfig(cell_width=1.0 / 8.0, max_nodes=500)
    tower = build_tower(
        E, F, (0.0, 1.0), (0.0, 1.0), start="phi", config=config, base=(0.5, 0.5, 0.5)
    )
    with pytest.raises(ValueError):
        rasterized_image_measure(tower)


def test_tower_report_contents():
    E, F = unit_pair(2)
    tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    report = tower_report(tower)
    assert report["t_value"] == pytest.approx(0.75, abs=1e-6)
    assert report["ratio"] > 0.0
    assert report["image_integral"] > 0.0
    assert report["subject_measure"] == pytest.approx(1.0)
    assert len(report["levels"]) == 2
    for row in report["levels"]:
        assert row["n_nodes"] > 0
        assert row["measure"] > 0.0
        assert np.isfinite(row["threshold_over_predicted"])
