"""Tests for the greedy refinement towers and their oracles."""

import numpy as np
import pytest

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
    E, F = unit_pair(2)
    tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    closed = image_volume_lower_bound(tower, use_closed_form=True)
    numeric = image_volume_lower_bound(tower, use_closed_form=False)
    assert closed == pytest.approx(numeric, rel=1e-6)


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
