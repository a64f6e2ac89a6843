"""Tests for the greedy refinement towers and their oracles."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from momentray import refinement
from momentray.acceptance import random_box_pair
from momentray.corpus import build_default_corpus
from momentray.geometry import incidence_path, jacobian_numeric, line_step
from momentray.refinement import (
    Tower,
    TowerCollapse,
    TowerConfig,
    TowerLevel,
    build_tower,
    check_tower_structure,
    enumerate_tower_bruteforce,
    image_volume_lower_bound,
    tower_report,
)
from momentray.sets import BoxUnionSet, Interval, fiber_cells
from momentray.transform import fiber_measure_batch, fiber_pieces
from oracles import rasterized_image_measure


def unit_pair(d):
    E = BoxUnionSet([[[0.0, 1.0]] * d])
    F = BoxUnionSet([[[0.0, 1.0]] * d])
    return E, F


def test_config_validation():
    with pytest.raises(ValueError):
        TowerConfig(keep_fraction=0.0)
    with pytest.raises(ValueError):
        TowerConfig(cell_width=-1.0)
    with pytest.raises(ValueError, match="cell_width"):
        TowerConfig(cell_width=float("nan"))
    with pytest.raises(ValueError):
        TowerConfig(max_nodes=0)


@pytest.mark.parametrize("value", [2.5, 3.0, True, "20000"])
def test_config_refuses_non_integer_counts(value):
    # refused at construction, not later inside numpy's choice
    with pytest.raises(ValueError, match="integers"):
        TowerConfig(max_nodes=value)
    with pytest.raises(ValueError, match="integers"):
        TowerConfig(seed=value)


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
    """At a given base, and with none given once every base batch misses F."""
    E, _ = unit_pair(2)
    far = BoxUnionSet([[[0.0, 1.0], [50.0, 51.0]]])
    for base in ((0.5, 0.5), None):
        with pytest.raises(TowerCollapse) as exc:
            build_tower(E, far, (0.0, 1.0), (0.0, 1.0), start="phi", base=base)
        assert exc.value.label == 1


def test_base_found_past_the_first_batch():
    """None of d3-random-2's first 64 psi base candidates is incident; the
    second batch holds one, and the tower it grows is sound."""
    entry = {e.entry_id: e for e in build_default_corpus()}["d3-random-2"]
    first = refinement._sample_points(entry.F, 64, np.random.default_rng(0))
    assert fiber_measure_batch(entry.E, first, entry.interval, dual=False).max() == 0.0
    tower = build_tower(entry.E, entry.F, entry.interval, entry.window, start="psi")
    assert [level.n_nodes for level in tower.levels] == [12, 68, 860]
    assert check_tower_structure(tower)[0] == 1.0


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


def _reference_base(E, F, interval, window, start, seed):
    """The base search through fiber_measure_batch's values, where
    build_tower sums the pieces fiber_pieces gives."""
    dual = refinement._level_plan(start, E.dim)[0][1] == "t"
    rng = np.random.default_rng(seed)
    for _ in range(refinement._BASE_BATCHES):
        candidates = refinement._sample_points(E if dual else F, 64, rng)
        measures = fiber_measure_batch(
            F if dual else E, candidates, window if dual else interval, dual=dual
        )
        if measures.max() > 0.0:
            break
    return candidates[np.argmax(measures)]


def _reference_tower(E, F, interval, window, start, config):
    """The level loop that cuts every cell, then subsamples the node rows.

    Returns (base, levels); raises TowerCollapse like build_tower.
    """
    plan = refinement._level_plan(start, E.dim)
    base = _reference_base(E, F, interval, window, start, config.seed)
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
        rows, centers, cell_widths, _ = fiber_cells(
            los[kept], his[kept], config.cell_width, math.inf, 0
        )
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
            params, widths, parent_idx = params[pick], widths[pick], parent_idx[pick]
            weights = weights[pick] * factor
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
    return base, levels


@pytest.mark.parametrize("max_nodes", [20000, 500, 37])
def test_capped_levels_bit_identical_to_full_cut(max_nodes):
    """build_tower draws the cap over cell indices before building node rows;
    every level and the base equal the cut-everything-then-subsample loop.
    Every tower builds: d3-random-2 psi finds its base in the second batch."""
    config = TowerConfig(max_nodes=max_nodes)
    entries = {e.entry_id: e for e in build_default_corpus()}
    capped = 0
    for entry_id in ("d2-thin-source-x", "d2-nested", "d3-nested", "d3-thin-source-z",
                     "d3-random-2"):
        e = entries[entry_id]
        for start in ("phi", "psi"):
            base, ref_levels = _reference_tower(e.E, e.F, e.interval, e.window, start, config)
            tower = build_tower(e.E, e.F, e.interval, e.window, start=start, config=config)
            assert np.array_equal(tower.base, base)
            assert len(tower.levels) == len(ref_levels)
            for got, want in zip(tower.levels, ref_levels):
                for f in dataclasses.fields(TowerLevel):
                    a, b = getattr(got, f.name), getattr(want, f.name)
                    if isinstance(b, np.ndarray):
                        assert a.dtype == b.dtype and np.array_equal(a, b), (
                            entry_id, start, got.label, f.name,
                        )
                    else:
                        assert a == b, (entry_id, start, got.label, f.name)
                capped += want.n_nodes == max_nodes
    # levels the cap binds: the d = 3 tops at every size but d3-random-2 psi's
    # 860 nodes at 20000, lower levels when small
    assert capped == {20000: 4, 500: 11, 37: 21}[max_nodes]


def test_base_search_matches_fiber_measures_on_corpus():
    """On every default corpus entry and both starts, build_tower's base is
    the candidate _reference_base picks from fiber_measure_batch's values."""
    corpus = build_default_corpus()
    assert len(corpus) == 32
    for e in corpus:
        for start in ("phi", "psi"):
            tower = build_tower(e.E, e.F, e.interval, e.window, start=start)
            want = _reference_base(e.E, e.F, e.interval, e.window, start, TowerConfig().seed)
            assert np.array_equal(tower.base, want), (e.entry_id, start)


def _parent_fibers(tower, window, li):
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
    rng = window if dual else tower.interval
    return fiber_measure_batch(target, points, rng, dual=dual), vols


def _conserved_levels(tower, window, max_nodes):
    """Check every level below the node cap; return how many were checked.

    Cells partition the kept parents' fibers, so a level's measure is the
    sum over kept parents of fiber measure times parent cell volume.
    """
    checked = 0
    for li, level in enumerate(tower.levels):
        if level.n_nodes >= max_nodes:
            continue  # possibly subsampled
        measures, vols = _parent_fibers(tower, window, li)
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
            tower = build_tower(entry.E, entry.F, entry.interval, entry.window, start=start)
            checked += _conserved_levels(tower, entry.window, TowerConfig().max_nodes)
    assert checked >= 130
    E, F = random_box_pair(4, np.random.default_rng(0))
    espan, fspan = E.first_axis_span(), F.first_axis_span()
    config = TowerConfig(cell_width=1.0 / 8.0, max_nodes=4000)
    window = (fspan.lo - 0.1, fspan.hi + 0.1)
    for start in ("phi", "psi"):
        tower = build_tower(
            E, F, (espan.lo - 0.1, espan.hi + 0.1), window, start=start, config=config
        )
        assert tower.depth == 4
        assert _conserved_levels(tower, window, config.max_nodes) == tower.depth


@pytest.mark.parametrize("samples", [2.5, 2.0, True, "200", 0])
def test_structure_check_refuses_non_integer_samples(samples):
    E, F = unit_pair(2)
    tower = build_tower(E, F, (0.0, 1.0), (0.0, 1.0), start="phi", base=(0.5, 0.5))
    with pytest.raises(ValueError, match="samples"):
        check_tower_structure(tower, samples=samples)


# SHA-256 of every default-corpus tower (both starts, default config): each
# level's arrays and scalars, the seed-0 structure check over 200 samples and
# tower_report, plus the plane entries' 64-point grid oracle.  Recorded with
# numpy 2.4 on x86-64; a faster form of any tower step must keep these bits.
TOWER_SHA256 = "b9c937a9d9ac7a0353482687eb254c6caebd47acdd27af89f6b5489ef9c6ed66"


def test_corpus_towers_are_pinned():
    digest = hashlib.sha256()
    for e in build_default_corpus():
        for start in ("phi", "psi"):
            tower = build_tower(e.E, e.F, e.interval, e.window, start=start)
            digest.update(tower.base.tobytes())
            for level in tower.levels:
                for a in (level.params, level.widths, level.weights, level.parent_idx):
                    digest.update(f"{a.dtype}{a.shape}".encode())
                    digest.update(a.tobytes())
                scalars = (level.label, level.param_kind, level.target, level.measure,
                           level.threshold, level.min_kept_fiber, level.n_nodes)
                digest.update(repr(scalars).encode())
            digest.update(repr(check_tower_structure(tower, 200, 0)).encode())
            digest.update(repr(tower_report(tower)).encode())
            if e.dim == 2:
                brute = enumerate_tower_bruteforce(
                    e.E, e.F, tower.base, e.interval, e.window, start=start
                )
                digest.update(repr(brute).encode())
    assert digest.hexdigest() == TOWER_SHA256


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
    raster = rasterized_image_measure(tower)
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
        vol * abs(jacobian_numeric(tower.start, tower.base[None], params[None])[0])
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


@pytest.mark.parametrize("entry_id", ["d2-split-source", "d3-split-source"])
@pytest.mark.parametrize("start", ["phi", "psi"])
def test_tower_report_bound_is_the_hand_formula(entry_id, start):
    """The top level's two-slice bound, written out with a = t/|F| and
    b = t/|E|: the primal bound on |E| from phi, the dual bound on |F| from
    psi, delta the smallest kept top-level fiber."""
    entry = {e.entry_id: e for e in build_default_corpus()}[entry_id]
    E, F, d = entry.E, entry.F, entry.E.dim
    tower = build_tower(E, F, entry.interval, entry.window, start=start)
    report = tower_report(tower)
    t, delta = report["t_value"], tower.top.min_kept_fiber
    a, b = t / F.measure, t / E.measure
    if start == "phi":
        subject, rhs = E.measure, delta**2 * a ** (d - 2) * b ** (d * (d - 1) // 2)
    else:
        subject, rhs = F.measure, delta**d * a ** (d - 1) * b ** ((d * d - d + 2) // 2 - d)
    assert report["delta_top"] == delta
    assert report["subject_measure"] == subject
    assert report["predicted_rhs"] == pytest.approx(rhs, rel=1e-12)
    assert report["ratio"] == pytest.approx(subject / rhs, rel=1e-12)
