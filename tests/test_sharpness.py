"""Tests for exponent arithmetic, the sharp example family, and ratio checks."""

from fractions import Fraction

import numpy as np
import pytest

from momentray.lorentz import lorentz_norm, lp_norm
from momentray.sets import Box, BoxUnionSet, Interval
from momentray.sharpness import (
    CounterexampleSpec,
    build_counterexample_f,
    build_xf_lower_bound,
    check_rwt,
    counterexample_f_lp,
    critical_exponents,
    delta_region_vertices,
    dilate_configuration,
    dual_exponent,
    fit_power_law,
    homogeneous_dimension,
    lemma2_grid_dual,
    lemma2_grid_primal,
    lemma2_shrinking_sweep,
    necessity_check,
    nonisotropic_dilate,
    predicted_f_slope,
    predicted_xf_slope,
    region_contains,
    resolve_k_max,
    scaling_experiment,
    superlevel_mass_check,
    verify_minorant,
    xf_lower_block_norm,
    xf_lower_exact_lorentz,
)


def unit_box(d):
    return BoxUnionSet([Box(np.array([[0.0, 1.0]] * d))])


def box_from(lo, hi):
    return BoxUnionSet([Box(np.stack([np.asarray(lo, float), np.asarray(hi, float)], axis=1))])


# ---------------------------------------------------------------------------
# exponent arithmetic


def test_critical_exponents_exact():
    assert critical_exponents(2) == (Fraction(3, 2), Fraction(3, 1))
    assert critical_exponents(3) == (Fraction(3, 2), Fraction(2, 1))
    assert critical_exponents(4) == (Fraction(10, 7), Fraction(5, 3))


def test_dual_exponent():
    assert dual_exponent(Fraction(3, 1)) == Fraction(3, 2)
    assert dual_exponent(Fraction(2, 1)) == Fraction(2, 1)


def test_homogeneous_dimension():
    assert [homogeneous_dimension(d) for d in (2, 3, 4)] == [3, 6, 10]


def test_region_vertices_are_endpoint_origin_critical():
    for d in (2, 3, 4):
        p, q = critical_exponents(d)
        verts = delta_region_vertices(d)
        assert verts == ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(0)), (1 / p, 1 / q))


def test_region_membership():
    p, q = critical_exponents(2)
    # interior point: midway between the diagonal endpoint and the origin
    assert region_contains(2, Fraction(1, 2), Fraction(1, 2))
    # the critical vertex is on the boundary
    assert region_contains(2, 1 / p, 1 / q, include_boundary=True)
    assert not region_contains(2, 1 / p, 1 / q, include_boundary=False)
    # past the critical vertex is outside
    assert not region_contains(2, 1 / p + Fraction(1, 50), 1 / q - Fraction(1, 50))
    assert not region_contains(2, Fraction(2), Fraction(2))


def test_slope_identity_exact():
    for d in (2, 3, 4):
        p, _ = critical_exponents(d)
        a = Fraction(d * d - d + 2, 2)
        assert predicted_f_slope(d) == -a + 1 / p
        assert predicted_f_slope(3) == Fraction(-10, 3)
        gap = predicted_xf_slope(d, float(p)) - float(predicted_f_slope(d))
        assert abs(gap) < 1e-12


# ---------------------------------------------------------------------------
# dilations


def test_nonisotropic_dilate_powers():
    out = nonisotropic_dilate([1.0, 1.0, 1.0], 0.5)
    assert np.allclose(out, [0.5, 0.25, 0.125])
    with pytest.raises(ValueError):
        nonisotropic_dilate([1.0, 1.0], 0.0)


def test_rwt_ratios_invariant_under_dilation():
    E = box_from([0.1, -0.4], [0.9, 0.5])
    F = box_from([-0.2, -0.3], [0.7, 0.6])
    base = check_rwt(E, F, Interval(0.1, 0.9))
    for delta in (0.5, 2.0):
        Ed, Fd, win = dilate_configuration(E, F, Interval(0.1, 0.9), delta)
        scaled = check_rwt(Ed, Fd, win)
        # quadrature resolution relative to the boxes changes with delta,
        # so exact invariance shows up only to quadrature accuracy
        assert scaled.ratio_e == pytest.approx(base.ratio_e, rel=1e-5)
        assert scaled.ratio_f == pytest.approx(base.ratio_f, rel=1e-5)
        m = homogeneous_dimension(2)
        assert scaled.value == pytest.approx(base.value * delta ** (m + 1), rel=1e-5)


# ---------------------------------------------------------------------------
# the sharp example family


def test_resolve_k_max_rules():
    assert resolve_k_max(CounterexampleSpec(dim=2, n_start=4, k_max=9)) == 9
    loose = resolve_k_max(CounterexampleSpec(dim=2, n_start=4, tail_rel_tol=1e-3))
    tight = resolve_k_max(CounterexampleSpec(dim=2, n_start=4, tail_rel_tol=1e-6))
    assert tight > loose >= 4
    with pytest.raises(ValueError):
        resolve_k_max(CounterexampleSpec(dim=2, n_start=2, k_max=10_000_000))


def test_spec_validation():
    with pytest.raises(ValueError):
        CounterexampleSpec(dim=1, n_start=4)
    with pytest.raises(ValueError):
        CounterexampleSpec(dim=2, n_start=1)
    with pytest.raises(ValueError):
        CounterexampleSpec(dim=2, n_start=4, k_max=3)


def test_family_piece_geometry():
    spec = CounterexampleSpec(dim=3, n_start=2, k_max=5)
    f = build_counterexample_f(spec)
    m = homogeneous_dimension(3)
    for k, support in zip(range(2, 6), f.supports):
        assert support.measure == pytest.approx(2.0**3 * float(k) ** -m, rel=1e-12)
        center = np.array([0.0, k**2, k**3])
        assert f(center[None, :])[0] == pytest.approx(1.0)
    g = build_xf_lower_bound(spec)
    for k, support in zip(range(2, 6), g.supports):
        assert support.measure == pytest.approx(float(k) ** -m, rel=1e-12)


def test_truncated_lp_matches_closed_form_tail():
    d, n, k_hi = 2, 3, 40
    p, _ = critical_exponents(d)
    m = homogeneous_dimension(d)
    f = build_counterexample_f(CounterexampleSpec(dim=d, n_start=n, k_max=k_hi))
    ks = np.arange(n, k_hi + 1, dtype=float)
    direct = (2.0**d * np.sum(ks**-m)) ** (1.0 / float(p))
    assert lp_norm(f, float(p)) == pytest.approx(direct, rel=1e-12)
    # the closed form includes the infinite tail, so it sits just above
    full = counterexample_f_lp(d, n)
    assert full > lp_norm(f, float(p))
    assert full == pytest.approx(lp_norm(f, float(p)), rel=1e-2)


def test_exact_lorentz_matches_materialized_minorant():
    d, n, k_hi = 2, 2, 30
    _, q = critical_exponents(d)
    g = build_xf_lower_bound(CounterexampleSpec(dim=d, n_start=n, k_max=k_hi))
    for r in (1.5, float(q), 4.0):
        closed = xf_lower_exact_lorentz(d, r, n, k_max=k_hi)
        assert lorentz_norm(g, float(q), r) == pytest.approx(closed, rel=1e-10)


def test_block_norm_values_and_validation():
    # r = inf reduces to the first piece's score
    assert xf_lower_block_norm(2, np.inf, 7) == pytest.approx(7.0**-2.0)
    assert xf_lower_block_norm(2, 3.0, 4) > xf_lower_block_norm(2, 3.0, 8)
    with pytest.raises(ValueError):
        xf_lower_block_norm(2, -1.0, 4)
    with pytest.raises(ValueError):
        xf_lower_block_norm(2, 0.25, 4)  # a*r = 0.5 <= 1 diverges


def test_verify_minorant_nonnegative_slack():
    spec = CounterexampleSpec(dim=2, n_start=4, k_max=8)
    assert verify_minorant(spec) >= 0.0
    with pytest.raises(ValueError):
        verify_minorant(spec, interval=(-0.01, 0.01))


# ---------------------------------------------------------------------------
# scaling fits


def test_fit_power_law_recovers_exact_slope():
    xs = np.array([4.0, 8.0, 16.0, 32.0])
    fit = fit_power_law(xs, 3.7 * xs**-2.5)
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.7), abs=1e-12)
    assert fit.residual < 1e-13
    assert (fit.x_min, fit.x_max) == (4.0, 32.0)
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0], [1.0])


def test_scaling_experiment_matches_predictions():
    for d in (2, 3):
        p, _ = critical_exponents(d)
        res = scaling_experiment(d, float(p), n_list=(16, 32, 64, 128, 256))
        assert res.fit_f.slope == pytest.approx(res.predicted_f, rel=0.05)
        assert res.fit_xf.slope == pytest.approx(res.predicted_xf, rel=0.05)


def test_necessity_verdicts_flip_at_critical_r():
    p, _ = critical_exponents(2)
    n_list = (16, 32, 64, 128, 256)
    assert necessity_check(2, 0.9 * float(p), n_list).verdict == "diverges"
    assert necessity_check(2, float(p), n_list).verdict == "critical"
    assert necessity_check(2, 1.1 * float(p), n_list).verdict == "bounded"


# ---------------------------------------------------------------------------
# testing ratios and the two-slice bounds


def test_rwt_unit_square_exact_ratio():
    rep = check_rwt(unit_box(2), unit_box(2), Interval(0.0, 1.0))
    assert rep.value == pytest.approx(0.75, abs=1e-9)
    assert rep.ratio_e == pytest.approx(64.0 / 27.0, rel=1e-6)
    assert rep.ratio_f == pytest.approx(64.0 / 27.0, rel=1e-6)
    assert rep.verdict == pytest.approx(64.0 / 27.0, rel=1e-6)


def test_rwt_rejects_vanishing_pairing():
    far = box_from([0.0, 50.0], [1.0, 51.0])
    with pytest.raises(ValueError):
        check_rwt(unit_box(2), far, Interval(0.0, 1.0))


def test_lemma2_primal_hand_config():
    E = unit_box(2)
    G = box_from([0.4, 0.4], [0.6, 0.6])
    # every start in G keeps its line inside E for parameters up to 2/3
    rep = lemma2_grid_primal(E, G, Interval(0.0, 1.0), grid_n=8)
    assert rep.kind == "primal-grid"
    assert rep.hypothesis_min >= 0.6
    assert rep.region_measure == pytest.approx(G.measure)  # every cell is rich
    assert rep.subset_measure == pytest.approx(1.0)
    assert rep.rhs > 0.0
    assert rep.ratio == pytest.approx(rep.subset_measure / rep.rhs, rel=1e-12)


def test_lemma2_dual_hand_config():
    F = unit_box(2)
    H = box_from([0.4, 0.4], [0.6, 0.6])
    rep = lemma2_grid_dual(H, F, Interval(0.0, 1.0), grid_n=8)
    assert rep.kind == "dual-grid"
    assert rep.hypothesis_min >= 0.5
    assert rep.ratio > 0.0
    printed = lemma2_grid_dual(H, F, Interval(0.0, 1.0), grid_n=8, printed_variant=True)
    assert printed.printed_variant
    # at d=2 the variant exponent (d^2-d+2)/2 - d vanishes, so both agree
    assert printed.rhs == rep.rhs


def test_lemma2_dual_variants_differ_in_3d():
    F = unit_box(3)
    H = box_from([0.4, 0.4, 0.4], [0.6, 0.6, 0.6])
    rep = lemma2_grid_dual(H, F, Interval(0.0, 1.0), grid_n=8)
    printed = lemma2_grid_dual(H, F, Interval(0.0, 1.0), grid_n=8, printed_variant=True)
    assert rep.hypothesis_min >= 0.5
    # the variants normalize by different measures once the exponent is nonzero
    assert printed.rhs != pytest.approx(rep.rhs, rel=1e-3)
    assert rep.ratio > 0.0 and printed.ratio > 0.0


def test_lemma2_grid_checks_positive():
    E = F = unit_box(2)
    primal = lemma2_grid_primal(E, F, Interval(0.0, 1.0), grid_n=24)
    dual = lemma2_grid_dual(E, F, Interval(0.0, 1.0), grid_n=24)
    assert primal.ratio > 0.5
    assert dual.ratio > 0.5
    assert 0.0 < primal.theta
    assert primal.region_measure > 0.0


def test_lemma2_shrinking_sweep_shape():
    reports = lemma2_shrinking_sweep(unit_box(2), unit_box(2), Interval(0.0, 1.0), grid_n=24)
    assert len(reports) == 5
    assert all(rep.ratio > 0.1 for rep in reports)


def test_superlevel_mass_unit_pair():
    rep = superlevel_mass_check(unit_box(2), unit_box(2), Interval(0.0, 1.0), grid_n=32)
    assert rep.c0 > 0.0
    assert rep.t_inside >= rep.t_outside
    assert rep.t_inside + rep.t_outside == pytest.approx(rep.t_total, rel=1e-12)
    assert rep.constant > 0.0
    # unit measures make the normalizer equal the pairing itself
    assert rep.epsilon == pytest.approx(rep.t_total, rel=1e-12)
    assert rep.q_prime == pytest.approx(1.5)
