"""Tests for exponent arithmetic, the sharp example family, and ratio checks."""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.special import zeta as scipy_zeta

from momentray.lorentz import SimpleFunction, lorentz_norm, lp_norm
from momentray.sets import BoxUnionSet, Interval
from momentray.acceptance import random_box_pair
from momentray.corpus import build_default_corpus
from momentray.transform import fiber_measure_batch, region_cell_values
from momentray import sharpness
from oracles import family_bounds
from momentray.sharpness import (
    DEFAULT_N_LIST,
    CounterexampleSpec,
    _hurwitz_zeta,
    check_lemma2_primal,
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
    predicted_f_slope,
    predicted_xf_slope,
    region_contains,
    scaling_experiment,
    verify_minorant,
    xf_lower_block_norm,
    xf_lower_exact_lorentz,
)


def unit_box(d):
    return BoxUnionSet([[[0.0, 1.0]] * d])


def box_from(lo, hi):
    return BoxUnionSet([np.stack([np.asarray(lo, float), np.asarray(hi, float)], axis=1)])


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


def test_rwt_ratios_invariant_under_dilation():
    E = box_from([0.1, -0.4], [0.9, 0.5])
    F = box_from([-0.2, -0.3], [0.7, 0.6])
    base = check_rwt(E, F, Interval(0.1, 0.9))
    for delta in (0.5, 2.0):
        Ed, Fd, win = dilate_configuration(E, F, Interval(0.1, 0.9), delta)
        scaled = check_rwt(Ed, Fd, win)
        # quadrature resolution relative to the boxes changes with delta,
        # so exact invariance shows up only to quadrature accuracy
        assert scaled.ratio == pytest.approx(base.ratio, rel=1e-5)
        m = homogeneous_dimension(2)
        assert scaled.t_value == pytest.approx(base.t_value * delta ** (m + 1), rel=1e-5)


# ---------------------------------------------------------------------------
# the sharp example family


def test_spec_refuses_more_pieces_than_the_box_budget():
    limit = sharpness.MAX_MATERIALIZED_BOXES
    assert CounterexampleSpec(dim=2, n_start=2, k_max=limit + 1).k_max == limit + 1
    with pytest.raises(ValueError, match="asks for .* pieces"):
        CounterexampleSpec(dim=2, n_start=2, k_max=limit + 2)
    with pytest.raises(ValueError, match="asks for .* pieces"):
        CounterexampleSpec(dim=2, n_start=2, k_max=10_000_000)


def test_spec_validation():
    with pytest.raises(ValueError):
        CounterexampleSpec(dim=1, n_start=4, k_max=9)
    with pytest.raises(ValueError):
        CounterexampleSpec(dim=2, n_start=1, k_max=9)
    with pytest.raises(ValueError):
        CounterexampleSpec(dim=2, n_start=4, k_max=3)


@pytest.mark.parametrize(
    "fields",
    [
        {"dim": 2.0, "n_start": 4, "k_max": 9},
        {"dim": 2, "n_start": 4.5, "k_max": 9},
        {"dim": 2, "n_start": 4, "k_max": 10.0},
        {"dim": True, "n_start": 4, "k_max": 9},
        {"dim": 2, "n_start": True, "k_max": 9},
        {"dim": 2, "n_start": 4, "k_max": "9"},
    ],
)
def test_spec_refuses_non_integer_indices(fields):
    with pytest.raises(ValueError, match="must be an integer"):
        CounterexampleSpec(**fields)
    # numpy integers are integers
    assert CounterexampleSpec(dim=np.int64(2), n_start=np.int32(4), k_max=np.int64(9)).k_max == 9


def test_truncated_lp_matches_closed_form_tail():
    d, n, k_hi = 2, 3, 40
    p, _ = critical_exponents(d)
    m = homogeneous_dimension(d)
    ks = np.arange(n, k_hi + 1, dtype=float)
    f = SimpleFunction(np.ones_like(ks), list(family_bounds(d, n, k_hi, 1.0)))
    direct = (2.0**d * np.sum(ks**-m)) ** (1.0 / float(p))
    assert lp_norm(f, float(p)) == pytest.approx(direct, rel=1e-12)
    # the closed form includes the infinite tail, so it sits just above
    full = counterexample_f_lp(d, n)
    assert full > lp_norm(f, float(p))
    assert full == pytest.approx(lp_norm(f, float(p)), rel=1e-2)


def test_exact_lorentz_matches_materialized_minorant():
    d, n, k_hi = 2, 2, 30
    _, q = critical_exponents(d)
    ks = np.arange(n, k_hi + 1, dtype=float)
    g = SimpleFunction(1.0 / ks, list(family_bounds(d, n, k_hi, 0.5)))
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


# ---------------------------------------------------------------------------
# the Hurwitz zeta, with scipy as the oracle


def _zeta_arguments():
    """Every (s, a) the package evaluates: s = d(d+1)/2 and (d^2-d+2)/2 r
    for r in {p, 0.9 p, 1.1 p, q}, d = 2..7, at each default n_start and 4, 8."""
    args = []
    for d in range(2, 8):
        p, q = (float(e) for e in critical_exponents(d))
        block = (d * d - d + 2) / 2.0
        exps = [homogeneous_dimension(d)] + [block * r for r in (p, 0.9 * p, 1.1 * p, q)]
        args += [(s, n) for s in exps for n in sorted({*DEFAULT_N_LIST, 4, 8})]
    return args


def _ulps(got, want):
    return abs(got - want) / np.spacing(want)


def test_hurwitz_zeta_matches_scipy_within_8_ulps():
    args = _zeta_arguments()
    assert len(args) == 330
    far = [(s, a) for s, a in args if _ulps(_hurwitz_zeta(s, a), scipy_zeta(s, a)) > 8]
    assert far == []


def test_hurwitz_zeta_cut_points_agree(monkeypatch):
    """12 and 24 direct terms before the Euler-Maclaurin tail agree to a few
    ulps: the tail is exact to rounding either way."""
    args = _zeta_arguments()
    at_12 = [_hurwitz_zeta(s, a) for s, a in args]
    monkeypatch.setattr(sharpness, "_ZETA_DIRECT", 24)
    at_24 = [_hurwitz_zeta(s, a) for s, a in args]
    assert max(_ulps(x, y) for x, y in zip(at_12, at_24)) <= 4


def test_hurwitz_zeta_truncation_bound_below_one_ulp():
    """The docstring's remainder bound relative to a^-s,
    4 (s)_(2M-1) x^(1-2M) (a/x)^s / (2 pi)^(2M) at x = a + N, stays under its
    stated supremum and so under 2^-53 for s > 1 and a >= 1."""
    n, m = sharpness._ZETA_DIRECT, len(sharpness._BERNOULLI_TERMS)
    s = np.geomspace(1.0 + 1e-9, 1e7, 2000)[:, None]
    a = np.geomspace(1.0, 1e7, 2000)[None, :]
    x = a + n
    log_rel = (
        math.log(4.0)
        + gammaln(s + 2 * m - 1)
        - gammaln(s)
        + (1 - 2 * m) * np.log(x)
        + s * np.log(a / x)
        - 2 * m * math.log(2 * math.pi)
    )
    sup = 4.0 * ((2 * m - 1) / n) ** (2 * m - 1) * math.exp(1 - 2 * m) / (2 * math.pi) ** (2 * m)
    assert sup < 2.0**-53
    assert np.exp(log_rel.max()) <= sup
    assert np.exp(log_rel.max()) > 0.99 * sup  # the supremum is approached


def test_hurwitz_zeta_special_values():
    # zeta(2, 1) = pi^2 / 6, and a huge s leaves only the first term
    assert _ulps(_hurwitz_zeta(2.0, 1.0), math.pi**2 / 6.0) <= 2
    assert _hurwitz_zeta(1e300, 1.0) == 1.0
    assert _hurwitz_zeta(1e300, 2.0) == 0.0


@pytest.mark.parametrize(
    "s, a",
    [
        (1.0, 4.0),
        (0.5, 4.0),
        (-2.0, 4.0),
        (3.0, 0.0),
        (3.0, -1.5),
        (math.nan, 4.0),
        (math.inf, 4.0),
        (3.0, math.inf),
        (3.0, math.nan),
    ],
)
def test_hurwitz_zeta_refuses_outside_its_domain(s, a):
    """scipy returns inf or nan here without a word; the package refuses."""
    with pytest.raises(ValueError, match="Hurwitz zeta needs"):
        _hurwitz_zeta(s, a)


def test_verify_minorant_nonnegative_slack():
    spec = CounterexampleSpec(dim=2, n_start=4, k_max=8)
    assert verify_minorant(spec) >= 0.0


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_minorant_slack_at_benchmark_size(d, seed):
    """The benchmark's family size: the minimum slack is 0.005 exactly,
    reached at the last piece (weight 1/200 against a transform of 2/200),
    at d = 4 too, where the pieces from k = 108 on have sides below one ulp
    of their centres k^4."""
    spec = CounterexampleSpec(dim=d, n_start=4, k_max=200)
    assert verify_minorant(spec, seed=seed) == 0.005


def test_verify_minorant_d4_bounds_memory():
    """One d = 4 check (197 pieces, 1,576 points on the one box Q) peaks
    near 0.23 MB under tracemalloc: the (197, 8, 4) draw, the kernel's
    per-point coefficients x1**j and its solver's per-point temporaries in
    one pass over one box.  The check builds neither family, so nothing in
    it grows with a box count."""
    spec = CounterexampleSpec(dim=4, n_start=4, k_max=200)
    verify_minorant(spec)
    tracemalloc.start()
    try:
        slack = verify_minorant(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slack == 0.005
    assert peak < 300_000


@given(st.sampled_from([2, 3, 4]), st.integers(2, 12), st.integers(2, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_piece_transform_is_the_cube_transform_in_own_coordinates(d, k_max, k, seed):
    """The identity verify_minorant rests on, at small k, where the centre
    c_k = (0, k^2, ..., k^d) and the sides 2 k^-i of piece k's box E_k are
    both representable.  At 64 points x drawn over all of E_k, the transform
    of E_k alone over (-1, 1) equals g(u) / k, where u = delta_k(x - c_k)
    and g is the transform of Q = [-1, 1]^d, and the whole family's
    transform is at least that piece's.

    The tolerance: each edge of E_k rounds by at most half an ulp of its
    magnitude, at most ulp(k^d) / 2, which delta_k scales by at most k^d
    (the inverse of the side k^-d), so an edge moves by at most
    eta / 2 = ulp(k^d) k^d / 2 in u's coordinates.  Coordinate j's edges are
    crossed at parameters (edge - u_j) / u1^(j-1), so a fiber's ends move by
    at most eta / |u1|^(d-1) together for |u1| < 1.  Each end that lies in
    [-1, 1] carries at most d + 2 roundings of a ratio below 1 in magnitude
    on each side (the power, the quotient, u's dilation and the difference
    of the ends), 4 (d + 2) eps in all, which the steepest coefficient
    scales alike.  Both are in u's parameter, k times x's."""
    k_max, k = max(k_max, k), min(k_max, k)
    spec = CounterexampleSpec(dim=d, n_start=2, k_max=k_max)
    family = BoxUnionSet(family_bounds(d, 2, k_max, 1.0))
    piece = BoxUnionSet([family.bounds[k - 2]])
    x = np.random.default_rng(seed).uniform(piece.los[0], piece.his[0], size=(64, d))
    centre = np.zeros(d)
    centre[1:] = float(k) ** np.arange(2, d + 1)
    u = (x - centre) * float(k) ** np.arange(1, d + 1)
    alone = fiber_measure_batch(piece, x, (-1.0, 1.0), dual=False)
    g = fiber_measure_batch(BoxUnionSet([[[-1.0, 1.0]] * d]), u, (-1.0, 1.0), dual=False)
    eta = np.spacing(float(k) ** d) * float(k) ** d
    steepest = np.minimum(np.abs(u[:, 0]), 1.0) ** (d - 1)
    tol = (eta + 4 * (d + 2) * np.finfo(float).eps) / steepest / k
    assert np.all(np.abs(alone - g / k) <= tol)
    assert np.all(fiber_measure_batch(family, x, (-1.0, 1.0), dual=False) >= alone)
    assert verify_minorant(spec, seed=seed) == 1.0 / k_max


# ---------------------------------------------------------------------------
# scaling fits


def test_fit_power_law_recovers_exact_slope():
    xs = np.array([4.0, 8.0, 16.0, 32.0])
    fit = fit_power_law(xs, 3.7 * xs**-2.5)
    assert fit.slope == pytest.approx(-2.5, abs=1e-12)
    assert fit.residual < 1e-13
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
    assert scaling_experiment(2, 0.9 * float(p), n_list).verdict == "diverges"
    assert scaling_experiment(2, float(p), n_list).verdict == "critical"
    assert scaling_experiment(2, 1.1 * float(p), n_list).verdict == "bounded"


# ---------------------------------------------------------------------------
# testing ratios and the two-slice bounds


def test_rwt_unit_square_exact_ratio():
    rep = check_rwt(unit_box(2), unit_box(2), Interval(0.0, 1.0))
    assert rep.t_value == pytest.approx(0.75, abs=1e-9)
    assert rep.ratio == pytest.approx(64.0 / 27.0, rel=1e-6)


def _assert_exact_ratio(rep, d, rel):
    """The ratio is |E|^((d^2-d+2)/2) |F|^d / T^(d(d+1)/2), computed exactly
    from the report's own floats, to within rel."""
    e, f, t = (Fraction(v) for v in (rep.measure_e, rep.measure_f, rep.t_value))
    exact = e ** ((d * d - d + 2) // 2) * f**d / t ** homogeneous_dimension(d)
    assert abs(Fraction(rep.ratio) - exact) <= rel * exact, (rep.ratio, float(exact))


@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_rwt_ratio_is_the_one_testing_ratio(d, seed):
    """On random box-union pairs the ratio is |E|^((d^2-d+2)/2) |F|^d / T^m
    to rel 1e-13: the exponents of |E| and |F| differ off the unit square,
    so swapping them fails here though criterion 3 (|E| = |F| = 1) cannot
    see it."""
    E, F = random_box_pair(d, np.random.default_rng(seed))
    rep = check_rwt(E, F, E.first_axis_span())
    _assert_exact_ratio(rep, d, 1e-13)


def test_rwt_ratio_stays_exact_where_averages_underflow():
    """E = [0, 1e-200] x [0, 1]: alpha = T/|F| is 1e-200, whose square is
    below the smallest float, yet the ratio, about 1e200, is representable
    and is returned to rel 1e-12."""
    w = 1e-200
    E = BoxUnionSet([[[0.0, w], [0.0, 1.0]]])
    rep = check_rwt(E, unit_box(2), Interval(0.0, w))
    assert rep.alpha == pytest.approx(w, rel=1e-12)
    _assert_exact_ratio(rep, 2, 1e-12)


def test_rwt_refuses_a_ratio_past_float_range():
    """E = [0, 1e-160] x [0, 1]^2 against the unit cube has a ratio of about
    1e320, which no float holds: refused, not returned as inf."""
    w = 1e-160
    E = BoxUnionSet([[[0.0, w], [0.0, 1.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="not a finite float"):
        check_rwt(E, unit_box(3), Interval(0.0, w))


def test_rwt_rejects_vanishing_pairing():
    far = box_from([0.0, 50.0], [1.0, 51.0])
    with pytest.raises(ValueError):
        check_rwt(unit_box(2), far, Interval(0.0, 1.0))


def test_lemma2_primal_hand_config():
    E = unit_box(2)
    G = box_from([0.4, 0.4], [0.6, 0.6])
    # every start in G keeps its line inside E for parameters up to 2/3
    rep, _ = check_lemma2_primal(E, G, Interval(0.0, 1.0), grid_n=8)
    assert rep.region_measure == pytest.approx(G.measure)  # every cell is rich
    assert rep.subset_measure == pytest.approx(1.0)
    assert rep.rhs > 0.0
    assert rep.ratio == pytest.approx(rep.subset_measure / rep.rhs, rel=1e-12)


def test_lemma2_theta_frac_one_on_a_constant_grid_keeps_every_cell():
    """On a grid whose cells all hold 2.0 the average rounds one ulp above
    it; theta_frac = 1 caps the threshold at the largest grid value, so
    every cell is rich instead of none."""
    corpus = {e.entry_id: e for e in build_default_corpus()}
    entry = corpus["d2-thin-target"]
    rep, _ = check_lemma2_primal(entry.E, entry.F, entry.interval, theta_frac=1.0, grid_n=16)
    assert rep.theta == 2.0
    assert rep.region_measure == pytest.approx(entry.F.measure)
    entry = corpus["d3-thin-source-x"]
    rep = lemma2_grid_dual(entry.E, entry.F, entry.window, theta_frac=1.0, grid_n=8)
    assert rep.theta == 2.0
    assert rep.region_measure == pytest.approx(entry.E.measure)


def test_lemma2_threshold_cap_leaves_non_constant_grids_alone():
    """Below the largest grid value theta is theta_frac times the average,
    uncapped, at theta_frac = 1 too."""
    E = F = unit_box(2)
    window = Interval(0.0, 1.0)
    for check in (
        lambda frac: check_lemma2_primal(E, F, window, theta_frac=frac, grid_n=24)[0],
        lambda frac: lemma2_grid_dual(E, F, window, theta_frac=frac, grid_n=24),
    ):
        whole, half = check(1.0), check(0.5)
        assert whole.theta == 2.0 * half.theta
        assert 0.0 < whole.region_measure < half.region_measure < 1.0


def test_lemma2_dual_hand_config():
    F = unit_box(2)
    H = box_from([0.4, 0.4], [0.6, 0.6])
    rep = lemma2_grid_dual(H, F, Interval(0.0, 1.0), grid_n=8)
    assert rep.ratio > 0.0


@pytest.mark.parametrize(
    "d, primal, dual",
    # delta = 2, a = 3, b = 5: 2^2 3^(d-2) 5^(d(d-1)/2) and 2^d 3^(d-1) 5^((d^2-d+2)/2-d)
    [(2, 20.0, 12.0), (3, 1500.0, 360.0), (4, 562500.0, 54000.0)],
)
def test_two_slice_bounds_hand_values(d, primal, dual):
    assert sharpness._primal_rhs(d, 2.0, 3.0, 5.0) == primal
    assert sharpness._dual_rhs(d, 2.0, 3.0, 5.0) == dual


def _hand_rich_rhs(vals, vols, theta, d, subject, dual):
    """The two-slice bound over the rich cells {vals >= theta}, written out
    with a = t/|F| and b = t/|E|: the rich region stands in for F on the
    primal route and for E on the dual route, and subject is the other side."""
    rich = vals >= theta
    region, t = vols[rich].sum(), (vals * vols)[rich].sum()
    if dual:
        a, b = t / subject, t / region
        return theta**d * a ** (d - 1) * b ** ((d * d - d + 2) // 2 - d)
    a, b = t / region, t / subject
    return theta**2 * a ** (d - 2) * b ** (d * (d - 1) // 2)


@pytest.mark.parametrize(
    "entry_id", ["d2-split-source", "d2-thin-target", "d3-nested", "d3-random-0"]
)
def test_lemma2_rhs_is_the_hand_formula_on_the_same_grid(entry_id):
    """Every report's rhs, subset measure and ratio from the same
    region_cell_values grid: primal (E over F) at half the F-average and
    at each sweep fraction of the largest value, dual (F over E) at half
    the E-average."""
    entry = {e.entry_id: e for e in build_default_corpus()}[entry_id]
    E, F, d, grid_n = entry.E, entry.F, entry.E.dim, 16
    primal, sweep = check_lemma2_primal(E, F, entry.interval, grid_n=grid_n)
    dual = lemma2_grid_dual(E, F, entry.window, grid_n=grid_n)
    routes = ((E, F, entry.interval, False, [primal, *sweep]), (F, E, entry.window, True, [dual]))
    for source, region, span, is_dual, reports in routes:
        blocks = region_cell_values(source, region, span, grid_n, dual=is_dual)
        vals = np.concatenate([b.center_values.reshape(-1) for b in blocks])
        vols = np.concatenate([np.full(b.center_values.size, b.cell_volume) for b in blocks])
        thetas = [0.5 * (vals * vols).sum() / region.measure]
        if not is_dual:
            thetas += [frac * vals.max() for frac in (0.3, 0.45, 0.6, 0.75, 0.9)]
        for rep, theta in zip(reports, thetas, strict=True):
            assert rep.theta == pytest.approx(theta, rel=1e-12)
            rhs = _hand_rich_rhs(vals, vols, rep.theta, d, source.measure, is_dual)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12), (entry_id, is_dual)
            assert rep.subset_measure == source.measure
            assert rep.ratio == pytest.approx(source.measure / rhs, rel=1e-12)


def test_lemma2_grid_checks_positive():
    E = F = unit_box(2)
    primal, _ = check_lemma2_primal(E, F, Interval(0.0, 1.0), grid_n=24)
    dual = lemma2_grid_dual(E, F, Interval(0.0, 1.0), grid_n=24)
    assert primal.ratio > 0.5
    assert dual.ratio > 0.5
    assert 0.0 < primal.theta
    assert primal.region_measure > 0.0


def test_lemma2_shrinking_sweep_shape():
    _, reports = check_lemma2_primal(unit_box(2), unit_box(2), Interval(0.0, 1.0), grid_n=24)
    assert len(reports) == 5
    assert all(rep.ratio > 0.1 for rep in reports)


def test_lemma2_wrappers_are_check_lemma2_primal_at_its_defaults():
    for entry in build_default_corpus()[::5]:
        primal, sweep = check_lemma2_primal(entry.E, entry.F, entry.interval)
        assert lemma2_grid_primal(entry.E, entry.F, entry.interval) == primal
        assert lemma2_shrinking_sweep(entry.E, entry.F, entry.interval) == sweep


# SHA-256 of every default-corpus entry's Lemma 2 reports at their defaults:
# check_lemma2_primal's report and sweep, and lemma2_grid_dual.  Recorded
# with numpy 2.4 on x86-64; a faster form of the grid kernel or of the
# scoring must keep these bits.
LEMMA2_SHA256 = "f228e98a0028cb4dbcbce2ae469c1c6bc50740f4d3d10e544f1cd91ce13e6b4e"


def test_corpus_lemma2_reports_are_pinned():
    digest = hashlib.sha256()
    for e in build_default_corpus():
        interval, window = (e.interval.lo, e.interval.hi), (e.window.lo, e.window.hi)
        primal, sweep = check_lemma2_primal(e.E, e.F, interval)
        digest.update(repr((e.entry_id, primal, sweep)).encode())
        digest.update(repr(lemma2_grid_dual(e.E, e.F, window)).encode())
    assert digest.hexdigest() == LEMMA2_SHA256
