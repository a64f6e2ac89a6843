"""Exact fibers, the transform on points, and the pairing quadratures."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentray import transform
from momentray.acceptance import random_box_pair
from momentray.lorentz import SimpleFunction
from momentray.refinement import build_tower
from momentray.sets import BoxUnionSet, fiber_cells
from momentray.sharpness import dilate_configuration
from momentray.transform import (
    QuadSpec,
    adjointness_gap,
    apply_x,
    bilinear_form,
    bilinear_form_dual,
    fiber_measure_batch,
    fiber_pieces,
    region_cell_values,
)

UNIT2 = BoxUnionSet([np.array([[0.0, 1.0], [0.0, 1.0]])])


# ---------------------------------------------------------------------------
# reference: exact fibers one point and one box at a time


def _primal_fiber_box(blo, bhi, x, lo, hi):
    """Intersection of {s : gamma(x, s) in box} with [lo, hi], or None."""
    slo = max(lo, blo[0])
    shi = min(hi, bhi[0])
    x1 = x[0]
    for j in range(1, len(x)):
        coef = x1**j
        if coef == 0.0:
            if not (blo[j] <= x[j] <= bhi[j]):
                return None
            continue
        a = (blo[j] - x[j]) / coef
        b = (bhi[j] - x[j]) / coef
        if coef < 0.0:
            a, b = b, a
        slo = max(slo, a)
        shi = min(shi, b)
        if shi < slo:
            return None
    return (slo, shi) if shi >= slo else None


def _odd_root(v, j):
    return float(np.sign(v) * np.abs(v) ** (1.0 / j))


def _dual_fiber_box(blo, bhi, x, lo, hi):
    """Components of {t : gamma_star(x, t) in box} inside [lo, hi]."""
    comps = [(max(lo, blo[0]), min(hi, bhi[0]))]
    if comps[0][1] < comps[0][0]:
        return []
    x1 = x[0]
    for j in range(1, len(x)):
        # constraint: x1 * t^j in [x_j - bhi_j, x_j - blo_j]
        tlo = x[j] - bhi[j]
        thi = x[j] - blo[j]
        if x1 == 0.0:
            if tlo <= 0.0 <= thi:
                continue
            return []
        mlo, mhi = sorted((tlo / x1, thi / x1))
        if j % 2 == 1:
            pieces = [(_odd_root(mlo, j), _odd_root(mhi, j))]
        else:
            if mhi < 0.0:
                return []
            hi_root = mhi ** (1.0 / j)
            if mlo <= 0.0:
                pieces = [(-hi_root, hi_root)]
            else:
                lo_root = mlo ** (1.0 / j)
                pieces = [(-hi_root, -lo_root), (lo_root, hi_root)]
        comps = [
            (max(a, c), min(b, e))
            for a, b in comps
            for c, e in pieces
            if min(b, e) >= max(a, c)
        ]
        if not comps:
            return []
    return comps


def _merge(pieces):
    """Reference fiber of one point: (m, 2) disjoint intervals, sorted.

    Empty pieces (hi < lo, or a NaN end) are dropped, the rest sorted and
    merged one at a time while they touch or overlap.
    """
    merged = []
    for lo, hi in sorted((float(lo), float(hi)) for lo, hi in pieces if hi >= lo):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    return np.array(merged, dtype=float).reshape(-1, 2)


def _measure(fiber):
    return float((fiber[:, 1] - fiber[:, 0]).sum())


def _line_fiber(region, x, interval, dual=False):
    """Exact parameter set where the line through x meets the box union."""
    lo, hi = interval
    x = np.asarray(x, dtype=float)
    pieces = []
    for blo, bhi in zip(region.los, region.his):
        if dual:
            pieces.extend(_dual_fiber_box(blo, bhi, x, lo, hi))
        else:
            piece = _primal_fiber_box(blo, bhi, x, lo, hi)
            if piece is not None:
                pieces.append(piece)
    return _merge(pieces)


def _kernel_fibers(region, points, interval, dual=False):
    """Per-point fibers from one fiber_pieces call, touching pieces merged."""
    los, his = fiber_pieces(region, points, interval, dual=dual)
    return [_merge(zip(a, b)) for a, b in zip(los, his)]


def _assert_fibers_match_reference(region, points, interval, dual):
    measures = fiber_measure_batch(region, points, interval, dual=dual)
    for x, fib, m in zip(points, _kernel_fibers(region, points, interval, dual), measures):
        ref = _line_fiber(region, x, interval, dual=dual)
        assert fib.shape == ref.shape
        assert np.allclose(fib, ref, rtol=0.0, atol=1e-14)
        assert abs(m - _measure(ref)) <= 1e-14


def test_primal_fiber_hand_value():
    # x = (1, 0.5): need 0.5 + s in [0,1] and s in [0,1] -> s in [0, 0.5]
    (fib,) = _kernel_fibers(UNIT2, [(1.0, 0.5)], (0.0, 1.0))
    assert fib.tolist() == [[0.0, 0.5]]


def test_primal_fiber_vertical_line():
    # x1 = 0: the j >= 2 constraints are constant, fiber is all of I
    fib, empty = _kernel_fibers(UNIT2, [(0.0, 0.5), (0.0, 1.5)], (0.0, 1.0))
    assert _measure(fib) == pytest.approx(1.0)
    assert len(empty) == 0


def test_dual_fiber_hand_value():
    # x = (1, 0.5): need t in [0,1] and 0.5 - t in [0,1] -> t in [0, 0.5]
    (fib,) = _kernel_fibers(UNIT2, [(1.0, 0.5)], (-1.0, 1.0), dual=True)
    assert _measure(fib) == pytest.approx(0.5)


def test_dual_fiber_even_power_components():
    # F3 = [-2,2] x [-1,1] x [0, 0.5], x = (1, 0, 1):
    # t in [-1,1] from the linear constraint, t^2 in [0.5, 1] from the
    # quadratic one -> |t| in [sqrt(0.5), 1], two symmetric components.
    F = BoxUnionSet([np.array([[-2.0, 2.0], [-1.0, 1.0], [0.0, 0.5]])])
    (fib,) = _kernel_fibers(F, [(1.0, 0.0, 1.0)], (-2.0, 2.0), dual=True)
    assert len(fib) == 2
    assert _measure(fib) == pytest.approx(2.0 * (1.0 - np.sqrt(0.5)), rel=1e-12)


def test_fiber_measure_batch_matches_single():
    """Pieces and measures of the batch kernel match the per-point reference
    on 2,048 random points per dimension and route, 48 of them with x1 = 0."""
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        E, F = random_box_pair(d, rng, max_boxes=3)
        pts = rng.uniform(-1.2, 1.2, size=(2048, d))
        pts[::43, 0] = 0.0
        for dual in (False, True):
            region = F if dual else E
            _assert_fibers_match_reference(region, pts, (-1.1, 1.1), dual)
            hits = fiber_measure_batch(region, pts, (-1.1, 1.1), dual=dual) > 0.0
            assert hits[pts[:, 0] != 0.0].sum() > 200
            assert hits[pts[:, 0] == 0.0].any()


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_fiber_row_blocks_match_one_block(monkeypatch, d, dual):
    """Seven-row blocks give the one-block measures exactly.  Rows with
    x1 = 0 sit in blocks 0 and 7 only, so the blocks disagree on whether
    the vertical-line branch runs."""
    rng = np.random.default_rng(d)
    E, F = random_box_pair(d, rng, max_boxes=3)
    region = F if dual else E
    pts = rng.uniform(-1.2, 1.2, size=(300, d))
    pts[[3, 50, 51], 0] = 0.0
    weights = rng.uniform(0.5, 2.0, region.n_boxes)

    def measures(rows):
        monkeypatch.setattr(transform, "_BLOCK_ROWS", rows)
        return [
            fiber_measure_batch(region, pts, (-1.1, 1.1), dual=dual, weights=w)
            for w in (None, weights)
        ]

    one_block, blocked = measures(1 << 30), measures(7)
    assert np.count_nonzero(one_block[0]) > 30
    for got, want in zip(blocked, one_block):
        assert np.array_equal(got, want)


def _grid_points(axes):
    """The points of a grid, one row each, in row-major order."""
    return np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _grid_region(d, case, n, rng):
    """One box whose first axis is negative, straddles 0, or (case "zero")
    is [-n/16, n/16]: n cells of width 1/8, so for odd n the middle cell's
    center is exactly x1 = 0."""
    lo, hi = rng.uniform(-0.8, -0.1, d), rng.uniform(0.1, 0.8, d)
    first = {"negative": (-1.0, -0.25), "straddle": (-0.6, 0.35), "zero": (-n / 16, n / 16)}
    lo[0], hi[0] = first[case]
    return BoxUnionSet([np.stack([lo, hi], axis=1)])


@given(
    st.sampled_from([2, 3, 4]),
    st.booleans(),
    st.sampled_from(["negative", "straddle", "zero"]),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_grid_values_equal_point_batch(d, dual, case, k, seed):
    """Grids evaluated as tensor products of their axes give, bit for bit,
    fiber_measure_batch's values on the same points listed row by row:
    region_cell_values' cell values and the midpoint route's sum, primal
    (over F's grid) and dual (over E's)."""
    rng = np.random.default_rng(seed)
    n = 2 * k + 1 if case == "zero" else k + 2
    E, F = random_box_pair(d, rng, max_boxes=3)
    source = F if dual else E
    grid = _grid_region(d, case, n, rng)
    interval = (-1.1, 1.1)

    (block,) = region_cell_values(source, grid, interval, n, dual=dual)
    axes = [lo + (np.arange(n) + 0.5) * w for lo, w in zip(grid.los[0], block.widths)]
    pts = _grid_points(axes)
    assert block.center_values.shape == (n,) * d
    assert np.array_equal(
        block.center_values.reshape(-1), fiber_measure_batch(source, pts, interval, dual=dual)
    )
    assert (case == "zero") == np.any(pts[:, 0] == 0.0)

    step = 1.0 / 8.0
    axes, widths = zip(*(transform._grid_axes(a, b, step) for a, b in zip(*grid.bounds[0].T)))
    vals = fiber_measure_batch(source, _grid_points(axes), interval, dual=dual)
    quad = QuadSpec("midpoint", step)
    if dual:
        got = bilinear_form_dual(grid, F, interval, quad)
    else:
        got = bilinear_form(E, grid, interval, quad)
    assert got == float(vals.sum()) * float(np.prod(widths))


@pytest.mark.parametrize("d", [2, 3])
def test_midpoint_box_sum_same_at_every_block_size(monkeypatch, d):
    """region_cell_values and both midpoint routes are bit-identical whether
    the kernel takes one first-axis row (a block of 5 points, smaller than a
    row), 100 points, 7 rows or a whole grid per pass.  The 40-per-axis grid
    has x1 = 0 in row 12 only, and the midpoint route sums it in groups of
    12 first-axis rows."""
    monkeypatch.setattr(transform, "_CHUNK_LIMIT", 500 * 40 ** (d - 2))
    rng = np.random.default_rng(d)
    E, F = random_box_pair(d, rng, max_boxes=3)
    grid = BoxUnionSet([np.tile([-12.5 / 32, 27.5 / 32], (d, 1))])
    interval, quad = (-1.1, 1.1), QuadSpec("midpoint", 1.0 / 32.0)

    def values(rows):
        monkeypatch.setattr(transform, "_BLOCK_ROWS", rows)
        (primal,) = region_cell_values(E, grid, interval, 40)
        (dual,) = region_cell_values(F, grid, interval, 40, dual=True)
        return (
            primal.center_values,
            dual.center_values,
            bilinear_form(E, grid, interval, quad),
            bilinear_form_dual(grid, F, interval, quad),
        )

    assert transform._grid_axes(grid.los[0][0], grid.his[0][0], quad.step)[0][12] == 0.0
    runs = [values(rows) for rows in (5, 100, 7 * 40 ** (d - 1), 1 << 30)]
    assert all(np.count_nonzero(v) > 40 for v in runs[0][:2]) and min(runs[0][2:]) > 0.0
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("grid_n", [2.5, 2.0, True, "4"])
def test_region_cell_values_refuses_non_integer_grid_n(grid_n):
    with pytest.raises(ValueError, match="grid_n must be an integer"):
        region_cell_values(UNIT2, UNIT2, (0.0, 1.0), grid_n)


def test_midpoint_pairing_bounds_memory():
    """Criterion 3's 2048 x 2048 midpoint grid is never held as one point
    array: the pass peaks near 35 MB (one 32 MiB value array), not 474 MB."""
    tracemalloc.start()
    try:
        val = bilinear_form(UNIT2, UNIT2, (0.0, 1.0), QuadSpec("midpoint", 1.0 / 2048.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(0.75, abs=1e-6)
    assert peak < 48_000_000


def test_fiber_pieces_split_and_merge():
    # dual, t**2 constraint bounded away from 0: two components per box
    F = BoxUnionSet([np.array([[-2.0, 2.0], [-1.0, 1.0], [0.0, 0.5]])])
    rng = np.random.default_rng(1)
    pts = np.column_stack(
        [rng.uniform(0.5, 1.5, 200), rng.uniform(-0.2, 0.2, 200), rng.uniform(0.6, 1.4, 200)]
    )
    assert sum(len(f) == 2 for f in _kernel_fibers(F, pts, (-2.0, 2.0), dual=True)) > 100
    _assert_fibers_match_reference(F, pts, (-2.0, 2.0), dual=True)
    # four boxes tiling [0, 1]^3: a line crossing a shared face gets
    # touching pieces from two boxes, merged into one interval
    cube = BoxUnionSet(
        [
            np.array([[0.0, 0.5], [0.0, 1.0], [0.0, 1.0]]),
            np.array([[0.5, 1.0], [0.0, 0.5], [0.0, 1.0]]),
            np.array([[0.5, 1.0], [0.5, 1.0], [0.0, 0.5]]),
            np.array([[0.5, 1.0], [0.5, 1.0], [0.5, 1.0]]),
        ]
    )
    pts = rng.uniform(0.0, 1.0, size=(400, 3))
    for dual in (False, True):
        los, his = fiber_pieces(cube, pts, (0.0, 1.0), dual=dual)
        pieces = (his >= los).sum(axis=1)
        merged = np.array([len(f) for f in _kernel_fibers(cube, pts, (0.0, 1.0), dual)])
        assert np.all(merged <= pieces) and np.any(merged < pieces)
        _assert_fibers_match_reference(cube, pts, (0.0, 1.0), dual)


def _reference_cells(los, his, max_width):
    """Reference merge of each row, then equal cells of every interval."""
    rows, centers, widths = [], [], []
    for i, (a, b) in enumerate(zip(los, his)):
        for lo, hi in _merge(zip(a, b)):
            length = hi - lo
            if length == 0.0:
                continue
            n = max(1, int(np.ceil(length / max_width)))
            w = length / n
            rows.append(np.full(n, i))
            centers.append(lo + (np.arange(n) + 0.5) * w)
            widths.append(np.full(n, w))
    if not rows:
        return np.empty(0, dtype=int), np.empty(0), np.empty(0)
    return np.concatenate(rows), np.concatenate(centers), np.concatenate(widths)


# few distinct ends, so pieces often touch, nest, coincide or have length 0
_PIECE_ENDS = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, math.nan]),
    st.floats(-2.0, 2.0),
)


@st.composite
def piece_arrays(draw):
    n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    ends = draw(st.lists(_PIECE_ENDS, min_size=2 * n * k, max_size=2 * n * k))
    los, his = np.array(ends).reshape(2, n, k)
    no_piece = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    his[no_piece] = -np.inf  # every piece of these rows is empty
    return los, his


@given(piece_arrays(), st.sampled_from([0.05, 0.3, 1.0, 4.0]))
@settings(max_examples=200, deadline=None)
def test_fiber_cells_match_reference_merge_and_cut(pieces, max_width):
    got = fiber_cells(*pieces, max_width)
    ref = _reference_cells(*pieces, max_width)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert g.tobytes() == r.astype(g.dtype).tobytes()


@pytest.mark.parametrize("bad", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_unrepresentable_intervals_are_refused(bad):
    calls = [
        lambda: fiber_measure_batch(UNIT2, [(0.5, 0.5)], bad),
        lambda: fiber_pieces(UNIT2, [(0.5, 0.5)], bad),
        lambda: apply_x(UNIT2, bad, (0.5, 0.5)),
        lambda: bilinear_form(UNIT2, UNIT2, bad),
        lambda: bilinear_form_dual(UNIT2, UNIT2, bad),
        lambda: build_tower(UNIT2, UNIT2, bad, (0.0, 1.0)),
        lambda: build_tower(UNIT2, UNIT2, (0.0, 1.0), bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


def test_fiber_dilation_covariance():
    """delta-scaling the set, point, and interval scales fibers by delta."""
    E = BoxUnionSet([np.array([[0.1, 0.9], [-0.4, 0.6], [0.0, 0.7]])])
    rng = np.random.default_rng(4)
    delta = 0.6
    exps = np.arange(1, 4)
    scaled = E.dilated_nonisotropic(delta)
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, 3)
        base = fiber_measure_batch(E, x, (-1.0, 1.0))
        scaled_fiber = fiber_measure_batch(scaled, delta**exps * x, (-delta, delta))
        assert scaled_fiber == pytest.approx(delta * base, rel=1e-12, abs=1e-15)


def test_unit_square_pairing_all_methods():
    for quad, tol in (
        (None, 1e-12),
        (QuadSpec(method="midpoint", step=1.0 / 2048.0), 1e-6),
    ):
        val = bilinear_form(UNIT2, UNIT2, (0.0, 1.0), quad)
        assert val == pytest.approx(0.75, abs=tol)


def test_pairing_methods_agree_on_skew_pair():
    E = BoxUnionSet([np.array([[-0.3, 0.9], [-0.5, 0.6], [-0.4, 0.7]])])
    F = BoxUnionSet([np.array([[-0.8, 0.7], [-0.6, 0.3], [-0.2, 0.8]])])
    layered = bilinear_form(E, F, (-0.3, 0.9))
    midpoint = bilinear_form(E, F, (-0.3, 0.9), QuadSpec(method="midpoint", step=1.0 / 64.0))
    assert midpoint == pytest.approx(layered, rel=2e-3)


def test_adjointness_small_gap_and_coverage_errors():
    E = BoxUnionSet([np.array([[0.0, 1.0], [-0.5, 0.5]])])
    F = BoxUnionSet([np.array([[-0.5, 0.8], [0.0, 1.0]])])
    gap = adjointness_gap(E, F, (0.0, 1.0), (-0.5, 0.8))
    assert gap["rel_gap"] < 1e-5
    with pytest.raises(ValueError):
        adjointness_gap(E, F, (0.2, 1.0), (-0.5, 0.8))  # interval misses E
    with pytest.raises(ValueError):
        bilinear_form_dual(E, F, (0.0, 0.8))  # window misses F


def test_apply_x_scales_with_simple_function_weight():
    f = SimpleFunction([2.0], [UNIT2])
    pts = np.array([[1.0, 0.5], [0.0, 0.5], [0.5, 0.2]])
    doubled = apply_x(f, (0.0, 1.0), pts)
    plain = apply_x(UNIT2, (0.0, 1.0), pts)
    assert np.allclose(doubled, 2.0 * plain)
    assert plain[0] == pytest.approx(0.5)


def _per_support_sum(weights, supports, interval, pts):
    """The transform of sum_k w_k 1_{support k}, one support at a time,
    summed in support order."""
    out = np.zeros(pts.shape[0])
    for w, support in zip(weights, supports):
        out += w * fiber_measure_batch(support, pts, interval)
    return out


def _sample_points(seed, d, n=64):
    rng = np.random.default_rng(seed)
    return rng.uniform([-1.5] + [-1.0] * (d - 1), [1.5] + [1.0] * (d - 1), size=(n, d))


def test_apply_x_single_box_supports_bit_identical():
    """One stacked pass adds w * |fiber| box by box in support order, which
    for single-box supports is exactly the per-support sum."""
    for d in (2, 3, 4):
        boxes = [np.array([[k / 4.0 - 1.0, k / 4.0 - 0.75]] + [[-0.5, 0.5]] * (d - 1)) for k in range(8)]
        weights, supports = np.linspace(0.3, 2.9, 8), [BoxUnionSet([b]) for b in boxes]
        f = SimpleFunction(weights, supports)
        pts = _sample_points(d, d, n=256)
        want = _per_support_sum(weights, supports, (-1.0, 1.0), pts)
        assert np.array_equal(apply_x(f, (-1.0, 1.0), pts), want)


@st.composite
def simple_functions(draw):
    """(weights, supports) of several terms with multi-box supports, cut from
    one union of disjoint slabs, with weights spanning two orders of magnitude."""
    d = draw(st.integers(2, 4))
    region = draw(box_unions(d, max_boxes=6))
    n_terms = draw(st.integers(1, region.n_boxes))
    inner = st.integers(1, region.n_boxes - 1) if region.n_boxes > 1 else st.nothing()
    cuts = sorted(draw(st.lists(inner, min_size=n_terms - 1, max_size=n_terms - 1, unique=True)))
    bounds = [np.stack([lo, hi], axis=1) for lo, hi in zip(region.los, region.his)]
    groups = [bounds[a:b] for a, b in zip([0] + cuts, cuts + [len(bounds)])]
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=len(groups), max_size=len(groups)))
    return weights, [BoxUnionSet(g) for g in groups]


@given(simple_functions(), st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_apply_x_stacked_matches_per_support_sum(terms, seed):
    weights, supports = terms
    f = SimpleFunction(weights, supports)
    pts = _sample_points(seed, f.region.dim)
    interval = (-1.25, 1.25)
    want = _per_support_sum(weights, supports, interval, pts)
    np.testing.assert_allclose(apply_x(f, interval, pts), want, rtol=1e-12, atol=0.0)
    # per-box weights on the dual route, whose boxes can yield two components
    bounds = np.concatenate([s.bounds for s in supports])
    box_weights = np.repeat(weights, [s.n_boxes for s in supports])
    assert np.array_equal(f.region.bounds, bounds) and np.array_equal(f.box_weights, box_weights)
    singles = sum(
        w * fiber_measure_batch(BoxUnionSet([b]), pts, interval, dual=True) for w, b in zip(box_weights, bounds)
    )
    weighted = fiber_measure_batch(f.region, pts, interval, dual=True, weights=f.box_weights)
    np.testing.assert_allclose(weighted, singles, rtol=1e-12, atol=0.0)


def test_apply_x_stacked_shapes_and_refusals():
    pair = BoxUnionSet([np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[2.0, 3.0], [0.0, 1.0]])])
    f = SimpleFunction([1.0, 0.5], [UNIT2, pair])
    assert apply_x(f, (0.0, 1.0), np.empty((0, 2))).shape == (0,)
    assert isinstance(apply_x(f, (0.0, 1.0), np.array([0.5, 0.5])), float)
    with pytest.raises(ValueError, match="dimension"):
        apply_x(f, (0.0, 1.0), np.zeros((4, 3)))
    with pytest.raises(ValueError, match="one weight per box"):
        fiber_measure_batch(UNIT2, np.zeros((4, 2)), (0.0, 1.0), weights=[1.0, 2.0])


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(method="simpson")
    with pytest.raises(ValueError):
        QuadSpec(method="montecarlo")
    with pytest.raises(ValueError):
        QuadSpec(step=0.0)


# ---------------------------------------------------------------------------
# reference: the layered pairing one first-axis midpoint at a time


def _power_roots(ratio, m):
    """Real solutions of v**m == ratio."""
    if m == 1:
        return (ratio,)
    if m % 2 == 0:
        if ratio < 0.0:
            return ()
        r = ratio ** (1.0 / m)
        return (-r, r)
    return (math.copysign(abs(ratio) ** (1.0 / m), ratio),)


def _overlap_product_integral(a_lo, a_hi, b_lo, b_hi, scales, exps, v_lo, v_hi):
    """Integral over v of prod_j |[a_j] ∩ ([b_j] + scales_j * v**exps_j)|,
    Gauss-Legendre between the deduplicated breakpoints of one midpoint."""
    if v_hi <= v_lo:
        return 0.0
    pts = [v_lo, v_hi, 0.0]
    for j in range(a_lo.size):
        sc = scales[j]
        if sc == 0.0:
            continue
        for c in (
            a_lo[j] - b_lo[j],
            a_lo[j] - b_hi[j],
            a_hi[j] - b_lo[j],
            a_hi[j] - b_hi[j],
        ):
            pts.extend(_power_roots(c / sc, int(exps[j])))
    pts = sorted(p for p in set(pts) if v_lo <= p <= v_hi)
    nodes, weights = np.polynomial.legendre.leggauss(int(exps.sum()) // 2 + 1)
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        if b <= a:
            continue
        half = 0.5 * (b - a)
        v = 0.5 * (a + b) + half * nodes
        shift = scales[None, :] * v[:, None] ** exps[None, :]
        ov = np.minimum(a_hi, b_hi + shift) - np.maximum(a_lo, b_lo + shift)
        np.clip(ov, 0.0, None, out=ov)
        total += half * float(weights @ ov.prod(axis=1))
    return total


def _reference_pairing(E, F, lo, hi, step, dual):
    d = E.dim
    total = 0.0
    if not dual:
        exps = np.ones(d - 1, dtype=np.int64)
        for f_lo, f_hi in zip(F.los, F.his):
            centers, w = transform._grid_axes(f_lo[0], f_hi[0], step)
            for e_lo, e_hi in zip(E.los, E.his):
                s_lo, s_hi = max(lo, e_lo[0]), min(hi, e_hi[0])
                for y in centers:
                    total += w * _overlap_product_integral(
                        f_lo[1:], f_hi[1:], e_lo[1:], e_hi[1:],
                        -(y ** np.arange(1, d)), exps, s_lo, s_hi,
                    )
    else:
        exps = np.arange(1, d, dtype=np.int64)
        for e_lo, e_hi in zip(E.los, E.his):
            centers, w = transform._grid_axes(e_lo[0], e_hi[0], step)
            for f_lo, f_hi in zip(F.los, F.his):
                t_lo, t_hi = max(lo, f_lo[0]), min(hi, f_hi[0])
                for z in centers:
                    total += w * _overlap_product_integral(
                        e_lo[1:], e_hi[1:], f_lo[1:], f_hi[1:],
                        np.full(d - 1, z), exps, t_lo, t_hi,
                    )
    return total


@pytest.mark.parametrize("d", [2, 3, 4])
def test_layered_pairing_matches_per_midpoint_reference(d):
    rng = np.random.default_rng(40 + d)
    quad = QuadSpec(step=1.0 / 128.0)
    for _ in range(4):
        E, F = random_box_pair(d, rng, max_boxes=3)
        interval = E.first_axis_span()
        window = F.first_axis_span()
        primal = bilinear_form(E, F, interval, quad)
        dual = bilinear_form_dual(E, F, window, quad)
        ref_primal = _reference_pairing(E, F, interval.lo, interval.hi, quad.step, False)
        ref_dual = _reference_pairing(E, F, window.lo, window.hi, quad.step, True)
        assert primal > 0.0 and dual > 0.0
        assert primal == pytest.approx(ref_primal, rel=1e-12)
        assert dual == pytest.approx(ref_dual, rel=1e-12)


def test_layered_pairing_midpoint_at_zero():
    # A first-axis width of one step puts the only midpoint at 0: the primal
    # scales are -(0**j) and the dual scale is z = 0, so every shift root is
    # infinite or NaN.  The line through a point with x1 = 0 is horizontal,
    # so the value is step * |I ∩ [E]_1| * |[E]_rest ∩ [F]_rest|.
    step = 1.0 / 64.0
    thin = [-step / 2, step / 2]
    wide = BoxUnionSet([np.array([[0.0, 1.0], [-0.5, 0.5], [-0.25, 0.75]])])
    thin_f = BoxUnionSet([np.array([thin, [0.0, 1.0], [0.0, 1.0]])])
    quad = QuadSpec(step=step)
    primal = bilinear_form(wide, thin_f, (0.0, 1.0), quad)
    assert primal == pytest.approx(_reference_pairing(wide, thin_f, 0.0, 1.0, step, False), rel=1e-12)
    assert primal == pytest.approx(step * 1.0 * 0.5 * 0.75, rel=1e-12)
    thin_e = BoxUnionSet([np.array([thin, [0.0, 1.0], [0.0, 1.0]])])
    dual = bilinear_form_dual(thin_e, wide, (0.0, 1.0), quad)
    assert dual == pytest.approx(_reference_pairing(thin_e, wide, 0.0, 1.0, step, True), rel=1e-12)
    assert dual == pytest.approx(step * 1.0 * 0.5 * 0.75, rel=1e-12)


def test_layered_pairing_skips_degenerate_first_axis_overlap():
    F = BoxUnionSet([np.array([[-0.5, 0.8], [-0.4, 0.6], [-0.3, 0.7]])])
    core = np.array([[0.0, 1.0], [-0.5, 0.5], [-0.5, 0.5]])
    touching = np.array([[1.0, 1.5], [-0.5, 0.5], [-0.5, 0.5]])  # meets I at 1
    outside = np.array([[1.5, 2.0], [-0.5, 0.5], [-0.5, 0.5]])  # misses I
    base = bilinear_form(BoxUnionSet([core]), F, (0.0, 1.0))
    assert base > 0.0
    assert bilinear_form(BoxUnionSet([core, touching, outside]), F, (0.0, 1.0)) == base
    assert bilinear_form(BoxUnionSet([touching, outside]), F, (0.0, 1.0)) == 0.0
    # the kernel itself integrates nothing over a one-point parameter range
    scales = np.linspace(-1.0, 1.0, 9)[:, None] * np.ones(2)
    for exps in ((1, 1), (1, 2)):
        vals = transform._overlap_product_integrals(
            core[1:, 0], core[1:, 1], F.los[0, 1:], F.his[0, 1:], scales, exps, 0.3, 0.3
        )
        assert np.all(vals == 0.0)


def test_layered_pairing_chunks_agree_and_bound_memory(monkeypatch):
    E = BoxUnionSet([np.array([[0.0, 1.0], [-0.5, 0.5]])])
    F = BoxUnionSet([np.array([[-0.5, 0.8], [0.0, 1.0]])])
    quad = QuadSpec(step=2.0**-14)  # 21,300 first-axis midpoints
    one_chunk = bilinear_form(E, F, (0.0, 1.0), quad)
    one_chunk_dual = bilinear_form_dual(E, F, (-0.5, 0.8), quad)
    monkeypatch.setattr(transform, "_CHUNK_LIMIT", 6 * 512)
    tracemalloc.start()
    try:
        chunked = bilinear_form(E, F, (0.0, 1.0), quad)
        chunked_dual = bilinear_form_dual(E, F, (-0.5, 0.8), quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunked == pytest.approx(one_chunk, rel=1e-12)
    assert chunked_dual == pytest.approx(one_chunk_dual, rel=1e-12)
    # in one chunk the same two calls peak near 11 MB
    assert peak < 3_000_000


# ---------------------------------------------------------------------------
# properties of the pairing


@st.composite
def box_unions(draw, d, max_boxes=2):
    """Unions of disjoint boxes on a 1/16 grid, one first-axis slab each;
    the other axes straddle the origin."""
    n = draw(st.integers(1, max_boxes))
    cut = draw(st.integers(-16, 0))
    boxes = []
    for _ in range(n):
        width = draw(st.integers(2, 12))
        sides = [[cut, cut + width]]
        sides += [[draw(st.integers(-12, -2)), draw(st.integers(2, 12))] for _ in range(d - 1)]
        boxes.append(np.array(sides, dtype=float) / 16.0)
        cut += width
    return BoxUnionSet(boxes)


@st.composite
def box_union_pairs(draw):
    d = draw(st.integers(2, 4))
    return draw(box_unions(d)), draw(box_unions(d))


def _both_routes(E, F):
    return (
        bilinear_form(E, F, E.first_axis_span()),
        bilinear_form_dual(E, F, F.first_axis_span()),
    )


def _shifted(S, shift):
    return BoxUnionSet([np.stack([lo + shift, hi + shift], axis=1) for lo, hi in zip(S.los, S.his)])


@given(box_union_pairs(), st.lists(st.integers(-16, 16), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_pairing_translation_covariant_in_later_coordinates(pair, offsets):
    E, F = pair
    shift = np.zeros(E.dim)
    shift[1:] = np.array(offsets[: E.dim - 1]) / 8.0
    moved = _both_routes(_shifted(E, shift), _shifted(F, shift))
    for value, base in zip(moved, _both_routes(E, F)):
        assert value == pytest.approx(base, rel=1e-12)


@given(box_union_pairs(), st.booleans(), st.integers(0, 3), st.integers(0, 1), st.integers(1, 15))
@settings(max_examples=25, deadline=None)
def test_primal_pairing_additive_under_box_split(pair, split_f, axis, which, sixteenths):
    E, F = pair
    d = E.dim
    target = F if split_f else E
    axis = 1 + axis % (d - 1) if split_f else axis % d
    i = which % target.n_boxes
    lo, hi = target.los[i].copy(), target.his[i].copy()
    cut = lo[axis] + (hi[axis] - lo[axis]) * sixteenths / 16.0
    left_hi, right_lo = hi.copy(), lo.copy()
    left_hi[axis] = right_lo[axis] = cut
    boxes = [np.stack([a, b], axis=1) for k, (a, b) in enumerate(zip(target.los, target.his)) if k != i]
    split = BoxUnionSet(boxes + [np.stack([lo, left_hi], axis=1), np.stack([right_lo, hi], axis=1)])
    interval = E.first_axis_span()
    base = bilinear_form(E, F, interval)
    value = bilinear_form(E, split, interval) if split_f else bilinear_form(split, F, interval)
    assert value == pytest.approx(base, rel=1e-12)


@given(box_union_pairs())
@settings(max_examples=25, deadline=None)
def test_pairing_adjointness_on_random_unions(pair):
    """Both routes agree to 1e-3 of the pairing, or of |F| * |I| / 1000.

    The floor is for grazing pairs, whose incidences occupy less than one
    first-axis step: there the midpoint rule's error is small in absolute
    terms but not next to the pairing itself, which can be ~1e-11 and
    which both routes approach as the step shrinks.  |F| * |I| bounds the
    pairing, since every fiber lies in I.
    """
    E, F = pair
    span, wspan = E.first_axis_span(), F.first_axis_span()
    gap = adjointness_gap(E, F, (span.lo, span.hi), (wspan.lo, wspan.hi))
    scale = max(gap["primal"], gap["dual"], 1e-3 * F.measure * span.length)
    assert gap["abs_gap"] <= 1e-3 * scale


@given(box_union_pairs(), st.sampled_from([0.5, 2.0]))
@settings(max_examples=25, deadline=None)
def test_pairing_nonisotropic_dilation(pair, delta):
    """Dilating the triple, the window and the step by delta scales both
    routes by delta**(d(d+1)/2 + 1)."""
    E, F = pair
    d = E.dim
    interval, window = E.first_axis_span(), F.first_axis_span()
    quad = QuadSpec()
    E2, F2, interval2 = dilate_configuration(E, F, interval, delta)
    window2 = (delta * window.lo, delta * window.hi)
    quad2 = QuadSpec(step=delta * quad.step)
    factor = delta ** (d * (d + 1) // 2 + 1)
    primal = bilinear_form(E2, F2, interval2, quad2)
    dual = bilinear_form_dual(E2, F2, window2, quad2)
    assert primal == pytest.approx(factor * bilinear_form(E, F, interval, quad), rel=1e-12)
    assert dual == pytest.approx(factor * bilinear_form_dual(E, F, window, quad), rel=1e-12)


@given(box_union_pairs(), st.integers(1, 8), st.integers(-12, -2), st.integers(2, 12))
@settings(max_examples=25, deadline=None)
def test_pairing_monotone_in_source(pair, width, low, high):
    """Adding a box to E beside its last first-axis slab lowers neither route."""
    E, F = pair
    d = E.dim
    cut = E.his[:, 0].max()
    extra = np.array([[cut, cut + width / 16.0]] + [[low / 16.0, high / 16.0]] * (d - 1))
    bigger = BoxUnionSet(list(E.bounds) + [extra])
    interval = bigger.first_axis_span()
    window = F.first_axis_span()
    assert bilinear_form(bigger, F, interval) >= bilinear_form(E, F, interval)
    assert bilinear_form_dual(bigger, F, window) >= bilinear_form_dual(E, F, window)
