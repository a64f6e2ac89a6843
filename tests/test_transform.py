"""Exact fibers, the transform on points, and the pairing quadratures."""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from momentray import transform
from momentray.acceptance import random_box_pair
from momentray.corpus import build_default_corpus
from momentray.refinement import build_tower
from momentray.sets import BoxUnionSet, fiber_cells
from momentray.sharpness import dilate_configuration
from momentray.transform import (
    QuadSpec,
    adjointness_gap,
    bilinear_form,
    bilinear_form_dual,
    fiber_measure_batch,
    fiber_pieces,
    region_cell_values,
)
from oracles import family_bounds

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


# ---------------------------------------------------------------------------
# the kernel's boxes: row block sizes, a per-box reference, box splits


def _reference_fiber_pieces(region, points, interval, dual):
    """fiber_pieces computed one box at a time: each box's columns in turn,
    and on the dual route a box's second component only when some point
    splits."""
    lo, hi = interval
    coords = np.asarray(points, dtype=float).T
    d, x1 = len(coords), coords[0]
    los, his = [], []
    for blo, bhi in zip(region.los, region.his):
        comps = [(np.full(x1.shape, max(lo, blo[0])), np.full(x1.shape, min(hi, bhi[0])))]
        for j in range(1, d):
            cj = coords[j]
            with np.errstate(divide="ignore", invalid="ignore"):
                if dual:
                    tlo, thi = cj - bhi[j], cj - blo[j]
                    r1, r2 = tlo / x1, thi / x1
                    mlo, mhi = np.minimum(r1, r2), np.maximum(r1, r2)
                    zero, ok = x1 == 0.0, (tlo <= 0.0) & (0.0 <= thi)
                else:
                    coef = functools.reduce(np.multiply, [x1] * j)  # fl(x1**(j-1) * x1)
                    a, b = (blo[j] - cj) / coef, (bhi[j] - cj) / coef
                    mlo, mhi = np.where(coef > 0, a, b), np.where(coef > 0, b, a)
                    zero, ok = coef == 0.0, (cj >= blo[j]) & (cj <= bhi[j])
            if np.any(zero):
                mlo = np.where(zero, np.where(ok, -np.inf, np.inf), mlo)
                mhi = np.where(zero, np.where(ok, np.inf, -np.inf), mhi)
            inv = 1.0 / j
            if not dual or j == 1:
                halves = [(mlo, mhi)]
            elif j % 2 == 1:
                halves = [(np.sign(mlo) * np.abs(mlo) ** inv, np.sign(mhi) * np.abs(mhi) ** inv)]
            else:
                hi_root, lo_root = np.maximum(mhi, 0.0) ** inv, np.maximum(mlo, 0.0) ** inv
                feasible = mhi >= 0.0
                split = feasible & (mlo > 0.0)
                s1_lo = np.where(feasible, np.where(split, lo_root, -hi_root), np.inf)
                halves = [(s1_lo, np.where(feasible, hi_root, -np.inf))]
                s2 = (np.where(split, -hi_root, np.inf), np.where(split, -lo_root, -np.inf))
                if np.any(s2[0] <= s2[1]):
                    halves.append(s2)
            comps = [(np.maximum(c, h), np.minimum(e, g)) for c, e in comps for h, g in halves]
        los += [c for c, _ in comps]
        his += [e for _, e in comps]
    return np.stack(los, axis=1), np.stack(his, axis=1)


_DEFAULT_BLOCK_ROWS = transform._BLOCK_ROWS


def _at_every_chunk_size(monkeypatch, compute):
    """compute() with row blocks of 1, 7, the default and unbounded points."""
    runs = []
    for rows in (1, 7, _DEFAULT_BLOCK_ROWS, 1 << 30):
        monkeypatch.setattr(transform, "_BLOCK_ROWS", rows)
        runs.append(compute())
    return runs


def _assert_runs_equal(runs):
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_family_values_same_at_every_chunk_size(monkeypatch, d):
    """Fiber measures on the 197-box family are bit for bit the same at
    every row block size.
    One point in every third minorant piece (66 points) keeps the passes
    of one point and one box few; the assert below pins the kernel's row
    blocks: blocks of 1 and 7 points split the list, and the default holds
    it in one block, which every box is solved over in turn.
    At d = 4 the pieces from k = 91 on round to zero width, so about half
    of the points see no fiber (ROADMAP item 4)."""
    family = BoxUnionSet(family_bounds(d, 4, 200, 1.0))
    pieces = BoxUnionSet(family_bounds(d, 4, 200, 0.5))
    pts = np.random.default_rng(d).uniform(pieces.los[::3], pieces.his[::3])
    assert family.n_boxes == 197 and 1 < math.ceil(len(pts) / 7) < len(pts) <= _DEFAULT_BLOCK_ROWS

    runs = _at_every_chunk_size(
        monkeypatch, lambda: [fiber_measure_batch(family, pts, (-1.0, 1.0), dual=False)]
    )
    assert np.count_nonzero(runs[0][0]) > 30
    _assert_runs_equal(runs)


def test_dual_second_component_is_per_box(monkeypatch):
    """Over one block of all the points, a box whose x3 range excludes
    every point's x3 splits in two and the next box, whose range contains
    them, does not: three columns, not four, as the per-box reference has
    them, whatever _BLOCK_ROWS is."""
    F = BoxUnionSet(
        [np.array([[-2.0, 0.0], [-1.0, 1.0], [0.0, 0.5]]), np.array([[0.0, 2.0], [-1.0, 1.0], [-3.0, 3.0]])]
    )
    rng = np.random.default_rng(5)
    pts = np.column_stack(
        [rng.uniform(0.5, 1.5, 60), rng.uniform(-0.2, 0.2, 60), rng.uniform(0.6, 1.4, 60)]
    )
    runs = _at_every_chunk_size(monkeypatch, lambda: fiber_pieces(F, pts, (-2.0, 2.0), dual=True))
    _assert_runs_equal(runs)
    for got, want in zip(runs[0], _reference_fiber_pieces(F, pts, (-2.0, 2.0), dual=True)):
        assert got.shape == (60, 3) and got.tobytes() == want.tobytes()


@given(
    st.sampled_from([2, 3, 4]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(1, 63),
    st.sampled_from([1, 7, 64, _DEFAULT_BLOCK_ROWS]),
)
@settings(max_examples=40, deadline=None)
def test_fiber_measures_additive_under_box_split(d, seed, which, axis, k, rows):
    """Splitting one box of a random union at an interior dyadic point, along
    any axis, leaves both routes' fiber measures unchanged to rel 1e-12, with
    row blocks of `rows` points, over each of which the halves are solved
    one after the other."""
    rng = np.random.default_rng(seed)
    E, F = random_box_pair(d, rng, max_boxes=3)
    pts = rng.uniform(-1.2, 1.2, size=(40, d))
    pts[::7, 0] = 0.0
    interval = (-1.1, 1.1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "_BLOCK_ROWS", rows)
        for dual, region in ((False, E), (True, F)):
            i, a = which % region.n_boxes, axis % d
            lo, hi = region.los[i], region.his[i]
            dyadic = np.arange(math.floor(lo[a] * 64) + 1, math.ceil(hi[a] * 64)) / 64.0
            cut = dyadic[k % len(dyadic)]
            left_hi, right_lo = hi.copy(), lo.copy()
            left_hi[a] = right_lo[a] = cut
            boxes = [np.stack(b, axis=1) for n, b in enumerate(zip(region.los, region.his)) if n != i]
            split = BoxUnionSet(boxes + [np.stack([lo, left_hi], axis=1), np.stack([right_lo, hi], axis=1)])
            base = fiber_measure_batch(region, pts, interval, dual=dual)
            got = fiber_measure_batch(split, pts, interval, dual=dual)
            np.testing.assert_allclose(got, base, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("axis", [0, 1])
def test_non_finite_points_are_refused(bad, axis):
    """A point the arithmetic cannot represent is refused on every entry
    point and route, not given fiber measure 0 or NaN."""
    pts = np.array([[0.5, 0.5], [0.25, 0.75]])
    pts[1, axis] = bad
    calls = []
    for dual in (False, True):
        calls += [
            lambda: fiber_measure_batch(UNIT2, pts, (0.0, 1.0), dual=dual),
            lambda: fiber_measure_batch(UNIT2, pts[1:], (0.0, 1.0), dual=dual),
            lambda: fiber_pieces(UNIT2, pts, (0.0, 1.0), dual=dual),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="points must be finite"):
                call()


@pytest.mark.parametrize(
    "d, dual, x1_sign",
    [
        # mixed keeps the bare d-dual id
        pytest.param(d, dual, sign, id=f"{d}-{dual}" + ("" if sign == "mixed" else f"-{sign}"))
        for d in (2, 3, 4)
        for dual in (False, True)
        for sign in ("mixed", "positive", "negative")
    ],
)
def test_fiber_row_blocks_match_one_block(monkeypatch, d, dual, x1_sign):
    """On a union of at least three boxes, fiber measures and fiber_pieces
    are bit for bit the same at every chunk size,
    and fiber_pieces returns the per-box reference loop's arrays, shape and
    column order included.  Mixed points have both signs of x1 and rows
    with x1 = 0 (so chunks disagree on whether the vertical-line branch
    runs); positive and negative ones take the kernel's one-sign branch.
    On the dual route for d > 2 some box splits in two."""
    rng = np.random.default_rng(d)
    E, F = random_box_pair(d, rng, max_boxes=4)
    while min(E.n_boxes, F.n_boxes) < 3:
        E, F = random_box_pair(d, rng, max_boxes=4)
    region = F if dual else E
    pts = rng.uniform(-1.2, 1.2, size=(150, d))
    if x1_sign == "mixed":
        pts[[3, 50, 51, 120], 0] = 0.0
    else:
        pts[:, 0] = (1.0 if x1_sign == "positive" else -1.0) * (np.abs(pts[:, 0]) + 0.01)
    interval = (-1.1, 1.1)

    def compute():
        return [
            fiber_measure_batch(region, pts, interval, dual=dual),
            *fiber_pieces(region, pts, interval, dual=dual),
        ]

    runs = _at_every_chunk_size(monkeypatch, compute)
    assert np.count_nonzero(runs[0][0]) > 30
    if x1_sign == "mixed":
        assert np.count_nonzero(runs[0][0][pts[:, 0] == 0.0])
    _assert_runs_equal(runs)
    reference = _reference_fiber_pieces(region, pts, interval, dual)
    for got, want in zip(runs[0][1:], reference):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if dual and d > 2:
        assert reference[0].shape[1] > region.n_boxes


def _rounded(exact):
    """The float nearest a Fraction, +-inf where that rounds past the range."""
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


def test_forward_coefficients_are_repeated_products():
    """The forward coefficients, pinned bit for bit since every fiber the
    kernel solves reads them: column 1 is x1, column 2 the correctly
    rounded square, and column j >= 3 is fl(column j-1 * x1), at most one
    float from the correctly rounded power (its error reaches 1.27 ulps of
    the exact cube on these draws).  The draws run from squares that
    underflow to cubes that overflow, and the last column is inf exactly
    where some column is: an overflow carries to the largest power."""
    rng = np.random.default_rng(7)
    n = 12_000
    x1 = rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(-400.0, 400.0, n))
    x1[:4000] = rng.uniform(-3.0, 3.0, 4000)
    with np.errstate(over="ignore"):
        coef = transform._coefficients(x1, 4, False)
        assert coef.shape == (n, 3) and coef[:, 0].tobytes() == x1.tobytes()
        assert np.array_equal(coef[:, 2], coef[:, 1] * x1)
    assert transform._coefficients(x1, 4, True) is x1
    assert np.array_equal(np.isinf(coef[:, 2]), np.isinf(coef).any(axis=1))
    assert np.isinf(coef[:, 1]).any() and np.isinf(coef[:, 2]).sum() > np.isinf(coef[:, 1]).sum()
    assert ((coef[:, 1] > 0) & (coef[:, 1] < np.finfo(float).tiny)).any()
    assert (coef[:, 1] == 0).any() and (coef[:, 2] == 0).sum() > (coef[:, 1] == 0).sum()
    for x, square, cube in zip(x1.tolist(), coef[:, 1].tolist(), coef[:, 2].tolist()):
        assert square == _rounded(Fraction(x) ** 2)
        nearest = _rounded(Fraction(x) ** 3)
        assert cube in (nearest, math.nextafter(nearest, -math.inf), math.nextafter(nearest, math.inf))


def _overflow_region():
    """Three unit boxes along x2 and a far box with axis-2 side [1e300,
    2e300] and axis-3 side [-1e308, -9e307]."""
    boxes = [[[-1.0, 1.0], [3.0 * m, 3.0 * m + 1.0], [-1.0, 1.0]] for m in range(3)]
    return BoxUnionSet(boxes + [[[-1.0, 1.0], [1e300, 2e300], [-1e308, -9e307]]])


def test_lines_that_overflow_keep_their_values(monkeypatch):
    """Lines whose coefficients x1**j or whose reach overflow.  At
    x1 = 1e160 the forward route's x1**2 is inf, where the solver would
    divide inf by inf on the far box's third axis and read the fiber
    measure as NaN, though the box's axis-2 side, from 1e300 on, lies far
    outside the reach x2 +- 1.1e160: both forward entries refuse the
    points instead.  At |x1| = 1.7e308 the reach overflows, and the dual
    fibers are subnormal.  On the dual route fiber_measure_batch gives, at
    every chunk size and without a warning, the lengths of fiber_pieces'
    pieces added column after column."""
    region = _overflow_region()
    pts = np.array([[1e160, 0.0, 1e308], [1.7e308, 0.5, 0.5], [-1.7e308, 3.5, 0.0], [0.5, 0.5, 0.5]])
    for call in (fiber_measure_batch, fiber_pieces):
        with pytest.raises(ValueError, match="overflows"):
            call(region, pts, (-1.1, 1.1), dual=False)
    runs = _at_every_chunk_size(
        monkeypatch, lambda: [fiber_measure_batch(region, pts, (-1.1, 1.1), dual=True)]
    )
    los, his = fiber_pieces(region, pts, (-1.1, 1.1), dual=True)
    want = np.zeros(len(pts))
    for length in np.maximum(his - los, 0.0).T:
        want += length
    assert all(got.tobytes() == want.tobytes() for (got,) in runs)
    assert 0.0 < want[1] < np.finfo(float).tiny


@pytest.mark.parametrize(
    "dual, point, want",
    [
        # x1**2 = 1e-20 divides the far box's axis-2 side: (1e300 - 0.5) / 1e-20
        (False, [1e-10, 0.5, 0.0], 2.0),
        # x1 = 0.5 divides x3 minus the axis-3 side: (0.5 + 1e308) / 0.5
        (True, [0.5, 0.5, 0.5], 2.0),
        # x3 minus the axis-3 side: 1e308 + 1e308
        (True, [1e160, 0.0, 1e308], 0.0),
    ],
)
def test_overflowing_range_ends_are_silent(dual, point, want):
    """A constraint range whose end overflows ends at inf, without a warning
    (warnings are errors in this suite), and the line keeps its fiber
    measure: as a point list of one, and on a grid of the point's x1 row
    with a second value on each later axis, where the reach test runs and
    every cell equals fiber_measure_batch's value bit for bit."""
    region = _overflow_region()
    assert fiber_measure_batch(region, [point], (-1.1, 1.1), dual=dual).tolist() == [want]
    axes = [np.array(point[:1])] + [np.array([x, 0.25]) for x in point[1:]]
    grid = transform._fiber_measures(region, np.ix_(*axes), -1.1, 1.1, dual)
    assert grid[0, 0, 0] == want
    listed = fiber_measure_batch(region, _grid_points(axes), (-1.1, 1.1), dual=dual)
    assert grid.reshape(-1).tobytes() == listed.tobytes()


def test_one_dimensional_points_are_refused():
    """d = 1 has no line complex: both point-list entries refuse 1-d points
    with a ValueError, where the kernel has no constraint to solve (forward
    it fails building the coefficients x1**j, and dual it would return each
    box's clipped first-axis range as the fiber)."""
    line = BoxUnionSet([[[0.0, 1.0]]])
    for dual in (False, True):
        for call in (fiber_measure_batch, fiber_pieces):
            with pytest.raises(ValueError, match="at least 2 coordinates"):
                call(line, [[0.5], [0.25]], (0.0, 1.0), dual=dual)


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


def _grid_source(source, layout, rng):
    """The source union as drawn ("random"), with every box moved along a
    later axis by 0.6 to 1.6 either way ("offset": axis 2 from d = 3 on,
    whose dual constraint has an even power, so near x1 = 0 whole rows go
    unreached and elsewhere ranges split), or with a box added whose
    first-axis side is the one point 1.05 ("graze": a line reaches it at
    most at one parameter, where its clipped range has lo == hi, a fiber
    of length 0)."""
    los, his = source.los.copy(), source.his.copy()
    if layout == "offset":
        axis = min(2, source.dim - 1)
        shift = rng.choice([-1.0, 1.0], source.n_boxes) * rng.uniform(0.6, 1.6, source.n_boxes)
        los[:, axis] += shift
        his[:, axis] += shift
    boxes = list(np.stack([los, his], axis=2))
    if layout == "graze":
        boxes.append(np.array([[1.05, 1.05]] + [[-0.5, 0.5]] * (source.dim - 1)))
    return BoxUnionSet(boxes)


@given(
    st.sampled_from([2, 3, 4]),
    st.booleans(),
    st.sampled_from(["negative", "straddle", "zero"]),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "offset", "graze"]),
    st.sampled_from([1, 7, _DEFAULT_BLOCK_ROWS]),
)
# rows on x1 = 0 and rows each box cannot reach, with dual ranges that
# split in two (d = 3 and 4) or on the forward route, and a grazed box
@example(3, True, "zero", 3, 3, "offset", 7)
@example(4, True, "zero", 2, 0, "offset", 7)
@example(3, False, "zero", 2, 2, "offset", 1)
@example(3, True, "straddle", 2, 3, "graze", _DEFAULT_BLOCK_ROWS)
@settings(max_examples=90, deadline=None)
def test_grid_values_equal_point_batch(d, dual, case, k, seed, layout, rows):
    """Grids evaluated as tensor products of their axes give, bit for bit,
    fiber_measure_batch's values on the same points listed row by row:
    region_cell_values' cell values and the midpoint route's sum, primal
    (over F's grid) and dual (over E's), the sum of the grid's first-axis
    row sums, the grids with passes of `rows` points.  Sources with boxes
    moved along a later axis leave whole rows unreached, which the grid
    skips; the examples pin that on the x1 = 0 row and with the dual
    even-power split for d = 3 and 4."""
    rng = np.random.default_rng(seed)
    n = 2 * k + 1 if case == "zero" else k + 2
    E, F = random_box_pair(d, rng, max_boxes=3)
    if dual:
        F = _grid_source(F, layout, rng)
    else:
        E = _grid_source(E, layout, rng)
    source = F if dual else E
    grid = _grid_region(d, case, n, rng)
    interval = (-1.1, 1.1)
    step = 1.0 / 8.0
    quad = QuadSpec("midpoint", step)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transform, "_BLOCK_ROWS", rows)
        (block,) = region_cell_values(source, grid, interval, n, dual=dual)
        if dual:
            got = bilinear_form_dual(grid, F, interval, quad)
        else:
            got = bilinear_form(E, grid, interval, quad)
    axes = [lo + (np.arange(n) + 0.5) * w for lo, w in zip(grid.los[0], block.widths)]
    pts = _grid_points(axes)
    assert block.center_values.shape == (n,) * d
    assert np.array_equal(
        block.center_values.reshape(-1), fiber_measure_batch(source, pts, interval, dual=dual)
    )
    assert (case == "zero") == np.any(pts[:, 0] == 0.0)

    axes, widths = zip(*(transform._grid_axes(a, b, step) for a, b in zip(*grid.bounds[0].T)))
    vals = fiber_measure_batch(source, _grid_points(axes), interval, dual=dual)
    row_sums = vals.reshape(axes[0].size, -1).sum(axis=1)
    assert got == float(row_sums.sum()) * float(np.prod(widths))


@pytest.mark.parametrize("d", [2, 3])
def test_midpoint_box_sum_same_at_every_block_size(monkeypatch, d):
    """region_cell_values and both midpoint routes are bit-identical whether
    each pass of the kernel takes one first-axis row (at a block of 1, 5 or
    7 points, fewer than a row holds), 100 points, 7 rows, the default or a
    whole grid.  The 40-per-axis grid has x1 = 0 in row 12 only; the
    midpoint route sums each first-axis row as its block is finished, then
    the row sums, so the blocks' bounds never enter its sum."""
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
    runs = [values(rows) for rows in (1, 5, 7, 100, 7 * 40 ** (d - 1), _DEFAULT_BLOCK_ROWS, 1 << 30)]
    assert all(np.count_nonzero(v) > 40 for v in runs[0][:2]) and min(runs[0][2:]) > 0.0
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("grid_n", [2.5, 2.0, True, "4"])
def test_region_cell_values_refuses_non_integer_grid_n(grid_n):
    with pytest.raises(ValueError, match="grid_n must be an integer"):
        region_cell_values(UNIT2, UNIT2, (0.0, 1.0), grid_n)


def test_midpoint_pairing_bounds_memory():
    """A QuadSpec("midpoint") grid at step 1/2048, 2048 x 2048 points on the
    unit square, is never held as one array, of points or of values: each
    block of first-axis rows is summed as the kernel finishes it, so the
    pass peaks near 0.6 MB (34 MB when the value array was built), and from
    the 1024 grid to the 2048 grid, which holds 3M more points, the peak
    grows by less than four 2048-value vectors (the axes and the row sums)."""
    bilinear_form(UNIT2, UNIT2, (0.0, 1.0), QuadSpec("midpoint", 1.0 / 64.0))  # first-call allocations
    peaks = {}
    for n in (1024, 2048):
        tracemalloc.start()
        try:
            val = bilinear_form(UNIT2, UNIT2, (0.0, 1.0), QuadSpec("midpoint", 1.0 / n))
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert val == pytest.approx(0.75, abs=1.5 / n**2)  # the rule's h**2 error
    assert peaks[2048] < 1_000_000
    assert peaks[2048] < peaks[1024] + 4 * 2048 * 8


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
    """The full cut equals the reference; a capped cut builds max_cells
    distinct cells of it, bit for bit and in order, scaled by n / max_cells."""
    *got, scale = fiber_cells(*pieces, max_width, math.inf, 0)
    ref = _reference_cells(*pieces, max_width)
    assert scale == 1.0
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert g.tobytes() == r.astype(g.dtype).tobytes()
    n = got[0].size
    max_cells = max(1, n // 3)
    *capped, capped_scale = fiber_cells(*pieces, max_width, max_cells, 5)
    assert capped_scale == (n / max_cells if n > max_cells else 1.0)
    # (row, center) names a cell of the full cut: centers rise along each row
    position = {(r, c): i for i, (r, c) in enumerate(zip(*got[:2]))}
    pick = np.array([position[r, c] for r, c in zip(*capped[:2])], dtype=int)
    assert pick.size == min(n, max_cells) and np.all(np.diff(pick) > 0)
    for c, g in zip(capped, got):
        assert c.tobytes() == g[pick].tobytes()


@pytest.mark.parametrize("bad", [(0.0, math.nan), (math.nan, 1.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_unrepresentable_intervals_are_refused(bad):
    calls = [
        lambda: fiber_measure_batch(UNIT2, [(0.5, 0.5)], bad, dual=False),
        lambda: fiber_pieces(UNIT2, [(0.5, 0.5)], bad),
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
    x = rng.uniform(-1.0, 1.0, (20, 3))
    base = fiber_measure_batch(E, x, (-1.0, 1.0), dual=False)
    scaled_fiber = fiber_measure_batch(scaled, delta**exps * x, (-delta, delta), dual=False)
    assert scaled_fiber == pytest.approx(delta * base, rel=1e-12, abs=1e-15)


def test_unit_square_pairing_all_methods():
    for quad, tol in (
        (None, 1e-12),
        (QuadSpec(method="midpoint", step=1.0 / 2048.0), 1e-6),
    ):
        val = bilinear_form(UNIT2, UNIT2, (0.0, 1.0), quad)
        assert val == pytest.approx(0.75, abs=tol)


@pytest.mark.parametrize(
    "d, value",
    [(2, Fraction(3, 4)), (3, Fraction(2, 3)), (4, Fraction(1583, 2520)), (5, Fraction(22441, 36960))],
)
def test_unit_cube_pairing_is_exact(d, value):
    """On E = F = [0, 1]^d over [0, 1], with a = x1 and u_j = 1 - x_j, the
    fiber is min(1, min_j u_j / a^(j-1)), so the pairing is the integral
    over [0, 1]^2 of prod_{k=1}^{d-1} (1 - s a^k) ds da; expanded over the
    subsets S of {1, ..., d-1} it is sum_S (-1)^|S| / ((|S|+1)(sum S+1)).
    The layered primal route meets it to 5e-14 and the dual route to 2e-7."""
    exact = sum(
        Fraction((-1) ** len(S), (len(S) + 1) * (sum(S) + 1))
        for r in range(d)
        for S in itertools.combinations(range(1, d), r)
    )
    assert exact == value
    cube = BoxUnionSet([np.array([[0.0, 1.0]] * d)])
    assert bilinear_form(cube, cube, (0.0, 1.0)) == pytest.approx(float(exact), rel=0, abs=1e-13)
    assert bilinear_form_dual(cube, cube, (0.0, 1.0)) == pytest.approx(float(exact), rel=0, abs=1e-6)


def _unit_square_line(a, x2):
    """X chi_E(a, x2) for E = [0, 1]^2 over [0, 1] and a != 0: the share of
    [x2, x2 + a] that lies in [0, 1]."""
    lo, hi = min(x2, x2 + a), max(x2, x2 + a)
    return max(0, min(hi, 1) - max(lo, 0)) / abs(a)


def _superlevel_width_and_mass(a, lam):
    """The exact width and mass of {x2 : X chi_E(a, x2) >= lam}: the line
    x1 = a is piecewise linear in x2 with knots 0, 1, -a and 1 - a."""
    width = mass = Fraction(0)
    knots = sorted({Fraction(0), Fraction(1), -a, 1 - a})
    for u, v in itertools.pairwise(knots):
        gu, gv = _unit_square_line(a, u), _unit_square_line(a, v)
        if max(gu, gv) < lam:
            continue
        # the part of [u, v] where the linear piece is at least lam
        if gu < lam:
            u, gu = u + (v - u) * (lam - gu) / (gv - gu), lam
        elif gv < lam:
            v, gv = v - (v - u) * (lam - gv) / (gu - gv), lam
        width += v - u
        mass += (v - u) * (gu + gv) / 2
    return width, mass


def test_unit_square_ratio_infimum_is_16_over_27():
    """On E = [0, 1]^2 over I = [0, 1] the least testing ratio t^2 / T^3,
    t = |F| and T = <X chi_E, chi_F>, is 16/27.

    The line x1 = a holds a trapezoid of mass 1 in x2.  At a level
    lam in (0, 1] its superlevel set has width 1 + |a| - 2|a| lam and mass
    1 - |a| lam^2 while |a| <= 1/lam, and is empty beyond.  Over |a| <= 1/lam
    they integrate to t = 1/lam^2 and T = 2/lam - 1 for F* = {X chi_E >= lam},
    so t^2 / T^3 = 1 / (lam (2 - lam)^3), least at lam = 1/2, where |F*| = 4
    and T = 3."""
    grid = [Fraction(k, 8) for k in range(-24, 25)]
    points = [(a, x2) for a in grid if a != 0 for x2 in grid]
    got = fiber_measure_batch(UNIT2, np.array(points, dtype=float), (0.0, 1.0), dual=False)
    want = [float(_unit_square_line(a, x2)) for a, x2 in points]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    for lam in (Fraction(1, 4), Fraction(1, 2), Fraction(2, 3), Fraction(1)):
        for a in (Fraction(1, 8), Fraction(1, 3), Fraction(1), Fraction(3, 2), Fraction(5)):
            width, mass = (1 + a - 2 * a * lam, 1 - a * lam**2) if a <= 1 / lam else (0, 0)
            assert _superlevel_width_and_mass(a, lam) == (width, mass)
            assert _superlevel_width_and_mass(-a, lam) == (width, mass)

    def over_lines(c0, c1, lam):
        """The integral of c0 + c1 |a| over |a| <= 1/lam."""
        return 2 * c0 / lam + c1 / lam**2

    ratios = {}
    for k in range(1, 65):
        lam = Fraction(k, 64)
        t = over_lines(1, 1 - 2 * lam, lam)
        T = over_lines(1, -(lam**2), lam)
        assert (t, T) == (1 / lam**2, 2 / lam - 1)
        ratios[lam] = t**2 / T**3
        assert ratios[lam] == 1 / (lam * (2 - lam) ** 3)
        # 27 - 16 lam (2 - lam)^3 = (2 lam - 1)^2 (4 lam^2 - 20 lam + 27), and
        # the last factor has no real root (discriminant 400 - 432)
        assert 27 - 16 * lam * (2 - lam) ** 3 == (2 * lam - 1) ** 2 * (4 * lam**2 - 20 * lam + 27)
    half = Fraction(1, 2)
    assert min(ratios.values()) == ratios[half] == Fraction(16, 27)
    assert [lam for lam, r in ratios.items() if r == Fraction(16, 27)] == [half]
    assert (1 / half**2, 2 / half - 1) == (4, 3)


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


def test_fiber_shapes_and_refusals():
    pair = BoxUnionSet([np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[2.0, 3.0], [0.0, 1.0]])])
    for dual in (False, True):
        assert fiber_measure_batch(pair, np.empty((0, 2)), (0.0, 1.0), dual=dual).shape == (0,)
        assert all(a.shape == (0, 2) for a in fiber_pieces(pair, np.empty((0, 2)), (0.0, 1.0), dual=dual))
        one = fiber_measure_batch(pair, np.array([0.5, 0.5]), (0.0, 1.0), dual=dual)
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        with pytest.raises(ValueError, match="dimension"):
            fiber_measure_batch(pair, np.zeros((4, 3)), (0.0, 1.0), dual=dual)


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
    scales = np.ones(2)[:, None] * np.linspace(-1.0, 1.0, 9)
    for exps in ((1, 1), (1, 2)):
        vals = transform._overlap_product_integrals(
            core[1:, 0], core[1:, 1], F.los[0, 1:], F.his[0, 1:], scales, exps, 0.3, 0.3
        )
        assert np.all(vals == 0.0)


def _kernel_scale_rows(exps, edges, v_lo, v_hi, rng):
    """Scale rows, (rows, len(exps)), in runs of three: tiny scales (every
    root clips away, so a row has no interior breakpoint), random ones, a
    zero scale (a midpoint at x1 = 0), and per factor the scales that put
    a breakpoint exactly on v_lo or v_hi (a shifted edge touching the other
    box's edge there)."""
    m = len(exps)
    tiny = np.full(m, 1.0 / 1024.0)
    rows = [tiny, tiny, tiny, tiny, rng.uniform(-3.0, 3.0, m), -tiny]
    rows += list(rng.uniform(-3.0, 3.0, (6, m)))
    rows += [np.zeros(m), tiny, rng.uniform(-3.0, 3.0, m)]
    for j, e in enumerate(exps):
        for c in edges[j]:
            for v in (v_lo, v_hi):
                if c != 0.0 and v != 0.0:
                    row = rng.uniform(-3.0, 3.0, m)
                    row[j] = c / v**e
                    rows += [tiny, row, -tiny]
    return np.array(rows)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("route", ["primal", "dual"])
def test_overlap_kernel_rows_match_per_midpoint_oracle(monkeypatch, d, route):
    """Every row of the layered kernel against the per-midpoint oracle at
    rel 1e-14, in one chunk and in chunks of three rows, which trim
    different widths and must give the same values bit for bit.  The
    parameter ranges straddle 0, lie on one side of it or are one point;
    negative ratios under an even power leave NaN slots on the dual
    route."""
    exps = (1,) * (d - 1) if route == "primal" else tuple(range(1, d))
    rng = np.random.default_rng(70 + d)
    j = np.arange(d - 1)
    a_lo, a_hi = -0.375 - 0.125 * j, 0.625 + 0.25 * j
    b_lo, b_hi = -0.5 + 0.0625 * j, 0.25 + 0.125 * j
    edges = np.stack([a_lo - b_lo, a_lo - b_hi, a_hi - b_lo, a_hi - b_hi], axis=1)
    n_seg = 2 + 4 * sum(1 if e % 2 else 2 for e in exps)
    n_nodes = sum(exps) // 2 + 1
    trims = []
    breakpoints = transform._breakpoints

    def recorded(diffs, sc, exps, v_lo, v_hi):
        pts = breakpoints(diffs, sc, exps, v_lo, v_hi)
        spare = (pts == v_lo).all(axis=1) | (pts == v_hi).all(axis=1)
        trims.append(int(np.count_nonzero(spare)))
        return pts

    for v_lo, v_hi in ((-0.75, 0.5), (0.25, 0.75), (-0.5, -0.125), (0.5, 0.5)):
        rows = _kernel_scale_rows(exps, edges, v_lo, v_hi, rng)
        args = (a_lo, a_hi, b_lo, b_hi, rows.T, exps, v_lo, v_hi)
        whole = transform._overlap_product_integrals(*args)
        with monkeypatch.context() as m:
            m.setattr(transform, "_CHUNK_LIMIT", 3 * n_seg * n_nodes)
            m.setattr(transform, "_breakpoints", recorded)
            chunked = transform._overlap_product_integrals(*args)
        assert np.array_equal(chunked, whole)
        for got, row in zip(whole, rows):
            want = _overlap_product_integral(
                a_lo, a_hi, b_lo, b_hi, row, np.array(exps), v_lo, v_hi
            )
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    assert len(set(trims)) > 1


def test_layered_pairing_chunks_agree_and_bound_memory(monkeypatch):
    """Both routes give the same values bit for bit in one chunk and in
    chunks of 3,072 quadrature points, which cut the d = 3 calls' 236 to
    310 rows into chunks of 109 (dual) or 153 (primal) rows."""
    E = BoxUnionSet([np.array([[0.0, 1.0], [-0.5, 0.5]])])
    F = BoxUnionSet([np.array([[-0.5, 0.8], [0.0, 1.0]])])
    quad = QuadSpec(step=2.0**-14)  # 21,300 first-axis midpoints
    E3, F3 = random_box_pair(3, np.random.default_rng(5), max_boxes=3)
    entry = next(e for e in build_default_corpus() if e.entry_id == "d3-random-2")

    def d3_values():
        return [
            bilinear_form_dual(E3, F3, F3.first_axis_span()),
            bilinear_form(entry.E, entry.F, entry.interval),
            bilinear_form_dual(entry.E, entry.F, entry.window),
        ]

    one_chunk = bilinear_form(E, F, (0.0, 1.0), quad)
    one_chunk_dual = bilinear_form_dual(E, F, (-0.5, 0.8), quad)
    one_chunk_d3 = d3_values()
    monkeypatch.setattr(transform, "_CHUNK_LIMIT", 6 * 512)
    tracemalloc.start()
    try:
        chunked = bilinear_form(E, F, (0.0, 1.0), quad)
        chunked_dual = bilinear_form_dual(E, F, (-0.5, 0.8), quad)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunked == one_chunk
    assert chunked_dual == one_chunk_dual
    assert d3_values() == one_chunk_d3
    # in one chunk the same two calls peak near 5.8 MB
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


def _reflected(S, axes=slice(0, None, 2)):
    """The image of S when the coordinates axes change sign; by default
    0, 2, ... (0-based), which is S(y) = ((-1)^j y_j), j = 1..d."""
    bounds = S.bounds.copy()
    bounds[:, axes] = -bounds[:, axes, ::-1]
    return BoxUnionSet(bounds)


@given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_pairing_invariant_under_reflection(d, seed):
    """The line through (0, x_2, ..., x_d) with direction
    (1, x_1, ..., x_1^(d-1)), its parameter t replaced by -t, is the line
    with parameters S(x), S(y) = ((-1)^j y_j): so reflecting both sets and
    negating the parameter interval leaves both pairing routes unchanged."""
    E, F = random_box_pair(d, np.random.default_rng(seed), max_boxes=3)
    interval, window = E.first_axis_span(), F.first_axis_span()
    SE, SF = _reflected(E), _reflected(F)
    primal = bilinear_form(SE, SF, (-interval.hi, -interval.lo))
    dual = bilinear_form_dual(SE, SF, (-window.hi, -window.lo))
    assert primal == pytest.approx(bilinear_form(E, F, interval), rel=1e-12)
    assert dual == pytest.approx(bilinear_form_dual(E, F, window), rel=1e-12)


def test_flipping_the_first_axis_alone_moves_the_pairing():
    """The negative control for the reflection property: x_1 -> -x_1 alone
    (which is S itself in the plane) is no symmetry for d >= 3, and moves
    the pairing by more than 1% on a fixed pair."""
    moved = []
    for d in (3, 4):
        E, F = random_box_pair(d, np.random.default_rng(d), max_boxes=3)
        interval = E.first_axis_span()
        base = bilinear_form(E, F, interval)
        flipped = bilinear_form(
            _reflected(E, [0]), _reflected(F, [0]), (-interval.hi, -interval.lo)
        )
        moved.append(abs(flipped - base) / base)
    assert max(moved) > 0.01


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
