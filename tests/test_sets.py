"""Intervals, boxes, disjoint unions, and fiber cells."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentray.sets import BoxUnionSet, Interval, fiber_cells
from oracles import family_bounds, union_to_jsonable


def test_interval_basics():
    iv = Interval(-1.0, 2.0)
    assert (iv.lo, iv.hi) == (-1.0, 2.0)
    assert iv.length == 3.0


def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_box_volume_and_overlap():
    u = BoxUnionSet([[[0, 2], [1, 4]]])
    assert (u.dim, u.n_boxes) == (2, 1)
    assert u.measure == 6.0
    assert u.contains_batch(np.array([[1.0, 2.0], [2.5, 2.0]])).tolist() == [True, False]


def test_box_nonisotropic_dilation_volume():
    scaled = BoxUnionSet([[[0, 1], [0, 1], [0, 1]]]).dilated_nonisotropic(0.5)
    # axis j scales by delta^j: volume multiplies by delta^(1+2+3)
    assert scaled.measure == pytest.approx(0.5**6)
    assert scaled.bounds.tolist() == [[[0.0, 0.5], [0.0, 0.25], [0.0, 0.125]]]


@pytest.mark.parametrize(
    "boxes",
    [
        [],
        [[[0, 1, 2], [0, 1, 2]]],
        [[[0, 1], [0, 1]], [[2, 3], [0, 1], [0, 1]]],
        [[[0, np.nan], [0, 1]]],
        [[[0, 1], [0, np.inf]]],
        [[[0, 1], [1, 0]]],
        [[[0, "one"], [0, 1]]],
    ],
    ids=["no-boxes", "d-by-3", "mixed-dims", "nan", "inf", "reversed", "string"],
)
def test_union_refuses_malformed_bounds(boxes):
    with pytest.raises(ValueError):
        BoxUnionSet(boxes)


def test_union_measure_and_containment():
    u = BoxUnionSet([np.array([[0, 1], [0, 1]]), np.array([[2, 3], [0, 2]])])
    assert u.n_boxes == 2
    assert u.measure == pytest.approx(3.0)
    got = u.contains_batch(np.array([[0.5, 0.5], [2.5, 1.5], [1.5, 0.5]]))
    assert got.tolist() == [True, True, False]


@pytest.mark.parametrize(
    "points",
    [[[0.5], [2.0]], [0.5, 0.5], [[0.5, 0.5, 0.5]], [[[0.5, 0.5]]]],
    ids=["n-by-1", "one-point", "n-by-3", "three-axes"],
)
def test_containment_refuses_wrong_point_shape(points):
    """Points must be an (n, d) batch: an (n, 1) one is not broadcast against
    each box and an (n, 3) one is not cut to two coordinates."""
    u = BoxUnionSet([[[0, 1], [0, 1]]])
    with pytest.raises(ValueError, match="point dimension does not match the set"):
        u.contains_batch(np.array(points))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_containment_matches_row_reference(data):
    """contains_batch, a column at a time, against the row-wise test of every
    box, on points at, just off and away from the faces, NaNs included."""
    d = data.draw(st.integers(1, 4))
    cells = data.draw(st.lists(st.integers(0, 3**d - 1), min_size=1, max_size=6, unique=True))
    boxes = np.array([[[a, a + 1] for a in np.unravel_index(c, (3,) * d)] for c in cells], float)
    u = BoxUnionSet(boxes)
    faces = [0.0, 1.0, 2.0, 3.0]
    offsets = [0.0, 1e-9, -1e-9, 5e-10, -5e-10, 2e-9, -2e-9, 0.37]
    coordinate = st.one_of(
        st.builds(lambda f, o: f + o, st.sampled_from(faces), st.sampled_from(offsets)),
        st.floats(-1.0, 4.0),
        st.just(math.nan),
    )
    n = data.draw(st.integers(0, 12))
    points = np.array(
        data.draw(st.lists(st.lists(coordinate, min_size=d, max_size=d), min_size=n, max_size=n)),
        dtype=float,
    ).reshape(n, d)
    atol = data.draw(st.sampled_from([0.0, 1e-9]))
    want = np.zeros(n, dtype=bool)
    for lo, hi in zip(u.los, u.his):
        want |= np.all(points >= lo - atol, axis=1) & np.all(points <= hi + atol, axis=1)
    assert np.array_equal(u.contains_batch(points, atol=atol), want)


def test_union_rejects_overlap():
    with pytest.raises(ValueError):
        BoxUnionSet([np.array([[0, 2], [0, 2]]), np.array([[1, 3], [1, 3]])])


@st.composite
def grid_boxes(draw):
    """Up to about 40 boxes on an integer grid, so touching and overlapping
    are exact: distinct unit cells, which touch but never overlap, with up
    to three boxes of integer sides (0 included) put in among them."""
    d = draw(st.integers(1, 4))
    corner = st.lists(st.integers(0, 5), min_size=d, max_size=d)
    n = draw(st.integers(0, min(40, 6**d)))
    cells = draw(st.lists(st.integers(0, 6**d - 1), min_size=n, max_size=n, unique=True))
    boxes = [[[a, a + 1] for a in np.unravel_index(c, (6,) * d)] for c in cells]
    for _ in range(draw(st.integers(0 if boxes else 1, 3))):
        lo = draw(corner)
        width = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d))
        boxes.insert(draw(st.integers(0, len(boxes))), [[a, a + w] for a, w in zip(lo, width)])
    return np.array(boxes, dtype=float)


def _first_overlap(bounds):
    """Brute-force reference: the first pair (i, j), i < j, of positive
    overlap measure, or None."""
    for i in range(len(bounds)):
        for j in range(i + 1, len(bounds)):
            sides = np.minimum(bounds[i, :, 1], bounds[j, :, 1]) - np.maximum(bounds[i, :, 0], bounds[j, :, 0])
            if np.all(sides > 0):
                return i, j
    return None


@given(grid_boxes())
@settings(max_examples=200)
def test_disjointness_check_matches_pairwise_reference(bounds):
    pair = _first_overlap(bounds)
    if pair is None:
        assert BoxUnionSet(bounds).n_boxes == len(bounds)
    else:
        with pytest.raises(ValueError, match=f"boxes {pair[0]} and {pair[1]} overlap"):
            BoxUnionSet(bounds)


def test_disjointness_check_spans_blocks():
    """300 touching unit cells in a row: touching cells are no candidates
    of the sweep, and a late box overlapping two cells is reported with the
    lower one, by its index in the input, not its sorted position."""
    chain = np.array([[[k, k + 1], [0, 1]] for k in range(300)], dtype=float)
    assert BoxUnionSet(chain).measure == 300.0
    chain[-1] = [[270.5, 271.5], [0.5, 1.5]]  # overlaps cell 270 and cell 271
    with pytest.raises(ValueError, match="boxes 270 and 299 overlap"):
        BoxUnionSet(chain)


def test_large_union_check_bounds_memory():
    """The disjointness check of the 20,000 boxes of a d = 3 example family
    peaks near 4 MB under tracemalloc.  The bound leaves no room for
    all-pairs tests: 256 rows of them against 20,000 boxes in d = 3 are
    123 MB of floats."""
    bounds = family_bounds(3, 2, 20_001, 1.0)
    tracemalloc.start()
    try:
        region = BoxUnionSet(bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.n_boxes == 20_000
    assert peak < 30_000_000


def test_disjointness_check_does_not_underflow():
    """Two equal [0, 1e-100]^4 boxes overlap although the volume of their
    overlap, 1e-400, underflows to 0: each side is tested, not the product."""
    with pytest.raises(ValueError, match="boxes 0 and 1 overlap"):
        BoxUnionSet(np.array([[[0.0, 1e-100]] * 4] * 2))


def test_union_first_axis_span():
    u = BoxUnionSet([np.array([[-1, 0], [0, 1]]), np.array([[2, 5], [0, 1]])])
    span = u.first_axis_span()
    assert (span.lo, span.hi) == (-1.0, 5.0)


def test_union_json_round_trip():
    u = BoxUnionSet([np.array([[0, 1], [2, 3.5]]), np.array([[4, 5], [0, 1]])])
    back = BoxUnionSet(union_to_jsonable(u))
    assert np.array_equal(back.los, u.los)
    assert np.array_equal(back.his, u.his)


@given(st.floats(0.2, 2.0))
def test_union_dilation_measure_exponent(delta):
    u = BoxUnionSet([np.array([[0, 1], [0, 1], [0, 1]])])
    scaled = u.dilated_nonisotropic(delta)
    assert scaled.measure == pytest.approx(delta**6 * u.measure, rel=1e-12)


def _cells(pieces, max_width):
    los, his = np.array(pieces, dtype=float).T
    return fiber_cells(los[None, :], his[None, :], max_width, math.inf, 0)[:3]


def test_fiber_merging_and_measure():
    # [0, 1] and [0.5, 2] overlap: one interval [0, 2], cut into two cells
    rows, centers, widths = _cells([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)], 1.0)
    assert rows.tolist() == [0, 0, 0]
    assert centers.tolist() == [0.5, 1.5, 3.5]
    assert widths.sum() == pytest.approx(3.0)


def test_fiber_empty_inputs_dropped():
    for pieces in ([(1.0, 0.0)], [(np.nan, 1.0)], [(0.5, 0.5)]):
        rows, centers, widths = _cells(pieces, 0.25)
        assert rows.size == centers.size == widths.size == 0


def test_fiber_cells_refuse_a_count_past_int64():
    """A fiber that needs 2^63 or more cells is refused, not given a count
    that wraps around on the cast to int64."""
    for length, max_width in ((1.0, 1e-300), (2.0**63, 1.0), (1.0, 5e-324)):
        with pytest.raises(ValueError, match="2\\^63 or more cells"):
            _cells([(0.0, length)], max_width)
    assert _cells([(0.0, 2.0**62)], 2.0**60)[2].tolist() == [2.0**60] * 4
    # each row fits, the total does not: refused before any cell is drawn
    los, his = np.zeros((2, 1)), np.full((2, 1), 2.0**62)
    with pytest.raises(ValueError, match="2\\^63 or more cells .* in all"):
        fiber_cells(los, his, 1.0, 10, 0)
    assert fiber_cells(los[:1], his[:1], 1.0, 10, 0)[3] == 2.0**62 / 10


def test_fiber_cells_preserve_measure():
    los = np.array([[0.0, 2.0], [1.0, 0.0]])
    his = np.array([[1.0, 2.3], [0.0, 0.1]])  # row 1: one empty piece
    rows, centers, widths, scale = fiber_cells(los, his, 0.25, math.inf, 0)
    assert scale == 1.0
    assert np.all(widths <= 0.25 + 1e-12)
    assert widths[rows == 0].sum() == pytest.approx(1.3)
    assert widths[rows == 1].sum() == pytest.approx(0.1)
    inside = (los[rows] <= centers[:, None]) & (centers[:, None] <= his[rows])
    assert inside.any(axis=1).all()
    with pytest.raises(ValueError):
        fiber_cells(los, his, 0.0, math.inf, 0)
    with pytest.raises(ValueError, match="max_width"):
        fiber_cells(los, his, float("nan"), math.inf, 0)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_fiber_cells_draw_equals_the_full_cut(data):
    """Past max_cells, the built cells are the full cut's cells at the sorted
    draw's indices, bit for bit, over rows of several overlapping pieces."""
    n_rows, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    ends = st.floats(-2.0, 2.0, allow_nan=False)
    los = np.array(data.draw(st.lists(ends, min_size=n_rows * k, max_size=n_rows * k)))
    spans = st.floats(-0.5, 1.5, allow_nan=False)
    his = los + np.array(data.draw(st.lists(spans, min_size=n_rows * k, max_size=n_rows * k)))
    los, his = los.reshape(n_rows, k), his.reshape(n_rows, k)
    max_width = data.draw(st.sampled_from([0.05, 0.25, 1.0]))
    full = fiber_cells(los, his, max_width, math.inf, 0)
    n = full[0].size
    max_cells = data.draw(st.integers(1, max(1, n)))
    seed = data.draw(st.integers(0, 3))
    rows, centers, widths, scale = fiber_cells(los, his, max_width, max_cells, seed)
    if n <= max_cells:
        pick, want_scale = np.arange(n), 1.0
    else:
        pick = np.sort(np.random.default_rng(seed).choice(n, size=max_cells, replace=False))
        want_scale = n / max_cells
    assert scale == want_scale
    for got, want in zip((rows, centers, widths), full[:3]):
        assert got.dtype == want.dtype and np.array_equal(got, want[pick])
