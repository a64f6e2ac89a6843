"""Intervals, boxes, disjoint unions, and parameter-line fibers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentray.sets import Box, BoxUnionSet, FiberSet, Interval


def test_interval_basics():
    iv = Interval(-1.0, 2.0)
    assert iv.length == 3.0
    assert iv.midpoint == 0.5
    assert iv.contains(2.0) and not iv.contains(2.1)
    both = iv.intersect(Interval(1.0, 5.0))
    assert (both.lo, both.hi) == (1.0, 2.0)
    assert iv.intersect(Interval(3.0, 4.0)) is None


def test_interval_rejects_reversed():
    with pytest.raises(ValueError):
        Interval(1.0, 0.0)


def test_box_volume_and_overlap():
    b = Box([[0, 2], [1, 4]])
    assert b.dim == 2
    assert b.volume == 6.0
    other = Box([[1, 3], [0, 2]])
    assert b.overlap_volume(other) == pytest.approx(1.0)
    assert b.contains((1.0, 2.0))
    assert not b.contains((2.5, 2.0))


def test_box_nonisotropic_dilation_volume():
    b = Box([[0, 1], [0, 1], [0, 1]])
    scaled = b.dilated_nonisotropic(0.5)
    # axis j scales by delta^j: volume multiplies by delta^(1+2+3)
    assert scaled.volume == pytest.approx(0.5**6)


def test_union_measure_and_containment():
    u = BoxUnionSet([np.array([[0, 1], [0, 1]]), np.array([[2, 3], [0, 2]])])
    assert u.n_boxes == 2
    assert u.measure == pytest.approx(3.0)
    assert u.contains((0.5, 0.5))
    assert u.contains((2.5, 1.5))
    assert not u.contains((1.5, 0.5))
    got = u.contains_batch(np.array([[0.5, 0.5], [1.5, 0.5]]))
    assert got.tolist() == [True, False]


def test_union_rejects_overlap():
    with pytest.raises(ValueError):
        BoxUnionSet([np.array([[0, 2], [0, 2]]), np.array([[1, 3], [1, 3]])])


def test_union_first_axis_span():
    u = BoxUnionSet([np.array([[-1, 0], [0, 1]]), np.array([[2, 5], [0, 1]])])
    span = u.first_axis_span()
    assert (span.lo, span.hi) == (-1.0, 5.0)


def test_union_json_round_trip():
    u = BoxUnionSet([np.array([[0, 1], [2, 3.5]]), np.array([[4, 5], [0, 1]])])
    back = BoxUnionSet.from_jsonable(u.to_jsonable())
    assert np.array_equal(back.los, u.los)
    assert np.array_equal(back.his, u.his)


@given(st.floats(0.2, 2.0))
def test_union_dilation_measure_exponent(delta):
    u = BoxUnionSet([np.array([[0, 1], [0, 1], [0, 1]])])
    scaled = u.dilated_nonisotropic(delta)
    assert scaled.measure == pytest.approx(delta**6 * u.measure, rel=1e-12)


def test_fiber_merging_and_measure():
    f = FiberSet([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)])
    assert f.n_intervals == 2
    assert f.measure == pytest.approx(3.0)
    assert f.contains(1.5) and not f.contains(2.5)


def test_fiber_empty_inputs_dropped():
    f = FiberSet([(1.0, 0.0)])
    assert f.is_empty
    assert f.measure == 0.0


def test_fiber_cells_preserve_measure():
    f = FiberSet([(0.0, 1.0), (2.0, 2.3)])
    centers, widths = f.cells(max_width=0.25)
    assert np.all(widths <= 0.25 + 1e-12)
    assert widths.sum() == pytest.approx(f.measure)
    assert all(f.contains(c) for c in centers)
