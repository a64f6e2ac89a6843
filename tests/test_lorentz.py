"""Simple functions, their step profiles, and the two-exponent norms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentray.lorentz import (
    SimpleFunction,
    lorentz_norm,
    lorentz_norm_from_steps,
    lp_norm,
)
from momentray.sets import BoxUnionSet


def _box(b):
    return BoxUnionSet([np.asarray(b, dtype=float)])


A = _box([[0.0, 1.0], [0.0, 2.0]])  # measure 2
B = _box([[3.0, 4.0], [0.0, 1.0]])  # measure 1
TWO_STEP = SimpleFunction([2.0, 1.0], [A, B])


def test_simple_function_rejects_overlapping_supports():
    with pytest.raises(ValueError):
        SimpleFunction([1.0, 1.0], [A, _box([[0.5, 1.5], [0.0, 1.0]])])


def test_simple_function_region_stacks_supports_in_order():
    pair = BoxUnionSet([[[5.0, 6.0], [0.0, 1.0]], [[6.0, 7.0], [0.0, 1.0]]])
    f = SimpleFunction([2.0, 1.0, 0.5], [A, pair, B])
    assert np.array_equal(f.region.bounds, np.concatenate([A.bounds, pair.bounds, B.bounds]))
    # bounds given for a support become a one-box support
    g = SimpleFunction([3.0], [[[0.0, 1.0], [0.0, 2.0]]])
    assert np.array_equal(g.region.bounds, A.bounds)


def test_simple_function_overlap_across_supports():
    # each support is disjoint in itself; the overlap is between A and C
    C = BoxUnionSet([[[3.0, 4.0], [1.0, 2.0]], [[0.5, 1.5], [1.5, 2.5]]])
    with pytest.raises(ValueError, match="boxes 0 and 2 overlap"):
        SimpleFunction([1.0, 1.0], [A, C])


def test_simple_function_steps():
    assert TWO_STEP.weights.tolist() == [2.0, 1.0]
    assert TWO_STEP.support_measures.tolist() == [2.0, 1.0]
    pair = BoxUnionSet([[[5.0, 6.0], [0.0, 1.0]], [[6.0, 7.0], [0.0, 0.5]]])
    assert SimpleFunction([1.0, 3.0], [pair, A]).support_measures.tolist() == [1.5, 2.0]


def test_simple_function_refuses_malformed_supports():
    """A weight count that is not one per support, a box of the wrong shape,
    a NaN bound, a weight that is not positive, weights that are not 1-d
    and two overlapping supports are each refused."""
    rng = np.random.default_rng(3)
    lo = np.stack([2.0 * np.arange(6), *rng.uniform(-1.0, 0.0, (2, 6))], axis=1)
    stack = np.stack([lo, lo + rng.uniform(0.1, 1.5, (6, 3))], axis=2)
    weights = rng.uniform(0.1, 5.0, 6)
    assert SimpleFunction(weights, list(stack)).region.n_boxes == 6
    nan_bound, overlap = stack.copy(), stack.copy()
    nan_bound[2, 1, 0] = np.nan
    overlap[4] = overlap[1]
    for w, bounds, match in (
        (weights[:5], stack, "one weight per support"),
        (weights, np.concatenate([stack, stack[..., :1]], axis=2), r"shape \(d, 2\)"),
        (weights, nan_bound, "finite"),
        (np.where(np.arange(6) == 3, 0.0, weights), stack, "positive"),
        (weights[:, None], stack, "1-d"),
        (weights[None], stack, "1-d"),
        (weights, overlap, "boxes 1 and 4 overlap"),
    ):
        with pytest.raises(ValueError, match=match):
            SimpleFunction(w, list(bounds))


def test_lorentz_norm_refuses_zero_measure_support():
    """Both norms refuse a support of zero measure rather than drop it."""
    flat = SimpleFunction([1.0, 2.0], [A, [[5.0, 5.0], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="positive measure"):
        lorentz_norm(flat, 2.0, 2.0)
    for p in (2.0, float("inf")):
        with pytest.raises(ValueError, match="positive measure"):
            lp_norm(flat, p)


def test_steps_norm_refuses_zero_measure_step():
    """A zero-measure step is refused, not dropped, alone or among others."""
    for values, measures in (([1.0, 5.0], [1.0, 0.0]), ([5.0], [0.0])):
        with pytest.raises(ValueError, match="positive measure"):
            lorentz_norm_from_steps(values, measures, 2, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["values", "measures"])
def test_steps_norm_refuses_non_finite_steps(bad, which):
    """A NaN or infinite value or measure is refused at every exponent, not
    carried into a NaN or infinite norm."""
    steps = {"values": [1.0, 1.0], "measures": [1.0, 1.0]}
    steps[which][0] = bad
    for r in (2, float("inf")):
        with pytest.raises(ValueError, match="must be finite"):
            lorentz_norm_from_steps(steps["values"], steps["measures"], 2, r)


def test_lp_norm_hand_value():
    # (2^2 * 2 + 1^2 * 1)^(1/2) = 3
    assert lp_norm(TWO_STEP, 2.0) == pytest.approx(3.0)


def test_lorentz_equals_lp_at_equal_exponents():
    for p in (0.5, 1.0, 1.7, 3.0):
        assert lorentz_norm(TWO_STEP, p, p) == pytest.approx(
            lp_norm(TWO_STEP, p), rel=1e-12
        )


def test_indicator_closed_form():
    chi = SimpleFunction([1.0], [A])
    for s, r in ((1.5, 2.5), (2.0, 1.0), (3.0, 0.7)):
        want = (s / r) ** (1.0 / r) * A.measure ** (1.0 / s)
        assert lorentz_norm(chi, s, r) == pytest.approx(want, rel=1e-12)
    assert lorentz_norm(chi, 2.0, float("inf")) == pytest.approx(
        A.measure**0.5, rel=1e-12
    )


def test_weak_norm_is_sup_of_scaled_rearrangement():
    # r = inf: sup_t t^(1/s) f*(t) over the step profile
    got = lorentz_norm(TWO_STEP, 2.0, float("inf"))
    want = max(2.0 * 2.0**0.5, 1.0 * 3.0**0.5)
    assert got == pytest.approx(want, rel=1e-12)


def test_norm_scales_linearly_in_function_value():
    tripled = SimpleFunction([6.0, 3.0], [A, B])
    assert lorentz_norm(tripled, 1.3, 2.2) == pytest.approx(
        3.0 * lorentz_norm(TWO_STEP, 1.3, 2.2), rel=1e-12
    )


@given(
    st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
    st.lists(st.floats(0.05, 3.0), min_size=6, max_size=6),
    st.floats(0.6, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_steps_norm_matches_bruteforce_integral(weights, measures, p):
    """The closed-form sum equals a fine Riemann sum of (t^(1/s) f*)^r dt/t."""
    values = sorted(weights, reverse=True)
    measures = measures[: len(values)]
    norm = lorentz_norm_from_steps(values, measures, p, p)
    brute = sum(v**p * m for v, m in zip(values, measures)) ** (1.0 / p)
    assert norm == pytest.approx(brute, rel=1e-9)


@st.composite
def split_and_permuted(draw):
    """A simple function on separated boxes (weights may repeat), the same
    function with one support split in two of equal weight, and its terms
    in another order."""
    n = draw(st.integers(1, 6))
    pick = st.sampled_from([0.5, 1.0, 2.5]) | st.floats(0.1, 10.0)
    weights = draw(st.lists(pick, min_size=n, max_size=n))
    sides = draw(st.lists(st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 2.0)), min_size=n, max_size=n))
    boxes = [[[2.0 * i, 2.0 * i + w], [0.0, h]] for i, (w, h) in enumerate(sides)]
    k = draw(st.integers(0, n - 1))
    (lo, hi), rest = boxes[k]
    cut = lo + draw(st.floats(0.1, 0.9)) * (hi - lo)
    split_boxes = boxes[:k] + [[[lo, cut], rest]] + boxes[k + 1 :] + [[[cut, hi], rest]]
    order = draw(st.permutations(range(n)))
    return (
        SimpleFunction(weights, boxes),
        SimpleFunction(weights + [weights[k]], split_boxes),
        SimpleFunction([weights[i] for i in order], [boxes[i] for i in order]),
    )


@given(split_and_permuted(), st.floats(0.6, 4.0), st.sampled_from([0.7, 1.0, 2.5, np.inf]))
@settings(max_examples=80, deadline=None)
def test_norms_unchanged_by_split_and_permutation(functions, s, r):
    """The norms depend on the distribution of values only: neither
    splitting a support into two of equal weight nor reordering the terms
    moves them."""
    f, split, permuted = functions
    for g in (split, permuted):
        assert lorentz_norm(g, s, r) == pytest.approx(lorentz_norm(f, s, r), rel=1e-12)
        assert lp_norm(g, s) == pytest.approx(lp_norm(f, s), rel=1e-12)
        assert lp_norm(g, np.inf) == lp_norm(f, np.inf)
