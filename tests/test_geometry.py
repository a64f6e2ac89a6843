"""Line maps, iterated incidence maps, and determinant identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from momentray.geometry import (
    CdEstimate,
    estimate_c_d,
    incidence_path,
    jacobian_closed_form,
    jacobian_numeric,
    line_step,
    sample_incidence_params,
    split_params,
)
from oracles import psi_map_closed

coord = st.floats(-3.0, 3.0, allow_nan=False)


@st.composite
def batches(draw, width=st.integers(2, 6), rows=st.integers(1, 8)):
    """An (n, width) array of coordinates and an (n,) array of parameters."""
    n, m = draw(rows), draw(width)
    return (
        draw(hnp.arrays(float, (n, m), elements=coord)),
        draw(hnp.arrays(float, n, elements=coord)),
    )


def gamma(x, s):
    return line_step(x, s, dual=False)


def gamma_star(x, t):
    return line_step(x, t, dual=True)


def test_gamma_hand_value():
    # x = (1, 2), s = 3: first coordinate becomes s, second 2 + 3*1 = 5
    assert np.allclose(gamma((1.0, 2.0), 3.0), [3.0, 5.0])


def test_gamma_star_hand_value():
    # x = (1, 5), t = 2: (t, 5 - 1*2) = (2, 3)
    assert np.allclose(gamma_star((1.0, 5.0), 2.0), [2.0, 3.0])


def test_gamma_three_dimensional():
    # powers of x1 appear: (s, x2 + s*x1, x3 + s*x1^2)
    out = gamma((2.0, 1.0, -1.0), 0.5)
    assert np.allclose(out, [0.5, 1.0 + 0.5 * 2.0, -1.0 + 0.5 * 4.0])


def test_phi_psi_hand_values():
    assert np.allclose(incidence_path((1.0, 0.0), (2.0, 3.0), "phi")[-1], [3.0, 4.0])
    assert np.allclose(incidence_path((1.0, 0.0), (2.0, 3.0), "psi")[-1], [3.0, -4.0])


@given(st.lists(coord, min_size=2, max_size=5), coord)
def test_gamma_star_inverts_gamma_at_base_slope(coords, s):
    """Following the line out and back with matched parameters returns x."""
    x = np.asarray(coords)
    y = gamma(x, s)
    back = gamma_star(y, x[0])
    assert np.allclose(back, np.concatenate([[x[0]], x[1:]]), atol=1e-9)


@given(st.lists(coord, min_size=2, max_size=5), coord)
def test_gamma_inverts_gamma_star(coords, t):
    x = np.asarray(coords)
    y = gamma_star(x, t)
    back = gamma(y, x[0])
    assert np.allclose(back, x, atol=1e-9)


def test_incidence_path_lengths():
    path = incidence_path((0.5, 0.2, -0.1), (1.0, 2.0, 3.0), "phi")
    assert path.shape == (3, 3)  # one visited point per applied parameter
    batch = incidence_path((0.5, 0.2, -0.1), np.ones((4, 2)), "psi")
    assert batch.shape == (2, 4, 3)
    with pytest.raises(ValueError):
        incidence_path((0.5, 0.2), (1.0, 2.0), "dual")


@given(batches(), st.booleans())
def test_batched_line_step_rows_match_single_calls(batch, dual):
    points, values = batch
    out = line_step(points, values, dual)
    for i in range(values.size):
        assert out[i].tobytes() == line_step(points[i], values[i], dual).tobytes()


@given(batches(), st.lists(coord, min_size=2, max_size=6), st.sampled_from(["phi", "psi"]))
def test_batched_incidence_path_rows_match_single_calls(batch, base, kind):
    params, _ = batch
    path = incidence_path(base, params, kind)
    for i in range(params.shape[0]):
        single = incidence_path(base, params[i], kind)
        assert path[:, i].tobytes() == single.tobytes()


@given(batches(), batches(), st.sampled_from(["phi", "psi"]))
def test_per_row_base_incidence_path_rows_match_single_calls(rows, steps, kind):
    bases, _ = rows
    params, _ = steps
    n = min(bases.shape[0], params.shape[0])
    bases, params = bases[:n], params[:n]
    m = params.shape[1]
    path = incidence_path(bases, params, kind)
    assert path.shape == (m,) + bases.shape
    for i in range(bases.shape[0]):
        single = incidence_path(bases[i], params[i], kind)
        assert path[:, i].tobytes() == single.tobytes()


@given(
    st.integers(2, 7),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["phi", "psi"]),
)
@settings(max_examples=40, deadline=None)
def test_batched_numeric_jacobian_rows_match_single_calls(d, n, seed, kind):
    rng = np.random.default_rng(seed)
    draws = [sample_incidence_params(kind, d, rng) for _ in range(n)]
    bases, params = (np.array(side) for side in zip(*draws))
    got = jacobian_numeric(kind, bases, params)
    assert got.shape == (n,)
    for i in range(n):
        assert got[i] == jacobian_numeric(kind, bases[i : i + 1], params[i : i + 1])[0]


@pytest.mark.parametrize("at", [0, 2, 4])
def test_batched_numeric_jacobian_raises_on_one_degenerate_row(at):
    # phi, d = 2: the determinant has the factor s1 - x1, here 1e-9; its
    # full- and half-step estimates disagree (as a batch of one it raises too)
    rng = np.random.default_rng(5)
    draws = [sample_incidence_params("phi", 2, rng) for _ in range(4)]
    bases, params = (np.array(side) for side in zip(*draws))
    jacobian_numeric("phi", bases, params)  # the well-separated rows pass
    bad_base, bad_params = np.array([1.0, 0.0]), np.array([2.0, 1.0 + 1e-9])
    with pytest.raises(ValueError):
        jacobian_numeric("phi", bad_base[None], bad_params[None])
    with pytest.raises(ValueError, match="near-degenerate"):
        jacobian_numeric(
            "phi",
            np.insert(bases, at, bad_base, axis=0),
            np.insert(params, at, bad_params, axis=0),
        )


@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_jacobians_return_an_array_for_every_input(kind):
    """One vector (d,) is a batch of one: both routes return shape (1,)."""
    base, params = sample_incidence_params(kind, 3, np.random.default_rng(0))
    for got in (
        jacobian_numeric(kind, base, params),
        jacobian_closed_form(kind, base[0], params),
    ):
        assert isinstance(got, np.ndarray) and got.shape == (1,)


def test_numeric_jacobian_shapes_must_agree():
    with pytest.raises(ValueError):
        jacobian_numeric("phi", np.zeros((3, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        jacobian_numeric("phi", [(1.0, 0.0, 0.0)], [(2.0, 3.0)])


@pytest.mark.parametrize("kind", ["phi", "psi"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_estimate_c_d_matches_per_sample_loop(kind, d):
    """One batched pass gives the estimate of a loop over single samples."""
    samples, seed = 25, 7 + d
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        base, params = sample_incidence_params(kind, d, rng)
        num = jacobian_numeric(kind, base[None], params[None])[0]
        ratios.append(num / jacobian_closed_form(kind, base[0], params[None])[0])
    ratios = np.array(ratios)
    mean, std = float(ratios.mean()), float(ratios.std())
    want = CdEstimate(
        kind=kind,
        d=d,
        samples=samples,
        mean=mean,
        std=std,
        rel_dispersion=std / abs(mean),
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
    )
    assert estimate_c_d(kind, d, samples=samples, seed=seed) == want


def test_psi_closed_form_matches_recursion():
    rng = np.random.default_rng(3)
    for d in (2, 3, 4, 5):
        base = rng.uniform(-1, 1, d)
        params = rng.uniform(-1, 1, d)
        rec = incidence_path(base, params, "psi")[-1]
        closed = psi_map_closed(base, params)
        assert np.allclose(rec, closed, atol=1e-10)


def test_split_params_interleaving():
    t, s = split_params("phi", 0.7, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(t, [1.0, 3.0])
    assert np.allclose(s, [0.7, 2.0, 4.0])
    t, s = split_params("psi", 0.7, [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(t, [0.7, 2.0, 4.0])
    assert np.allclose(s, [1.0, 3.0])
    t, s = split_params("phi", [0.7, -0.7], [[1.0, 2.0, 3.0], [5.0, 6.0, 7.0]])
    assert np.allclose(t, [[1.0, 3.0], [5.0, 7.0]])
    assert np.allclose(s, [[0.7, 2.0], [-0.7, 6.0]])


def test_jacobian_closed_form_d2_hand():
    # phi factored form is (s1 - s0)(s1 - t1); psi is (t2 - t1)(t2 - s1)
    assert jacobian_closed_form("phi", 0.0, [[2.0, 3.0]]) == pytest.approx([3.0])
    assert jacobian_closed_form("psi", 1.0, [[2.0, 3.0]]) == pytest.approx([2.0])


def test_jacobian_numeric_matches_d2_hand():
    # base (1, 0), params (t1, s1) = (2, 3): determinant -(3-1)(3-2) = -2
    val = jacobian_numeric("phi", [(1.0, 0.0)], [(2.0, 3.0)])
    assert val == pytest.approx([-2.0], abs=1e-7)
    val = jacobian_numeric("psi", [(1.0, 0.0)], [(2.0, 3.0)])
    assert val == pytest.approx([2.0], abs=1e-7)


@given(st.integers(2, 5), st.floats(1.2, 3.0))
@settings(max_examples=20, deadline=None)
def test_closed_form_scales_with_degree(d, scale):
    """Scaling all parameters multiplies the factored form by lam^degree."""
    rng = np.random.default_rng(d)
    base, params = sample_incidence_params("phi", d, rng)
    v1 = jacobian_closed_form("phi", base[0] * scale, params[None] * scale)[0]
    v0 = jacobian_closed_form("phi", base[0], params[None])[0]
    # the factored form is a product of d(d-1)/2 linear factors
    # (1, 3, 6, 10 for d = 2..5), so it is homogeneous of that degree
    assert v1 == pytest.approx(scale ** (d * (d - 1) // 2) * v0, rel=1e-9)


@given(
    st.integers(2, 7).flatmap(lambda d: batches(width=st.just(d), rows=st.integers(1, 12))),
    st.sampled_from(["phi", "psi"]),
)
@settings(max_examples=50, deadline=None)
def test_batched_jacobian_matches_rows(batch, kind):
    """Each row of a batch equals its batch of one to the last bit."""
    params, firsts = batch
    rows = [jacobian_closed_form(kind, f, p[None])[0] for f, p in zip(firsts, params)]
    got = jacobian_closed_form(kind, firsts, params)
    assert got.tolist() == rows
    shared = jacobian_closed_form(kind, firsts[0], params)
    assert shared[0] == got[0]


def test_closed_form_vanishing_factor():
    """Repeating a chain value kills the factored determinant."""
    # phi in d=3: params (t1, s1, t2); t1 == t2 repeats a t-chain entry
    assert jacobian_closed_form("phi", 0.3, [[0.8, -0.4, 0.8]]).tolist() == [0.0]


def test_sampler_respects_separation():
    """Each chain is stratified over [-2, 2]: one draw per equal bin, each
    at least 0.2 bin widths inside its own, so draws lie 0.4 widths apart."""
    rng = np.random.default_rng(0)
    for kind in ("phi", "psi"):
        for d in range(2, 12):
            for _ in range(20):
                base, params = sample_incidence_params(kind, d, rng)
                for chain in split_params(kind, base[0], params):
                    assert np.all(np.abs(chain) < 2.0)
                    if chain.size > 1:
                        gaps = np.diff(np.sort(chain))
                        assert gaps.min() >= 0.4 * (4.0 / chain.size) * (1.0 - 1e-12)


def test_estimate_c_d_constant_and_signs():
    for kind, d, sign in (("phi", 2, -1.0), ("psi", 2, 1.0), ("phi", 3, -1.0)):
        est = estimate_c_d(kind, d, samples=30, seed=1)
        assert est.rel_dispersion < 1e-8
        assert est.mean == pytest.approx(sign, abs=1e-8)
