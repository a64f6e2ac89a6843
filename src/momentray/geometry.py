"""Incidence geometry of the moment-curve line complex.

Two line families through a point x in R^d:

    gamma(x, s)      = (s, x2 + s*x1, x3 + s*x1^2, ..., xd + s*x1^(d-1))
    gamma_star(x, t) = (t, x2 - x1*t, x3 - x1*t^2, ..., xd - x1*t^(d-1))

Alternating compositions of the two produce the iterated incidence maps
(phi starts with gamma_star, psi starts with gamma).  Their Jacobian
determinants factor into explicit products of parameter differences times
a dimensional constant; the constant is measured numerically, never
assumed.  The line steps take one point or a batch stacked along the
leading axis; the Jacobians take a batch and return one value per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PHI = "phi"
PSI = "psi"
MAP_KINDS = (PHI, PSI)


def _check_kind(kind):
    if kind not in MAP_KINDS:
        raise ValueError(f"kind must be one of {MAP_KINDS}, got {kind!r}")


def line_step(points, values, dual):
    """Move points along their lines: gamma_star(x, t) if dual, else gamma(x, s).

    points is one point (d,) or a batch (n, d); values is one parameter or
    (n,), one per point, and either side broadcasts against the other.
    """
    p = np.asarray(points, dtype=float)
    v = np.asarray(values, dtype=float)[..., None]
    if p.ndim == 0 or p.shape[-1] < 2:
        raise ValueError("points need at least 2 coordinates")
    x1 = p[..., :1]
    exps = np.arange(1, p.shape[-1])
    if dual:
        tail = p[..., 1:] - x1 * v**exps
    else:
        tail = p[..., 1:] + v * x1**exps
    return np.concatenate([np.broadcast_to(v, tail.shape[:-1] + (1,)), tail], axis=-1)


def incidence_path(base, params, kind):
    """Every point visited when the two line steps alternate from base.

    phi applies gamma_star first (params t1, s1, t2, ...), psi applies gamma
    first (s1, t2, s2, ...).  base is one point (d,) or one per row (n, d),
    params one vector (m,) or a batch (n, m); the result has shape (m, d)
    or (m, n, d), and entry j is the point after the first j + 1 steps, so
    entry -1 is the iterated map itself.
    """
    _check_kind(kind)
    point = np.asarray(base, dtype=float)
    if point.ndim not in (1, 2) or point.shape[-1] < 2:
        raise ValueError("base must be one point (d,) or one per row (n, d), d >= 2")
    params = np.asarray(params, dtype=float)
    dual = kind == PHI
    path = []
    for j in range(params.shape[-1]):
        point = line_step(point, params[..., j], dual)
        path.append(point)
        dual = not dual
    return np.stack(path)


def split_params(kind, base_first, params):
    """Split interleaved parameter vectors into (t_chain, s_chain).

    For phi the s chain is prefixed with s0 = x1 of the base point; for psi
    the t chain is prefixed with the dummy t1 = x1.  Full-depth vectors only:
    params is (d,) or (n, d), and base_first a number or (n,).
    """
    _check_kind(kind)
    params = np.asarray(params, dtype=float)
    first = np.asarray(base_first, dtype=float)[..., None]
    first = np.broadcast_to(first, params.shape[:-1] + (1,))
    chain = np.concatenate([first, params[..., 1::2]], axis=-1)
    if kind == PHI:
        return params[..., 0::2], chain
    return chain, params[..., 0::2]


def jacobian_closed_form(kind, base_first, params):
    """Factored Jacobian determinant with the dimensional constant set to 1.

    phi, d = 2k:   prod_{j=1..k} (s_j - s_{j-1}) * prod_{j<l<=k} (t_j - t_l)^4
    phi, d = 2k+1: same * prod_{j=1..k} (t_j - t_{k+1})^2
    psi, d = 2k:   (t_{k+1} - t_1) * prod_{j=1..k-1} (s_{j+1} - s_j)
                   * prod_{2<=j<l<=k} (t_j - t_l)^4
                   * prod_{j=2..k} (t_j - t_{k+1})^2 * prod_{j=2..k} (t_j - t_1)^2
    psi, d = 2k+1: prod_{j=1..k} (s_{j+1} - s_j) * prod_{2<=j<l<=k+1} (t_j - t_l)^4
                   * prod_{j=2..k+1} (t_j - t_1)^2

    Chains use s0 = x1 (phi) and t1 = x1 (psi).  params is a batch (n, d)
    (one vector (d,) is a batch of one) and base_first a number or (n,);
    the result is an (n,) array.
    """
    _check_kind(kind)
    params = np.atleast_2d(np.asarray(params, dtype=float))
    d = params.shape[-1]
    if d < 2:
        raise ValueError("need at least two parameters")
    k = d // 2
    t, s = split_params(kind, base_first, params)
    # s here is (s0, s1, ..., sk) for phi and (s1, ..., s_k or s_{k+1}) for
    # psi; t is (t1, ..., t_k or t_{k+1}) for phi and (t1, ..., t_{k+1}) for psi
    # per (kind, d odd): whether (t_{k+1} - t_1) leads, the t indices
    # [lo, hi) whose pairwise differences enter to the 4th power, and the
    # indices e whose squared differences from them enter, in this order
    lead, lo, hi, ends = {
        (PHI, 0): (False, 0, k, ()),
        (PHI, 1): (False, 0, k, (k,)),
        (PSI, 0): (True, 1, k, (k, 0)),
        (PSI, 1): (False, 1, k + 1, (0,)),
    }[kind, d % 2]
    result = np.prod(np.diff(s), axis=-1)
    if lead:
        result = result * (t[..., k] - t[..., 0])
    for j in range(lo, hi):
        for l in range(j + 1, hi):
            result = result * (t[..., j] - t[..., l]) ** 4
    for e in ends:
        result = result * np.prod((t[..., lo:hi] - t[..., e, None]) ** 2, axis=-1)
    return result


def jacobian_numeric(kind, base, params):
    """Jacobian determinant of the iterated map by central differences.

    base and params hold one point and parameter vector per row (n, d)
    (one pair (d,) is a batch of one); the result is an (n,) array.  Each
    column uses step h_j = 1e-4 * (1 + |p_j|); the determinant is recomputed
    at half step and each row's Richardson pair must agree to 1e-5 relative,
    otherwise its parameters are treated as degenerate.  Both steps of every
    row go through one incidence pass and one stacked determinant.
    """
    _check_kind(kind)
    p = np.atleast_2d(np.asarray(params, dtype=float))
    base = np.atleast_2d(np.asarray(base, dtype=float))
    if p.ndim != 2 or base.shape != p.shape or p.shape[1] < 2:
        raise ValueError("base and params must both be (d,) or both (n, d), d >= 2")
    d = p.shape[1]
    h = 1e-4 * (1.0 + np.abs(p))
    steps = np.stack([h, h / 2.0])  # (2, n, d): full and half step
    # for each step and row: rows 0..d-1 move p_j up by h_j, rows d..2d-1 down
    diag = np.arange(d)
    shifted = np.tile(p[None, :, None, :], (2, 1, 2 * d, 1))
    shifted[:, :, diag, diag] += steps
    shifted[:, :, d + diag, diag] -= steps
    bases = np.broadcast_to(base[None, :, None, :], shifted.shape)
    ends = incidence_path(bases.reshape(-1, d), shifted.reshape(-1, d), kind)[-1]
    ends = ends.reshape(shifted.shape)
    cols = (ends[..., :d, :] - ends[..., d:, :]) / (2.0 * steps[..., None])
    det_full, det_half = np.linalg.det(np.swapaxes(cols, -1, -2))
    scale = np.maximum(np.maximum(np.abs(det_full), np.abs(det_half)), 1e-300)
    if np.any(np.abs(det_full - det_half) > 1e-5 * scale):
        raise ValueError(
            "finite-difference determinants disagree beyond tolerance; "
            "parameters are likely near-degenerate"
        )
    return (4.0 * det_half - det_full) / 3.0


def _stratified(rng, count):
    """One jittered draw per equal bin of [-2, 2], in random order.

    Each draw lies at least 0.2 bin widths inside its own bin, so any two
    are at least 0.4 bin widths apart.
    """
    width = 4.0 / count
    offsets = rng.uniform(0.2, 0.8, size=count)
    vals = -2.0 + (np.arange(count) + offsets) * width
    return rng.permutation(vals)


def sample_incidence_params(kind, d, rng):
    """Draw a base point and a well-separated parameter vector.

    The t chain and the s chain (each with its base coordinate prepended
    per the map kind) are each stratified over [-2, 2] in at most
    d // 2 + 1 bins, so any two values of one chain lie at least
    1.6 / (d // 2 + 1) apart, which is at least 1e-3 for every d <= 3198.
    """
    _check_kind(kind)
    if d < 2:
        raise ValueError("d must be at least 2")
    k = d // 2
    # the chain whose first value lives on the base point, (s0, s1, ..., sk)
    # for phi and (t1, t2, ...) with the dummy t1 for psi, has k + 1 values
    n_t, n_s = (k + d % 2, k + 1) if kind == PHI else (k + 1, k + d % 2)
    ts = _stratified(rng, n_t)
    ss = _stratified(rng, n_s)
    chain, other = (ss, ts) if kind == PHI else (ts, ss)
    base = rng.uniform(-1.0, 1.0, size=d)
    base[0] = chain[0]
    params = np.empty(d)
    params[0::2] = other
    params[1::2] = chain[1:]
    return base, params


@dataclass(frozen=True)
class CdEstimate:
    """Sampled ratio of numeric to factored Jacobian determinants."""

    kind: str
    d: int
    samples: int
    mean: float
    std: float
    rel_dispersion: float
    ratio_min: float
    ratio_max: float


def estimate_c_d(kind, d, samples=100, seed=0):
    """Measure the constant relating the numeric and factored determinants.

    Draws well-separated random parameter tuples and returns the mean ratio
    together with its relative dispersion; a tiny dispersion certifies that
    the factored form captures the full parameter dependence.  At least two
    samples are needed, since one ratio always has zero dispersion.
    """
    if samples < 2:
        raise ValueError(f"samples must be at least 2, got {samples}")
    rng = np.random.default_rng(seed)
    draws = [sample_incidence_params(kind, d, rng) for _ in range(samples)]
    bases, params = (np.array(side) for side in zip(*draws))
    num = jacobian_numeric(kind, bases, params)
    ref = jacobian_closed_form(kind, bases[:, 0], params)
    if np.any(ref == 0.0):
        raise ValueError("degenerate draw: factored determinant vanished")
    ratios = num / ref
    mean = float(ratios.mean())
    std = float(ratios.std())
    if mean == 0.0:
        raise ValueError("mean ratio is zero; factored form cannot be rescaled")
    return CdEstimate(
        kind=kind,
        d=d,
        samples=samples,
        mean=mean,
        std=std,
        rel_dispersion=std / abs(mean),
        ratio_min=float(ratios.min()),
        ratio_max=float(ratios.max()),
    )
