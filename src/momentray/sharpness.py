"""Critical exponents, the boundedness triangle, the sharp example family,
and empirical checks of the incidence inequalities.

The example family lives at geometrically separated scales, so its norms
collapse to Hurwitz zeta values and the large-N scaling exponents can be
fitted against exact evaluations rather than truncated sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import zeta as _hurwitz_zeta

from .lorentz import SimpleFunction, lorentz_norm_from_steps
from .sets import Interval, _is_count, as_interval
from .transform import NoIncidence, apply_x, bilinear_form, region_cell_values

MAX_MATERIALIZED_BOXES = 500_000


# ---------------------------------------------------------------------------
# exponents and the boundedness region


def critical_exponents(d):
    """The corner exponents (p, q) of the boundedness triangle, exact."""
    d = int(d)
    if d < 2:
        raise ValueError("dimension must be at least 2")
    p = Fraction(d * (d + 1), d * d - d + 2)
    q = Fraction(d + 1, d - 1)
    return p, q


def dual_exponent(q):
    """Holder conjugate q' = q / (q - 1)."""
    q = Fraction(q)
    if q <= 1:
        raise ValueError("need q > 1")
    return q / (q - 1)


def homogeneous_dimension(d):
    """Measure-scaling exponent of the nonisotropic dilations: 1+2+...+d."""
    return d * (d + 1) // 2


def delta_region_vertices(d):
    """Vertices of the closed exponent triangle in the (1/p, 1/q) square."""
    p, q = critical_exponents(d)
    one = Fraction(1)
    zero = Fraction(0)
    return ((one, one), (zero, zero), (1 / p, 1 / q))


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def region_contains(d, p_inv, q_inv, include_boundary=True):
    """Exact membership test for the exponent triangle.

    Uses rational orientation tests against the three edges; floats are
    converted to exact binary rationals first, so there is no tolerance.
    """
    point = (Fraction(p_inv), Fraction(q_inv))
    verts = delta_region_vertices(d)
    signs = []
    for i in range(3):
        signs.append(_orient(verts[i], verts[(i + 1) % 3], point))
    has_pos = any(s > 0 for s in signs)
    has_neg = any(s < 0 for s in signs)
    if has_pos and has_neg:
        return False
    if any(s == 0 for s in signs):
        return include_boundary
    return True


def dilate_configuration(E, F, interval, delta):
    """Jointly dilate a set pair and its parameter interval.

    The line parameter scales like the first coordinate, so the pairing of
    the dilated triple equals delta^(homogeneous dimension + 1) times the
    original and the restricted weak-type ratios are exactly invariant.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    interval = as_interval(interval)
    return (
        E.dilated_nonisotropic(delta),
        F.dilated_nonisotropic(delta),
        Interval(delta * interval.lo, delta * interval.hi),
    )


# ---------------------------------------------------------------------------
# the sharp example family


@dataclass(frozen=True)
class CounterexampleSpec:
    """Index range for the multi-scale example family.

    Pieces are indexed k = n_start, n_start+1, ..., k_max.
    """

    dim: int
    n_start: int
    k_max: int

    def __post_init__(self):
        for name in ("dim", "n_start", "k_max"):
            value = getattr(self, name)
            if not _is_count(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.dim < 2:
            raise ValueError("dimension must be at least 2")
        if self.n_start < 2:
            raise ValueError("n_start must be at least 2")
        if self.k_max < self.n_start:
            raise ValueError("k_max must be at least n_start")


def resolve_k_max(spec):
    """The spec's truncation index, refused past the box budget."""
    count = spec.k_max - spec.n_start + 1
    if count > MAX_MATERIALIZED_BOXES:
        raise ValueError(
            f"k_max materializes {count} boxes; limit is {MAX_MATERIALIZED_BOXES}"
        )
    return spec.k_max


def _family(spec, half_scale, weight_of):
    """Pieces k = n_start..k_max: weight_of(k) on the box with half-sides
    half_scale k^-i centered at (0, k^2, ..., k^d), as one (n, d, 2) stack."""
    d = spec.dim
    ks = np.arange(spec.n_start, resolve_k_max(spec) + 1).astype(float)
    center = np.zeros((ks.size, d))
    center[:, 1:] = ks[:, None] ** np.arange(2, d + 1)
    half = half_scale / ks[:, None] ** np.arange(1, d + 1)
    bounds = np.stack([center - half, center + half], axis=2)
    return SimpleFunction(weight_of(ks), bounds, validate=ks.size <= 256)


def build_counterexample_f(spec):
    """Unit-weight pieces on boxes with sides 2 k^-i centered at (0, k^2, ..., k^d).

    Piece k has measure 2^d k^(-d(d+1)/2).  Consecutive centers are at least
    2k+1 apart along the second axis while the boxes are O(k^-2) thin there,
    so the supports are disjoint for every k >= 2.
    """
    return _family(spec, 1.0, np.ones_like)


def build_xf_lower_bound(spec):
    """Weight k^-1 pieces on the concentric boxes with sides k^-i.

    Piece k lives where every line of the k-th unit-weight piece dumps at
    least k^-1 of parameter mass, so the sum minorizes the transform of the
    unit-weight family whenever the parameter interval contains [-1/k, 1/k].
    """
    return _family(spec, 0.5, lambda ks: 1.0 / ks)


def counterexample_f_lp(d, n_start):
    """Exact critical-norm of the full (untruncated) unit-weight family.

    The p-th power is 2^d * zeta(d(d+1)/2, n_start).
    """
    p, _ = critical_exponents(d)
    m = homogeneous_dimension(d)
    return float((2**d * _hurwitz_zeta(m, n_start)) ** (1.0 / float(p)))


def _block_decay_exponent(d):
    # per-piece Lorentz score of the minorant decays like k^(-a)
    return (d * d - d + 2) / 2.0


def xf_lower_block_norm(d, r, n_start):
    """ell^r aggregate of per-piece Lorentz scores of the minorant, exact.

    Piece k scores (q/r)^(1/r) k^-a with a = (d^2-d+2)/2 in the secondary-
    exponent-r Lorentz scale over the critical primary exponent, so the
    aggregate is ((q/r) zeta(a r, n_start))^(1/r); r = inf gives n_start^-a.
    This blockwise functional is what the scaling study fits: it reproduces
    the family's large-N decay in a closed form, whereas the literal Lorentz
    norm of the truncated sum is dominated by its smallest pieces and decays
    at an r-independent rate (see xf_lower_exact_lorentz for that number).
    """
    _, q = critical_exponents(d)
    a = _block_decay_exponent(d)
    if np.isinf(r):
        return float(n_start) ** (-a)
    r = float(r)
    if not r > 0:
        raise ValueError("r must be positive")
    if a * r <= 1:
        raise ValueError("aggregate diverges: need a*r > 1")
    return float(((float(q) / r) * _hurwitz_zeta(a * r, n_start)) ** (1.0 / r))


def xf_lower_exact_lorentz(d, r, n_start, k_max):
    """Literal Lorentz norm of the truncated minorant via its step profile."""
    _, q = critical_exponents(d)
    m = homogeneous_dimension(d)
    ks = np.arange(n_start, k_max + 1, dtype=float)
    return lorentz_norm_from_steps(1.0 / ks, ks**-m, float(q), r)


_MINORANT_SAMPLES = 8  # sample points per minorant piece


def verify_minorant(spec, seed=0):
    """Sampled check that the transform of the family dominates the minorant.

    The parameter interval is (-1, 1), which contains [-1/n_start, 1/n_start]
    as the minorant requires.  Returns the minimum slack of (transform value
    minus piece weight) over 8 sample points per piece; nonnegative means the
    minorant held everywhere.
    """
    f = build_counterexample_f(spec)
    minorant = build_xf_lower_bound(spec)
    blo, bhi = minorant.region.los, minorant.region.his
    # one draw for every piece, in the order the per-piece draws would take
    rng = np.random.default_rng(seed)
    pts = rng.uniform(
        blo[:, None, :], bhi[:, None, :], size=(blo.shape[0], _MINORANT_SAMPLES, spec.dim)
    )
    vals = apply_x(f, (-1.0, 1.0), pts.reshape(-1, spec.dim))
    weights = np.repeat(minorant.weights, _MINORANT_SAMPLES)
    return float(np.min(vals - weights))


# ---------------------------------------------------------------------------
# scaling fits and the necessity verdict


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit on log-log axes."""

    slope: float
    intercept: float
    residual: float
    x_min: float
    x_max: float


def fit_power_law(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need at least two samples")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fitted = A @ coef
    residual = float(np.sqrt(np.mean((ly - fitted) ** 2)))
    return FitResult(
        slope=float(coef[0]),
        intercept=float(coef[1]),
        residual=residual,
        x_min=float(xs.min()),
        x_max=float(xs.max()),
    )


def predicted_f_slope(d):
    """Exact decay exponent of the family's critical norm in n_start."""
    return (Fraction(-1, 2) + Fraction(1, d * (d + 1))) * (d * d - d + 2)


def predicted_xf_slope(d, r):
    """Exact decay exponent of the minorant's blockwise norm in n_start."""
    return -(d * d - d + 2) / 2.0 + 1.0 / float(r)


DEFAULT_N_LIST = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class ScalingResult:
    dim: int
    r: float
    n_list: tuple
    fit_f: FitResult
    fit_xf: FitResult
    predicted_f: float
    predicted_xf: float


def scaling_experiment(d, r, n_list=DEFAULT_N_LIST):
    """Fit the decay of both exact norms against the starting index."""
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least 3 entries")
    norm_f = [counterexample_f_lp(d, n) for n in n_list]
    norm_xf = [xf_lower_block_norm(d, r, n) for n in n_list]
    return ScalingResult(
        dim=d,
        r=float(r),
        n_list=n_list,
        fit_f=fit_power_law(n_list, norm_f),
        fit_xf=fit_power_law(n_list, norm_xf),
        predicted_f=float(predicted_f_slope(d)),
        predicted_xf=predicted_xf_slope(d, r),
    )


@dataclass(frozen=True)
class NecessityReport:
    dim: int
    r: float
    slope_f: float
    slope_xf: float
    slope_gap: float
    verdict: str


def necessity_check(d, r, n_list=DEFAULT_N_LIST):
    """Compare fitted decay rates of the minorant norm and the input norm.

    A positive gap means the norm ratio grows without bound as the family
    index increases (the secondary exponent is too small); the verdict flips
    from "diverges" to "bounded" across the critical secondary exponent, and
    a gap within 1e-2 of zero reads "critical".
    """
    result = scaling_experiment(d, r, n_list)
    gap = result.fit_xf.slope - result.fit_f.slope
    if gap > 1e-2:
        verdict = "diverges"
    elif gap < -1e-2:
        verdict = "bounded"
    else:
        verdict = "critical"
    return NecessityReport(
        dim=d,
        r=float(r),
        slope_f=result.fit_f.slope,
        slope_xf=result.fit_xf.slope,
        slope_gap=gap,
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# restricted weak-type ratio check


@dataclass(frozen=True)
class RwtReport:
    """Measured two-sided testing ratios for a set pair."""

    value: float
    measure_e: float
    measure_f: float
    alpha: float
    beta: float
    ratio_e: float
    ratio_f: float

    @property
    def verdict(self):
        """The larger testing ratio: the number a positive floor is checked on."""
        return max(self.ratio_e, self.ratio_f)


def check_rwt(E, F, interval, quad=None):
    """Evaluate the pairing and the two testing ratios it must satisfy.

    With alpha the F-average and beta the E-average of the pairing, at least
    one of |E| / (alpha^d beta^(d(d-1)/2)) and
    |F| / (alpha^(d-1) beta^((d^2-d+2)/2)) stays above a dimensional floor.
    """
    d = E.dim
    t_value = bilinear_form(E, F, interval, quad)
    if t_value <= 0.0:
        raise NoIncidence("pairing vanished; testing ratios are undefined")
    alpha = t_value / F.measure
    beta = t_value / E.measure
    ratio_e = E.measure / (alpha**d * beta ** (d * (d - 1) // 2))
    ratio_f = F.measure / (alpha ** (d - 1) * beta ** ((d * d - d + 2) // 2))
    return RwtReport(
        value=t_value,
        measure_e=E.measure,
        measure_f=F.measure,
        alpha=alpha,
        beta=beta,
        ratio_e=ratio_e,
        ratio_f=ratio_f,
    )


# ---------------------------------------------------------------------------
# two-slice lower bound checks (primal and dual)


@dataclass(frozen=True)
class Lemma2Report:
    """Measured ratio of a subset measure to its predicted lower bound."""

    kind: str
    ratio: float
    subset_measure: float
    rhs: float
    hypothesis_min: float
    theta: float
    region_measure: float


def _primal_rhs(d, delta, a, b):
    """Primal two-slice bound delta^2 a^(d-2) b^(d(d-1)/2) on |E|."""
    return delta**2 * a ** (d - 2) * b ** (d * (d - 1) // 2)


def _dual_rhs(d, delta, a, b):
    """Dual two-slice bound delta^d a^(d-1) b^((d^2-d+2)/2-d) on |F|."""
    return delta**d * a ** (d - 1) * b ** ((d * d - d + 2) // 2 - d)


def _grid(source, region, interval, grid_n, dual):
    """Midpoint-grid cell values and volumes over region, and their pairing."""
    blocks = region_cell_values(source, region, interval, grid_n, dual=dual)
    vals = np.concatenate([b.center_values.reshape(-1) for b in blocks])
    vols = np.concatenate(
        [np.full(b.center_values.size, b.cell_volume) for b in blocks]
    )
    t_grid = float((vals * vols).sum())
    if t_grid <= 0.0:
        raise NoIncidence("no incidence on the grid")
    return vals, vols, t_grid


def _rich(vals, vols, theta):
    """Measure, pairing and smallest value of the rich set {vals >= theta}."""
    mask = vals >= theta
    return (
        float(vols[mask].sum()),
        float((vals[mask] * vols[mask]).sum()),
        float(vals[mask].min()),
    )


# thresholds of the shrinking sweep, as fractions of the largest grid value
_SWEEP_FRACS = (0.3, 0.45, 0.6, 0.75, 0.9)


def _check_theta_frac(theta_frac):
    # a fraction of the average in (0, 1] keeps the rich region non-empty
    # (the largest cell value is at least the average) and the bound real
    if not 0.0 < theta_frac <= 1.0:
        raise ValueError(f"theta_frac must lie in (0, 1], got {theta_frac!r}")


def _primal_report(E, vals, vols, theta, kind):
    """Score the rich region {vals >= theta} against the primal bound on |E|."""
    g_measure, t_over_g, hypothesis_min = _rich(vals, vols, theta)
    rhs = _primal_rhs(E.dim, theta, t_over_g / g_measure, t_over_g / E.measure)
    return Lemma2Report(
        kind=kind,
        ratio=math.inf if rhs == 0.0 else E.measure / rhs,
        subset_measure=E.measure,
        rhs=rhs,
        hypothesis_min=hypothesis_min,
        theta=theta,
        region_measure=g_measure,
    )


def _primal_grid(E, F, interval, theta_frac, grid_n):
    """The primal midpoint grid's cell values and volumes, and its report.

    The rich region collects cells whose center value clears theta_frac
    times the F-average; the pairing over it and the fiber floor both come
    from the same grid, so the accounting is internally consistent.
    """
    _check_theta_frac(theta_frac)
    vals, vols, t_grid = _grid(E, F, interval, grid_n, dual=False)
    theta = theta_frac * t_grid / F.measure
    return vals, vols, _primal_report(E, vals, vols, theta, "primal-grid")


def check_lemma2_primal(E, F, interval, theta_frac=0.5, grid_n=32):
    """The primal-grid report and the shrinking-sweep reports of one grid.

    The sweep's thresholds are fractions of the maximum grid value, so each
    rich region contains the next; its ratios should hold a common positive
    floor.  Both score rich regions of the same primal midpoint grid, which
    is evaluated once.
    """
    vals, vols, primal = _primal_grid(E, F, interval, theta_frac, grid_n)
    vmax = float(vals.max())
    sweep = [
        _primal_report(E, vals, vols, frac * vmax, "primal-sweep") for frac in _SWEEP_FRACS
    ]
    return primal, sweep


def lemma2_grid_primal(E, F, interval):
    """The primal-grid report of check_lemma2_primal, without the sweep."""
    return _primal_grid(E, F, interval, 0.5, 32)[2]


def lemma2_shrinking_sweep(E, F, interval):
    """The shrinking-sweep reports of check_lemma2_primal."""
    return check_lemma2_primal(E, F, interval)[1]


def lemma2_grid_dual(E, F, window, theta_frac=0.5, grid_n=32):
    """Grid-aligned dual check over the rich region on the source side."""
    _check_theta_frac(theta_frac)
    vals, vols, t_grid = _grid(F, E, window, grid_n, dual=True)
    theta = theta_frac * t_grid / E.measure
    h_measure, t_over_h, hypothesis_min = _rich(vals, vols, theta)
    rhs = _dual_rhs(E.dim, theta, t_over_h / F.measure, t_over_h / h_measure)
    return Lemma2Report(
        kind="dual-grid",
        ratio=math.inf if rhs == 0.0 else F.measure / rhs,
        subset_measure=F.measure,
        rhs=rhs,
        hypothesis_min=hypothesis_min,
        theta=theta,
        region_measure=h_measure,
    )


# ---------------------------------------------------------------------------
# superlevel mass bound


@dataclass(frozen=True)
class SuperlevelMassReport:
    """Mass captured by the superlevel region at the half-pairing threshold."""

    epsilon: float
    c0: float
    theta: float
    g_measure: float
    f_measure: float
    t_total: float
    t_inside: float
    t_outside: float
    constant: float
    q_prime: float
    grid_n: int


def superlevel_mass_check(E, F, interval, grid_n=48):
    """Find the threshold keeping at least half the pairing, then score it.

    epsilon normalizes the pairing by |E|^(1/p) |F|^(1/q'); the threshold
    theta = c0 * epsilon * |E|^(1/p) |F|^(1/q'-1) is the largest grid value
    whose superlevel region {vals >= theta} keeps at least half the pairing.
    The returned constant is |G| / (epsilon^q' |F|), which the theory bounds
    below uniformly.
    """
    d = E.dim
    p, q = critical_exponents(d)
    q_prime = float(dual_exponent(q))
    vals, vols, t_total = _grid(E, F, interval, grid_n, dual=False)
    eps = t_total / (E.measure ** (1.0 / float(p)) * F.measure ** (1.0 / q_prime))
    theta_unit = t_total / F.measure  # = eps |E|^(1/p) |F|^(1/q'-1)
    # values in decreasing order with the pairing they hold so far: the
    # first that reaches half the pairing is the largest such threshold
    order = np.argsort(-vals)
    held = np.cumsum(vals[order] * vols[order])
    theta = float(vals[order[np.searchsorted(held, 0.5 * t_total)]])
    g_measure, t_inside, _ = _rich(vals, vols, theta)
    return SuperlevelMassReport(
        epsilon=eps,
        c0=theta / theta_unit,
        theta=theta,
        g_measure=g_measure,
        f_measure=F.measure,
        t_total=t_total,
        t_inside=t_inside,
        t_outside=t_total - t_inside,
        constant=g_measure / (eps**q_prime * F.measure),
        q_prime=q_prime,
        grid_n=grid_n,
    )
