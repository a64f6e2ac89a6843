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
from typing import NamedTuple

import numpy as np

from .lorentz import lorentz_norm_from_steps
from .sets import BoxUnionSet, Interval, _is_count, as_interval
from .transform import NoIncidence, bilinear_form, fiber_measure_batch, region_cell_values

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
    original and the restricted weak-type testing ratio is exactly invariant.
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

    Pieces are indexed k = n_start, n_start+1, ..., k_max.  No box is built:
    verify_minorant draws 8 points of d coordinates per piece, so a range of
    more than MAX_MATERIALIZED_BOXES pieces is refused here.
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
        count = self.k_max - self.n_start + 1
        if count > MAX_MATERIALIZED_BOXES:
            raise ValueError(
                f"k_max asks for {count} pieces; limit is {MAX_MATERIALIZED_BOXES}"
            )


# Bernoulli numbers B_2, B_4, ..., B_20, over (2j)!
_BERNOULLI_TERMS = tuple(
    float(b / math.factorial(2 * j))
    for j, b in enumerate(
        (
            Fraction(1, 6),
            Fraction(-1, 30),
            Fraction(1, 42),
            Fraction(-1, 30),
            Fraction(5, 66),
            Fraction(-691, 2730),
            Fraction(7, 6),
            Fraction(-3617, 510),
            Fraction(43867, 798),
            Fraction(-174611, 330),
        ),
        start=1,
    )
)
_ZETA_DIRECT = 12  # terms summed directly before the Euler-Maclaurin tail


def _hurwitz_zeta(s, a):
    """Hurwitz zeta sum over k >= 0 of (a + k)^-s, for real s > 1 and a > 0.

    Euler-Maclaurin (DLMF 25.11): N = 12 direct terms, then at
    x = a + N the integral term x^(1-s) / (s-1), the half term x^-s / 2 and
    M = 10 corrections B_2j / (2j)! s (s+1) ... (s+2j-2) x^(-s-2j+1); the
    direct terms and the tail are each summed with math.fsum.  The
    truncation error is at most
    4 s (s+1) ... (s+2M-1) x^(-s-2M+1) / ((2 pi)^(2M) (s+2M-1))
    (Johansson, Numer. Algorithms 2015).  Relative to zeta(s, a) > a^-s that
    is 4 s (s+1) ... (s+2M-2) x^(1-2M) (a/x)^s / (2 pi)^(2M), which grows with
    a toward its supremum 4 ((2M-1)/N)^(2M-1) e^(1-2M) / (2 pi)^(2M), about
    1.5e-20 at N = 12 and M = 10, so for every s > 1 and a > 0 it lies far
    below one ulp (2^-53, about 1.1e-16) and only rounding is left.

    s <= 1 (a pole or a divergent sum), a <= 0 and non-finite arguments are
    refused with ValueError, not returned as inf or nan.
    """
    s, a = float(s), float(a)
    if not (math.isfinite(s) and math.isfinite(a)):
        raise ValueError(f"Hurwitz zeta needs finite arguments, got s={s!r}, a={a!r}")
    if s <= 1.0:
        raise ValueError(f"Hurwitz zeta needs s > 1, got {s!r}")
    if a <= 0.0:
        raise ValueError(f"Hurwitz zeta needs a > 0, got {a!r}")
    x = a + _ZETA_DIRECT
    tail = [x ** (1.0 - s) / (s - 1.0), 0.5 * x**-s]
    rising = s * x ** (-s - 1.0)  # s (s+1) ... (s+2j-2) x^(-s-2j+1) at j = 1
    for j, coef in enumerate(_BERNOULLI_TERMS, start=1):
        tail.append(coef * rising)
        # left to right, so a rising term that underflowed to 0 stays 0
        rising = rising * (s + 2 * j - 1) / x * (s + 2 * j) / x
    return math.fsum((a + k) ** -s for k in range(_ZETA_DIRECT)) + math.fsum(tail)


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
    """Sampled check that the transform of the family dominates the minorant,
    each piece in its own coordinates.

    Piece k of the family is E_k = c_k + delta_{1/k} Q, with Q = [-1, 1]^d,
    c_k = (0, k^2, ..., k^d) and delta_{1/k} the nonisotropic dilation by
    1/k; the minorant's piece k, of weight 1/k, is c_k + delta_{1/k}(Q/2).
    By translation and dilation covariance, over the parameter interval
    (-1, 1), X chi_{E_k}(x) = g(delta_k(x - c_k)) / k, where g is Q's
    transform over (-1, 1): the dilation takes the interval to (-k, k), and
    a line meets Q only at parameters in Q's first-axis span [-1, 1].
    Since f >= chi_{E_k}, piece k's part of the minorant holds where
    g / k >= 1 / k on Q/2.  Returns the minimum slack of g(u) / k - 1 / k
    over 8 points u drawn uniformly in Q/2 per piece; nonnegative means the
    minorant held at every sample.  No centre c_k is formed, so a piece
    whose sides lie below one ulp of its centre is checked like any other.
    """
    ks = np.arange(spec.n_start, spec.k_max + 1).astype(float)[:, None]
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.5, 0.5, size=(ks.size, _MINORANT_SAMPLES, spec.dim))
    cube = BoxUnionSet([[[-1.0, 1.0]] * spec.dim])
    g = fiber_measure_batch(cube, u.reshape(-1, spec.dim), (-1.0, 1.0), dual=False)
    return float(np.min(g.reshape(ks.size, -1) / ks - 1.0 / ks))


# ---------------------------------------------------------------------------
# scaling fits and the necessity verdict


@dataclass(frozen=True)
class FitResult:
    """Least-squares power-law fit on log-log axes."""

    slope: float
    residual: float


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
    return FitResult(slope=float(coef[0]), residual=residual)


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
    norm_f: tuple  # the fitted norms, one per n_list entry
    norm_xf: tuple

    @property
    def slope_gap(self):
        """Fitted decay slope of the minorant norm minus that of the input norm."""
        return self.fit_xf.slope - self.fit_f.slope

    @property
    def verdict(self):
        """The necessity verdict on the norm ratio as the family index grows.

        A positive gap means the ratio grows without bound (the secondary
        exponent is too small); the verdict flips from "diverges" to
        "bounded" across the critical secondary exponent, and a gap within
        1e-2 of zero reads "critical".
        """
        if self.slope_gap > 1e-2:
            return "diverges"
        if self.slope_gap < -1e-2:
            return "bounded"
        return "critical"


def scaling_experiment(d, r, n_list=DEFAULT_N_LIST):
    """Fit the decay of both exact norms against the starting index."""
    n_list = tuple(int(n) for n in n_list)
    if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be increasing with at least 3 entries")
    norm_f = tuple(counterexample_f_lp(d, n) for n in n_list)
    norm_xf = tuple(xf_lower_block_norm(d, r, n) for n in n_list)
    return ScalingResult(
        dim=d,
        r=float(r),
        n_list=n_list,
        fit_f=fit_power_law(n_list, norm_f),
        fit_xf=fit_power_law(n_list, norm_xf),
        predicted_f=float(predicted_f_slope(d)),
        predicted_xf=predicted_xf_slope(d, r),
        norm_f=norm_f,
        norm_xf=norm_xf,
    )


# ---------------------------------------------------------------------------
# restricted weak-type ratio check


@dataclass(frozen=True)
class RwtReport:
    """The pairing of a set pair, its two measures and averages, and the one
    restricted weak-type testing ratio."""

    t_value: float
    measure_e: float
    measure_f: float
    alpha: float
    beta: float
    ratio: float


def check_rwt(E, F, interval, quad=None):
    """Evaluate the pairing T and the testing ratio of the endpoint bound.

    The ratio is (|E|^(1/p) |F|^(1/q') / T)^m with (p, q) the critical
    exponents and m = d(d+1)/2, that is |E|^((d^2-d+2)/2) |F|^d / T^m.  It
    is formed from that root, each measure under a power below 1 and the
    m-th power taken last, so it keeps full precision wherever it is a
    finite float; the alpha/beta forms lose a small average raised to the
    power d below the smallest normal float.  A ratio that is not a finite
    float is refused with ValueError.
    """
    d = E.dim
    t_value = bilinear_form(E, F, interval, quad)
    if t_value <= 0.0:
        raise NoIncidence("pairing vanished; the testing ratio is undefined")
    p, q = critical_exponents(d)
    root = E.measure ** float(1 / p) * F.measure ** float(1 / dual_exponent(q)) / t_value
    try:
        ratio = root ** homogeneous_dimension(d)
    except OverflowError:
        ratio = math.inf
    if not math.isfinite(ratio):
        raise ValueError(f"the testing ratio is not a finite float (its m-th root is {root!r})")
    return RwtReport(
        t_value=t_value,
        measure_e=E.measure,
        measure_f=F.measure,
        alpha=t_value / F.measure,
        beta=t_value / E.measure,
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# two-slice lower bound checks (primal and dual)


@dataclass(frozen=True)
class Lemma2Report:
    """Measured ratio of a subset measure to its predicted lower bound."""

    theta: float
    region_measure: float
    subset_measure: float
    rhs: float
    ratio: float


def _primal_rhs(d, delta, a, b):
    """Primal two-slice bound delta^2 a^(d-2) b^(d(d-1)/2) on |E|."""
    return delta**2 * a ** (d - 2) * b ** (d * (d - 1) // 2)


def _dual_rhs(d, delta, a, b):
    """Dual two-slice bound delta^d a^(d-1) b^((d^2-d+2)/2-d) on |F|."""
    return delta**d * a ** (d - 1) * b ** ((d * d - d + 2) // 2 - d)


def _two_slice(d, delta, t_value, e_measure, f_measure, dual):
    """(subject, rhs, ratio): the two-slice bound rhs with a = t_value /
    f_measure and b = t_value / e_measure, on the subject |E| (primal) or
    |F| (dual), and the subject's ratio to it.  A grid check passes its rich
    region as the side the grid lies over; a tower passes the pair itself."""
    bound, subject = (_dual_rhs, f_measure) if dual else (_primal_rhs, e_measure)
    rhs = bound(d, delta, t_value / f_measure, t_value / e_measure)
    return subject, rhs, math.inf if rhs == 0.0 else subject / rhs


class _Grid(NamedTuple):
    """Midpoint-grid cell values and volumes, their products (each cell's
    mass) and the pairing, the masses' sum."""

    vals: np.ndarray
    vols: np.ndarray
    mass: np.ndarray
    total: float


def _grid(source, region, interval, grid_n, dual):
    """The midpoint grid of source's transform over region's boxes."""
    blocks = region_cell_values(source, region, interval, grid_n, dual=dual)
    vals = [b.center_values.reshape(-1) for b in blocks]
    vols = [np.full(v.size, b.cell_volume) for v, b in zip(vals, blocks)]
    # one box's grid is used as it stands, not copied
    vals, vols = (a[0] if len(a) == 1 else np.concatenate(a) for a in (vals, vols))
    mass = vals * vols
    t_grid = float(mass.sum())
    if t_grid <= 0.0:
        raise NoIncidence("no incidence on the grid")
    return _Grid(vals, vols, mass, t_grid)


# thresholds of the shrinking sweep, as fractions of the largest grid value
_SWEEP_FRACS = (0.3, 0.45, 0.6, 0.75, 0.9)


def _rich_report(source, grid, theta, dual):
    """Score the rich region {vals >= theta} of a grid of source's transform:
    it stands in for F on the primal route (source E) and for E on the dual
    route (source F).  Every caller's theta is at most the largest grid
    value, so the region is never empty."""
    mask = grid.vals >= theta
    measure, t_rich = float(grid.vols[mask].sum()), float(grid.mass[mask].sum())
    sides = (measure, source.measure) if dual else (source.measure, measure)
    subject, rhs, ratio = _two_slice(source.dim, theta, t_rich, *sides, dual)
    return Lemma2Report(
        theta=theta,
        region_measure=measure,
        subset_measure=subject,
        rhs=rhs,
        ratio=ratio,
    )


def _lemma2_grid(source, region, span, theta_frac, grid_n, dual):
    """The midpoint grid of source's transform over region, as _grid gives
    it, and its report.

    The rich region collects cells whose center value clears theta_frac
    times the grid average over region, capped at the largest grid value:
    at theta_frac = 1 a constant grid's average can round one ulp above its
    value, which would leave no rich cell.  The pairing over the rich region
    and the fiber floor both come from the same grid, so the accounting is
    internally consistent.
    """
    # a fraction of the average in (0, 1] keeps the bound real
    if not 0.0 < theta_frac <= 1.0:
        raise ValueError(f"theta_frac must lie in (0, 1], got {theta_frac!r}")
    grid = _grid(source, region, span, grid_n, dual)
    theta = min(theta_frac * grid.total / region.measure, float(grid.vals.max()))
    return grid, _rich_report(source, grid, theta, dual)


def check_lemma2_primal(E, F, interval, theta_frac=0.5, grid_n=32):
    """The primal-grid report and the shrinking-sweep reports of one grid.

    The sweep's thresholds are fractions of the maximum grid value, so each
    rich region contains the next; its ratios should hold a common positive
    floor.  Both score rich regions of the same primal midpoint grid, which
    is evaluated once.
    """
    grid, primal = _lemma2_grid(E, F, interval, theta_frac, grid_n, dual=False)
    vmax = float(grid.vals.max())
    sweep = [_rich_report(E, grid, frac * vmax, dual=False) for frac in _SWEEP_FRACS]
    return primal, sweep


def lemma2_grid_primal(E, F, interval):
    """The primal-grid report of check_lemma2_primal, without the sweep."""
    return _lemma2_grid(E, F, interval, 0.5, 32, dual=False)[1]


def lemma2_shrinking_sweep(E, F, interval):
    """The shrinking-sweep reports of check_lemma2_primal."""
    return check_lemma2_primal(E, F, interval)[1]


def lemma2_grid_dual(E, F, window, theta_frac=0.5, grid_n=32):
    """Grid-aligned dual check over the rich region on the source side."""
    return _lemma2_grid(F, E, window, theta_frac, grid_n, dual=True)[1]
