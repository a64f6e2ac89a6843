"""Acceptance suite: one check per shipped guarantee, with pinned gates.

Each criterion is a plain function returning a CriterionResult so tests and
the CLI share the exact same checks.  Each bound is stated once, as a Gate
row; the verdict, the PASS/FAIL line and the deterministic CSV/JSON reports
(no timestamps, repr'd floats) are all read from those rows.  The reports are
rendered to bytes in memory: the determinism criterion byte-compares them
and the CLI writes them.
"""

from __future__ import annotations

import json
import math
import operator
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .corpus import CORPUS_VERSION, build_default_corpus
from .geometry import estimate_c_d
from .lorentz import SimpleFunction, lorentz_norm, lp_norm
from .refinement import (
    build_tower,
    check_tower_structure,
    enumerate_tower_bruteforce,
)
from .sets import BoxUnionSet
from .sharpness import (
    check_lemma2_primal,
    check_rwt,
    critical_exponents,
    lemma2_grid_dual,
    scaling_experiment,
    xf_lower_block_norm,
    xf_lower_exact_lorentz,
)
from .transform import QuadSpec, adjointness_gap, bilinear_form

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Gate:
    """One acceptance bound: the gate passes when ``value op bound``.

    headroom is how far the value lies inside the bound, negative outside
    it; an ``==`` gate has none.
    """

    metric: str
    value: object
    op: str
    bound: object

    @property
    def passed(self):
        return bool(_OPS[self.op](self.value, self.bound))

    @property
    def headroom(self):
        if self.op == "==":
            return None
        return self.bound - self.value if "<" in self.op else self.value - self.bound


@dataclass
class CriterionResult:
    """A criterion's gate rows plus the ungated values it reports."""

    index: int
    name: str
    gates: list
    info: dict

    @property
    def passed(self):
        return all(g.passed for g in self.gates)

    @property
    def details(self):
        return {**self.info, **{g.metric: g.value for g in self.gates}}

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        parts = [f"{k}={_fmt(v)}" for k, v in self.info.items()]
        parts += [
            f"{g.metric}={_fmt(g.value)} ({g.op} {_fmt(g.bound)})"
            for g in self.gates
        ]
        return f"[{status}] criterion {self.index} ({self.name}): {', '.join(parts)}"


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def random_box_pair(d, rng, max_boxes=2):
    """A disjoint source/target pair with usable first-axis extent.

    First-axis cuts keep every box at least 0.15 wide so fibers are not
    degenerate; the other axes straddle the origin with varied aspect.
    d = 1 has no line complex and is refused.
    """
    if d < 2:
        raise ValueError(f"box pair dims must be at least 2, got {d}")

    def union(n):
        while True:
            cuts = np.sort(rng.uniform(-1.0, 1.0, n + 1))
            cuts[0] -= 0.02
            cuts[-1] += 0.02
            if np.all(np.diff(cuts) >= 0.15):
                break
        boxes = []
        for i in range(n):
            bounds = [[cuts[i], cuts[i + 1]]]
            for _ in range(d - 1):
                bounds.append([rng.uniform(-0.8, -0.1), rng.uniform(0.1, 0.8)])
            boxes.append(np.asarray(bounds))
        return BoxUnionSet(boxes)

    n_e = int(rng.integers(1, max_boxes + 1))
    n_f = int(rng.integers(1, max_boxes + 1))
    return union(n_e), union(n_f)


def criterion_1_jacobian_constancy(seed, profile):
    """Numeric/factored determinant ratio is a dimensional constant.

    Gated over both map families and every dimension: the worst relative
    dispersion, the smallest |mean|, and in the plane each mean's distance
    from its constant, -1 (dual-first) and +1 (forward-first), an oracle
    derived by hand from the 2x2 determinants.
    """
    dims = (2, 3, 4, 5, 6, 7) if profile == "full" else (2, 3)
    samples = 100 if profile == "full" else 40
    ests = {
        (kind, d): estimate_c_d(kind, d, samples=samples, seed=seed + d)
        for kind in ("phi", "psi")
        for d in dims
    }
    plane = {"phi": -1.0, "psi": 1.0}
    info = {f"mean_{kind}_d2": ests[kind, 2].mean for kind in plane}
    info["dims"] = "-".join(str(d) for d in dims)
    dispersion = float(np.max([e.rel_dispersion for e in ests.values()]))
    gates = [
        Gate("max_dispersion", dispersion, "<", 1e-6),
        Gate("min_abs_mean", min(abs(e.mean) for e in ests.values()), ">", 0.0),
    ]
    gates += [
        Gate(f"err_mean_{kind}_d2", abs(ests[kind, 2].mean - target), "<=", 1e-6)
        for kind, target in plane.items()
    ]
    return CriterionResult(1, "jacobian-constancy", gates, info)


def criterion_2_adjointness(seed, profile):
    """Forward and dual pairings agree on random box pairs.

    Gated: the worst relative gap, default quadrature, in each of d = 2, 3.
    """
    n_pairs = 50 if profile == "full" else 8
    info = {"pairs": n_pairs}
    gates = []
    for d in (2, 3):
        rng = np.random.default_rng(seed + 100 * d)
        gaps = []
        for _ in range(n_pairs):
            E, F = random_box_pair(d, rng)
            spans = (E.first_axis_span(), F.first_axis_span())
            gaps.append(adjointness_gap(E, F, *spans))
        info[f"min_pairing_d{d}"] = min(g["primal"] for g in gaps)
        worst = float(np.max([g["rel_gap"] for g in gaps]))
        gates.append(Gate(f"worst_rel_d{d}", worst, "<=", 1e-3))
    return CriterionResult(2, "adjointness", gates, info)


def criterion_3_unit_square_pairing(seed, profile):
    """Unit-square pairing and testing ratio equal their hand values.

    For E = F = [0,1]^2 and I = [0,1] the pairing is
    int_0^1 int_0^1 |{s in [0,1] : x2 + s*x1 in [0,1]}| dx = 3/4 by direct
    integration, so alpha = beta = 3/4 and the testing ratio is
    (1 / (3/4))^3 = 64/27.
    The second route is the tensor midpoint rule m(n) at step 1/n,
    extrapolated as (4 m(1024) - m(512)) / 3 (Richardson, 1911), which
    cancels its error's h^2 term.  Gated: the pairing's error under the
    default layered quadrature and under that extrapolation; from below and
    above, the midpoint rule's observed order
    log2((m(256) - m(512)) / (m(512) - m(1024))), so a first-order grid
    fails; and the errors of alpha, beta and the testing ratio.
    """
    unit = BoxUnionSet([np.array([[0.0, 1.0], [0.0, 1.0]])])
    rwt = check_rwt(unit, unit, (0.0, 1.0))
    m256, m512, m1024 = (
        bilinear_form(unit, unit, (0.0, 1.0), QuadSpec(method="midpoint", step=1.0 / n))
        for n in (256, 512, 1024)
    )
    midpoint = (4.0 * m1024 - m512) / 3.0
    coarse, fine = m256 - m512, m512 - m1024
    # NaN, which fails both order rows, when the steps do not shrink alike
    order = math.log2(coarse / fine) if coarse * fine > 0.0 else math.nan
    info = {"layered": rwt.t_value, "midpoint_512": m512, "midpoint_1024": m1024}
    gates = [
        Gate(f"err_{route}", abs(value - 0.75), "<=", 1e-6)
        for route, value in (("layered", rwt.t_value), ("midpoint", midpoint))
    ]
    gates += [
        Gate("order_midpoint", order, ">=", 1.5),
        Gate("order_midpoint", order, "<=", 2.5),
    ]
    hand = {"alpha": 0.75, "beta": 0.75, "ratio": 64 / 27}
    gates += [
        Gate(f"err_{key}", abs(getattr(rwt, key) - want), "<=", 1e-12)
        for key, want in hand.items()
    ]
    return CriterionResult(3, "unit-square-pairing", gates, info)


def criterion_4_family_scaling(seed, profile):
    """Norm decay of the shrinking family matches the exact exponents.

    Gated for d = 2, 3, 4: the relative error of both fitted slopes against
    their closed-form predictions; the absolute gap between the two slopes
    at the critical secondary exponent; the necessity verdicts, which
    must read diverges below that exponent and bounded above it; and a
    second route to the Hurwitz zeta closed form: at r = q the Lorentz norm
    is the L^q norm, additive over disjoint pieces, so the minorant's
    blockwise norm from n = 4 is its literal Lorentz norm, which the step
    profile of pieces 4..2000 gives up to the truncated tail (about 6e-15
    of the norm at d = 2, less above).

    Every row checks closed-form arithmetic, and none calls the transform.
    Each fitted slope is the asymptotic of its own closed form (a Hurwitz
    zeta value for f, an ell^r sum of per-piece scores for Xf), so the slope
    gap is 1/r - 1/p by algebra and the verdicts flip at r = p whatever the
    transform computes; the zeta route compares two forms that agree by
    additivity.
    """
    info = {}
    gates = []
    for d in (2, 3, 4):
        p_d, q_d = critical_exponents(d)
        res = scaling_experiment(d, r=float(p_d))
        info[f"slope_f_d{d}"] = res.fit_f.slope
        for route, fit, predicted in (
            ("f", res.fit_f, res.predicted_f),
            ("xf", res.fit_xf, res.predicted_xf),
        ):
            rel = abs(fit.slope - predicted) / abs(predicted)
            gates.append(Gate(f"rel_err_{route}_d{d}", rel, "<=", 0.03))
        gap = abs(res.fit_f.slope - res.fit_xf.slope)
        gates.append(Gate(f"slope_gap_d{d}", gap, "<=", 1e-2))
        low = scaling_experiment(d, r=0.9 * float(p_d))
        high = scaling_experiment(d, r=1.1 * float(p_d))
        verdicts = f"{low.verdict}/{high.verdict}"
        gates.append(Gate(f"verdicts_d{d}", verdicts, "==", "diverges/bounded"))
        closed = xf_lower_block_norm(d, float(q_d), 4)
        stepped = xf_lower_exact_lorentz(d, float(q_d), 4, 2000)
        gates.append(Gate(f"zeta_route_rel_d{d}", abs(stepped - closed) / closed, "<=", 1e-12))
    return CriterionResult(4, "family-scaling", gates, info)


def _random_simple_function(rng, d):
    n_cell = 4
    width = 2.0 / n_cell
    total = n_cell**d
    k = int(rng.integers(1, 5))
    chosen = rng.choice(total, size=k, replace=False)
    supports = []
    for flat in sorted(chosen):
        idx = np.unravel_index(flat, (n_cell,) * d)
        lo = -1.0 + np.asarray(idx, dtype=float) * width + 0.02 * width
        hi = lo + rng.uniform(0.3, 0.96) * width
        supports.append(BoxUnionSet([np.stack([lo, hi], axis=1)]))
    weights = rng.uniform(0.1, 5.0, size=k)
    return SimpleFunction(weights, supports)


def criterion_5_lorentz_identity(seed, profile):
    """Lorentz norm at equal exponents reproduces the Lebesgue norm.

    Gated: the worst relative disagreement with the Lebesgue norm on random
    simple functions, and with the indicator closed form
    (s/r)^(1/r) |A|^(1/s), the sup-type secondary exponent included.
    """
    count = 100 if profile == "full" else 20
    rng = np.random.default_rng(seed + 11)
    worst = 0.0
    for i in range(count):
        d = 2 + (i % 3)
        f = _random_simple_function(rng, d)
        p = float(rng.uniform(0.5, 4.0))
        a = lorentz_norm(f, p, p)
        b = lp_norm(f, p)
        worst = max(worst, abs(a - b) / b)
    area = BoxUnionSet([np.array([[0.0, 0.5], [0.0, 0.8]])])
    indicator = SimpleFunction([1.0], [area])
    worst_chi = 0.0
    for s, r in ((1.5, 2.5), (2.0, 1.0), (3.0, 0.7), (1.2, 4.0), (2.0, np.inf)):
        got = lorentz_norm(indicator, s, r)
        want = (s / r) ** (1.0 / r) * area.measure ** (1.0 / s)
        worst_chi = max(worst_chi, abs(got - want) / want)
    gates = [
        Gate("worst_rel", worst, "<=", 1e-10),
        Gate("worst_chi_rel", worst_chi, "<=", 1e-12),
    ]
    return CriterionResult(5, "lorentz-identity", gates, {"functions": count})


def criterion_6_testing_ratio_floor(seed, profile):
    """The testing ratio holds a positive floor over the corpus.

    Gated: the corpus floor of the testing ratio, and the worst factor by
    which an entry's ratio moves when the quadrature step is halved.
    """
    corpus = build_default_corpus()
    if profile != "full":
        corpus = corpus[:8]
    # the testing ratio at the default and at the halved quadrature step
    halved = QuadSpec(step=QuadSpec().step / 2.0)
    bases = [check_rwt(e.E, e.F, e.interval).ratio for e in corpus]
    fines = [check_rwt(e.E, e.F, e.interval, halved).ratio for e in corpus]
    worst = int(np.argmin(bases))
    drifts = [max(b, f) / min(b, f) for b, f in zip(bases, fines)]
    gates = [
        Gate("floor", bases[worst], ">=", 0.01),
        Gate("worst_drift", max(drifts), "<=", 2.0),
    ]
    info = {
        "entries": len(corpus),
        "floor_halved_step": min(fines),
        "worst_entry": corpus[worst].entry_id,
    }
    return CriterionResult(6, "testing-ratio-floor", gates, info)


def criterion_7_rich_set_floors(seed, profile):
    """Rich-subset ratios stay above their measured floors on the corpus.

    Gated, with bounds pinned at roughly half to a quarter of the measured
    corpus minima: the corpus floors of the grid-aligned primal and dual
    ratios; the smallest shrinking-sweep ratio; and the corpus floor at the
    last sweep step over the floor at the first.
    """
    corpus = build_default_corpus()
    if profile != "full":
        corpus = corpus[:8]
    primal, dual, sweeps = [], [], []
    for entry in corpus:
        grid_report, sweep = check_lemma2_primal(entry.E, entry.F, entry.interval)
        primal.append(grid_report.ratio)
        dual.append(lemma2_grid_dual(entry.E, entry.F, entry.window).ratio)
        sweeps.append([rep.ratio for rep in sweep])
    step_floors = np.min(sweeps, axis=0)
    decay = float(step_floors[-1] / step_floors[0])
    gates = [
        Gate("floor_primal", float(np.min(primal)), ">=", 1.0),
        Gate("floor_dual", float(np.min(dual)), ">=", 1.0),
        Gate("sweep_min", float(step_floors.min()), ">=", 0.5),
        Gate("sweep_last_over_first", decay, ">=", 0.25),
    ]
    return CriterionResult(7, "rich-set-floors", gates, {"entries": len(corpus)})


def criterion_8_tower_oracle(seed, profile):
    """Plane towers match exhaustive enumeration and their invariants.

    Gated: the fraction of sampled tuples passing the structural check, and
    from below and above, the ratio of each level measure to the 64^2-grid
    enumeration from the same base point (inf where that level is empty).
    """
    unit = BoxUnionSet([np.array([[0.0, 1.0], [0.0, 1.0]])])
    configs = {
        "unit": (unit, unit),
        "split": (
            BoxUnionSet(
                [
                    np.array([[-0.6, -0.1], [0.0, 0.8]]),
                    np.array([[0.1, 0.7], [-0.5, 0.3]]),
                ]
            ),
            BoxUnionSet([np.array([[-0.4, 0.5], [-0.2, 0.6]])]),
        ),
    }
    samples = 200 if profile == "full" else 60
    ratios = {}
    min_structure = 1.0
    for tag, (E, F) in configs.items():
        interval, window = E.first_axis_span(), F.first_axis_span()
        for start in ("phi", "psi"):
            tower = build_tower(E, F, interval, window, start=start)
            frac, _ = check_tower_structure(tower, samples=samples, seed=seed)
            min_structure = min(min_structure, frac)
            brute = enumerate_tower_bruteforce(
                E, F, tower.base, interval, window, start=start, grid_n=64
            )
            for level, ref in zip(tower.levels, brute):
                metric = f"oracle_ratio_{tag}_{start}_l{level.label}"
                ratios[metric] = level.measure / ref if ref > 0.0 else float("inf")
    gates = [Gate("structure_fraction", min_structure, ">=", 1.0)]
    for metric, ratio in ratios.items():
        gates += [Gate(metric, ratio, ">=", 0.5), Gate(metric, ratio, "<=", 2.0)]
    factors = [max(r, 1 / r) if r > 0.0 else float("inf") for r in ratios.values()]
    info = {"worst_factor": max(factors)}
    return CriterionResult(8, "tower-oracle", gates, info)


def criterion_9_determinism(seed, profile, results):
    """A run and one fresh rerun of criteria 1-8 render byte-identical reports.

    results are criteria 1-8 of the run this criterion belongs to: their
    reports are one side and one fresh rerun at the same profile the other,
    so every size the run used and its first calls are compared.
    """
    rerun = [fn(seed=seed, profile=profile) for fn in ALL_CRITERIA[:-1]]
    first = _render_reports(results, seed, profile)
    identical = first == _render_reports(rerun, seed, profile)
    gates = [Gate("identical", identical, "==", True)]
    return CriterionResult(9, "determinism", gates, {"files": len(first)})


ALL_CRITERIA = (
    criterion_1_jacobian_constancy,
    criterion_2_adjointness,
    criterion_3_unit_square_pairing,
    criterion_4_family_scaling,
    criterion_5_lorentz_identity,
    criterion_6_testing_ratio_floor,
    criterion_7_rich_set_floors,
    criterion_8_tower_oracle,
    criterion_9_determinism,
)


@dataclass
class SuiteResult:
    results: list
    seconds: dict  # criterion index -> wall seconds; never in the reports
    reports: dict  # report file name -> its bytes

    @property
    def passed(self):
        return all(r.passed for r in self.results)


def _text(value):
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def _render_reports(results, seed, profile):
    """The bytes of each report file of a run with these results, by file name."""
    meta = {
        "suite": "momentray-acceptance",
        "version": __version__,
        "corpus_version": CORPUS_VERSION,
        "seed": seed,
        "profile": profile,
    }
    lines = [f"# {key}={value}\n" for key, value in meta.items()]
    lines.append("criterion,name,status,metric,value,op,bound,headroom\n")
    for res in results:
        head = f"{res.index},{res.name},{'pass' if res.passed else 'fail'}"
        for key, value in res.info.items():
            lines.append(f"{head},{key},{_text(value)},,,\n")
        for g in res.gates:
            cells = (g.metric, g.value, g.op, g.bound, g.headroom)
            lines.append(f"{head},{','.join(map(_text, cells))}\n")
    payload = {
        **meta,
        "passed": all(r.passed for r in results),
        "criteria": [
            {
                "index": res.index,
                "name": res.name,
                "passed": res.passed,
                "details": res.details,
                "gates": [{**asdict(g), "headroom": g.headroom} for g in res.gates],
            }
            for res in results
        ],
    }
    summary = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return {
        "acceptance_results.csv": "".join(lines).encode(),
        "acceptance_summary.json": summary.encode(),
    }


def run_suite(seed=0, profile="full"):
    """Run criteria 1-8, then criterion 9 on their results; render the reports."""
    if profile not in ("full", "quick"):
        raise ValueError("profile must be 'full' or 'quick'")
    *checks, determinism = ALL_CRITERIA
    results = []
    seconds = {}

    def timed(fn, **kwargs):
        start = time.perf_counter()
        res = fn(seed=seed, profile=profile, **kwargs)
        seconds[res.index] = time.perf_counter() - start
        results.append(res)

    for fn in checks:
        timed(fn)
    timed(determinism, results=list(results))
    return SuiteResult(
        results=results,
        seconds=seconds,
        reports=_render_reports(results, seed, profile),
    )
