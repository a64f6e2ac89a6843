"""Acceptance suite: one test per gate, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the same checks back the `momentray acceptance` subcommand.
"""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from momentray import acceptance
from momentray.acceptance import (
    Gate,
    criterion_1_jacobian_constancy,
    criterion_2_adjointness,
    criterion_3_unit_square_pairing,
    criterion_4_family_scaling,
    criterion_5_lorentz_identity,
    criterion_6_testing_ratio_floor,
    criterion_7_rich_set_floors,
    criterion_8_tower_oracle,
    criterion_9_determinism,
    run_suite,
)
from momentray.corpus import build_default_corpus
from momentray.sets import BoxUnionSet

# Every gate of the quick profile, in suite order: (criterion, metric, op,
# bound).  A bound loosened or a gate dropped in the package fails here.
QUICK_GATES = [
    (1, "max_dispersion", "<", 1e-6),
    (1, "min_abs_mean", ">", 0.0),
    (1, "err_mean_phi_d2", "<=", 1e-6),
    (1, "err_mean_psi_d2", "<=", 1e-6),
    (2, "worst_rel_d2", "<=", 1e-3),
    (2, "worst_rel_d3", "<=", 1e-3),
    (3, "err_layered", "<=", 1e-6),
    (3, "err_midpoint", "<=", 1e-6),
    (3, "order_midpoint", ">=", 1.5),
    (3, "order_midpoint", "<=", 2.5),
    (3, "err_alpha", "<=", 1e-12),
    (3, "err_beta", "<=", 1e-12),
    (3, "err_ratio", "<=", 1e-12),
    *[
        (4, f"{name}_d{d}", op, bound)
        for d in (2, 3, 4)
        for name, op, bound in (
            ("rel_err_f", "<=", 0.03),
            ("rel_err_xf", "<=", 0.03),
            ("slope_gap", "<=", 1e-2),
            ("verdicts", "==", "diverges/bounded"),
            ("zeta_route_rel", "<=", 1e-12),
        )
    ],
    (5, "worst_rel", "<=", 1e-10),
    (5, "worst_chi_rel", "<=", 1e-12),
    (6, "floor", ">=", 0.01),
    (6, "worst_drift", "<=", 2.0),
    (7, "floor_primal", ">=", 1.0),
    (7, "floor_dual", ">=", 1.0),
    (7, "sweep_min", ">=", 0.5),
    (7, "sweep_last_over_first", ">=", 0.25),
    (8, "structure_fraction", ">=", 1.0),
    *[
        (8, f"oracle_ratio_{config}_{level}", op, bound)
        for config in ("unit", "split")
        for level in ("phi_l1", "phi_l2", "psi_l2", "psi_l3")
        for op, bound in ((">=", 0.5), ("<=", 2.0))
    ],
    (9, "identical", "==", True),
]


def _check(criterion):
    result = criterion(seed=0, profile="full")
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_jacobian_constant_on_parameter_space():
    res = _check(criterion_1_jacobian_constancy)
    assert res.details["max_dispersion"] < 1e-6


def test_criterion_2_forward_dual_pairing_agreement():
    res = _check(criterion_2_adjointness)
    assert res.details["worst_rel_d2"] <= 1e-3
    assert res.details["worst_rel_d3"] <= 1e-3


def test_criterion_3_unit_square_pairing_value():
    res = _check(criterion_3_unit_square_pairing)
    assert abs(res.details["err_layered"]) <= 1e-6
    assert abs(res.details["err_midpoint"]) <= 1e-6


def test_criterion_3_extrapolated_midpoint_beats_the_2048_grid():
    """The extrapolation from the 512 and 1024 grids errs by no more than
    the single 2048 grid did (2.86e-7), and its observed order is about 2."""
    res = criterion_3_unit_square_pairing(seed=0, profile="quick")
    assert res.details["err_midpoint"] <= 2.86e-7
    assert res.details["order_midpoint"] == pytest.approx(1.8687, abs=1e-4)


def _shifted_grid(real):
    """The midpoint rule on a grid shifted by a quarter of its step, whose
    error is first order."""

    def pairing(E, F, interval, quad):
        return real(E, BoxUnionSet(F.bounds + 0.25 * quad.step), interval, quad)

    return pairing


@pytest.mark.parametrize(
    "defect, failing_ops",
    [
        (_shifted_grid, [">="]),
        # the exact value at every step: no observed order at all (NaN)
        (lambda real: lambda *args: 0.75, [">=", "<="]),
    ],
    ids=["first-order", "constant"],
)
def test_seeded_midpoint_defects_fail_criterion_3(monkeypatch, defect, failing_ops):
    monkeypatch.setattr(acceptance, "bilinear_form", defect(acceptance.bilinear_form))
    res = criterion_3_unit_square_pairing(seed=0, profile="quick")
    failed = [g.op for g in res.gates if g.metric == "order_midpoint" and not g.passed]
    assert failed == failing_ops, res.line()


def test_criterion_4_family_norm_scaling_slopes():
    res = _check(criterion_4_family_scaling)
    for d in (2, 3, 4):
        assert res.details[f"slope_gap_d{d}"] <= 1e-2


def test_criterion_5_lorentz_identities():
    res = _check(criterion_5_lorentz_identity)
    assert res.details["worst_rel"] <= 1e-10
    assert res.details["worst_chi_rel"] <= 1e-12


def test_criterion_6_testing_ratio_floor_over_corpus():
    res = _check(criterion_6_testing_ratio_floor)
    assert res.details["floor"] >= 0.01
    assert res.details["worst_drift"] <= 2.0


def test_criterion_6_worst_entry_ignores_last_bit_rounding(monkeypatch):
    """d2-split-source and d2-split-target are mirror entries with one ratio;
    one ulp lower on the second still names the first, and the floor gate
    still reads the lowest ratio."""
    target = next(e for e in build_default_corpus() if e.entry_id == "d2-split-target")
    real = acceptance.check_rwt

    def lowered(E, F, *args):
        rep = real(E, F, *args)
        if all(np.array_equal(a.bounds, b.bounds) for a, b in ((E, target.E), (F, target.F))):
            rep = replace(rep, ratio=float(np.nextafter(rep.ratio, 0.0)))
        return rep

    monkeypatch.setattr(acceptance, "check_rwt", lowered)
    res = criterion_6_testing_ratio_floor(seed=0, profile="full")
    assert res.details["worst_entry"] == "d2-split-source"
    floor = lowered(target.E, target.F, target.interval).ratio
    assert res.details["floor"] == floor < real(target.E, target.F, target.interval).ratio


def test_criterion_7_rich_set_ratio_floors():
    res = _check(criterion_7_rich_set_floors)
    assert res.details["floor_primal"] >= 1.0
    assert res.details["floor_dual"] >= 1.0
    assert res.details["sweep_min"] >= 0.5
    assert res.details["sweep_last_over_first"] >= 0.25


def test_criterion_8_tower_matches_bruteforce():
    res = _check(criterion_8_tower_oracle)
    assert 0.5 <= res.details["worst_factor"] <= 2.0
    assert res.details["structure_fraction"] == 1.0


def test_criterion_9_byte_identical_reruns():
    """A full run's own criteria 1-8 against one fresh full rerun."""
    suite = run_suite(seed=0, profile="full")
    res = suite.results[-1]
    assert res.passed, res.line()
    assert res.details == {"files": 2, "identical": True}
    assert suite.passed


def _counting_criterion():
    """A cheap criterion whose reported value is its own call count."""
    calls = []

    def criterion(seed=0, profile="full"):
        calls.append(profile)
        gates = [Gate("calls", len(calls), ">=", 1)]
        return acceptance.CriterionResult(1, "counter", gates, {})

    return criterion


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_criterion_9_fails_on_seeded_nondeterminism(monkeypatch, profile):
    criteria = (_counting_criterion(), criterion_9_determinism)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", criteria)
    suite = run_suite(seed=0, profile=profile)
    assert suite.results[0].passed
    assert not suite.results[1].passed, suite.results[1].line()
    assert not suite.passed


def test_criterion_9_fails_when_only_the_full_rerun_differs(monkeypatch):
    """A value that changes on its second full-profile call only: the full
    run must be compared with a full rerun, not with quick ones."""
    full_calls = 0

    def criterion(seed, profile):
        nonlocal full_calls
        full_calls += profile == "full"
        value = 2 if full_calls == 2 else 1
        return acceptance.CriterionResult(1, "second-full", [Gate("v", value, ">=", 1)], {})

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (criterion, criterion_9_determinism))
    suite = run_suite(seed=0, profile="full")
    assert suite.results[0].passed
    assert not suite.results[1].passed, suite.results[1].line()


@pytest.mark.parametrize("profile", ["quick", "full"])
def test_criterion_9_rerun_count(monkeypatch, profile):
    """Each run is compared with one fresh rerun at its own profile; the
    rerun calls criteria 1-8 once, inside one suite run."""
    calls = []

    def constant(seed, profile):
        calls.append(profile)
        return acceptance.CriterionResult(1, "constant", [Gate("value", 1, "==", 1)], {})

    monkeypatch.setattr(acceptance, "ALL_CRITERIA", (constant, criterion_9_determinism))
    real = acceptance.run_suite
    entries = []

    def counting(*args, **kwargs):
        entries.append(kwargs.get("profile"))
        return real(*args, **kwargs)

    monkeypatch.setattr(acceptance, "run_suite", counting)
    suite = acceptance.run_suite(seed=0, profile=profile)
    assert suite.passed, [r.line() for r in suite.results]
    assert calls == [profile, profile]
    assert entries == [profile]


def test_quick_suite_end_to_end():
    suite = run_suite(seed=0, profile="quick")
    assert suite.passed
    assert [r.line().startswith("[PASS]") for r in suite.results] == [True] * 9
    assert sorted(suite.reports) == ["acceptance_results.csv", "acceptance_summary.json"]
    rows = [(r.index, g.metric, g.op, g.bound) for r in suite.results for g in r.gates]
    assert rows == QUICK_GATES
    summary = json.loads(suite.reports["acceptance_summary.json"])
    assert summary["profile"] == "quick" and summary["seed"] == 0
    reported = [
        (c["index"], g["metric"], g["op"], g["bound"])
        for c in summary["criteria"]
        for g in c["gates"]
    ]
    assert reported == QUICK_GATES
    for crit in summary["criteria"]:
        for g in crit["gates"]:
            assert crit["details"][g["metric"]] == g["value"]
            if g["op"] != "==":
                assert g["headroom"] >= 0.0
    csv_lines = suite.reports["acceptance_results.csv"].decode().splitlines()
    gate_cells = [line.split(",")[5] for line in csv_lines if line[0].isdigit()]
    assert len([op for op in gate_cells if op]) == len(QUICK_GATES)


def test_strict_gate_fails_at_its_bound():
    assert not Gate("m", 1e-6, "<", 1e-6).passed
    assert Gate("m", 1e-6, "<=", 1e-6).passed
    assert not Gate("m", 0.0, ">", 0.0).passed
    assert Gate("m", 0.0, ">=", 0.0).passed


@given(
    op=st.sampled_from(["<", "<=", ">", ">="]),
    value=st.floats(allow_nan=False),
    bound=st.floats(allow_nan=False, allow_infinity=False),
)
def test_gate_headroom_sign_agrees_with_verdict(op, value, bound):
    gate = Gate("m", value, op, bound)
    inside = gate.headroom > 0.0 if op in ("<", ">") else gate.headroom >= 0.0
    assert gate.passed == inside


def test_equality_gate_has_no_headroom():
    assert Gate("identical", True, "==", True).headroom is None
    wrong = Gate("verdicts_d2", "bounded/bounded", "==", "diverges/bounded")
    assert not wrong.passed and wrong.headroom is None


@pytest.mark.parametrize(
    "defect",
    [
        lambda rep: replace(rep, ratio=rep.ratio * 0.05),
        # the exponent of beta in the ratio's alpha/beta form raised by 1
        lambda rep: replace(rep, ratio=rep.ratio / rep.beta),
    ],
    ids=["ratio-scaled", "beta-exponent"],
)
def test_seeded_check_rwt_defects_fail_criterion_3(monkeypatch, defect):
    real = acceptance.check_rwt
    monkeypatch.setattr(
        acceptance, "check_rwt", lambda *args, **kw: defect(real(*args, **kw))
    )
    res = criterion_3_unit_square_pairing(seed=0, profile="full")
    assert not res.passed, res.line()
