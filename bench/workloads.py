"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: one pass runs its
operations in a fixed order and returns one verdict per operation.  Every
call into the package goes through a module attribute
(``refinement.build_tower``, not a name bound at import), so the traced run
sees the same calls through its wrappers.

The seed reaches the program only as an input it already takes: the
structure-audit sample of each tower, and the sample points of
``verify_minorant``.  Towers are built with the default ``TowerConfig``
(seed 0, as criterion 8 builds them), so the seed never changes which
towers collapse or how many nodes they grow.  The acceptance command
always runs with ``--seed 0``, its default: its seed draws criterion 2's
random box pairs, and over seeds 0-29 the quartiles of their pairing work
lie 17% (d = 2) and 25% (d = 3) of the median apart, so the seed, not the
program, would set the time of a pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass

from momentray import cli, corpus, refinement, sharpness


@dataclass(frozen=True)
class Verdict:
    op: str
    ok: bool
    detail: str = ""
    seconds: float | None = None  # wall time of the operation and its checks


def _run_op(op_name, op_span, fn):
    """Run one operation; an exception is that operation's failure."""
    start = time.perf_counter()
    with op_span(op_name):
        try:
            problems = fn()
        except Exception as exc:  # an op that raises is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
    return Verdict(op_name, not problems, "; ".join(problems), time.perf_counter() - start)


# ---------------------------------------------------------------------------
# acceptance-quick


def _within(value, bound):
    return isinstance(value, (int, float)) and value <= bound


def _at_least(value, bound):
    return isinstance(value, (int, float)) and value >= bound


# The gates of the nine criteria as they stand, re-applied to the values
# each criterion reports under the quick profile (its sizes: dims 2-3,
# 8 pairs, 20 functions, 8 corpus entries); a bound loosened inside the
# package fails here.
CRITERION_GATES = {
    1: lambda d: [
        _within(d.get("max_dispersion"), 1e-6),
        _within(abs(d.get("mean_phi_d2", 0.0) + 1.0), 1e-6),
        _within(abs(d.get("mean_psi_d2", 0.0) - 1.0), 1e-6),
        d.get("dims") == "2-3",
        not any(k.startswith("bad_") for k in d),
    ],
    2: lambda d: [
        _within(d.get("worst_rel_d2"), 1e-3),
        _within(d.get("worst_rel_d3"), 1e-3),
        d.get("pairs") == 8,
    ],
    3: lambda d: [
        _within(d.get("err_layered"), 1e-6),
        _within(d.get("err_midpoint"), 1e-6),
        _within(abs(d.get("layered", 0.0) - 0.75), 1e-6),
    ],
    4: lambda d: [
        check
        for dim in (2, 3, 4)
        for check in (
            _within(d.get(f"slope_gap_d{dim}"), 1e-2),
            _within(
                abs(
                    d.get(f"slope_f_d{dim}", 0.0)
                    - float(sharpness.predicted_f_slope(dim))
                )
                / abs(float(sharpness.predicted_f_slope(dim))),
                0.03,
            ),
            d.get(f"verdicts_d{dim}") == "diverges/bounded",
        )
    ],
    5: lambda d: [
        _within(d.get("worst_rel"), 1e-10),
        _within(d.get("worst_chi_rel"), 1e-12),
        d.get("functions") == 20,
    ],
    6: lambda d: [
        _at_least(d.get("floor"), 0.01),
        _within(d.get("worst_drift"), 2.0),
        d.get("entries") == 8,
    ],
    7: lambda d: [
        _at_least(d.get("floor_primal"), 1.0),
        _at_least(d.get("floor_dual"), 1.0),
        _at_least(d.get("sweep_min"), 0.5),
        _at_least(d.get("sweep_last_over_first"), 0.25),
        d.get("entries") == 8,
    ],
    8: lambda d: [
        _within(d.get("worst_factor"), 2.0),
        d.get("structure_fraction") == 1.0,
    ],
    9: lambda d: [d.get("identical") is True, d.get("files") == 2],
}


ACCEPTANCE_SEED = 0


def acceptance_quick(seed, op_span):
    """``momentray acceptance --profile quick --outdir <tmp> --seed 0`` in process.

    The benchmark seed is not used; see the module docstring.

    One operation per criterion; the command runs as a single call, so the
    nine verdicts come from its summary report.
    """
    outdir = tempfile.mkdtemp(prefix="acceptance-")
    captured = io.StringIO()
    try:
        with op_span("acceptance"), contextlib.redirect_stdout(captured):
            code = cli.main([
                "acceptance", "--profile", "quick", "--outdir", outdir,
                "--seed", str(ACCEPTANCE_SEED),
            ])
        with open(os.path.join(outdir, "acceptance_summary.json")) as fh:
            summary = json.load(fh)
    except Exception as exc:  # the command itself broke: all nine fail
        detail = f"{type(exc).__name__}: {exc}"
        return [Verdict(f"criterion-{i}", False, detail) for i in range(1, 10)]
    finally:
        sys.stderr.write(captured.getvalue())
        shutil.rmtree(outdir, ignore_errors=True)
    by_index = {c["index"]: c for c in summary.get("criteria", [])}
    verdicts = []
    for i in range(1, 10):
        crit = by_index.get(i)
        if crit is None:
            verdicts.append(Verdict(f"criterion-{i}", False, "missing from summary"))
            continue
        problems = []
        if not crit["passed"]:
            problems.append("reported FAIL")
        if not all(CRITERION_GATES[i](crit["details"])):
            problems.append(f"gate not met: {crit['details']}")
        verdicts.append(Verdict(f"criterion-{i}", not problems, "; ".join(problems)))
    # the exit code must agree with the criteria: 0 iff all nine pass
    if code != (0 if all(v.ok for v in verdicts) else 1):
        verdicts = [
            Verdict(v.op, False, f"{v.detail}; exit code {code}".lstrip("; "))
            for v in verdicts
        ]
    return verdicts


# ---------------------------------------------------------------------------
# tower-corpus


def _tower_op(entry, start, seed):
    interval = (entry.interval.lo, entry.interval.hi)
    window = (entry.window.lo, entry.window.hi)
    tower = refinement.build_tower(entry.E, entry.F, interval, window, start=start)
    frac, _ = refinement.check_tower_structure(tower, samples=200, seed=seed)
    refinement.tower_report(tower)
    problems = [] if frac == 1.0 else [f"structure fraction {frac!r}"]
    if entry.dim == 2:
        brute = refinement.enumerate_tower_bruteforce(
            entry.E, entry.F, tower.base, interval, window, start=start, grid_n=64
        )
        for level, ref in zip(tower.levels, brute):
            # criterion 8's rule: within a factor 2 of the grid oracle
            if not (ref > 0.0 and 0.5 <= level.measure / ref <= 2.0):
                problems.append(
                    f"level {level.label}: measure {level.measure!r} vs oracle {ref!r}"
                )
    return problems


def _lemma2_op(entry):
    interval = (entry.interval.lo, entry.interval.hi)
    window = (entry.window.lo, entry.window.hi)
    primal = sharpness.lemma2_grid_primal(entry.E, entry.F, interval)
    dual = sharpness.lemma2_grid_dual(entry.E, entry.F, window)
    sweep = sharpness.lemma2_shrinking_sweep(entry.E, entry.F, interval)
    sweep_min = min(rep.ratio for rep in sweep)
    problems = []
    # criterion 7's floors
    if not primal.ratio >= 1.0:
        problems.append(f"primal ratio {primal.ratio!r} < 1.0")
    if not dual.ratio >= 1.0:
        problems.append(f"dual ratio {dual.ratio!r} < 1.0")
    if not sweep_min >= 0.5:
        problems.append(f"sweep minimum {sweep_min!r} < 0.5")
    return problems


def tower_corpus(seed, op_span):
    """Both towers and the grid triple of every default corpus entry."""
    entries = corpus.build_default_corpus()
    verdicts = []
    for entry in entries:
        for start in ("phi", "psi"):
            verdicts.append(
                _run_op(
                    f"tower {entry.entry_id} {start}",
                    op_span,
                    lambda: _tower_op(entry, start, seed),
                )
            )
        verdicts.append(
            _run_op(f"lemma2 {entry.entry_id}", op_span, lambda: _lemma2_op(entry))
        )
    return verdicts


# ---------------------------------------------------------------------------
# family-minorant


def _minorant_op(dim, seed):
    spec = sharpness.CounterexampleSpec(dim=dim, n_start=4, k_max=200)
    slack = sharpness.verify_minorant(spec, seed=seed)
    return [] if slack >= 0.0 else [f"slack {slack!r} < 0"]


def family_minorant(seed, op_span):
    """``verify_minorant`` over 197 pieces in each of d = 2, 3, 4."""
    return [
        _run_op(f"minorant d{dim}", op_span, lambda: _minorant_op(dim, seed))
        for dim in (2, 3, 4)
    ]


WORKLOADS = {
    "acceptance-quick": acceptance_quick,
    "tower-corpus": tower_corpus,
    "family-minorant": family_minorant,
}
