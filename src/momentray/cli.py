"""Command line runner: seeded sweeps, deterministic reports, verdicts.

Every subcommand resolves its parameters from flags, then an optional JSON
config file, then built-in defaults (flags win).  Reports carry their full
parameterization in '# key=value' header comments (CSV) or a meta object
(JSON) and never embed timestamps, so identical configs and seeds produce
byte-identical files.  A sibling manifest records config hash, seed, tool
version, output digests, and wall time; wall time lives only there.

Exit codes: 0 all checks pass, 1 a check fails, 2 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .acceptance import random_box_pair, run_suite
from .corpus import build_default_corpus, load_corpus
from .geometry import estimate_c_d
from .refinement import TowerConfig, build_tower, check_tower_structure, tower_report
from .sharpness import (
    check_rwt,
    counterexample_f_lp,
    critical_exponents,
    delta_region_vertices,
    homogeneous_dimension,
    lemma2_grid_dual,
    lemma2_grid_primal,
    lemma2_shrinking_sweep,
    necessity_check,
    region_contains,
    scaling_experiment,
    superlevel_mass_check,
    xf_lower_block_norm,
)
from .transform import QuadSpec, adjointness_gap

PASS, FAIL, USAGE = 0, 1, 2


class ConfigError(Exception):
    pass


def _parse_fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _parse_int_list(text):
    try:
        return [int(tok) for tok in str(text).replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_list(text):
    try:
        return [float(tok) for tok in str(text).replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return data


def _resolve(args, config, schema):
    """Flags override config values override schema defaults."""
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(
            f"unknown config keys: {sorted(unknown)}; allowed: {sorted(schema)}"
        )
    resolved = {}
    for key, default in schema.items():
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            resolved[key] = flag_val
        elif key in config:
            resolved[key] = config[key]
        else:
            resolved[key] = default
        if resolved[key] is None and default is not None:
            resolved[key] = default
    return resolved


def _quad_from(params):
    spec = params.get("quad") or {}
    if not isinstance(spec, dict):
        raise ConfigError("quad must be an object with method/step")
    unknown = set(spec) - {"method", "step"}
    if unknown:
        raise ConfigError(f"unknown quad keys: {sorted(unknown)}")
    base = QuadSpec()
    try:
        return QuadSpec(
            method=spec.get("method", base.method),
            step=float(spec.get("step", base.step)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _corpus_from(params):
    path = params.get("corpus")
    if path:
        try:
            return load_corpus(path)
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot load corpus {path}: {exc}") from exc
    return build_default_corpus()


def _corpus_entry(entries, entry_id):
    for entry in entries:
        if entry.entry_id == entry_id:
            return entry
    known = ", ".join(e.entry_id for e in entries)
    raise ConfigError(f"no corpus entry {entry_id!r}; known: {known}")


def _cell(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


class Report:
    """Rows plus meta, rendered to CSV/JSON/stdout deterministically.

    A command whose JSON form is not its rows passes that document as
    json_payload; JSON output then writes it, to stdout when no output
    path is given.
    """

    def __init__(
        self, command, params, columns, rows, extra_meta=None, json_payload=None
    ):
        self.command = command
        self.params = params
        self.columns = list(columns)
        self.rows = rows
        self.extra_meta = dict(extra_meta or {})
        self.json_payload = json_payload

    def _meta(self):
        meta = {"command": self.command, "version": __version__}
        for key in sorted(self.params):
            value = self.params[key]
            if key in ("output", "format", "config"):
                continue
            if isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            meta[key] = value
        meta.update(self.extra_meta)
        return meta

    def write_csv(self, fh):
        for key, value in self._meta().items():
            fh.write(f"# {key}={value}\n")
        fh.write(",".join(self.columns) + "\n")
        for row in self.rows:
            fh.write(",".join(_cell(row[c]) for c in self.columns) + "\n")

    def write_json(self, fh):
        payload = self.json_payload or {
            "meta": self._meta(),
            "columns": self.columns,
            "rows": self.rows,
        }
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    def print_table(self, stream):
        widths = [
            max(len(c), *(len(_cell(r[c])) for r in self.rows)) if self.rows else len(c)
            for c in self.columns
        ]
        header = "  ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        stream.write(header + "\n")
        for row in self.rows:
            stream.write(
                "  ".join(_cell(row[c]).ljust(w) for c, w in zip(self.columns, widths))
                + "\n"
            )


def _emit(report, params, passed, started):
    out = params.get("output")
    fmt = params.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be 'csv' or 'json'")
    if out:
        os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
        with open(out, "w") as fh:
            if fmt == "csv":
                report.write_csv(fh)
            else:
                report.write_json(fh)
        _write_manifest(
            out + ".manifest.json", report.command, params, [out], started
        )
        sys.stdout.write(f"wrote {out}\n")
    elif fmt == "json" and report.json_payload:
        report.write_json(sys.stdout)
    else:
        report.print_table(sys.stdout)
    if passed is not None:
        sys.stdout.write("verdict: " + ("PASS" if passed else "FAIL") + "\n")


def _config_hash(params):
    canon = {
        k: v for k, v in params.items() if k not in ("output", "config")
    }
    blob = json.dumps(canon, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _write_manifest(path, command, params, outputs, started):
    manifest = {
        "command": command,
        "config_hash": _config_hash(params),
        "seed": params.get("seed"),
        "version": __version__,
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
        "wall_time_s": round(time.perf_counter() - started, 3),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _fraction_str(fr):
    return f"{fr.numerator}/{fr.denominator}"


def cmd_exponents(params):
    rows = []
    for d in params["dims"]:
        if d < 2:
            raise ConfigError("dims must be >= 2")
        p_d, q_d = critical_exponents(d)
        v = delta_region_vertices(d)
        rows.append(
            {
                "d": d,
                "p": _fraction_str(p_d),
                "q": _fraction_str(q_d),
                "p_float": float(p_d),
                "q_float": float(q_d),
                "homogeneous_dim": homogeneous_dimension(d),
                "vertices": " ".join(
                    f"({_fraction_str(x)}:{_fraction_str(y)})" for x, y in v
                ),
            }
        )
    columns = ["d", "p", "q", "p_float", "q_float", "homogeneous_dim", "vertices"]
    return Report("exponents", params, columns, rows), None


def cmd_region(params):
    d = params["dim"]
    p = _parse_fraction(str(params["p"]))
    q = _parse_fraction(str(params["q"]))
    if p <= 0 or q <= 0:
        raise ConfigError("p and q must be positive")
    inside = region_contains(
        d, 1 / p, 1 / q, include_boundary=bool(params["boundary"])
    )
    rows = [
        {
            "d": d,
            "p": _fraction_str(p),
            "q": _fraction_str(q),
            "include_boundary": bool(params["boundary"]),
            "inside": inside,
        }
    ]
    return Report("region", params, ["d", "p", "q", "include_boundary", "inside"], rows), inside


def cmd_jacobian(params):
    kinds = ("phi", "psi") if params["kind"] == "both" else (params["kind"],)
    if any(k not in ("phi", "psi") for k in kinds):
        raise ConfigError("kind must be phi, psi, or both")
    tol = float(params["tol"])
    jobs = [(kind, d) for kind in kinds for d in params["dims"]]
    rows = []
    passed = True
    for kind, d in jobs:
        est = estimate_c_d(
            kind, d, samples=int(params["samples"]), seed=int(params["seed"]) + d
        )
        ok = est.rel_dispersion < tol and est.mean != 0.0
        passed = passed and ok
        rows.append(
            {
                "kind": est.kind,
                "d": est.dim,
                "samples": est.samples,
                "mean": est.mean,
                "std": est.std,
                "rel_dispersion": est.rel_dispersion,
                "ratio_min": est.ratio_min,
                "ratio_max": est.ratio_max,
                "verdict": "PASS" if ok else "FAIL",
            }
        )
    columns = [
        "kind", "d", "samples", "mean", "std",
        "rel_dispersion", "ratio_min", "ratio_max", "verdict",
    ]
    return Report("jacobian", params, columns, rows), passed


def cmd_duality(params):
    quad = _quad_from(params)
    tol = float(params["tol"])
    rows = []
    passed = True
    for d in params["dims"]:
        rng = np.random.default_rng(int(params["seed"]) + 100 * d)
        pairs = [random_box_pair(d, rng) for _ in range(int(params["pairs"]))]
        for i, (E, F) in enumerate(pairs):
            span = E.first_axis_span()
            wspan = F.first_axis_span()
            gap = adjointness_gap(
                E, F, (span.lo, span.hi), (wspan.lo, wspan.hi), quad
            )
            ok = gap["rel_gap"] <= tol
            passed = passed and ok
            rows.append(
                {
                    "d": d,
                    "pair": i,
                    "primal": gap["primal"],
                    "dual": gap["dual"],
                    "abs_gap": gap["abs_gap"],
                    "rel_gap": gap["rel_gap"],
                    "verdict": "PASS" if ok else "FAIL",
                }
            )
    columns = ["d", "pair", "primal", "dual", "abs_gap", "rel_gap", "verdict"]
    return Report("duality", params, columns, rows), passed


def cmd_rwt(params):
    quad = _quad_from(params)
    floor = float(params["floor"])
    entries = _corpus_from(params)

    rows = []
    passed = True
    for entry in entries:
        interval = (entry.interval.lo, entry.interval.hi)
        rep = check_rwt(entry.E, entry.F, interval, quad)
        ok = max(rep.ratio_e, rep.ratio_f) >= floor
        passed = passed and ok
        rows.append(
            {
                "corpus_id": entry.entry_id,
                "d": entry.dim,
                "t_value": rep.value,
                "measure_E": rep.measure_e,
                "measure_F": rep.measure_f,
                "alpha": rep.alpha,
                "beta": rep.beta,
                "ratio_E": rep.ratio_e,
                "ratio_F": rep.ratio_f,
                "verdict": "PASS" if ok else "FAIL",
            }
        )
    columns = [
        "corpus_id", "d", "t_value", "measure_E", "measure_F",
        "alpha", "beta", "ratio_E", "ratio_F", "verdict",
    ]
    return Report("rwt", params, columns, rows), passed


def cmd_superlevel(params):
    entries = _corpus_from(params)
    entry = _corpus_entry(entries, params["entry"])
    rep = superlevel_mass_check(
        entry.E, entry.F, (entry.interval.lo, entry.interval.hi),
        grid_n=int(params["grid_n"]),
    )
    ok = rep.c0 > 0.0 and rep.t_inside >= rep.t_outside
    rows = [
        {
            "corpus_id": entry.entry_id,
            "grid_n": rep.grid_n,
            "epsilon": rep.epsilon,
            "c0": rep.c0,
            "theta": rep.theta,
            "g_measure": rep.g_measure,
            "t_total": rep.t_total,
            "t_inside": rep.t_inside,
            "t_outside": rep.t_outside,
            "constant": rep.constant,
            "verdict": "PASS" if ok else "FAIL",
        }
    ]
    columns = list(rows[0])
    return Report("superlevel", params, columns, rows), ok


def cmd_scaling(params):
    d = params["dim"]
    p_d, _ = critical_exponents(d)
    r = float(params["r"]) if params["r"] is not None else float(p_d)
    n_list = params["n_list"]
    res = scaling_experiment(d, r=r, n_list=n_list)
    rows = [
        {
            "N": n,
            "norm_f": counterexample_f_lp(d, n),
            "norm_xf": xf_lower_block_norm(d, r, n),
        }
        for n in res.n_list
    ]
    meta = {
        "r": r,
        "slope_f": repr(res.fit_f.slope),
        "residual_f": repr(res.fit_f.residual),
        "slope_xf": repr(res.fit_xf.slope),
        "residual_xf": repr(res.fit_xf.residual),
        "predicted_f": repr(res.predicted_f),
        "predicted_xf": repr(res.predicted_xf),
    }
    return Report("scaling", params, ["N", "norm_f", "norm_xf"], rows, meta), None


def cmd_necessity(params):
    d = params["dim"]
    p_d, _ = critical_exponents(d)
    rows = []
    for mult in params["r_mults"]:
        rep = necessity_check(d, r=float(p_d) * mult, n_list=params["n_list"])
        rows.append(
            {
                "d": d,
                "r_over_critical": mult,
                "r": rep.r,
                "slope_f": rep.slope_f,
                "slope_xf": rep.slope_xf,
                "slope_gap": rep.slope_gap,
                "verdict": rep.verdict,
            }
        )
    columns = ["d", "r_over_critical", "r", "slope_f", "slope_xf", "slope_gap", "verdict"]
    return Report("necessity", params, columns, rows), None


def cmd_lemma2(params):
    entries = _corpus_from(params)
    floor = float(params["floor"])
    grid_n = int(params["grid_n"])
    theta_frac = float(params["theta_frac"])

    rows = []
    passed = True
    for entry in entries:
        interval = (entry.interval.lo, entry.interval.hi)
        window = (entry.window.lo, entry.window.hi)
        primal = lemma2_grid_primal(
            entry.E, entry.F, interval, theta_frac=theta_frac, grid_n=grid_n
        )
        dual = lemma2_grid_dual(
            entry.E, entry.F, window, theta_frac=theta_frac, grid_n=grid_n
        )
        sweep = (
            lemma2_shrinking_sweep(entry.E, entry.F, interval, grid_n=grid_n)
            if params["sweep"]
            else []
        )
        reports = [("primal", primal), ("dual", dual)] + [
            (f"sweep-{i}", rep) for i, rep in enumerate(sweep)
        ]
        for kind, rep in reports:
            ok = rep.ratio >= floor
            passed = passed and ok
            rows.append(
                {
                    "corpus_id": entry.entry_id,
                    "kind": kind,
                    "theta": rep.theta,
                    "region_measure": rep.region_measure,
                    "subset_measure": rep.subset_measure,
                    "rhs": rep.rhs,
                    "ratio": rep.ratio,
                    "verdict": "PASS" if ok else "FAIL",
                }
            )
    columns = [
        "corpus_id", "kind", "theta", "region_measure",
        "subset_measure", "rhs", "ratio", "verdict",
    ]
    return Report("lemma2", params, columns, rows), passed


def cmd_refine(params):
    entries = _corpus_from(params)
    entry = _corpus_entry(entries, params["entry"])
    starts = ("phi", "psi") if params["start"] == "both" else (params["start"],)
    if any(s not in ("phi", "psi") for s in starts):
        raise ConfigError("start must be phi, psi, or both")
    config = TowerConfig(
        cell_width=float(params["cell_width"]),
        keep_fraction=float(params["keep_fraction"]),
        max_nodes=int(params["max_nodes"]),
        seed=int(params["seed"]),
    )
    rows = []
    towers = {}
    passed = True
    for start in starts:
        tower = build_tower(
            entry.E,
            entry.F,
            (entry.interval.lo, entry.interval.hi),
            (entry.window.lo, entry.window.hi),
            start=start,
            config=config,
        )
        frac, checked = check_tower_structure(
            tower, samples=int(params["samples"]), seed=int(params["seed"])
        )
        passed = passed and frac == 1.0
        report = tower_report(tower)
        report["structure_fraction"] = frac
        report["structure_checked"] = checked
        report["start"] = start
        towers[start] = report
        for level in report["levels"]:
            rows.append(
                {
                    "corpus_id": entry.entry_id,
                    "start": start,
                    "label": level["label"],
                    "param_kind": level["param_kind"],
                    "target": level["target"],
                    "n_nodes": level["n_nodes"],
                    "measure": level["measure"],
                    "threshold": level["threshold"],
                    "predicted_average": level["predicted_average"],
                    "structure_fraction": frac,
                }
            )
    columns = [
        "corpus_id", "start", "label", "param_kind", "target",
        "n_nodes", "measure", "threshold", "predicted_average",
        "structure_fraction",
    ]
    payload = {"meta": {"command": "refine", "version": __version__}, "towers": towers}
    return Report("refine", params, columns, rows, json_payload=payload), passed


def cmd_acceptance(params):
    """Runs the suite and writes its own reports; returns no Report."""
    outdir = params.get("output") or params.get("outdir")
    started = time.perf_counter()
    suite = run_suite(
        outdir=outdir,
        seed=int(params["seed"]),
        profile=params["profile"],
        include_determinism=True,
        stream=sys.stdout,
    )
    if outdir:
        outputs = [
            os.path.join(outdir, name)
            for name in ("acceptance_results.csv", "acceptance_summary.json")
        ]
        _write_manifest(
            os.path.join(outdir, "manifest.json"),
            "acceptance",
            params,
            outputs,
            started,
        )
        sys.stdout.write(f"wrote reports under {outdir}\n")
    sys.stdout.write("suite: " + ("PASS" if suite.passed else "FAIL") + "\n")
    return None, suite.passed


_COMMON_SCHEMA = {"seed": 0, "output": None, "format": "csv"}


def _schema_for(command):
    schema = dict(_COMMON_SCHEMA)
    if command == "exponents":
        schema.update(dims=[2, 3, 4])
    elif command == "region":
        schema.update(dim=3, p="3/2", q="2", boundary=True)
    elif command == "jacobian":
        schema.update(dims=[2, 3, 4, 5, 6, 7], kind="both", samples=100, tol=1e-6)
    elif command == "duality":
        schema.update(dims=[2, 3], pairs=50, tol=1e-3, quad=None)
    elif command == "rwt":
        schema.update(corpus=None, floor=0.01, quad=None)
    elif command == "superlevel":
        schema.update(corpus=None, entry="d2-unit", grid_n=48)
    elif command == "scaling":
        schema.update(dim=3, r=None, n_list=[16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    elif command == "necessity":
        schema.update(
            dim=3, r_mults=[0.9, 1.0, 1.1],
            n_list=[16, 32, 64, 128, 256, 512, 1024, 2048, 4096],
        )
    elif command == "lemma2":
        schema.update(corpus=None, floor=0.01, grid_n=32, theta_frac=0.5, sweep=False)
    elif command == "refine":
        schema.update(
            corpus=None, entry="d2-unit", start="both", cell_width=1.0 / 32.0,
            keep_fraction=0.5, max_nodes=20000, samples=200,
        )
    elif command == "acceptance":
        schema.update(profile="full", outdir=None)
    return schema


_HANDLERS = {
    "exponents": cmd_exponents,
    "region": cmd_region,
    "jacobian": cmd_jacobian,
    "duality": cmd_duality,
    "rwt": cmd_rwt,
    "superlevel": cmd_superlevel,
    "scaling": cmd_scaling,
    "necessity": cmd_necessity,
    "lemma2": cmd_lemma2,
    "refine": cmd_refine,
    "acceptance": cmd_acceptance,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="momentray",
        description="Numerical checks for the moment-curve line transform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, configure):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file with default parameters")
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=("csv", "json"), help="report format")
        p.add_argument("--seed", type=int, help="base RNG seed")
        configure(p)
        return p

    add("exponents", "critical exponents and region vertices", lambda p: (
        p.add_argument("--dims", "--dim", dest="dims", type=_parse_int_list,
                       help="comma-separated dimensions"),
    ))
    add("region", "membership test for the boundedness triangle", lambda p: (
        p.add_argument("--dim", type=int),
        p.add_argument("--p", help="Lebesgue exponent, rational like 3/2"),
        p.add_argument("--q", help="target exponent, rational like 2"),
        p.add_argument("--boundary", dest="boundary", action="store_const",
                       const=True, default=None, help="count the boundary as inside"),
        p.add_argument("--no-boundary", dest="boundary", action="store_const",
                       const=False, help="open region only"),
    ))
    add("jacobian", "numeric vs factored determinant sweep", lambda p: (
        p.add_argument("--dims", "--dim", dest="dims", type=_parse_int_list),
        p.add_argument("--kind", choices=("phi", "psi", "both")),
        p.add_argument("--samples", type=int),
        p.add_argument("--tol", type=float),
    ))
    add("duality", "forward/dual pairing agreement on random pairs", lambda p: (
        p.add_argument("--dims", "--dim", dest="dims", type=_parse_int_list),
        p.add_argument("--pairs", type=int),
        p.add_argument("--tol", type=float),
    ))
    add("rwt", "two-sided testing ratios over the corpus", lambda p: (
        p.add_argument("--corpus", help="JSON corpus file (default: built-in)"),
        p.add_argument("--floor", type=float),
    ))
    add("superlevel", "threshold mass check for one corpus entry", lambda p: (
        p.add_argument("--corpus"),
        p.add_argument("--entry"),
        p.add_argument("--grid-n", dest="grid_n", type=int),
    ))
    add("scaling", "norm decay of the shrinking family", lambda p: (
        p.add_argument("--dim", type=int),
        p.add_argument("--r", type=float, help="secondary exponent (default: critical)"),
        p.add_argument("--n-list", dest="n_list", type=_parse_int_list),
    ))
    add("necessity", "divergence verdicts around the critical exponent", lambda p: (
        p.add_argument("--dim", type=int),
        p.add_argument("--r-mults", dest="r_mults", type=_parse_float_list,
                       help="multiples of the critical secondary exponent"),
        p.add_argument("--n-list", dest="n_list", type=_parse_int_list),
    ))
    add("lemma2", "rich-subset ratios over the corpus", lambda p: (
        p.add_argument("--corpus"),
        p.add_argument("--floor", type=float),
        p.add_argument("--grid-n", dest="grid_n", type=int),
        p.add_argument("--theta-frac", dest="theta_frac", type=float),
        p.add_argument("--sweep", action="store_const", const=True, default=None,
                       help="include the shrinking-region sweep"),
    ))
    add("refine", "build a refinement tower for one corpus entry", lambda p: (
        p.add_argument("--corpus"),
        p.add_argument("--entry"),
        p.add_argument("--start", choices=("phi", "psi", "both")),
        p.add_argument("--cell-width", dest="cell_width", type=float),
        p.add_argument("--keep-fraction", dest="keep_fraction", type=float),
        p.add_argument("--max-nodes", dest="max_nodes", type=int),
        p.add_argument("--samples", type=int),
    ))
    add("acceptance", "run the acceptance suite", lambda p: (
        p.add_argument("--profile", choices=("full", "quick")),
        p.add_argument("--outdir", help="directory for suite reports"),
    ))
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    try:
        config = _load_config(args.config)
        schema = _schema_for(args.command)
        params = _resolve(args, config, schema)
        started = time.perf_counter()
        report, passed = _HANDLERS[args.command](params)
        if report is not None:
            _emit(report, params, passed, started)
        return PASS if passed in (None, True) else FAIL
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return USAGE
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
