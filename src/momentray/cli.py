"""Command line runner: seeded sweeps, deterministic reports, verdicts.

COMMANDS declares each subcommand's parameters.  Each value comes from its
flag, else the JSON config, else its default, through one converter.  Rows
are read off the library's result records where their names are the
published columns (rwt, superlevel, lemma2, duality), so a record's
fields, in order, are those columns.  Reports carry their full
parameterization in '# key=value' header comments (CSV) or a meta object
(JSON, refine's per-tower document included) and never embed timestamps,
so identical configs and seeds produce byte-identical files.  One writer writes every
report file, the acceptance suite's included, with a sibling manifest of
config hash, seed, tool version, the digests of the bytes written, and wall
time; wall time lives only there.

Exit codes: 0 all checks pass, 1 a check fails or the input sets have no
incidence to measure, 2 configuration error (a size that cannot be allocated
included).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from fractions import Fraction

import numpy as np

from . import __version__
from .acceptance import random_box_pair, run_suite
from .corpus import build_default_corpus, load_corpus
from .geometry import estimate_c_d
from .refinement import TowerConfig, build_tower, check_tower_structure, tower_report
from .sharpness import (
    DEFAULT_N_LIST,
    Lemma2Report,
    RwtReport,
    check_lemma2_primal,
    check_rwt,
    critical_exponents,
    delta_region_vertices,
    homogeneous_dimension,
    lemma2_grid_dual,
    region_contains,
    scaling_experiment,
    superlevel_mass_check,
)
from .transform import NoIncidence, QuadSpec, adjointness_gap

PASS, FAIL, USAGE = 0, 1, 2


class ConfigError(Exception):
    pass


# Converters: each parameter names one, applied alike to its flag text, its
# config JSON value and its default.  A ValueError names the bad value and
# _resolve adds the key.


def _integer(value):
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def _number(value):
    """A float, infinities included; NaN is refused."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            number = float(value)
        except (ValueError, OverflowError):  # OverflowError: an int past float range
            number = math.nan
        if not math.isnan(number):
            return number
    raise ValueError(f"expected a number, got {value!r}")


def _finite(value):
    """A finite float: the converter of every threshold and width."""
    number = _number(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _boolean(value):
    if isinstance(value, bool):
        return value
    raise ValueError(f"expected true or false, got {value!r}")


def _text(value):
    if isinstance(value, str):
        return value
    raise ValueError(f"expected a string, got {value!r}")


def _positive_rational(value):
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            fr = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            fr = None
        if fr is not None and fr > 0:
            return fr
    raise ValueError(f"expected a positive rational like 3/2, got {value!r}")


def _choice(*options):
    def convert(value):
        if value in options:
            return value
        raise ValueError(f"expected one of {', '.join(options)}; got {value!r}")

    return convert


def _list_of(convert):
    """A list converter: accepts "2,3" as well as [2, 3], but no empty list."""

    def convert_list(value):
        if isinstance(value, str):
            value = [tok for tok in value.replace(" ", "").split(",") if tok]
        if not isinstance(value, list) or not value:
            raise ValueError(f"expected a non-empty list, got {value!r}")
        return [convert(item) for item in value]

    return convert_list


def _quad(value):
    if not isinstance(value, dict):
        raise ValueError("expected an object with method/step")
    unknown = set(value) - {"method", "step"}
    if unknown:
        raise ValueError(f"unknown quad keys: {sorted(unknown)}")
    base = QuadSpec()
    return QuadSpec(
        method=value.get("method", base.method),
        step=_finite(value.get("step", base.step)),
    )


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


def _resolve(args, config, params):
    """Flags override config values override defaults; null means default.

    Whichever wins passes through the parameter's converter.
    """
    allowed = sorted(param.key for param in params)
    unknown = set(config) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}; allowed: {allowed}")
    resolved = {}
    for param in params:
        value = getattr(args, param.key, None)
        if value is None:
            value = config.get(param.key)
        if value is None:
            value = param.default
        try:
            resolved[param.key] = None if value is None else param.convert(value)
        except ValueError as exc:
            raise ConfigError(f"{param.key}: {exc}") from exc
    return resolved


def _corpus_from(params):
    path = params["corpus"]
    if path:
        try:
            return load_corpus(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
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


class Report:
    """Rows plus meta, rendered to CSV, JSON or a stdout table deterministically.

    The columns are the keys of the first row, in order.  The JSON document
    is the meta plus a body, by default the columns and rows; a command whose
    JSON form is not its rows passes its own body.
    """

    def __init__(self, command, params, rows, extra_meta=None, body=None):
        self.command = command
        self.params = params
        self.columns = list(rows[0]) if rows else []
        self.rows = rows
        self.extra_meta = dict(extra_meta or {})
        self.body = body or {"columns": self.columns, "rows": rows}

    def _meta(self):
        meta = {"command": self.command, "version": __version__}
        for key, value in sorted(self.params.items()):
            if key in ("output", "format"):
                continue
            if isinstance(value, QuadSpec):
                value = json.dumps(vars(value), sort_keys=True)
            elif isinstance(value, Fraction):
                value = str(value)
            meta[key] = value
        meta.update(self.extra_meta)
        return meta

    def render(self, fmt):
        """The report's text: "csv" (meta as '# key=value' lines), "json" or
        "table" (aligned columns, no meta)."""
        if fmt == "json":
            return json.dumps({"meta": self._meta(), **self.body}, indent=2, sort_keys=True) + "\n"
        cells = [self.columns, *([_cell(row[c]) for c in self.columns] for row in self.rows)]
        if fmt == "csv":
            text = io.StringIO()
            text.writelines(f"# {key}={value}\n" for key, value in self._meta().items())
            csv.writer(text, lineterminator="\n").writerows(cells)
            return text.getvalue()
        widths = [max(len(cell) for cell in column) for column in zip(*cells)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(line, widths)) for line in cells]
        return "".join(line + "\n" for line in lines)


def _emit(report, params, passed, started):
    out, fmt = params["output"], params["format"]
    verdict = sys.stdout
    if out:
        files = {out: report.render(fmt).encode()}
        _write_outputs(files, out + ".manifest.json", report.command, params, started)
        sys.stdout.write(f"wrote {out}\n")
    elif fmt == "json":
        sys.stdout.write(report.render("json"))
        verdict = sys.stderr  # stdout holds the one JSON document alone
    else:
        sys.stdout.write(report.render("table"))
    if passed is not None:
        verdict.write("verdict: " + ("PASS" if passed else "FAIL") + "\n")


def _write_outputs(files, manifest_path, command, params, started, **timings):
    """Write each path's bytes, then a manifest beside them with their
    digests, the configuration's hash and the wall time since started."""
    # where the outputs go is no part of the configuration
    canon = {k: v for k, v in params.items() if k not in ("output", "outdir")}
    blob = json.dumps(canon, sort_keys=True, default=str).encode()
    digests = {os.path.basename(p): hashlib.sha256(d).hexdigest() for p, d in files.items()}
    try:
        os.makedirs(os.path.dirname(os.path.abspath(manifest_path)), exist_ok=True)
        for path, data in files.items():
            with open(path, "wb") as fh:
                fh.write(data)
        manifest = {
            "command": command,
            "config_hash": hashlib.sha256(blob).hexdigest(),
            "seed": params.get("seed"),
            "version": __version__,
            "outputs": digests,
            "wall_time_s": round(time.perf_counter() - started, 3),
            **timings,
        }
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from exc


def _all_pass(rows):
    return all(row["verdict"] == "PASS" for row in rows)


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
    return Report("exponents", params, rows), None


def cmd_region(params):
    d, p, q, boundary = params["dim"], params["p"], params["q"], params["boundary"]
    inside = region_contains(d, 1 / p, 1 / q, include_boundary=boundary)
    rows = [
        {
            "d": d,
            "p": _fraction_str(p),
            "q": _fraction_str(q),
            "include_boundary": boundary,
            "inside": inside,
        }
    ]
    return Report("region", params, rows), inside


def cmd_jacobian(params):
    kinds = ("phi", "psi") if params["kind"] == "both" else (params["kind"],)
    jobs = [(kind, d) for kind in kinds for d in params["dims"]]
    rows = []
    for kind, d in jobs:
        est = estimate_c_d(kind, d, samples=params["samples"], seed=params["seed"] + d)
        ok = est.rel_dispersion < params["tol"]
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
    return Report("jacobian", params, rows), _all_pass(rows)


def cmd_duality(params):
    if params["pairs"] < 1:
        raise ValueError(f"pairs must be at least 1, got {params['pairs']}")
    rows = []
    for d in params["dims"]:
        rng = np.random.default_rng(params["seed"] + 100 * d)
        pairs = [random_box_pair(d, rng) for _ in range(params["pairs"])]
        for i, (E, F) in enumerate(pairs):
            gap = adjointness_gap(E, F, E.first_axis_span(), F.first_axis_span(), params["quad"])
            ok = gap["rel_gap"] <= params["tol"]
            rows.append({"d": d, "pair": i, **gap, "verdict": "PASS" if ok else "FAIL"})
    return Report("duality", params, rows), _all_pass(rows)


def _entry_rows(entries, columns, rows_of):
    """Every entry's rows; an entry without incidence gets one FAIL row.

    That row keeps the columns, names the entry, leaves the measured cells
    empty, and its message goes to stderr.
    """
    rows = []
    for entry in entries:
        try:
            rows += rows_of(entry)
        except NoIncidence as exc:
            sys.stderr.write(f"measured failure: {entry.entry_id}: {exc}\n")
            blank = dict.fromkeys(columns, "")
            rows.append({**blank, "corpus_id": entry.entry_id, "verdict": "FAIL"})
    return rows


_RWT_COLUMNS = ("corpus_id", "d", *(f.name for f in fields(RwtReport)), "verdict")


def cmd_rwt(params):
    def rows_of(entry):
        rep = check_rwt(entry.E, entry.F, entry.interval, params["quad"])
        verdict = "PASS" if rep.ratio >= params["floor"] else "FAIL"
        return [{"corpus_id": entry.entry_id, "d": entry.dim, **asdict(rep), "verdict": verdict}]

    rows = _entry_rows(_corpus_from(params), _RWT_COLUMNS, rows_of)
    return Report("rwt", params, rows), _all_pass(rows)


def cmd_superlevel(params):
    entry = _corpus_entry(_corpus_from(params), params["entry"])
    rep = superlevel_mass_check(entry.E, entry.F, entry.interval, grid_n=params["grid_n"])
    ok = rep.c0 > 0.0 and rep.t_inside >= rep.t_outside
    rows = [{"corpus_id": entry.entry_id, **asdict(rep), "verdict": "PASS" if ok else "FAIL"}]
    return Report("superlevel", params, rows), ok


def cmd_scaling(params):
    d = params["dim"]
    p_d, _ = critical_exponents(d)
    r = params["r"] if params["r"] is not None else float(p_d)
    res = scaling_experiment(d, r=r, n_list=params["n_list"])
    rows = [
        {"N": n, "norm_f": f, "norm_xf": xf}
        for n, f, xf in zip(res.n_list, res.norm_f, res.norm_xf)
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
    return Report("scaling", params, rows, meta), None


def cmd_necessity(params):
    d = params["dim"]
    p_d, _ = critical_exponents(d)
    rows = []
    for mult in params["r_mults"]:
        res = scaling_experiment(d, r=float(p_d) * mult, n_list=params["n_list"])
        rows.append(
            {
                "d": d,
                "r_over_critical": mult,
                "r": res.r,
                "slope_f": res.fit_f.slope,
                "slope_xf": res.fit_xf.slope,
                "slope_gap": res.slope_gap,
                "verdict": res.verdict,
            }
        )
    return Report("necessity", params, rows), None


_LEMMA2_COLUMNS = ("corpus_id", "kind", *(f.name for f in fields(Lemma2Report)), "verdict")


def cmd_lemma2(params):
    floor, grid_n, theta_frac = params["floor"], params["grid_n"], params["theta_frac"]

    def rows_of(entry):
        primal, sweep = check_lemma2_primal(
            entry.E, entry.F, entry.interval, theta_frac=theta_frac, grid_n=grid_n
        )
        dual = lemma2_grid_dual(
            entry.E, entry.F, entry.window, theta_frac=theta_frac, grid_n=grid_n
        )
        reports = [("primal", primal), ("dual", dual)]
        if params["sweep"]:
            reports += [(f"sweep-{i}", rep) for i, rep in enumerate(sweep)]
        return [
            {
                "corpus_id": entry.entry_id, "kind": kind, **asdict(rep),
                "verdict": "PASS" if rep.ratio >= floor else "FAIL",
            }
            for kind, rep in reports
        ]

    rows = _entry_rows(_corpus_from(params), _LEMMA2_COLUMNS, rows_of)
    return Report("lemma2", params, rows), _all_pass(rows)


def cmd_refine(params):
    entry = _corpus_entry(_corpus_from(params), params["entry"])
    starts = ("phi", "psi") if params["start"] == "both" else (params["start"],)
    config = TowerConfig(
        cell_width=params["cell_width"],
        keep_fraction=params["keep_fraction"],
        max_nodes=params["max_nodes"],
        seed=params["seed"],
    )
    rows = []
    towers = {}
    passed = True
    for start in starts:
        tower = build_tower(
            entry.E, entry.F, entry.interval, entry.window, start=start, config=config
        )
        frac, checked = check_tower_structure(
            tower, samples=params["samples"], seed=params["seed"]
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
    return Report("refine", params, rows, body={"towers": towers}), passed


def cmd_acceptance(params):
    """Runs the suite and writes its report bytes; returns no Report."""
    outdir = params["outdir"]
    started = time.perf_counter()
    if outdir:
        try:  # refuse a path that cannot be a directory before the suite runs
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename}: {exc.strerror}") from exc
    suite = run_suite(seed=params["seed"], profile=params["profile"])
    for res in suite.results:
        sys.stdout.write(f"{res.line()} [{suite.seconds[res.index]:.1f}s]\n")
    if outdir:
        _write_outputs(
            {os.path.join(outdir, name): data for name, data in suite.reports.items()},
            os.path.join(outdir, "manifest.json"),
            "acceptance",
            params,
            started,
            criterion_seconds={str(i): round(s, 3) for i, s in suite.seconds.items()},
        )
        sys.stdout.write(f"wrote reports under {outdir}\n")
    sys.stdout.write("suite: " + ("PASS" if suite.passed else "FAIL") + "\n")
    return None, suite.passed


@dataclass(frozen=True)
class Param:
    """One settable value: its flag text, config value and default all pass
    through convert.  No flags means config only; a _boolean's --no-* flag
    sets False, its other flags True."""

    key: str
    default: object
    convert: Callable
    flags: tuple
    help: str


@dataclass(frozen=True)
class Command:
    help: str
    handler: Callable
    params: tuple


_INTS = _list_of(_integer)
_SEED = Param("seed", 0, _integer, ("--seed",), "base RNG seed")
_REPORT = (
    Param("output", None, _text, ("--output",), "write the report to this path"),
    Param("format", "csv", _choice("csv", "json"), ("--format",), "csv or json"),
)
_DIM = Param("dim", 3, _integer, ("--dim",), "dimension d")
_CORPUS = Param("corpus", None, _text, ("--corpus",), "JSON corpus file (default: built-in)")
_ENTRY = Param("entry", "d2-unit", _text, ("--entry",), "corpus entry id")
_FLOOR = Param("floor", 0.01, _finite, ("--floor",), "smallest passing ratio")
_QUAD = Param("quad", None, _quad, (), "pairing quadrature (config only)")
_N_LIST = Param(
    "n_list", list(DEFAULT_N_LIST), _INTS, ("--n-list",), "comma-separated family start indices N"
)


def _dims(default):
    return Param("dims", default, _INTS, ("--dims", "--dim"), "comma-separated dimensions")


COMMANDS = {
    "exponents": Command("critical exponents and region vertices", cmd_exponents, (
        _dims([2, 3, 4]), *_REPORT,
    )),
    "region": Command("membership test for the boundedness triangle", cmd_region, (
        _DIM,
        Param("p", "3/2", _positive_rational, ("--p",), "source exponent, like 3/2"),
        Param("q", "2", _positive_rational, ("--q",), "target exponent, like 2"),
        Param("boundary", True, _boolean, ("--boundary", "--no-boundary"),
              "count the boundary as inside, or not"),
        *_REPORT,
    )),
    "jacobian": Command("numeric vs factored determinant sweep", cmd_jacobian, (
        _dims([2, 3, 4, 5, 6, 7]),
        Param("kind", "both", _choice("phi", "psi", "both"), ("--kind",), "incidence map"),
        Param("samples", 100, _integer, ("--samples",), "parameter samples per dimension"),
        Param("tol", 1e-6, _finite, ("--tol",), "largest passing relative dispersion"),
        _SEED, *_REPORT,
    )),
    "duality": Command("forward/dual pairing agreement on random pairs", cmd_duality, (
        _dims([2, 3]),
        Param("pairs", 50, _integer, ("--pairs",), "random box pairs per dimension"),
        Param("tol", 1e-3, _finite, ("--tol",), "largest passing relative gap"),
        _QUAD, _SEED, *_REPORT,
    )),
    "rwt": Command("two-sided testing ratios over the corpus", cmd_rwt, (
        _CORPUS, _FLOOR, _QUAD, *_REPORT,
    )),
    "superlevel": Command("threshold mass check for one corpus entry", cmd_superlevel, (
        _CORPUS, _ENTRY,
        Param("grid_n", 48, _integer, ("--grid-n",), "grid cells per axis"),
        *_REPORT,
    )),
    "scaling": Command("norm decay of the shrinking family", cmd_scaling, (
        _DIM,
        Param("r", None, _number, ("--r",), "secondary exponent (default: critical)"),
        _N_LIST, *_REPORT,
    )),
    "necessity": Command("divergence verdicts around the critical exponent", cmd_necessity, (
        _DIM,
        Param("r_mults", [0.9, 1.0, 1.1], _list_of(_number), ("--r-mults",),
              "multiples of the critical secondary exponent"),
        _N_LIST, *_REPORT,
    )),
    "lemma2": Command("rich-subset ratios over the corpus", cmd_lemma2, (
        _CORPUS, _FLOOR,
        Param("grid_n", 32, _integer, ("--grid-n",), "grid cells per axis"),
        Param("theta_frac", 0.5, _finite, ("--theta-frac",), "threshold over the average"),
        Param("sweep", False, _boolean, ("--sweep",), "include the shrinking-region sweep"),
        *_REPORT,
    )),
    "refine": Command("build a refinement tower for one corpus entry", cmd_refine, (
        _CORPUS, _ENTRY,
        Param("start", "both", _choice("phi", "psi", "both"), ("--start",), "first map of the tower"),
        Param("cell_width", 1.0 / 32.0, _finite, ("--cell-width",), "tower cell width"),
        Param("keep_fraction", 0.5, _finite, ("--keep-fraction",), "keep bar over the mean"),
        Param("max_nodes", 20000, _integer, ("--max-nodes",), "nodes sampled per level"),
        Param("samples", 200, _integer, ("--samples",), "structure audit samples"),
        _SEED, *_REPORT,
    )),
    "acceptance": Command("run the acceptance suite", cmd_acceptance, (
        Param("profile", "full", _choice("full", "quick"), ("--profile",), "suite sizes"),
        Param("outdir", None, _text, ("--outdir",), "directory for suite reports"),
        _SEED,
    )),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="momentray",
        description="Numerical checks for the moment-curve line transform.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON file with default parameters")
        for param in command.params:
            if param.convert is _boolean:
                for flag in param.flags:
                    p.add_argument(flag, dest=param.key, action="store_const",
                                   const=not flag.startswith("--no-"), help=param.help)
            elif param.flags:
                p.add_argument(*param.flags, dest=param.key, help=param.help)
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else 0
    command = COMMANDS[args.command]
    try:
        params = _resolve(args, _load_config(args.config), command.params)
        started = time.perf_counter()
        report, passed = command.handler(params)
        if report is not None:
            _emit(report, params, passed, started)
        return PASS if passed in (None, True) else FAIL
    except NoIncidence as exc:
        sys.stderr.write(f"measured failure: {exc}\n")
        return FAIL
    except (ConfigError, ValueError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
