"""End-to-end tests of the command line interface."""

import csv
import dataclasses
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from momentray import cli, refinement
from momentray.acceptance import SuiteResult, run_suite
from momentray.corpus import CorpusEntry, build_default_corpus
from momentray.sets import BoxUnionSet, Interval
from momentray.sharpness import RwtReport
from oracles import save_corpus

PASS, FAIL, USAGE = 0, 1, 2


@pytest.fixture(scope="module")
def mini_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "mini.json"
    entries = [e for e in build_default_corpus() if e.dim == 2][:3]
    save_corpus(entries, path)
    return str(path)


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# exit codes


def test_exponents_table_to_stdout(capsys):
    assert run(["exponents"]) == PASS
    out = capsys.readouterr().out
    assert "homogeneous_dim" in out
    assert "3/2" in out and "10/7" in out


def test_region_exit_codes(tmp_path):
    inside = ["region", "--dim", "2", "--p", "2", "--q", "2"]
    assert run(inside) == PASS
    outside = ["region", "--dim", "2", "--p", "6/5", "--q", "4"]
    assert run(outside) == FAIL


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["frobnicate"])
    assert run(["frobnicate"]) == USAGE


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2], "bogus_knob": 1}))
    assert run(["jacobian", "--config", str(cfg)]) == USAGE
    err = capsys.readouterr().err
    assert "configuration error" in err and "bogus_knob" in err


def test_quad_accepted_only_where_used(tmp_path, mini_corpus_path):
    cfg = tmp_path / "quad.json"
    cfg.write_text(json.dumps({"quad": {"method": "midpoint", "step": 0.5}}))
    assert run(["lemma2", "--config", str(cfg), "--corpus", mini_corpus_path]) == USAGE
    assert run(["refine", "--config", str(cfg)]) == USAGE
    argv = ["duality", "--config", str(cfg), "--dims", "2", "--pairs", "1", "--tol", "1"]
    assert run(argv) == PASS
    cfg.write_text(json.dumps({"quad": {"method": "midpoint", "samples": 10}}))
    assert run(["rwt", "--config", str(cfg), "--corpus", mini_corpus_path]) == USAGE


@pytest.mark.parametrize(
    "command, config",
    [
        ("region", {"boundary": "false"}),
        ("lemma2", {"sweep": "no"}),
        ("lemma2", {"grid_n": 8.5}),
        ("jacobian", {"samples": True}),
        ("refine", {"start": "phi,psi"}),
        ("scaling", {"n_list": 64}),
        ("jacobian", {"dims": []}),
        ("jacobian", {"samples": 1}),
        ("duality", {"pairs": 0}),
        ("duality", {"pairs": -1}),
        ("refine", {"samples": 0}),
        ("refine", {"samples": -5}),
        ("lemma2", {"grid_n": 0}),
        ("lemma2", {"grid_n": -3}),
        ("region", {"p": "0"}),
        ("lemma2", {"theta_frac": 0}),
        ("lemma2", {"theta_frac": -0.5}),
        ("lemma2", {"theta_frac": 1.5}),
        ("rwt", {"floor": float("nan")}),
        ("lemma2", {"floor": "nan"}),
        ("duality", {"tol": float("nan")}),
        ("refine", {"cell_width": "nan"}),
        ("refine", {"keep_fraction": float("nan")}),
        ("jacobian", {"tol": float("inf")}),
        ("duality", {"quad": {"step": float("nan")}}),
        ("scaling", {"r": float("nan")}),
        ("rwt", {"floor": 10**400}),
        ("duality", {"dims": [0]}),
        ("duality", {"dims": [1]}),
    ],
)
def test_bad_config_value_is_usage_error(command, config, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "report.csv"
    assert run([command, "--config", str(cfg), "--output", str(out)]) == USAGE
    err = capsys.readouterr().err
    assert "configuration error" in err and next(iter(config)) in err
    assert not out.exists()


def test_config_list_text_matches_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": "2,3"}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["exponents", "--config", str(cfg), "--output", str(a)]) == PASS
    assert run(["exponents", "--dims", "2,3", "--output", str(b)]) == PASS
    assert a.read_bytes() == b.read_bytes()


def test_unused_parameter_is_usage_error(tmp_path):
    assert run(["exponents", "--seed", "1"]) == USAGE
    assert run(["acceptance", "--output", str(tmp_path / "suite")]) == USAGE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 1}))
    assert run(["rwt", "--config", str(cfg)]) == USAGE


class _ReadRecorder(dict):
    """The resolved parameters, noting every key looked up."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_every_subcommand_reads_every_key_it_declares(monkeypatch, mini_corpus_path):
    recorders = {}
    resolve = cli._resolve

    def recording_resolve(args, config, params):
        recorders[args.command] = _ReadRecorder(resolve(args, config, params))
        return recorders[args.command]

    monkeypatch.setattr(cli, "_resolve", recording_resolve)
    small = {
        "exponents": [],
        "region": [],
        "jacobian": ["--dims", "2", "--samples", "5"],
        "duality": ["--dims", "2", "--pairs", "1"],
        "rwt": ["--corpus", mini_corpus_path],
        "scaling": ["--dim", "2", "--n-list", "16,32,64"],
        "necessity": ["--dim", "2", "--n-list", "16,32,64"],
        "lemma2": ["--corpus", mini_corpus_path, "--grid-n", "8"],
        "refine": ["--start", "phi", "--max-nodes", "200", "--samples", "10"],
        "acceptance": ["--profile", "quick"],
    }
    assert set(small) == set(cli.COMMANDS)
    for name, argv in small.items():
        assert run([name, *argv]) in (PASS, FAIL), name
        declared = {param.key for param in cli.COMMANDS[name].params}
        assert recorders[name].read == declared, name


def test_unallocatable_size_is_usage_error(monkeypatch, mini_corpus_path, capsys):
    """A size that needs more memory than the machine has is a configuration
    error; numpy raises MemoryError for it (a quadrature step of 1e-12 asks
    for terabytes), simulated here so no real allocation is tried."""

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "check_rwt", refuse)
    assert run(["rwt", "--corpus", mini_corpus_path]) == USAGE
    err = capsys.readouterr().err
    assert err == "configuration error: Unable to allocate 7.28 TiB for an array\n"


def test_no_incidence_is_measured_failure(tmp_path, capsys):
    """Lines from E never reach an F at x2 in [50, 51]: exit 1, not a usage error."""
    far = CorpusEntry(
        entry_id="far-apart",
        E=BoxUnionSet([[[0.0, 1.0], [0.0, 1.0]]]),
        F=BoxUnionSet([[[0.0, 1.0], [50.0, 51.0]]]),
        interval=Interval(0.0, 1.0),
        window=Interval(0.0, 1.0),
    )
    path = tmp_path / "far.json"
    save_corpus([far], path)
    for argv in (
        ["refine", "--entry", "far-apart"],
        ["rwt"],
        ["lemma2"],
    ):
        assert run([*argv, "--corpus", str(path)]) == FAIL, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("measured failure: ") and "configuration" not in err

    # next to an entry with incidence, the far one gets its own FAIL row
    unit = next(e for e in build_default_corpus() if e.entry_id == "d2-unit")
    save_corpus([unit, far], path)
    for command in ("rwt", "lemma2"):
        out = tmp_path / f"{command}.csv"
        argv = [command, "--corpus", str(path), "--output", str(out)]
        assert run(argv) == FAIL, command
        err = capsys.readouterr().err
        assert err.startswith("measured failure: far-apart: "), err
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert {row["corpus_id"] for row in rows} == {"d2-unit", "far-apart"}
        assert all(row["verdict"] == "PASS" for row in rows if row["corpus_id"] == "d2-unit")
        (failed,) = [row for row in rows if row["corpus_id"] == "far-apart"]
        assert failed["verdict"] == "FAIL"
        assert {failed[c] for c in header} == {"far-apart", "FAIL", ""}


def test_non_finite_point_is_usage_error(monkeypatch, tmp_path, capsys):
    """A tower whose base candidates are not finite is refused with exit 2,
    not built from fibers of measure 0."""

    def sample_with_inf(region, count, rng):
        pts = real_sample(region, count, rng)
        pts[:, 1] = np.inf
        return pts

    real_sample = refinement._sample_points
    monkeypatch.setattr(refinement, "_sample_points", sample_with_inf)
    assert run(["refine", "--entry", "d2-unit", "--output", str(tmp_path / "t.csv")]) == USAGE
    assert "points must be finite" in capsys.readouterr().err


def test_unrepresentable_cell_count_is_usage_error(tmp_path, capsys):
    """A cell width that cuts a fiber into 2^63 or more cells is refused
    with exit 2 and no report, not cast to a wrapped count and passed."""
    out = tmp_path / "t.csv"
    assert run(["refine", "--cell-width", "1e-300", "--output", str(out)]) == USAGE
    assert "2^63 or more cells" in capsys.readouterr().err
    assert not out.exists()


def test_fine_cell_width_cuts_only_the_kept_cells(tmp_path):
    """At width 1e-12 every level holds about 1e12 cells or more; only the
    max_nodes drawn ones are cut, so the run passes instead of asking for
    all of them at once."""
    out = tmp_path / "t.csv"
    assert run(["refine", "--cell-width", "1e-12", "--output", str(out)]) == 0
    assert out.exists()


def test_unwritable_report_path_is_usage_error(tmp_path, monkeypatch, capsys):
    """An --output that is a directory or lies under a file, and an --outdir
    that is a file, exit 2 with one line naming the path, not 1 with a
    traceback; the --outdir is refused before the suite runs."""

    def suite_must_not_run(seed, profile):
        pytest.fail("the suite ran before its --outdir was refused")

    monkeypatch.setattr(cli, "run_suite", suite_must_not_run)
    afile = tmp_path / "afile"
    afile.write_text("")
    for argv, path in (
        (["exponents", "--output", str(tmp_path)], tmp_path),
        (["exponents", "--output", str(afile / "x.csv")], afile),
        (["acceptance", "--profile", "quick", "--outdir", str(afile)], afile),
    ):
        assert run(argv) == USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {path}: ") and err.count("\n") == 1


def test_missing_config_file_is_usage_error(tmp_path):
    assert run(["jacobian", "--config", str(tmp_path / "nope.json")]) == USAGE


def test_missing_corpus_file_is_usage_error(tmp_path):
    assert run(["rwt", "--corpus", str(tmp_path / "nope.json")]) == USAGE


_GOOD_ENTRY = {
    "id": "d2-square", "dim": 2, "E": [[[0.0, 1.0], [0.0, 1.0]]], "F": [[[0.0, 1.0], [0.0, 1.0]]],
    "interval": [0.0, 1.0], "window": [0.0, 1.0], "tags": [],
}


@pytest.mark.parametrize(
    "payload",
    [
        {"version": 1, "entries": [{**_GOOD_ENTRY, "interval": [1]}]},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "interval": 5}]},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "interval": [{"a": 1}, 2]}]},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "E": [[{"x": 1}, {"y": 2}]]}]},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "tags": 5}]},
        {"version": 1, "entries": 5},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "dim": 1, "E": [[[0.0, 1.0]]], "F": [[[0.0, 1.0]]]}]},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "F": [[[0.0, 1.0]]]}]},
        {"version": 1, "entries": [{**_GOOD_ENTRY, "dim": 3}]},
        {"version": 1, "entries": []},
        {"version": 1, "entries": [_GOOD_ENTRY, {**_GOOD_ENTRY, "interval": [0.0, 2.0]}]},
        [_GOOD_ENTRY],
        {"version": 1, "entries": [{**_GOOD_ENTRY, "id": 5}]},
    ],
    ids=[
        "interval-one-end", "interval-number", "interval-object", "box-objects", "tags-number",
        "entries-number", "one-d", "mixed-dims", "dim-disagrees", "no-entries", "duplicate-ids",
        "top-level-list", "id-number",
    ],
)
def test_malformed_corpus_is_usage_error(payload, tmp_path, capsys):
    """Corpus input that is the wrong type anywhere, an entry without a line
    complex (d = 1, or E and F of different dimensions), a file with no
    entries (a sweep over it would pass having checked nothing), two
    entries with one id, an id that is not a string (--entry could never
    name it) or a top level that is not an object exits 2, as a bad value
    does."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "report.csv"
    for command in ("rwt", "lemma2"):
        assert run([command, "--corpus", str(path), "--output", str(out)]) == USAGE, command
        assert "cannot load corpus" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_failing_gate_returns_fail(mini_corpus_path, tmp_path):
    out = tmp_path / "rwt.csv"
    argv = [
        "rwt", "--corpus", mini_corpus_path, "--floor", "99",
        "--output", str(out),
    ]
    assert run(argv) == FAIL


# ---------------------------------------------------------------------------
# outputs, manifests, determinism


def test_rwt_csv_output_and_manifest(mini_corpus_path, tmp_path):
    out = tmp_path / "rwt.csv"
    argv = ["rwt", "--corpus", mini_corpus_path, "--output", str(out)]
    assert run(argv) == PASS
    text = out.read_text()
    assert text.startswith("# ")
    header_keys = [
        line[2:].split("=", 1)[0] for line in text.splitlines() if line.startswith("# ")
    ]
    assert "command" in header_keys and "floor" in header_keys
    body = [line for line in text.splitlines() if not line.startswith("# ")]
    assert body[0].split(",")[:3] == ["corpus_id", "d", "t_value"]
    assert len(body) == 4  # header plus three entries

    manifest = json.loads((tmp_path / "rwt.csv.manifest.json").read_text())
    assert manifest["command"].startswith("rwt")
    assert "config_hash" in manifest and "wall_time_s" in manifest
    assert manifest["outputs"]["rwt.csv"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_csv_cells_are_quoted(tmp_path):
    """A corpus id holding a comma or a quote is quoted in the CSV, so every
    row reads back as wide as the header."""
    unit = next(e for e in build_default_corpus() if e.entry_id == "d2-unit")
    ids = ["pair,one", 'say "two"']
    path = tmp_path / "odd.json"
    save_corpus([dataclasses.replace(unit, entry_id=i) for i in ids], path)
    out = tmp_path / "rwt.csv"
    assert run(["rwt", "--corpus", str(path), "--output", str(out)]) == PASS
    lines = [line for line in out.read_text().splitlines(True) if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    assert header == ["corpus_id", "d", *(f.name for f in dataclasses.fields(RwtReport)), "verdict"]
    assert [row[0] for row in rows] == ids
    assert all(len(row) == len(header) == 9 for row in rows)


def _thin_entry(d, width):
    """E = [0, width] x [0, 1]^(d-1) against the unit cube, over [0, width]."""
    return CorpusEntry(
        entry_id=f"thin-d{d}",
        E=BoxUnionSet([[[0.0, width]] + [[0.0, 1.0]] * (d - 1)]),
        F=BoxUnionSet([[[0.0, 1.0]] * d]),
        interval=Interval(0.0, width),
        window=Interval(0.0, 1.0),
    )


def test_rwt_ratio_range(tmp_path, capsys):
    """At width 1e-200 in the plane the ratio, about 1e200, is written and
    passes; in d = 3 at width 1e-160 it would be about 1e320, past float
    range, and is refused with exit 2 and no report."""
    path, out = tmp_path / "thin.json", tmp_path / "rwt.csv"
    save_corpus([_thin_entry(2, 1e-200)], path)
    assert run(["rwt", "--corpus", str(path), "--output", str(out)]) == PASS
    lines = [line for line in out.read_text().splitlines(True) if not line.startswith("#")]
    (row,) = csv.DictReader(lines)
    assert row["corpus_id"] == "thin-d2" and row["verdict"] == "PASS"
    assert float(row["ratio"]) == pytest.approx(1e200, rel=1e-12)
    save_corpus([_thin_entry(3, 1e-160)], path)
    out.unlink()
    assert run(["rwt", "--corpus", str(path), "--output", str(out)]) == USAGE
    assert "not a finite float" in capsys.readouterr().err
    assert not out.exists()


def test_outputs_are_byte_deterministic(mini_corpus_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run(["rwt", "--corpus", mini_corpus_path, "--output", str(out)]) == PASS
    assert a.read_bytes() == b.read_bytes()
    ma = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    mb = json.loads((tmp_path / "b.csv.manifest.json").read_text())
    assert ma["config_hash"] == mb["config_hash"]
    assert ma["outputs"]["a.csv"] == mb["outputs"]["b.csv"]


def test_flag_overrides_config_value(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dims": [2], "samples": 7}))
    out = tmp_path / "jac.csv"
    argv = [
        "jacobian", "--config", str(cfg), "--samples", "5",
        "--output", str(out),
    ]
    assert run(argv) == PASS
    meta = dict(
        line[2:].split("=", 1)
        for line in out.read_text().splitlines()
        if line.startswith("# ")
    )
    assert meta["samples"] == "5"
    assert meta["dims"] == "[2]"
    assert meta["seed"] == "0"


def test_json_format_structure(tmp_path):
    out = tmp_path / "duality.json"
    argv = [
        "duality", "--dims", "2", "--pairs", "2", "--format", "json",
        "--output", str(out),
    ]
    assert run(argv) == PASS
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "columns", "rows"}
    assert payload["meta"]["command"].startswith("duality")
    assert len(payload["rows"]) == 2


@pytest.mark.parametrize(
    "argv, err",
    [(["exponents"], ""), (["duality", "--dims", "2", "--pairs", "2"], "verdict: PASS\n")],
)
def test_json_format_without_output_prints_one_document(argv, err, capsys):
    """stdout holds the JSON document alone; the verdict goes to stderr."""
    assert run([*argv, "--format", "json"]) == PASS
    captured = capsys.readouterr()
    assert json.loads(captured.out)["meta"]["command"] == argv[0]
    assert captured.err == err


def test_scaling_and_necessity_quick(tmp_path):
    out = tmp_path / "scaling.csv"
    argv = [
        "scaling", "--dim", "2", "--n-list", "16,32,64,128",
        "--output", str(out),
    ]
    assert run(argv) == PASS
    meta = dict(
        line[2:].split("=", 1)
        for line in out.read_text().splitlines()
        if line.startswith("# ")
    )
    assert float(meta["slope_f"]) < 0
    assert run(["scaling", "--dim", "2", "--r", "inf", "--n-list", "16,32,64,128"]) == PASS
    assert run(["necessity", "--dim", "2", "--n-list", "16,32,64,128"]) == PASS


def test_lemma2_quick(mini_corpus_path, capsys):
    argv = [
        "lemma2", "--corpus", mini_corpus_path, "--grid-n", "16", "--sweep",
    ]
    assert run(argv) == PASS
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


@pytest.mark.parametrize(
    "argv, header",
    [
        (
            ["rwt"],
            "corpus_id,d,t_value,measure_e,measure_f,alpha,beta,ratio,verdict",
        ),
        (
            ["lemma2", "--grid-n", "16"],
            "corpus_id,kind,theta,region_measure,subset_measure,rhs,ratio,verdict",
        ),
        (
            ["necessity", "--dim", "2", "--n-list", "16,32,64"],
            "d,r_over_critical,r,slope_f,slope_xf,slope_gap,verdict",
        ),
    ],
)
def test_record_columns_are_the_published_header(argv, header, mini_corpus_path, tmp_path):
    """These rows are read off result records, so reordering a record's
    fields would change the published columns."""
    out = tmp_path / "report.csv"
    corpus = [] if argv[0] == "necessity" else ["--corpus", mini_corpus_path]
    assert run([*argv, *corpus, "--output", str(out)]) == PASS
    lines = [line for line in out.read_text().splitlines() if not line.startswith("# ")]
    assert lines[0] == header


@pytest.mark.parametrize("grid_n", ["8", "16"])
def test_lemma2_theta_frac_one_exits_zero(grid_n):
    """Each grid has a corpus entry whose cells all hold one value, whose
    average rounds one ulp above it."""
    assert run(["lemma2", "--theta-frac", "1", "--grid-n", grid_n]) == PASS


def test_refine_json_report(tmp_path):
    out = tmp_path / "towers.json"
    argv = [
        "refine", "--entry", "d2-unit", "--start", "phi", "--max-nodes", "500",
        "--samples", "40", "--format", "json", "--output", str(out),
    ]
    assert run(argv) == PASS
    payload = json.loads(out.read_text())
    assert set(payload) == {"meta", "towers"}
    meta = payload["meta"]
    assert meta["command"] == "refine"
    assert (meta["entry"], meta["start"], meta["max_nodes"], meta["samples"]) == (
        "d2-unit", "phi", 500, 40,
    )
    manifest = json.loads((tmp_path / "towers.json.manifest.json").read_text())
    assert manifest["outputs"]["towers.json"] == hashlib.sha256(out.read_bytes()).hexdigest()
    tower = payload["towers"]["phi"]
    assert tower["structure_fraction"] == 1.0
    assert tower["ratio"] > 0.0
    assert tower["levels"][0]["n_nodes"] > 0


def test_acceptance_quick_suite(tmp_path, capsys, monkeypatch):
    suites = []

    def recording_run_suite(**kwargs):
        suites.append(run_suite(**kwargs))
        return suites[-1]

    monkeypatch.setattr(cli, "run_suite", recording_run_suite)
    outdir = tmp_path / "suite"
    assert run(["acceptance", "--profile", "quick", "--outdir", str(outdir)]) == PASS
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9
    assert "suite: PASS" in out
    # the command writes exactly the report bytes the suite rendered, and the
    # manifest records their digests
    (suite,) = suites
    written = sorted(p.name for p in outdir.iterdir())
    assert written == sorted([*suite.reports, "manifest.json"])
    for name, data in suite.reports.items():
        assert (outdir / name).read_bytes() == data
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["outputs"] == {
        name: hashlib.sha256(data).hexdigest() for name, data in suite.reports.items()
    }
    summary = json.loads((outdir / "acceptance_summary.json").read_text())
    assert summary["passed"] is True
    # per-criterion wall time goes to the manifest only, never the reports
    assert sorted(manifest["criterion_seconds"], key=int) == [
        str(i) for i in range(1, 10)
    ]
    assert "criterion_seconds" not in json.dumps(summary)


def test_manifest_hash_names_the_configuration_not_the_outdir(tmp_path, monkeypatch):
    """Two runs written to different directories share one config_hash;
    another seed changes it."""
    def stub_run_suite(seed, profile):
        return SuiteResult(results=[], seconds={}, reports={"r.csv": b"x\n"})

    monkeypatch.setattr(cli, "run_suite", stub_run_suite)
    hashes = []
    for name, seed in (("a", "0"), ("b", "0"), ("c", "1")):
        outdir = tmp_path / name
        argv = ["acceptance", "--profile", "quick", "--outdir", str(outdir), "--seed", seed]
        assert run(argv) == PASS
        hashes.append(json.loads((outdir / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "momentray.cli", "exponents"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == PASS
    assert "10/7" in proc.stdout


# ---------------------------------------------------------------------------
# a numpy-only runtime: scipy is a test dependency


@pytest.mark.parametrize("prefix", ["scipy", "numpy.polynomial"])
def test_cli_import_loads_no_scipy(prefix):
    """Importing the CLI imports every module of the package, and neither
    scipy (a test dependency) nor numpy.polynomial, which numpy loads only
    when first used: an import-time lookup of np.polynomial fails here."""
    code = (
        "import sys, momentray.cli\n"
        "prefix = sys.argv[1]\n"
        "print(sorted(m for m in sys.modules if (m + '.').startswith(prefix + '.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code, prefix], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_zeta_commands_run_with_scipy_blocked(tmp_path):
    """scaling and necessity evaluate the Hurwitz zeta; with scipy made
    unimportable before the package loads, both still exit 0."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from momentray.cli import main\n"
        "codes = [main([c, '--output', f'{sys.argv[1]}/{c}.csv']) for c in ('scaling', 'necessity')]\n"
        "print(codes)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0]"
    assert (tmp_path / "scaling.csv").exists() and (tmp_path / "necessity.csv").exists()
