"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys

import pytest

from momentray import cli
from momentray.corpus import CorpusEntry, build_default_corpus, save_corpus
from momentray.sets import BoxUnionSet, Interval

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
        ("superlevel", {"grid_n": 8.5}),
        ("jacobian", {"samples": True}),
        ("refine", {"start": "phi,psi"}),
        ("scaling", {"n_list": 64}),
        ("jacobian", {"dims": []}),
        ("jacobian", {"samples": 1}),
        ("duality", {"pairs": 0}),
        ("duality", {"pairs": -1}),
        ("refine", {"samples": 0}),
        ("refine", {"samples": -5}),
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
        "superlevel": ["--corpus", mini_corpus_path, "--grid-n", "8"],
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
        ["superlevel", "--entry", "far-apart", "--grid-n", "8"],
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


def test_missing_config_file_is_usage_error(tmp_path):
    assert run(["jacobian", "--config", str(tmp_path / "nope.json")]) == USAGE


def test_missing_corpus_file_is_usage_error(tmp_path):
    assert run(["rwt", "--corpus", str(tmp_path / "nope.json")]) == USAGE


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
    assert len(manifest["outputs"]["rwt.csv"]) == 64  # sha256 hex digest


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
    assert run(["necessity", "--dim", "2", "--n-list", "16,32,64,128"]) == PASS


def test_lemma2_and_superlevel_quick(mini_corpus_path, capsys):
    argv = [
        "lemma2", "--corpus", mini_corpus_path, "--grid-n", "16", "--sweep",
    ]
    assert run(argv) == PASS
    out = capsys.readouterr().out
    assert "verdict: PASS" in out
    assert run(["superlevel", "--corpus", mini_corpus_path, "--grid-n", "16"]) == PASS


def test_refine_json_report(tmp_path):
    out = tmp_path / "towers.json"
    argv = [
        "refine", "--entry", "d2-unit", "--start", "phi", "--max-nodes", "500",
        "--samples", "40", "--format", "json", "--output", str(out),
    ]
    assert run(argv) == PASS
    payload = json.loads(out.read_text())
    assert "towers" in payload
    tower = payload["towers"]["phi"]
    assert tower["structure_fraction"] == 1.0
    assert tower["ratio"] > 0.0
    assert tower["levels"][0]["n_nodes"] > 0


def test_acceptance_quick_suite(tmp_path, capsys):
    outdir = tmp_path / "suite"
    assert run(["acceptance", "--profile", "quick", "--outdir", str(outdir)]) == PASS
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 9
    assert "suite: PASS" in out
    assert (outdir / "acceptance_results.csv").exists()
    assert (outdir / "acceptance_summary.json").exists()
    assert (outdir / "manifest.json").exists()
    summary = json.loads((outdir / "acceptance_summary.json").read_text())
    assert summary["passed"] is True


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "momentray.cli", "exponents"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == PASS
    assert "10/7" in proc.stdout
