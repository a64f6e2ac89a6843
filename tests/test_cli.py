"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys

import pytest

from momentray import cli
from momentray.corpus import build_default_corpus, save_corpus

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
    assert "command" in header_keys and "seed" in header_keys
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
