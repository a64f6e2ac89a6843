"""Seeded-defect audit: which acceptance gates catch a deliberately broken copy.

Each case copies the package into a temporary directory, applies one
substitution that must occur exactly once in its file (so a refactor that
moves the line fails here loudly), and runs criteria 1-8 at the full
profile in a child process that imports the copy.  The child exits 0 when
every gate passes and 1 when some gate fails, printing each failing gate as
index:metric; anything else is an error of the harness, not a kill.

A defect no gate catches yet is a strict xfail: once a gate catches it, the
mark must come off and the case move to the caught table.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import momentray

PACKAGE = Path(momentray.__file__).parent

CHILD = """\
import sys
from pathlib import Path

import momentray
from momentray.acceptance import ALL_CRITERIA

assert Path(momentray.__file__).resolve().is_relative_to(Path(sys.argv[1]).resolve())
results = [fn(seed=0, profile="full") for fn in ALL_CRITERIA[:-1]]
failed = [f"{r.index}:{g.metric}" for r in results for g in r.gates if not g.passed]
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


def _failing_gates(tmp_path, module=None, old=None, new=None):
    """The index:metric names of the gates criteria 1-8 fail on a copy of
    the package with old replaced by new in module.

    Harness faults raise RuntimeError, not AssertionError, so that no
    xfail mark hides them."""
    root = tmp_path / "src"
    shutil.copytree(PACKAGE, root / "momentray", ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        path = root / "momentray" / module
        text = path.read_text()
        if text.count(old) != 1:
            raise RuntimeError(f"{old!r} occurs {text.count(old)} times in {module}")
        path.write_text(text.replace(old, new))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(root)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root)},
        timeout=120,
    )
    failed = set(proc.stdout.split())
    if proc.returncode not in (0, 1) or (proc.returncode == 1) != bool(failed):
        raise RuntimeError(f"audit child exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return failed


def test_unmodified_copy_passes_every_gate(tmp_path):
    assert _failing_gates(tmp_path) == set()


@pytest.mark.parametrize(
    "module, old, new, caught_by",
    [
        (
            "transform.py",
            "return np.maximum(length, 0.0, out=length)",
            "return 0.9 * np.maximum(length, 0.0, out=length)",
            {"3:err_midpoint"},
        ),
        (
            "transform.py",
            "    return float(total)",
            "    return 0.9 * float(total)",
            {"3:err_layered", "3:err_alpha", "3:err_beta", "3:err_ratio"},
        ),
    ],
    ids=["fiber-length", "layered-pairing"],
)
def test_seeded_defect_is_caught(tmp_path, module, old, new, caught_by):
    assert _failing_gates(tmp_path, module, old, new) == caught_by


def _uncaught(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


@pytest.mark.parametrize(
    "module, old, new",
    [
        pytest.param(
            "sharpness.py", "delta**2 * a", "delta**3 * a",
            id="primal-rhs-delta-power",
            marks=_uncaught("criterion 7 gates floors only, at a quarter to half the ratios"),
        ),
        pytest.param(
            "sharpness.py",
            "b ** ((d * d - d + 2) // 2 - d)",
            "b ** ((d * d - d + 2) // 2 - d - 1)",
            id="dual-rhs-b-power",
            marks=_uncaught("criterion 7 gates floors only, at a quarter to half the ratios"),
        ),
        pytest.param(
            "refinement.py",
            "keep = (measures >= threshold) & (measures > 0.0)",
            "keep = measures > 0.0",
            id="tower-keeps-every-node",
            marks=_uncaught("the keep rule binds on neither of criterion 8's two configurations"),
        ),
        pytest.param(
            "refinement.py",
            "measure=float(node_vols.sum()),",
            "measure=1.5 * float(node_vols.sum()),",
            id="tower-level-measure",
            marks=_uncaught("criterion 8 admits any level-to-oracle ratio in [0.5, 2]"),
        ),
        pytest.param(
            "sharpness.py",
            "else subject / rhs",
            "else 0.9 * subject / rhs",
            id="two-slice-ratio",
            marks=_uncaught("criterion 7 gates floors only, at a quarter to half the ratios"),
        ),
        pytest.param(
            "transform.py",
            "    return total\n\n\ndef _fiber_points(",
            "    return 0.9 * total if dual else total\n\n\ndef _fiber_points(",
            id="dual-fiber-measures",
            marks=_uncaught("the dual grids feed only criterion 7's loose dual floor"),
        ),
    ],
)
def test_seeded_defect_no_gate_catches_yet(tmp_path, module, old, new):
    assert _failing_gates(tmp_path, module, old, new)
