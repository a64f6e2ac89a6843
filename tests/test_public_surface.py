"""Every public function of the package is reached from the package itself.

A public function whose only caller is its own unit test is surface to
maintain with nothing depending on it.  References are names and attribute
lookups in the code of src/ (not in comments or docstrings), outside the
definition itself and __init__.py; a method counts as referenced when any
attribute of its name is looked up.
"""

import ast
from pathlib import Path

import momentray

PACKAGE = Path(momentray.__file__).parent

# Reached only from tests or the benchmark on purpose.
EXEMPT = {
    "geometry.psi_map_closed": "test oracle for the psi recursion",
    "geometry.closed_form_degree": "test oracle for the scaling degree of the factored Jacobian",
    "refinement.rasterized_image_measure": "test oracle for the image-volume lower bound",
    "corpus.save_corpus": "tests write corpus files for the CLI with it",
    "sharpness.dilate_configuration": "test oracle for dilation invariance of the testing ratios",
    "lorentz.blockwise_lorentz_norm": "test oracle for the exact Lorentz norm",
    "sharpness.xf_lower_exact_lorentz": "test oracle for the blockwise X f lower bound",
    "sets.FiberSet.n_intervals": "tests check fiber merging with it",
    "sharpness.verify_minorant": "the benchmark's family-minorant entry point",
}


def _public_defs_and_references():
    defs, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs.append((f"{path.stem}.{node.name}.{item.name}", item.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    public = [(qualified, name) for qualified, name in defs if not name.startswith("_")]
    return public, referenced


def test_every_public_function_has_a_caller_in_src():
    public, referenced = _public_defs_and_references()
    unreached = sorted(
        qualified
        for qualified, name in public
        if name not in referenced and qualified not in EXEMPT
    )
    assert unreached == []


def test_exemptions_name_existing_unreached_functions():
    public, referenced = _public_defs_and_references()
    unreached = {qualified for qualified, name in public if name not in referenced}
    assert set(EXEMPT) <= unreached
