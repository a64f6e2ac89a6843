"""Every public function of the package is reached from the package itself.

A public function whose only caller is its own unit test is surface to
maintain with nothing depending on it.  References are names and attribute
lookups in the code of src/ (not in comments or docstrings), outside the
definition itself and __init__.py; a method counts as referenced when any
attribute of its name is looked up.  A method whose name is also a field or
attribute of another class is shadowed: a lookup of that name may reach the
other class, so such a method counts as reached only when SHADOWED names a
caller that reaches it.
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
    "sharpness.verify_minorant": "the benchmark's family-minorant entry point",
    "sharpness.lemma2_grid_primal": "the benchmark's tower-corpus lemma2 op; the package scores it and the sweep from one grid through _lemma2_primal",
    "sharpness.lemma2_shrinking_sweep": "the benchmark's tower-corpus lemma2 op; the package scores it and the primal report from one grid through _lemma2_primal",
}


# Shadowed methods, each with a caller in src/ that reaches it.
SHADOWED = {
    "sets.BoxUnionSet.dim": "transform._fiber_points reads region.dim of a BoxUnionSet",
    "corpus.CorpusEntry.dim": "corpus.entry_to_jsonable reads entry.dim",
    "sets.BoxUnionSet.measure": "sharpness.check_rwt reads E.measure and F.measure",
    "acceptance.Gate.passed": "CriterionResult.passed reads g.passed of each gate",
    "acceptance.CriterionResult.passed": "acceptance.run_suite reads r.passed of each result",
    "sharpness.RwtReport.verdict": "cli.cmd_rwt reads rep.verdict of a check_rwt report",
}


def _class_attributes(cls):
    """Names a class binds on its instances: annotated fields and self.x = ..."""
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node in cls.body:
            names.add(node.target.id)
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for t in targets:
            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self":
                names.add(t.attr)
    return names


def _shadowed(public):
    """Public methods whose name another class binds as an attribute."""
    owners = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                for name in _class_attributes(node):
                    owners.setdefault(name, set()).add(f"{path.stem}.{node.name}")
    return {
        qualified
        for qualified, name in public
        if qualified.count(".") == 2 and owners.get(name, set()) - {qualified.rsplit(".", 1)[0]}
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


def _unreached(public, referenced):
    shadowed = _shadowed(public)
    return {
        qualified
        for qualified, name in public
        if (qualified not in SHADOWED if qualified in shadowed else name not in referenced)
    }


def test_every_public_function_has_a_caller_in_src():
    public, referenced = _public_defs_and_references()
    assert sorted(_unreached(public, referenced) - set(EXEMPT)) == []


def test_exemptions_name_existing_unreached_functions():
    public, referenced = _public_defs_and_references()
    assert set(EXEMPT) <= _unreached(public, referenced)


def test_shadowed_table_names_exactly_the_shadowed_methods():
    public, _ = _public_defs_and_references()
    assert set(SHADOWED) == _shadowed(public)
