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
import re
import subprocess
import sys
from pathlib import Path

import momentray

PACKAGE = Path(momentray.__file__).parent

# Reached only from tests or the benchmark on purpose; test-only oracles
# live in tests/oracles.py instead.
EXEMPT = {
    "sharpness.dilate_configuration": "test oracle for dilation invariance of the testing ratio",
    "sharpness.verify_minorant": "the benchmark's family-minorant entry point",
    "sharpness.lemma2_grid_primal": "the benchmark's tower-corpus lemma2 op; the package scores it and the sweep from one grid through check_lemma2_primal",
    "sharpness.lemma2_shrinking_sweep": "the benchmark's tower-corpus lemma2 op; the package scores it and the primal report from one grid through check_lemma2_primal",
}


# Shadowed methods, each with a caller in src/ that reaches it.
SHADOWED = {
    "sets.BoxUnionSet.dim": "transform._fiber_points reads region.dim of a BoxUnionSet",
    "corpus.CorpusEntry.dim": "cli.cmd_rwt reads entry.dim of a corpus entry",
    "sets.BoxUnionSet.measure": "sharpness.check_rwt reads E.measure and F.measure",
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


def test_exemptions_are_the_benchmark_entry_points_and_the_dilation_route():
    """Only what bench/ calls and one future gate route stay exempt."""
    assert set(EXEMPT) == {
        "sharpness.verify_minorant",
        "sharpness.lemma2_grid_primal",
        "sharpness.lemma2_shrinking_sweep",
        "sharpness.dilate_configuration",
    }


def test_shadowed_table_names_exactly_the_shadowed_methods():
    public, _ = _public_defs_and_references()
    assert set(SHADOWED) == _shadowed(public)


# ---------------------------------------------------------------------------
# every default has a caller

REPO = PACKAGE.parents[1]

# Defaults no call in src/ or bench/ sets, kept on purpose.
DEFAULT_EXEMPT = {
    "refinement.build_tower.base": "tests pin a hand-placed base point with it",
    "acceptance.random_box_pair.max_boxes": "tests draw 3-box unions with it",
    "transform.CellBlock.corner_values": "bench/layers.py reads the field",
}


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _has_default(value):
    """A field's value is a default unless it is field(...) without one."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and isinstance(value.func, ast.Name) and value.func.id == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _parameter_defaults(fn, qualified, call_name, skip):
    """(setting, call name, position or None, keyword, fn) per defaulted parameter."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield f"{qualified}.{arg.arg}", call_name, i - skip, arg.arg, fn
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualified}.{arg.arg}", call_name, None, arg.arg, fn


def _public_defaults(trees):
    """Every defaulted parameter of a public function or method and every
    defaulted public field of a dataclass in the package."""
    for stem, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield from _parameter_defaults(node, f"{stem}.{node.name}", node.name, 0)
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            owner = f"{stem}.{node.name}"
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield from _parameter_defaults(item, owner, node.name, 1)
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield from _parameter_defaults(item, f"{owner}.{item.name}", item.name, 1)
            if _is_dataclass(node):
                fields = [
                    item
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                for i, item in enumerate(fields):
                    name = item.target.id
                    if not name.startswith("_") and _has_default(item.value):
                        yield f"{owner}.{name}", node.name, i, name, None


def _calls(trees, scopes):
    """Call name -> [(position, keyword, source)] for every argument passed
    by a call in src/ or bench/.

    source is the setting whose value the argument passes on unchanged (a
    bare name of a defaulted parameter of the enclosing public function),
    else None.  A starred argument stands for every position (-1), a **
    argument for every keyword (None).
    """
    calls = {}
    for tree in trees:
        enclosing = {}
        for fn in ast.walk(tree):  # outer functions first; a nested one adds its own
            if isinstance(fn, ast.FunctionDef):
                scope = {**enclosing.get(id(fn), {}), **scopes.get(id(fn), {})}
                for node in ast.walk(fn):
                    enclosing[id(node)] = scope
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            scope = enclosing.get(id(node), {})

            def source(value):
                return scope.get(value.id) if isinstance(value, ast.Name) else None

            passed = calls.setdefault(name, [])
            for i, value in enumerate(node.args):
                starred = isinstance(value, ast.Starred)
                passed.append((-1 if starred else i, "", None if starred else source(value)))
            passed += [(None, k.arg, source(k.value)) for k in node.keywords]
    return calls


def _unset_defaults():
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    defaults = list(_public_defaults(trees))
    scopes = {}
    for setting, _, _, keyword, fn in defaults:
        if fn is not None:
            scopes.setdefault(id(fn), {})[keyword] = setting
    bench = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((REPO / "bench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    calls = _calls([*trees.values(), *bench], scopes)
    # a setting is set by a call that passes it a value of its own, or that
    # passes on a setting which is itself set
    settled = set()
    while True:
        now = {
            setting
            for setting, call_name, position, keyword, _ in defaults
            if any(
                (kw is None or kw == keyword or (position is not None and pos in (-1, position)))
                and (source is None or source in settled)
                for pos, kw, source in calls.get(call_name, ())
            )
        }
        if now == settled:
            return {setting for setting, *_ in defaults} - now
        settled = now


def test_every_default_is_set_by_a_caller_in_src_or_bench():
    """A default no package or benchmark call sets is a constant in disguise."""
    assert sorted(_unset_defaults() - set(DEFAULT_EXEMPT)) == []


def test_default_exemptions_name_existing_unset_defaults():
    assert set(DEFAULT_EXEMPT) <= _unset_defaults()


# ---------------------------------------------------------------------------
# the package itself holds only its version


def test_package_import_loads_no_submodule_and_no_numpy():
    """Callers import each name from its defining submodule, so importing
    the bare package loads none of them, and no numpy."""
    code = (
        "import sys, momentray\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('momentray.') or m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_version_matches_pyproject():
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE)
    assert declared is not None
    assert momentray.__version__ == declared.group(1)
