"""Imports stay lean: every module-level import under src/ and tests/ is used
in its file, a run loads only the scipy modules it calls, an audit loads no
scenario sampler, and only an HTTP probe loads urllib's client."""

import ast
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.joinpath("src").rglob("*.py"), *ROOT.joinpath("tests").rglob("*.py")])


def unused_imports(source):
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_guard_flags_an_unused_import():
    assert unused_imports("import csv\nimport math\nfrom os import path as p\nmath.pi\n") == [
        (1, "csv"),
        (3, "p"),
    ]


def test_no_unused_module_level_imports():
    assert SOURCES
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in SOURCES
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def loaded_after(code, package="scipy"):
    """Sorted names of ``package`` and its modules in sys.modules after
    running ``code`` in a fresh interpreter that imports the package from
    this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    report = (
        "import json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == {package!r})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats is loaded only by Fisher's small-cell 2x2 branch
    loaded = loaded_after("import proxyaudit.cli")
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith("scipy.stats")] == []


def test_cli_import_leaves_synth_out():
    # only the synth command and causal interventions import the sampler
    loaded = loaded_after("import proxyaudit.cli", package="proxyaudit")
    assert "proxyaudit.report" in loaded
    assert "proxyaudit.synth" not in loaded


def test_models_and_probe_reference_load_no_scipy():
    assert loaded_after("import proxyaudit.models, proxyaudit.probe_reference") == []


@pytest.mark.parametrize("module", ["proxyaudit.cli", "proxyaudit.probe_reference"])
def test_urllib_request_loads_only_for_http_probes(module):
    # the parent audit and the probe child import no HTTP client
    assert "urllib.request" not in loaded_after(f"import {module}", package="urllib")


def test_probe_child_loads_a_spec_without_jsonschema(tmp_path):
    # the probe child's start-up is on every probe audit's critical path, so
    # model specs keep their hand-written checks and import no jsonschema
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "kind": "linear", "parameters": {"intercept": 0.0, "coefficients": {"x": 1.0}},
        "feature_order": ["x"],
    }))
    code = (
        "import proxyaudit.probe_reference\n"
        "from proxyaudit.models import ModelSpec\n"
        f"ModelSpec.load({str(spec)!r})"
    )
    assert loaded_after(code, package="jsonschema") == []


@pytest.mark.parametrize(
    "kind, want, loads_special",
    [
        ("linear", [-1.0, 0.0, 5.0], False),
        ("logistic", [1 / (1 + math.e), 0.5, 1 / (1 + math.exp(-5))], True),
    ],
)
def test_only_logistic_specs_load_scipy_special(kind, want, loads_special):
    code = textwrap.dedent(f"""
        import numpy as np
        from proxyaudit.models import BuiltinModelHandle, ModelSpec
        spec = ModelSpec({kind!r}, {{"intercept": -1.0, "coefficients": {{"x": 2.0}}}}, ("x",))
        scores = BuiltinModelHandle(spec).score_columns({{"x": np.array([0.0, 0.5, 3.0])}}, 3)
        assert np.allclose(scores, {want!r}, rtol=1e-15, atol=0), scores
    """)
    loaded = loaded_after(code)
    assert ("scipy.special" in loaded) is loads_special
    assert [m for m in loaded if m.startswith("scipy.stats")] == []


def unreferenced_private_names(sources):
    """Module-level private functions, classes and constants (``_name``) in
    ``sources`` (path -> text) that no source mentions outside their own
    definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    references = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if name is not None:
                references.setdefault(name, set()).add(id(node))
    found = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = {id(n) for n in ast.walk(node)}
            found += [
                f"{path}: {name}"
                for name in names
                if name.startswith("_") and not name.startswith("__")
                and not references.get(name, set()) - own
            ]
    return found


def test_guard_flags_an_unreferenced_private_name():
    sources = {
        "a.py": "def _dead():\n    return _dead()\n_KEPT = 1\n",
        "b.py": "from a import _KEPT\nclass _Unused:\n    pass\n",
    }
    assert unreferenced_private_names(sources) == ["a.py: _dead", "b.py: _Unused"]


def test_every_private_module_level_name_has_a_caller():
    package = ROOT / "src" / "proxyaudit"
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted(package.rglob("*.py"))
    }
    assert unreferenced_private_names(sources) == []


def test_readme_library_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in readme.split("```python\n")[1:]]
    lines = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("from proxyaudit")
    ]
    assert lines
    for line in lines:
        exec(line, {})
