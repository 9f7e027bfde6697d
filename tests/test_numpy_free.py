"""numpy stays off the CLI's import path and the scalar analysis path, and
integration off the Hopf scan.  ``dataclasses`` (and the ``inspect`` it
loads) stays off the import path too: the records are ``typing.NamedTuple``
classes.

The 2x2 algebra of stability, Hopf and Bogdanov-Takens analysis runs on the
float tuples of ``model.jet``, and ``sim`` keeps a trajectory as the
kernel's float lists.  numpy is named in ``src`` only inside
``model.jacobian`` and ``equilibria.interior_roots_oracle``, each of which
imports it when called, so no module imports it at load time.  The static
checks read the source with ``ast``, so they hold without importing it.
The runtime checks start a fresh interpreter: ``import predbif.cli`` and
six of the eight commands leave numpy unloaded; ``stability`` and
``sweep`` load it through ``classify_generic``'s call of ``jacobian``,
which returns an ndarray.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "predbif"
CONFIGS = sorted((SRC.parents[1] / "configs").glob("*.cfg"))

NUMPY_FREE_COMMANDS = ["equilibria", "hopf", "bt-locate", "bt-normal-form", "bt-curves",
                       "simulate"]
NUMPY_COMMANDS = ["stability", "sweep"]

#: where numpy may be named: (module, top-level function)
NUMPY_FUNCTIONS = {("model", "jacobian"), ("equilibria", "interior_roots_oracle")}

# Runs each argv (a JSON list of argv lists) through cli.run in a fresh
# interpreter and prints whether numpy is loaded after the import and after
# each run, with the exit codes.
_FRESH = """
import json, sys
from predbif import cli
loaded = ["numpy" in sys.modules]
codes = []
for argv in json.loads(sys.argv[1]):
    codes.append(cli.run(argv))
    loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "codes": codes}))
"""

# Prints the modules that ``import predbif.cli`` adds to those loaded before
# it, so modules that ``site`` preloads do not count.
_FRESH_IMPORT = """
import json, sys
before = set(sys.modules)
import predbif.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _imports(tree):
    """Every module name an import statement of ``tree`` names, with the
    imported names of a ``from`` import appended to its module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def _names_numpy(node):
    """Whether ``node`` imports numpy or reads the name ``np`` or ``numpy``."""
    return (any(name.split(".")[0] == "numpy" for name in _imports(node))
            or any(isinstance(n, ast.Name) and n.id in ("np", "numpy") for n in ast.walk(node)))


def _load_time_statements(body):
    """The statements of ``body`` that run when the module loads: all but
    the bodies of functions, descending into classes and compound
    statements."""
    for node in body:
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _load_time_statements(getattr(node, field, []))


def _fresh_run(argvs, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _FRESH, json.dumps(argvs)], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["stability", "hopf", "bt", "sim", "cli"])
def test_scalar_modules_do_not_import_numpy(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert [name for name in _imports(tree) if name.split(".")[0] == "numpy"] == []


def test_no_module_imports_numpy_at_load_time():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        body = ast.parse(path.read_text()).body
        imports = [node.lineno for node in _load_time_statements(body)
                   if isinstance(node, (ast.Import, ast.ImportFrom)) and _names_numpy(node)]
        assert imports == [], (path, imports)


def test_numpy_is_named_only_in_jacobian_and_the_oracle():
    named = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if _names_numpy(node):
                assert isinstance(node, ast.FunctionDef), (path, node.lineno)
                named.add((path.stem, node.name))
    assert named == NUMPY_FUNCTIONS


def test_no_linalg_under_src():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text())
        assert [name for name in _imports(tree) if "linalg" in name.split(".")] == [], path
        attrs = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "linalg"]
        assert attrs == [], (path, attrs)
    for path in sorted(SRC.iterdir()):
        if path.suffix == ".c":
            assert "linalg" not in path.read_text(), path


def test_no_module_imports_dataclasses():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text())
        assert [name for name in _imports(tree) if name.split(".")[0] == "dataclasses"] == [], path


def test_cli_import_loads_no_dataclasses_or_inspect(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True, timeout=300)
    added = set(json.loads(out.stdout.splitlines()[-1]))
    assert "predbif.cli" in added
    assert added & {"dataclasses", "inspect"} == set()


def test_hopf_imports_nothing_from_sim():
    # the return-map check on a Hopf cycle is an oracle in the tests: the
    # scan integrates nothing
    tree = ast.parse((SRC / "hopf.py").read_text())
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert paths and [path for path in paths if "sim" in path.split(".")] == []


def test_cli_import_and_six_commands_load_no_numpy(tmp_path):
    assert CONFIGS
    argvs = [[command, "--config", str(cfg), "--out", str(tmp_path / cfg.stem), "--format", fmt]
             for command in NUMPY_FREE_COMMANDS for cfg in CONFIGS
             for fmt in ("json", "csv", "svg")]
    got = _fresh_run(argvs, tmp_path)
    assert got["loaded"] == [False] * (len(argvs) + 1)
    # every command completes on at least one shipped config
    ok = {argv[0] for argv, code in zip(argvs, got["codes"]) if code == 0}
    assert ok == set(NUMPY_FREE_COMMANDS)


@pytest.mark.parametrize("command", NUMPY_COMMANDS)
def test_stability_and_sweep_load_numpy_through_jacobian(command, tmp_path):
    # classify_generic reads DF through model.jacobian, which builds an ndarray
    cfg = SRC.parents[1] / "configs" / "sweep_regions.cfg"
    got = _fresh_run([[command, "--config", str(cfg), "--out", str(tmp_path)]], tmp_path)
    assert got == {"loaded": [False, True], "codes": [0]}
