"""numpy stays off the scalar analysis path, and integration off the Hopf
scan.

The 2x2 algebra of stability, Hopf and Bogdanov-Takens analysis runs on the
float tuples of ``model.jet``, and ``sim`` keeps a trajectory as the
kernel's float lists.  numpy stays in ``src`` only in ``model.jacobian``
and ``equilibria.interior_roots_oracle``.  These checks read the source
with ``ast``, so they hold without importing it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "predbif"


def _imports(tree):
    """Every module name an import statement of ``tree`` names, with the
    imported names of a ``from`` import appended to its module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("module", ["stability", "hopf", "bt", "sim", "cli"])
def test_scalar_modules_do_not_import_numpy(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert [name for name in _imports(tree) if name.split(".")[0] == "numpy"] == []


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
        if path.suffix in (".pyx", ".c"):
            assert "linalg" not in path.read_text(), path


def test_equilibria_uses_numpy_only_in_the_oracle():
    tree = ast.parse((SRC / "equilibria.py").read_text())

    def uses(node):
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "np"]

    oracle = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "interior_roots_oracle")
    assert uses(oracle) and uses(tree) == uses(oracle)



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
