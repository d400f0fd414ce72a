"""What the package's modules import.

No module imports scipy.integrate: every integral in katoform runs on its
own Gauss-Kronrod panels (katoform.quadrature); QUADPACK serves only the
tests' oracle.  Each module is parsed with ast, not imported, so an
import inside a function body is found too.

No module imports or names expm or expm_multiply: the semigroup has one
route, the Chebyshev expansion of katoform.operators with its computed
error bound, and dense Pade serves only the tests' oracle.

Importing the command line front end leaves scipy.optimize unloaded: it
costs about a third of a second and serves one root find in
kato.form_bound_constants, which imports it when it runs.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "katoform"


def _integrate_imports(path):
    """Line numbers of the imports of scipy.integrate (or anything in it) in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.integrate" or name.startswith("scipy.integrate.")
               for name in names):
            yield node.lineno


def test_no_module_imports_scipy_integrate():
    found = {path.relative_to(PACKAGE).as_posix(): list(_integrate_imports(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "quadrature.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


_EXPM_NAMES = {"expm", "expm_multiply"}


def _expm_references(path):
    """Line numbers where one module imports or names expm or expm_multiply."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        if _EXPM_NAMES.intersection(names):
            yield node.lineno


def test_no_module_names_expm():
    found = {path.relative_to(PACKAGE).as_posix(): sorted(_expm_references(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "operators.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_cli_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, katoform.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
