"""No module of the package imports scipy.integrate.

Every integral in katoform runs on its own Gauss-Kronrod panels
(katoform.quadrature); QUADPACK serves only the tests' oracle.  Each
module is parsed with ast, not imported, so an import inside a function
body is found too.
"""

import ast
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
