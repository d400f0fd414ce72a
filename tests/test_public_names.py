"""Every katoform name the demos import, and every name in katoform.__all__, exists.

The demos are scripts, not tests, so a removed public name would otherwise
break one of them silently.  Each demo is parsed with ast, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

import katoform

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def _katoform_imports(path):
    """(module, name) for each name imported from katoform; name is None for a module import."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] == "katoform":
            for alias in node.names:
                yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "katoform":
                    yield alias.name, None


def _resolves(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(demo):
    imports = list(_katoform_imports(demo))
    assert imports, f"{demo.name} imports nothing from katoform"
    missing = [f"{module}.{name}" for module, name in imports if not _resolves(module, name)]
    assert not missing, f"{demo.name} imports missing names: {missing}"


def test_all_names_resolve():
    missing = [name for name in katoform.__all__ if not hasattr(katoform, name)]
    assert not missing
    assert len(set(katoform.__all__)) == len(katoform.__all__)
