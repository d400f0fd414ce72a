"""Every katoform name the demos import, and every name in katoform.__all__, exists.

The demos are scripts, not tests, so a removed public name would otherwise
break one of them silently.  Each demo is parsed with ast, and run end to
end in a fresh interpreter with warnings as errors.
"""

import ast
import importlib
import os
import subprocess
import sys
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


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs_clean(demo, tmp_path):
    path = [str(demo.parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-W", "error", str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_all_names_resolve():
    missing = [name for name in katoform.__all__ if not hasattr(katoform, name)]
    assert not missing
    assert len(set(katoform.__all__)) == len(katoform.__all__)
