"""What the package's modules import.

No module imports scipy.integrate: every integral in katoform runs on its
own Gauss-Kronrod panels (katoform.quadrature); QUADPACK serves only the
tests' oracle.  Each module is parsed with ast, not imported, so an
import inside a function body is found too.

No module imports or names expm or expm_multiply: the semigroup has one
route, the Chebyshev expansion of katoform.operators with its computed
error bound, and dense Pade serves only the tests' oracle.

No module calls scipy.linalg's Hermitian eigensolvers (eigh,
eigh_tridiagonal, eigvalsh, eig_banded) outside operators._dense_eigh:
every dense Hermitian eigensolve has one route.  numpy's eigh and
eigvalsh serve only the batched (N, n, n) per-vertex solves of the fibre
helpers in operators.py.

No module names bsr_matrix or eliminate_zeros: every mesh matrix is laid
out as CSR once, by operators._block_csr.  The scalar picture is the
trivial line bundle on the mesh's graph, mesh.trivial_line, a mesh of its
own, so no function in operators.py takes a ``scalar`` parameter.

No module calls scipy's splu outside operators._definite_solver, and
every eigsh call that inverts a matrix (shift-invert, or a generalized
pencil) hands eigsh that solver: one sparse factorization, with a
symmetric ordering, no pivoting and small panels, and none of scipy's
default ones.

Only feynman_kac.py imports threading or queue, and it constructs
threading.Thread at one site, inside sample_paths: the producer threads
of the path sampler are the package's only threads.

In feynman_kac.py one function, _exact_marginal, calls _exact_blocks:
the exact routes of mc_kato_integral and mc_heat_expectation are two
reductions over one draw core, and both public estimators reach it.

In feynman_kac.py the Stratonovich midpoint sum of the transport phase
has one kernel: only _midpoint_phases calls the connection A, and both
transport_phase and mc_covariant_semigroup call it.

In feynman_kac.py a killing region has one definition: only class
KillingRegion reads a region's normal and offset (everything else reads
the unit normal and level it derives once), and one function, _distances,
calls arccosh: the killing scan and the path route's radii share one
distance kernel.

In operators.py each input has one check: only the public functions that
take a potential call _as_matrix_field, once each, and only it calls
diagonal_potential; _section is the one section check, which the
evolutions reach through _section_dofs.

A potential declares only what its expression implies: one function,
inverse_power, calls _safe_inverse_power (coulomb and inverse_square are
inverse_power at p = 1 and 2), no module names sign_split (the canonical
parts are the weakest split), and no module, potentials.py and cli.py
included, holds a "singularities" key (no config overrides a singular set).

One module reads the config format and one writes the output format:
only cli.py and reports.py import json or jsonschema or define a function
whose name says json, and no module names a JSON codec of a library
object (from_json_dict, to_json_dict, potential_from_json).  The library
takes Python values; cli.py alone decodes a config into them.

No module reads the environment (os.environ, os.getenv): a run's
settings come from its flags and its config file.

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


def _imports(path, modules):
    """Line numbers of the imports of these modules (or anything in them) in one module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == module or name.startswith(module + ".")
               for name in names for module in modules):
            yield node.lineno


def test_no_module_imports_scipy_integrate():
    found = {path.relative_to(PACKAGE).as_posix(): list(_imports(path, ["scipy.integrate"]))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "quadrature.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


_EXPM_NAMES = {"expm", "expm_multiply"}


def _name_references(path, sought):
    """Line numbers where one module imports or names one of the ``sought`` names."""
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
        if sought.intersection(names):
            yield node.lineno


def test_no_module_names_expm():
    found = {path.relative_to(PACKAGE).as_posix(): sorted(_name_references(path, _EXPM_NAMES))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "operators.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


_EIGH_NAMES = {f"scipy.linalg.{name}"
               for name in ("eigh", "eigh_tridiagonal", "eigvalsh", "eig_banded")}
_NUMPY_EIGH_NAMES = {f"numpy.linalg.{name}" for name in ("eigh", "eigvalsh")}
# the per-vertex fibre helpers, each a batched solve of (N, n, n) blocks
_FIBRE_HELPERS = {"fiber_split", "_flow", "klmn_optimal_c1"}


def _references(path, names):
    """(function, line) of each place where one module names one of these objects.

    Import aliases are resolved, so ``sla.eigh`` after ``import scipy.linalg
    as sla`` and ``eigh`` after ``from scipy.linalg import eigh`` count;
    function is the enclosing top-level definition, or None.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for top in tree.body:
        function = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            here = ([f"{node.module}.{alias.name}" for alias in node.names]
                    if isinstance(node, ast.ImportFrom) and node.module
                    else [dotted(node)])
            if names.intersection(here):
                yield function, node.lineno


def test_one_dense_hermitian_eigensolve():
    found = {path.relative_to(PACKAGE).as_posix(): sorted(_references(path, _EIGH_NAMES))
             for path in sorted(PACKAGE.rglob("*.py"))}
    # the walk sees the solves it allows
    assert {function for function, _ in found.pop("operators.py")} == {"_dense_eigh"}
    assert {name: refs for name, refs in found.items() if refs} == {}
    # numpy's solvers serve only the batched per-vertex fibre helpers
    found = {path.relative_to(PACKAGE).as_posix():
             sorted(_references(path, _NUMPY_EIGH_NAMES))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {function for function, _ in found.pop("operators.py")} == _FIBRE_HELPERS
    assert {name: refs for name, refs in found.items() if refs} == {}


def test_one_sparse_factorization():
    found = {path.relative_to(PACKAGE).as_posix():
             sorted(_references(path, {"scipy.sparse.linalg.splu"}))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert [function for function, _ in found.pop("operators.py")] == ["_definite_solver"]
    assert {name: refs for name, refs in found.items() if refs} == {}
    tree = ast.parse((PACKAGE / "operators.py").read_text())
    calls = [{kw.arg for kw in node.keywords} for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "eigsh"]
    inverting = [kws for kws in calls if kws & {"sigma", "M"}]
    assert len(inverting) == 2
    assert all(kws & {"OPinv", "Minv"} for kws in inverting)


def test_one_csr_layout_and_no_scalar_flag():
    found = {path.relative_to(PACKAGE).as_posix():
             sorted(_name_references(path, {"bsr_matrix", "eliminate_zeros"}))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "operators.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}
    tree = ast.parse((PACKAGE / "operators.py").read_text())
    flagged = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and "scalar" in {arg.arg for arg in ast.walk(node.args)
                                if isinstance(arg, ast.arg)}}
    assert "semigroup_evolve" in {node.name for node in ast.walk(tree)
                                  if isinstance(node, ast.FunctionDef)}
    assert flagged == set()


def test_one_thread_site():
    found = {path.relative_to(PACKAGE).as_posix(): list(_imports(path, ["threading", "queue"]))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name for name, lines in found.items() if lines} == {"feynman_kac.py"}
    found = {path.relative_to(PACKAGE).as_posix(): sorted(_references(path, {"threading.Thread"}))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert [function for function, _ in found.pop("feynman_kac.py")] == ["sample_paths"]
    assert {name: refs for name, refs in found.items() if refs} == {}


def test_one_exact_draw_core():
    tree = ast.parse((PACKAGE / "feynman_kac.py").read_text())
    # the names each top-level function refers to, calls or not
    names = {top.name: {node.id for node in ast.walk(top) if isinstance(node, ast.Name)}
             for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert {name for name, used in names.items() if "_exact_blocks" in used} \
        == {"_exact_marginal"}
    for public in ("mc_kato_integral", "mc_heat_expectation"):
        reached, todo = set(), [public]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo.extend(names.get(name, set()) & names.keys())
        assert "_exact_marginal" in reached, public


def test_one_midpoint_phase_kernel():
    tree = ast.parse((PACKAGE / "feynman_kac.py").read_text())
    functions = {top.name: top for top in tree.body if isinstance(top, ast.FunctionDef)}
    calls = {name: {node.func.id for node in ast.walk(top) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)} for name, top in functions.items()}
    # the connection is the parameter A: one function evaluates it
    assert {name for name, called in calls.items() if "A" in called} == {"_midpoint_phases"}
    assert {name for name, called in calls.items() if "_midpoint_phases" in called} \
        == {"transport_phase", "mc_covariant_semigroup"}


def test_one_killing_region_definition():
    path = PACKAGE / "feynman_kac.py"
    tree = ast.parse(path.read_text())
    readers = {top.name for top in tree.body
               if isinstance(top, (ast.FunctionDef, ast.ClassDef))
               for node in ast.walk(top) if isinstance(node, ast.Attribute)
               and node.attr in {"normal", "offset"} and isinstance(node.ctx, ast.Load)}
    assert readers == {"KillingRegion"}
    assert {function for function, _ in _references(path, {"numpy.arccosh"})} \
        == {"_distances"}


def test_one_potential_conversion_and_section_check():
    tree = ast.parse((PACKAGE / "operators.py").read_text())
    functions = [top for top in tree.body if isinstance(top, ast.FunctionDef)]
    calls = {top.name: [node.func.id for node in ast.walk(top) if isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)] for top in functions}

    def callers(name):
        return {function: called.count(name) for function, called in calls.items()
                if name in called}

    # the public functions that take a mesh and a potential on it
    takers = {top.name for top in functions if not top.name.startswith("_")
              and {arg.arg for arg in top.args.args} >= {"mesh"}
              and {arg.arg for arg in top.args.args} & {"V", "V2"}}
    assert takers == {"quad_form", "semigroup_evolve", "form_sum_spectrum",
                      "klmn_optimal_c1", "form_limit_check"}
    assert callers("_as_matrix_field") == dict.fromkeys(takers, 1)
    assert callers("diagonal_potential") == {"_as_matrix_field": 1}
    assert "_restrict" not in calls
    assert callers("_section") == {"quad_form": 1, "kato_inequality_gap": 1,
                                   "_section_dofs": 1}


def _identifiers(path):
    """Each name one module binds or reads, and each of its string constants."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.arg, ast.keyword)):
            yield node.arg
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_potentials_declare_only_what_their_expression_implies():
    tree = ast.parse((PACKAGE / "potentials.py").read_text())
    callers = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)
               for node in ast.walk(top) if isinstance(node, ast.Name)
               and node.id == "_safe_inverse_power"}
    assert callers == {"inverse_power"}
    found = {path.relative_to(PACKAGE).as_posix(): set(_identifiers(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name for name, ids in found.items() if "_safe_inverse_power" in ids} \
        == {"potentials.py"}
    assert {name for name, ids in found.items() if "sign_split" in ids} == set()
    assert {name for name, ids in found.items() if "singularities" in ids} == set()


def test_only_cli_and_reports_know_json():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        json_functions = [node.lineno for node in ast.walk(tree)
                          if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and "json" in node.name.lower()]
        found[path.relative_to(PACKAGE).as_posix()] = \
            list(_imports(path, ["json", "jsonschema"])) + json_functions
    # the walk sees what it allows
    assert found["cli.py"] and found["reports.py"]
    assert {name for name, lines in found.items() if lines} == {"cli.py", "reports.py"}
    codecs = {"from_json_dict", "to_json_dict", "potential_from_json"}
    named = {path.relative_to(PACKAGE).as_posix(): codecs.intersection(_identifiers(path))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert {name: names for name, names in named.items() if names} == {}


def test_no_module_reads_the_environment():
    found = {path.relative_to(PACKAGE).as_posix():
             sorted(_references(path, {"os.environ", "os.getenv", "os.environb",
                                       "os.getenvb"}))
             for path in sorted(PACKAGE.rglob("*.py"))}
    assert "cli.py" in found
    assert {name: refs for name, refs in found.items() if refs} == {}


def test_cli_import_leaves_scipy_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, katoform.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
