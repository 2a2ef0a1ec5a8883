"""Source hygiene of the package, read with the stdlib ``ast`` module only.

A name imported into a module of ``src/odeql`` must be used there; the
package ``__init__`` is exempt, since its imports are the namespace. Each
exception is listed with its reason, and the list fails when it goes stale.
No module imports a private part of numpy or scipy, and none reads the
environment: every input is a flag or an argument, spelt one way. No module
imports scipy.sparse or scipy's solver stack (ARPACK, SuperLU, scipy.io)
when it is itself imported: a call site reaches them as ``scipy.sparse``,
``scipy.sparse.linalg`` or ``scipy.io``, which scipy loads on first use, so
the dense path never pays for them. Every import of one module of the
package by another sits at the module's head, never in a function body,
and the package's internal imports form no cycle:
each module depends only on those below it, with ``errors`` and then
``taylor`` at the bottom.
"""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "odeql"

# (module, name) -> why the module imports a name it never uses
UNUSED_IMPORT_ALLOWLIST = {
    ("pipeline", "reference_solution"):
        "bench/tests/test_tracing.py pins this binding until the benchmark "
        "revision (ROADMAP item 1)",
}


def unused_imports(source: str) -> set:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def private_imports(source: str) -> set:
    """Dotted paths of imports from numpy or scipy with a private segment
    (one starting with ``_``), whose API may change without notice."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths.update(f"{node.module}.{alias.name}" for alias in node.names)
    return {path for path in paths if path.split(".")[0] in ("numpy", "scipy")
            and any(part.startswith("_") for part in path.split("."))}


def environment_reads(source: str) -> set:
    """``os.environ`` and ``os.getenv``, where the module reads or imports them."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "os" and node.attr in ("environ", "getenv")):
            found.add(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found.update(f"os.{alias.name}" for alias in node.names
                         if alias.name in ("environ", "getenv"))
    return found


# scipy modules that only a sparse, Krylov, sparse-LU or file call needs
SOLVER_STACK = ("scipy.sparse", "scipy.sparse.linalg", "scipy.linalg", "scipy.io")


def solver_stack_imports(source: str) -> set:
    """The SOLVER_STACK modules that importing the module loads: its import
    statements outside function bodies, which run only when called."""
    paths, pending = set(), list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            paths.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths.add(node.module)
            paths.update(f"{node.module}.{alias.name}" for alias in node.names)
        pending.extend(ast.iter_child_nodes(node))
    return {stack for stack in SOLVER_STACK for path in paths
            if path == stack or path.startswith(stack + ".")}


def _package_imports(tree: ast.AST) -> set:
    """Modules of the package that the import statements under tree name,
    as ``from .x import ...`` or ``from . import x``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def internal_imports(source: str) -> set:
    """The package modules a module imports, wherever the statement sits."""
    return _package_imports(ast.parse(source))


def function_level_imports(source: str) -> set:
    """The package modules a module imports inside a function body, where
    the dependency is hidden from its head (and is most often a cycle)."""
    return {module for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for module in _package_imports(node)}


def import_cycle(graph: dict) -> list:
    """One cycle of the module -> imported modules graph, as [a, ..., a], or []."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return []


def _modules():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_the_detector_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom numpy import array as arr, zeros\n"
              "def f(x: arr) -> float:\n    return math.pi + os.sep\n")
    assert unused_imports(source) == {"zeros"}


def test_the_detector_finds_a_private_import():
    source = ("import numpy as np\nimport scipy.sparse._sputils\n"
              "from scipy.sparse.linalg import spsolve_triangular\n"
              "from scipy.sparse.linalg._dsolve import _superlu\n"
              "from numpy import _NoValue\nfrom ._private import x\n")
    assert private_imports(source) == {
        "scipy.sparse._sputils", "scipy.sparse.linalg._dsolve._superlu", "numpy._NoValue"}


def test_the_detector_finds_an_environment_read():
    source = ("import os\nseed = int(os.environ.get('SEED', '0'))\n"
              "home = os.getenv('HOME')\nsep = os.sep\n")
    assert environment_reads(source) == {"os.environ", "os.getenv"}
    assert environment_reads("from os import getenv as g, path\n") == {"os.getenv"}
    assert environment_reads("import os\nprint(os.path.sep)\n") == set()


def test_the_detector_finds_a_solver_stack_import():
    source = ("import scipy\nimport scipy.sparse as sp\nfrom scipy.sparse import csr_matrix\n"
              "from scipy.sparse.linalg import svds\nfrom scipy import io as sio\n"
              "def f():\n    from scipy.linalg import expm\n    return expm\n"
              "class C:\n    import scipy.linalg.blas\n")
    assert solver_stack_imports(source) == {"scipy.sparse", "scipy.sparse.linalg", "scipy.io",
                                            "scipy.linalg"}
    assert solver_stack_imports("try:\n    from scipy.io import mmread\n"
                                "except ImportError:\n    pass\n") == {"scipy.io"}
    assert solver_stack_imports("import scipy.sparse as sp\nimport scipy\n"
                                "def f(M):\n    return sp.linalg.svds(M, k=1)\n") == {
                                    "scipy.sparse"}
    assert solver_stack_imports("from scipy import sparse\n") == {"scipy.sparse"}
    assert solver_stack_imports("import scipy\ndef f(M):\n"
                                "    return scipy.sparse.linalg.svds(M, k=1)\n") == set()


def test_the_detector_finds_a_function_level_import():
    source = ("from . import fileio\nfrom .errors import ParameterError\n"
              "import numpy as np\n"
              "def f():\n    from .encoder import TaylorParams\n    return TaylorParams\n"
              "class C:\n    async def g(self):\n        from . import solver, suites\n"
              "    def h(self):\n        import math\n        from numpy import pi\n")
    assert function_level_imports(source) == {"encoder", "solver", "suites"}
    assert internal_imports(source) == {"fileio", "errors", "encoder", "solver", "suites"}


def test_the_detector_finds_an_import_cycle():
    sources = {"numerics": "from .errors import E\ndef f():\n    from .encoder import T\n",
               "encoder": "from .numerics import norm2\nfrom .taylor import T\n",
               "taylor": "from .errors import E\n", "errors": ""}
    graph = {module: internal_imports(source) for module, source in sources.items()}
    cycle = import_cycle(graph)
    assert cycle[0] == cycle[-1] and set(cycle) == {"numerics", "encoder"}
    del graph["numerics"]
    assert import_cycle(graph) == []


def test_no_module_imports_the_package_inside_a_function():
    found = {(module, imported) for module, source in _modules().items()
             for imported in function_level_imports(source)}
    assert found == set()


def test_the_internal_import_graph_is_acyclic():
    graph = {module: internal_imports(source) for module, source in _modules().items()}
    assert import_cycle(graph) == []


def test_no_module_imports_the_solver_stack():
    found = {(file.name, module) for file in PACKAGE.glob("*.py")
             for module in solver_stack_imports(file.read_text())}
    assert found == set()


def test_no_module_reads_the_environment():
    found = {(file.name, name) for file in PACKAGE.glob("*.py")
             for name in environment_reads(file.read_text())}
    assert found == set()


def test_no_private_numpy_or_scipy_module_is_imported():
    found = {(file.name, path) for file in PACKAGE.glob("*.py")
             for path in private_imports(file.read_text())}
    assert found == set()


def test_every_import_is_used():
    modules = _modules()
    assert modules, f"no modules found under {PACKAGE}"
    unused = {(module, name) for module, source in modules.items()
              for name in unused_imports(source)}
    assert unused - UNUSED_IMPORT_ALLOWLIST.keys() == set()


def test_the_allowlist_is_current():
    # an entry whose name is now used, or no longer imported, must go
    modules = _modules()
    stale = {(module, name) for module, name in UNUSED_IMPORT_ALLOWLIST
             if name not in unused_imports(modules.get(module, ""))}
    assert stale == set()
