"""Source hygiene of the package, read with the stdlib ``ast`` module only.

A name imported into a module of ``src/odeql`` must be used there; the
package ``__init__`` is exempt, since its imports are the namespace. Each
exception is listed with its reason, and the list fails when it goes stale.
"""

import ast
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


def _modules():
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"}


def test_the_detector_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\nfrom numpy import array as arr, zeros\n"
              "def f(x: arr) -> float:\n    return math.pi + os.sep\n")
    assert unused_imports(source) == {"zeros"}


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
