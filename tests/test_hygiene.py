"""Source hygiene: every name a ``crackwave`` module imports is used there,
the package imports nothing beyond the standard library, numpy and scipy,
and it builds its Filon moment tables itself.

Package ``__init__.py`` files are exempt from the unused-import check (their
imports are re-exports), as are ``__future__`` imports.
"""
import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crackwave"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements of ``source`` that no expression
    in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`; `import a as b` and `from m import a as b` bind `b`.
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") \
        == ["math (line 1)", "path (line 2)"]
    assert unused_imports("from __future__ import annotations\n"
                          "import numpy as np\nx: np.ndarray\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


ALLOWED_TOP_LEVEL = {"numpy", "scipy", "crackwave"}


def foreign_imports(source: str) -> list[str]:
    """Top-level packages imported by ``source`` that are neither in the
    standard library nor numpy, scipy or crackwave (relative imports are
    crackwave's own)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return sorted(name for name in found
                  if name not in sys.stdlib_module_names and name not in ALLOWED_TOP_LEVEL)


def test_detector_flags_a_foreign_import():
    assert foreign_imports("import mpmath\nfrom hypothesis import given\n"
                           "import numpy.linalg\nfrom scipy import special\n"
                           "from . import kernel\nimport math\n") \
        == ["hypothesis", "mpmath"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_numpy_scipy(path):
    assert foreign_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_spherical_bessel(path):
    # The Filon moments j_k(ω·h) come from numerics._bessel_table; scipy's
    # routine is several times slower per value.
    assert "spherical_jn" not in path.read_text()
