"""Source hygiene: every name a ``crackwave`` module or a test module
imports is used there, every private module-level function or class is used
somewhere in the package, every public one too (outside ``__init__.py`` and
``__all__``, bar an allow-list with a reason per name), and so is every
non-dunder method of a package class (bar its own allow-list).  The package
imports nothing beyond the standard library and numpy (scipy is a reference
of the tests only, at module or function level alike, and no run loads it),
importing the CLI loads no process pool, the package builds its Filon moment
tables itself, every name a module's ``__all__`` exports is defined in
that module, and every config key of the CLI is set by some preset (bar an
allow-list with a reason per key).

Package ``__init__.py`` files are exempt from the unused-import and the
private-definition checks (their imports are re-exports), as are
``__future__`` imports.
"""
import ast
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import pytest

from crackwave import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "crackwave"
PRESETS = SRC.parents[1] / "presets"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _bound_in(func) -> set[str]:
    """Names that the function ``func`` binds itself: its parameters, the
    targets of its assignments and loops, and the functions and classes it
    defines (in nested scopes too)."""
    args = func.args
    bound = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                 args.vararg, args.kwarg) if arg is not None}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node is not func):
            bound.add(node.name)
    return bound


def _names_in(root, local=frozenset()):
    """Each name, attribute or imported name in ``root``, once per
    occurrence.  A plain name that an enclosing function binds itself (in
    ``local`` or below ``root``) names that binding and is left out."""
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _bound_in(root)
    if isinstance(root, ast.Name):
        if root.id not in local:
            yield root.id
    elif isinstance(root, ast.Attribute):
        yield root.attr
    elif isinstance(root, ast.alias):
        yield root.name
    for child in ast.iter_child_nodes(root):
        yield from _names_in(child, local)


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def unreferenced_definitions(sources: dict[str, str], private: bool) -> list[str]:
    """Module-level functions and classes, named ``_…`` if ``private`` and
    not so otherwise, in the modules of ``sources`` (name → source) that no
    code outside their own definition refers to.  Modules named
    ``__init__.py`` define nothing checked here and, like every ``__all__``,
    count as no reference."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    bodies = {name: [node for node in tree.body if not _is_all(node)]
              for name, tree in trees.items() if name != "__init__.py"}
    everywhere = Counter(name for body in bodies.values() for root in body
                         for name in _names_in(root))
    found = []
    for name, body in bodies.items():
        for node in body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and everywhere[node.name] == Counter(_names_in(node))[node.name]):
                found.append(f"{name}: {node.name}")
    return sorted(found)


def test_detector_flags_an_unreferenced_private_definition():
    sources = {
        "a.py": "def _used():\n    pass\n\n"
                "def _recursive(n):\n    return _recursive(n - 1)\n\n"
                "class _Orphan:\n    pass\n\n"
                "def public():\n    return _used()\n",
        "b.py": "from .c import _imported\n",
        "c.py": "def _imported():\n    pass\n\ndef _attr():\n    pass\n",
        "d.py": "from . import c\nc._attr()\n",
        "__init__.py": "def _exempt():\n    pass\n",
    }
    assert unreferenced_definitions(sources, private=True) == ["a.py: _Orphan",
                                                         "a.py: _recursive"]


def test_private_definitions_have_src_callers():
    # Helpers that only tests use belong to the tests (for example
    # tests/reference_quadrature.py), not to the package.
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_definitions(sources, private=True) == []


def test_detector_flags_an_unreferenced_public_definition():
    sources = {
        "a.py": "__all__ = ['exported', 'used', 'Orphan']\n"
                "def exported():\n    pass\n\n"
                "def used():\n    pass\n\n"
                "class Orphan:\n    pass\n\n"
                "def _private():\n    return used()\n",
        "b.py": "from .a import exported\n",
        "__init__.py": "from .a import Orphan\n\ndef exempt():\n    pass\n",
    }
    assert unreferenced_definitions(sources, private=False) == ["a.py: Orphan"]
    # A local variable, parameter or loop target of the same name is no
    # reference: each function below reads its own binding.
    sources["c.py"] = ("def _f(x):\n    used, Orphan = x\n    return Orphan\n\n"
                       "def _g(Orphan):\n    return [Orphan for _ in Orphan]\n\n"
                       "def _h(xs):\n    for Orphan in xs:\n        yield lambda: Orphan\n")
    assert unreferenced_definitions(sources, private=False) == ["a.py: Orphan"]
    # A name a function reads but does not bind is a reference.
    sources["c.py"] = "def _f():\n    return Orphan\n"
    assert unreferenced_definitions(sources, private=False) == []


# Public names that no src code calls, each with the reason it stays.
UNCALLED_PUBLIC = {
    # bench/tracing.py wraps them and raises if one is missing.
    "fields.py: field_profile": "a wrap point of the benchmark tracer",
    "fields.py: traction_ahead": "a wrap point of the benchmark tracer",
    "fields.py: stresses_on_line": "a wrap point of the benchmark tracer",
    # The loading and its transform, which the transform tests compare.
    "loading.py: traction": "the loading itself",
    "loading.py: traction_transform": "the loading's transform",
}


def test_public_definitions_have_src_callers():
    # A public name stays in src only if a run or validate uses it, or it
    # is listed above; helpers that only tests use belong to the tests
    # (for example tests/reference_split.py).
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_definitions(sources, private=False) == sorted(UNCALLED_PUBLIC)


def unreferenced_methods(sources: dict[str, str]) -> list[str]:
    """Non-dunder methods of the module-level classes in the modules of
    ``sources`` (name → source) that no code outside their own definition
    refers to, as ``module: Class.method``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    everywhere = Counter(name for tree in trees.values() for name in _names_in(tree))
    found = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                        and everywhere[node.name] == Counter(_names_in(node))[node.name]):
                    found.append(f"{name}: {cls.name}.{node.name}")
    return sorted(found)


def test_detector_flags_an_unreferenced_method():
    sources = {
        "a.py": "class A:\n"
                "    def __init__(self):\n        self._helper()\n\n"
                "    def _helper(self):\n        pass\n\n"
                "    def used(self):\n        pass\n\n"
                "    def recursive(self, n):\n        return self.recursive(n - 1)\n\n"
                "    def orphan(self):\n        pass\n",
        "b.py": "from .a import A\nA().used()\n",
    }
    assert unreferenced_methods(sources) == ["a.py: A.orphan", "a.py: A.recursive"]


# Methods that no src code calls, each with the reason it stays.
UNCALLED_METHODS = {
    "kernel.py: CauchyFactorization.theta_exact":
        "a wrap point of the benchmark tracer, and the reference of theta",
}


def test_methods_have_src_callers():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unreferenced_methods(sources) == sorted(UNCALLED_METHODS)


def _is_dataclass(cls) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _attribute_reads(root) -> Counter:
    return Counter(node.attr for node in ast.walk(root)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def unread_fields(sources: dict[str, str]) -> list[str]:
    """Fields of the module-level dataclasses in the modules of ``sources``
    (name → source) that no attribute read outside their own class refers
    to, as ``module: Class.field``."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    everywhere = sum((_attribute_reads(tree) for tree in trees.values()), Counter())
    found = []
    for name, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            own = _attribute_reads(cls)
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                        and everywhere[node.target.id] == own[node.target.id]):
                    found.append(f"{name}: {cls.name}.{node.target.id}")
    return sorted(found)


def test_detector_flags_an_unread_field():
    sources = {
        "a.py": "from dataclasses import dataclass\n\n"
                "@dataclass(frozen=True)\n"
                "class A:\n    read: float\n    checked: float\n    set_only: float\n\n"
                "    def __post_init__(self):\n        assert self.checked > 0\n\n"
                "class Plain:\n    untracked: float\n",
        "b.py": "from .a import A\nA(read=1.0, checked=1.0, set_only=1.0).read\n",
    }
    assert unread_fields(sources) == ["a.py: A.checked", "a.py: A.set_only"]


# Dataclass fields that no src code reads, each with the reason it stays.
UNREAD_FIELDS = {
    # A field profile is a result for the library's callers; no run reads it.
    "fields.py: FieldProfile.X": "a library result",
    "fields.py: FieldProfile.values": "a library result",
    "fields.py: FieldProfile.kind": "a library result",
    "fields.py: FieldProfile.error": "a library result",
    "fields.py: NearTipCoefficients.C_mu":
        "the couple stress's singular coefficient, beside C_w and C_t",
}


def test_dataclass_fields_are_read():
    # A field stays in src only if src reads it outside its own class, or
    # it is listed above: an input that is only checked changes no result.
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unread_fields(sources) == sorted(UNREAD_FIELDS)


def unset_config_keys(keys, configs) -> list[str]:
    """Keys of ``keys`` that none of ``configs`` (each a key → value dict,
    as ``cli.parse_config`` returns) sets."""
    return sorted(set(keys).difference(*configs))


def test_detector_flags_an_unset_config_key(tmp_path):
    config = tmp_path / "a.conf"
    config.write_text("a.x = 1  # a.z = 3\n# a.y = 2\n")
    assert unset_config_keys({"a.x", "a.y", "a.z"}, [cli.parse_config(config)]) \
        == ["a.y", "a.z"]


# Config keys that no preset sets, each with the reason it stays.
UNSET_CONFIG_KEYS = {}


def test_every_config_key_is_set_by_a_preset():
    # A key that no figure sets is a setting that no result of the paper
    # needs, and whose behaviour only the tests would exercise.
    configs = [cli.parse_config(path) for path in sorted(PRESETS.glob("*.conf"))]
    assert unset_config_keys(cli.CONFIG_KEYS, configs) == sorted(UNSET_CONFIG_KEYS)


def undefined_exports(source: str) -> list[str]:
    """Names in the ``__all__`` of ``source`` that no module-level
    definition, assignment or import of it binds."""
    tree = ast.parse(source)
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
            bound.update(names)
    return sorted(name for name in exported if name not in bound)


def test_detector_flags_an_undefined_export():
    assert undefined_exports("from os import sep\nX = 1\ndef f():\n    pass\n"
                             "__all__ = ['f', 'X', 'sep', 'gone']\n") == ["gone"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


ALLOWED_TOP_LEVEL = {"numpy", "crackwave"}


def foreign_imports(source: str) -> list[str]:
    """Top-level packages imported anywhere in ``source``, function bodies
    included, that are neither in the standard library nor numpy or
    crackwave (relative imports are crackwave's own)."""
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
                           "import numpy.linalg\nfrom . import kernel\n"
                           "import math\n"
                           "def f():\n    from scipy import special\n") \
        == ["hypothesis", "mpmath", "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_numpy_scipy(path):
    # Since scipy left the package this checks stdlib and numpy only; the
    # name keeps the test ids stable.
    assert foreign_imports(path.read_text()) == []


NO_SCIPY_RUNS = textwrap.dedent("""\
    import sys
    from pathlib import Path

    def scipy_loaded():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    import crackwave.cli as cli
    assert scipy_loaded() == [], ("import", scipy_loaded())
    # The process pool is imported only by the --jobs > 1 branch.
    assert "concurrent.futures.process" not in sys.modules
    presets, out = Path(sys.argv[1]), Path(sys.argv[2])
    fields = out / "fields.conf"
    fields.write_text((presets / "fig4.conf").read_text()
                      .replace("fields.points = 160", "fields.points = 4"))
    runs = [["dispersion", "--config", str(presets / "fig1.conf")],
            ["fields", "--config", str(fields)],
            ["validate"]]
    for argv in runs:
        assert cli.main(argv + ["--out", str(out / argv[0])]) == 0, argv
        assert scipy_loaded() == [], (argv[0], scipy_loaded())
    """)


def test_runs_load_no_scipy(tmp_path):
    # A fresh interpreter: the test session itself has imported scipy.
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNS, str(PRESETS), str(tmp_path)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_spherical_bessel(path):
    # The Filon moments j_k(ω·h) come from numerics._bessel_table; scipy's
    # routine is several times slower per value.
    assert "spherical_jn" not in path.read_text()
