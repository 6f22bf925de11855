"""Source hygiene: no package module imports a name it never uses, every
name a module lists in ``__all__`` is defined there (every listed
function and class with a docstring), ``__init__`` re-exports exactly the
listed names, and the third-party modules the package imports are exactly its
declared dependencies. Every python code block of README.md runs.

Stdlib only (``ast``), so it runs wherever the tests run, without a
linter. ``__init__.py`` is skipped by the unused-import check: its
imports are the re-exports.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psdblocks"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read as a name in the module."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def top_level_names(tree: ast.Module) -> set[str]:
    """Names a module binds at top level: definitions, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def listed_names(tree: ast.Module) -> list[str] | None:
    """The module's ``__all__``, or None when it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def undocumented(tree: ast.Module) -> list[str]:
    """Functions and classes the module lists in ``__all__`` that have no docstring."""
    listed = set(listed_names(tree) or ())
    return sorted(
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in listed and ast.get_docstring(node) is None
    )


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_modules_found():
    assert {"cli.py", "decompose.py", "kernel.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_listed_names_are_defined(path):
    tree = parse(path)
    assert sorted(set(listed_names(tree) or ()) - top_level_names(tree)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_listed_definitions_have_docstrings(path):
    assert undocumented(parse(path)) == []


def test_detector_sees_undocumented_listed_names():
    source = (
        '__all__ = ["Bare", "bare", "documented"]\n'
        "class Bare:\n    x = 1\n"
        "def bare():\n    return 1\n"
        'def documented():\n    """Says what it does."""\n'
        "def unlisted():\n    return 1\n"
    )
    assert undocumented(ast.parse(source)) == ["Bare", "bare"]


def reexport_mismatch(init: ast.Module, modules: dict[str, ast.Module]) -> tuple[list[str], list[str]]:
    """``(stale, missing)``: the ``module.name`` pairs ``__init__`` imports
    but the module does not list (a module without ``__all__`` lists every
    public top-level name), and those a module's ``__all__`` lists but
    ``__init__`` does not import."""
    imported = {f"{node.module}.{alias.name}" for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names}
    exported, listed = set(), set()
    for module, tree in modules.items():
        names = listed_names(tree)
        listed.update(f"{module}.{n}" for n in names or ())
        if names is None:
            names = [n for n in top_level_names(tree) if not n.startswith("_")]
        exported.update(f"{module}.{n}" for n in names)
    return sorted(imported - exported), sorted(listed - imported)


def package_reexport_mismatch() -> tuple[list[str], list[str]]:
    return reexport_mismatch(parse(PACKAGE / "__init__.py"), {p.stem: parse(p) for p in MODULES})


def test_init_reexports_only_listed_names():
    assert package_reexport_mismatch()[0] == []


def test_listed_names_are_reexported():
    assert package_reexport_mismatch()[1] == []


def test_detector_sees_stale_and_missing_reexports():
    init = ast.parse("from .a import listed, gone\nfrom .b import public\n")
    modules = {
        "a": ast.parse('__all__ = ["listed", "forgotten"]\nlisted = forgotten = gone = 1\n'),
        "b": ast.parse("public = _private = 1\n"),
    }
    assert reexport_mismatch(init, modules) == (["a.gone"], ["a.forgotten"])


def test_detector_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .kernel import dagger, frobenius as norm\n"
        "x: np.ndarray = norm(os.path.sep)\n"
    )
    assert unused_imports(source) == ["dagger"]


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute, non-stdlib modules a source imports."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots - set(sys.stdlib_module_names)


def declared_dependencies() -> set[str]:
    """Project names in ``pyproject.toml``'s ``dependencies``, normalised
    to module spelling (lower case, ``-`` as ``_``)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    listed = ast.literal_eval(re.search(r"^dependencies = (\[.*?\])", text, re.M | re.S).group(1))
    return {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in listed}


def package_imports() -> set[str]:
    return set().union(*(third_party_imports(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")))


def test_third_party_imports_are_declared():
    assert sorted(package_imports() - declared_dependencies()) == []


def test_declared_dependencies_are_imported():
    assert sorted(declared_dependencies() - package_imports()) == []


def test_detector_sees_third_party_roots():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy.linalg as la\n"
        "from orjson import dumps\n"
        "from .kernel import dagger\n"
    )
    assert third_party_imports(source) == {"numpy", "orjson"}


def readme_python_blocks() -> list[str]:
    """The fenced ``python`` code blocks of README.md, in order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


README_BLOCKS = readme_python_blocks()


def test_readme_has_python_examples():
    assert README_BLOCKS


@pytest.mark.parametrize("source", README_BLOCKS, ids=[f"block_{i + 1}" for i in range(len(README_BLOCKS))])
def test_readme_example_runs(source):
    exec(compile(source, "README.md", "exec"), {"__name__": "readme_example"})
