"""Source hygiene: no package module imports a name it never uses, every
name a module lists in ``__all__`` is defined there (every listed
function and class with a docstring), ``__init__`` re-exports exactly the
listed names (a star import counts as its module's list) and no name from
two modules, and the third-party modules the package imports are exactly its
declared dependencies. Every python code block of README.md runs. The slack
rule is stated once: no comparison outside ``Tolerance.allows`` reads a
slack, and ``Tolerance(...)`` is built only where a tolerance is defined.
The file format is stated once: no package module but ``kernel`` imports a
JSON codec (``json`` or ``orjson``).

Stdlib only (``ast``), so it runs wherever the tests run, without a
linter. ``__init__.py`` is skipped by the unused-import check: its
imports are the re-exports.
"""

import ast
import re
import sys
from collections import Counter
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


def exported_names(tree: ast.Module) -> list[str]:
    """What ``from module import *`` binds: the module's ``__all__``, or
    every public top-level name when it has none."""
    names = listed_names(tree)
    return names if names is not None else [n for n in top_level_names(tree) if not n.startswith("_")]


def imported_names(init: ast.Module, modules: dict[str, ast.Module]) -> list[tuple[str, str]]:
    """The ``(module, name)`` pairs ``__init__`` imports, a star import
    expanded to the module's exported names."""
    pairs = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names = exported_names(modules[node.module]) if alias.name == "*" else [alias.name]
                pairs.extend((node.module, n) for n in names)
    return pairs


def reexport_mismatch(init: ast.Module, modules: dict[str, ast.Module]) -> tuple[list[str], list[str]]:
    """``(stale, missing)``: the ``module.name`` pairs ``__init__`` imports
    but the module does not export, and those a module's ``__all__``
    lists but ``__init__`` does not import."""
    imported = {f"{m}.{n}" for m, n in imported_names(init, modules)}
    exported = {f"{m}.{n}" for m, tree in modules.items() for n in exported_names(tree)}
    listed = {f"{m}.{n}" for m, tree in modules.items() for n in listed_names(tree) or ()}
    return sorted(imported - exported), sorted(listed - imported)


def reexported_twice(init: ast.Module, modules: dict[str, ast.Module]) -> list[str]:
    """Names ``__init__`` imports from two modules: the later import
    silently rebinds the earlier one's object."""
    counts = Counter(n for _, n in set(imported_names(init, modules)))
    return sorted(n for n, count in counts.items() if count > 1)


def package_modules() -> tuple[ast.Module, dict[str, ast.Module]]:
    return parse(PACKAGE / "__init__.py"), {p.stem: parse(p) for p in MODULES}


def package_reexport_mismatch() -> tuple[list[str], list[str]]:
    return reexport_mismatch(*package_modules())


def test_init_reexports_only_listed_names():
    assert package_reexport_mismatch()[0] == []


def test_listed_names_are_reexported():
    assert package_reexport_mismatch()[1] == []


def test_no_name_is_reexported_twice():
    assert reexported_twice(*package_modules()) == []


def test_detector_sees_stale_and_missing_reexports():
    init = ast.parse("from .a import listed, gone\nfrom .b import public\nfrom .c import *\nfrom .d import *\n")
    modules = {
        "a": ast.parse('__all__ = ["listed", "forgotten"]\nlisted = forgotten = gone = 1\n'),
        "b": ast.parse("public = _private = 1\n"),
        "c": ast.parse('__all__ = ["starred"]\nstarred = unlisted = 1\n'),
        "d": ast.parse("open_name = _hidden = 1\n"),
    }
    assert reexport_mismatch(init, modules) == (["a.gone"], ["a.forgotten"])
    # a star import covers its module's list; an explicit import beside it is still checked
    init = ast.parse("from .c import *\nfrom .c import unlisted\n")
    assert reexport_mismatch(init, {"c": modules["c"]}) == (["c.unlisted"], [])


def test_detector_sees_names_reexported_twice():
    init = ast.parse("from .a import *\nfrom .b import *\nfrom .c import *\nfrom .a import shared\n")
    modules = {
        "a": ast.parse('__all__ = ["shared", "own"]\nshared = own = 1\n'),
        "b": ast.parse('__all__ = ["shared"]\nshared = 2\n'),
        "c": ast.parse("own = 3\n_private = 4\n"),
    }
    assert reexported_twice(init, modules) == ["own", "shared"]


def test_detector_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .kernel import dagger, frobenius as norm\n"
        "x: np.ndarray = norm(os.path.sep)\n"
    )
    assert unused_imports(source) == ["dagger"]


def imported_roots(source: str) -> set[str]:
    """Top-level names of the absolute modules a source imports."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute, non-stdlib modules a source imports."""
    return imported_roots(source) - set(sys.stdlib_module_names)


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


def codec_imports(source: str) -> list[str]:
    """The JSON codecs, ``json`` and ``orjson``, that a source imports."""
    return sorted(imported_roots(source) & {"json", "orjson"})


def test_file_format_is_stated_once():
    found = {p.stem: codec_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {m: c for m, c in found.items() if c and m != "kernel"} == {}


def test_detector_sees_codec_imports():
    source = (
        "import json as stdlib_json\n"
        "from orjson import dumps\n"
        "import jsonschema\n"
        "from . import json_io\n"
        "from .kernel import dump_json, load_json\n"
    )
    assert codec_imports(source) == ["json", "orjson"]
    assert codec_imports("import numpy as np\nfrom .kernel import dump_json\n") == []


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


def scoped_nodes(tree: ast.Module):
    """``(scope, node, parent)`` for every node, ``scope`` the dotted name
    of the functions and classes that hold it ("" at module level)."""
    stack = [("", tree, None)]
    while stack:
        scope, node, parent = stack.pop()
        yield scope, node, parent
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}".lstrip(".")
        stack.extend((scope, child, node) for child in ast.iter_child_nodes(node))


def names_slack(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Name) and "slack" in n.id or isinstance(n, ast.Attribute) and "slack" in n.attr
        for n in ast.walk(node)
    )


def slack_comparisons(tree: ast.Module) -> list[str]:
    """Comparisons outside ``Tolerance.allows`` with an operand that names
    or calls a slack: a second statement of the pass rule."""
    return sorted(
        ast.unparse(node)
        for scope, node, _ in scoped_nodes(tree)
        if isinstance(node, ast.Compare)
        and scope != "Tolerance.allows"
        and any(map(names_slack, [node.left, *node.comparators]))
    )


def tolerance_builds(module: str, tree: ast.Module) -> list[str]:
    """Each ``Tolerance(...)`` call as ``module.scope.target``, ``target``
    the name the call is assigned to, if any."""
    builds = []
    for scope, node, parent in scoped_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Tolerance":
            targets = [t.id for t in parent.targets if isinstance(t, ast.Name)] if isinstance(parent, ast.Assign) else []
            builds.append(".".join(filter(None, [module, scope, *targets])))
    return sorted(builds)


def test_no_second_slack_rule():
    found = {p.stem: slack_comparisons(parse(p)) for p in MODULES}
    assert {m: c for m, c in found.items() if c} == {}


def test_tolerances_are_built_only_where_defined():
    builds = sorted(b for p in MODULES for b in tolerance_builds(p.stem, parse(p)))
    assert builds == ["cli._tolerance", "decompose._isometry_average.strict", "kernel.DEFAULT_TOL"]


def test_detector_sees_slack_comparisons_and_tolerance_builds():
    source = (
        "class Tolerance:\n"
        "    def allows(self, excess, scale):\n"
        "        slack = self.slack(scale)\n"
        "        return excess <= slack\n"
        "EXACT = Tolerance(0, 0)\n"
        "def check(d, tol):\n"
        "    strict = Tolerance(1, 1)\n"
        "    if d > tol.slack(1.0) or d < -slacks or d > 2 * slack_of(d):\n"
        "        return tol.allows(d, 1.0) == True\n"
        "    return Tolerance(2, 2)\n"
    )
    tree = ast.parse(source)
    assert slack_comparisons(tree) == ["d < -slacks", "d > 2 * slack_of(d)", "d > tol.slack(1.0)"]
    assert tolerance_builds("m", tree) == ["m.EXACT", "m.check", "m.check.strict"]
