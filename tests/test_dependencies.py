"""The runtime dependencies stay numpy and mpmath: every import in src/,
scripts/ and tests/ is read with `ast` and checked against an allow-list."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"

RUNTIME = {"numpy", "mpmath", "gcdsums"}
TESTING = {"pytest", "hypothesis"} | {path.stem for path in TESTS.glob("*.py")}


def imported_modules(path):
    """The top-level names of the absolute imports in one file, with their
    line numbers; relative imports stay inside the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def foreign_imports(directory, allowed):
    allowed = allowed | set(sys.stdlib_module_names)
    return [f"{path.relative_to(directory)}:{line}: {name}"
            for path in sorted(directory.rglob("*.py"))
            for line, name in imported_modules(path) if name not in allowed]


def test_package_and_scripts_import_only_numpy_and_mpmath():
    assert foreign_imports(ROOT / "src", RUNTIME) == []
    assert foreign_imports(ROOT / "scripts", RUNTIME) == []


def test_declared_dependencies_are_the_allow_list():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]

    def names(requirements):
        return {re.match(r"[A-Za-z0-9_.-]+", r).group(0) for r in requirements}

    assert names(project["dependencies"]) == RUNTIME - {"gcdsums"}
    assert names(project["optional-dependencies"]["test"]) == {"pytest", "hypothesis"}


def test_tests_import_only_the_runtime_pytest_and_hypothesis():
    assert foreign_imports(TESTS, RUNTIME | TESTING) == []


def test_the_guard_sees_imports_inside_functions(tmp_path):
    (tmp_path / "late.py").write_text(
        "import os\nfrom . import sibling\n\ndef f():\n    import scipy.linalg\n"
        "    from numpy import linalg\n", encoding="utf-8")
    assert foreign_imports(tmp_path, RUNTIME) == ["late.py:5: scipy"]
