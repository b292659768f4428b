"""Every module the tests and the benchmark import is installed by ``pip install -e ".[test]"``."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def test_tests_and_perfbench_import_only_declared_modules():
    # a top-level module named by an import is the standard library's, a file beside the importing
    # one or in a folder above it within tests/ or perfbench/ (perfbench's tests put perfbench/ on
    # the path), the package itself, or a distribution in the project's dependencies or its test extra
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
    undeclared = []
    files = [(base, path) for base in (ROOT / "tests", ROOT / "perfbench") for path in sorted(base.rglob("*.py"))]
    for base, path in files:
        folders = [path.parent, *[d for d in path.parent.parents if d.is_relative_to(base)]]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for top in {name.split(".")[0] for name in names}:
                local = any((d / f"{top}.py").exists() or (d / top / "__init__.py").exists() for d in folders)
                if not (top in sys.stdlib_module_names or local or top == "curvimom" or top.lower() in declared):
                    undeclared.append(f"{path.relative_to(ROOT)}: {top}")
    assert not undeclared
