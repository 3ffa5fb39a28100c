"""The declared Python floor (pyproject's requires-python >= 3.10) holds for
syntax, and the package imports nothing beyond the standard library and numpy."""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def test_the_floor_is_the_declared_one():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "rnnp").glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    tops = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names}
    tops |= {node.module.split(".")[0] for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert sorted(tops - sys.stdlib_module_names - {"numpy", "rnnp"}) == []
