"""Every third-party module the package imports is a declared dependency,
so a stray import fails here and not in a user's install."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pelwedge"


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_third_party_import_is_a_declared_dependency():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower() for req in project["dependencies"]}
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    for path in files:
        third_party = _imported_modules(path) - set(sys.stdlib_module_names) - {"pelwedge"}
        assert third_party <= declared, (path.name, sorted(third_party - declared))
