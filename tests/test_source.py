"""Checks on the package source itself."""

import ast
from pathlib import Path

import cyclohecke

SRC = Path(cyclohecke.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise
    paths = sorted(SRC.glob("*.py"))
    assert "cli.py" in {path.name for path in paths}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"
