"""The library fails closed: no check may vanish under `python -O`."""

import ast
from pathlib import Path

import srg

SOURCES = sorted(Path(srg.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"core.py", "dynamics.py", "phenotype.py"}


def test_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in the library: {', '.join(found)}"
