"""Source rules of the library: it fails closed (no check may vanish under
`python -O`) and only the command line prints."""

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


def test_only_the_cli_prints():
    """Diagnostics go through `logging`; only the command line writes to stdout."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        if path.name != "cli.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert not found, f"print calls in the library: {', '.join(found)}"
