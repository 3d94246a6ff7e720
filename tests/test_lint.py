"""Source checks on the package itself."""

import ast
from pathlib import Path

import vecdom

MODULES = sorted(Path(vecdom.__file__).parent.rglob("*.py"))


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips ``assert``, and a failed check must still raise:
    # a YES witness that does not verify exits 2 only through an explicit
    # ``raise AssertionError``.
    assert MODULES
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
