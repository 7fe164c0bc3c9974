"""Package-wide rules: invariant checks are real raises, and every public name resolves."""

import ast
from pathlib import Path

import mixedmetric

SRC = Path(mixedmetric.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; invariant checks raise InvariantError.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mixedmetric import *", namespace)
    assert sorted(set(mixedmetric.__all__)) == sorted(mixedmetric.__all__)
    assert set(mixedmetric.__all__) <= set(namespace)
