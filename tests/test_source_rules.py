"""Rules on the library source itself."""

import ast
import pathlib

import wwl


def test_no_assert_statements_in_library():
    """Invariant checks raise InvariantError; an assert statement would
    vanish under python -O."""
    paths = sorted(pathlib.Path(wwl.__file__).parent.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
