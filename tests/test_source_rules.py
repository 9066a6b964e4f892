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


def test_no_vpoly_helpers_in_library():
    """Group-algebra elements are packed-key dicts; the tuple v-polynomial
    helpers live only in the tests' oracle."""
    paths = sorted(pathlib.Path(wwl.__file__).parent.glob("*.py"))
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.asname or a.name.rsplit(".", 1)[-1]
                         for a in node.names] + \
                        [a.name.rsplit(".", 1)[-1] for a in node.names]
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                names = [node.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.lower().startswith("vp_")]
    assert found == []
