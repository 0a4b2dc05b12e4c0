"""Library checks must survive `python -O`, which strips assert statements."""

import ast
import pathlib

import outerspine


def test_library_has_no_asserts():
    found = []
    for path in sorted(pathlib.Path(outerspine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(node, ast.Assert) or (
                    isinstance(exc, ast.Name) and exc.id == "AssertionError"):
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
