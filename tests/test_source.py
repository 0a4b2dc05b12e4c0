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


def test_core_decisions_stay_in_covers():
    """Based cores and seeded core morphisms are computed only in covers."""
    names = {"based_core_and_tail", "_labeled_extension"}
    found = []
    for path in sorted(pathlib.Path(outerspine.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name in names and path.name != "covers.py":
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []
