"""Structure checks on the package source: no module-level function or class
that nothing in src/ calls."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fatpoints"

# documented entries of the Horace calculus; only library users call them
ENTRY_POINTS = {"castelnuovo_check", "horace_verify"}


def unreferenced_definitions(src: Path = SRC) -> set[str]:
    """Module-level functions and classes of src/*.py whose name appears in
    no name or attribute reference of any module there; imports, __all__
    and the definition itself do not count."""
    defined, referenced = set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined - referenced


def test_every_definition_has_a_caller():
    # an exemption that gains a caller in src/ is dropped from ENTRY_POINTS
    assert unreferenced_definitions() == ENTRY_POINTS
