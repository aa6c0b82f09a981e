"""Structure checks on the package source: no module-level function or class,
and no method or property of a class, that nothing in src/ calls, and no
command-line option that README.md does not name."""

import argparse
import ast
import re
from pathlib import Path

from fatpoints.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fatpoints"

# documented entries of the Horace calculus; only library users call them
ENTRY_POINTS = {"castelnuovo_check", "horace_verify"}


def unreferenced_definitions(src: Path = SRC) -> set[str]:
    """Definitions of src/*.py that no module there references; imports,
    __all__ and the definition itself do not count.

    A module-level function or class is reported by its name when that name
    appears in no name or attribute reference. A non-dunder method or
    property of a class is reported as Class.name when that name appears in
    no attribute reference.
    """
    defined, members, names, attrs = set(), set(), set(), set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                members.update(
                    (node.name, item.name) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    unused = defined - names - attrs
    return unused | {f"{cls}.{name}" for cls, name in members if name not in attrs}


def test_every_definition_has_a_caller():
    # an exemption that gains a caller in src/ is dropped from ENTRY_POINTS
    assert unreferenced_definitions() == ENTRY_POINTS


def long_options(parser: argparse.ArgumentParser) -> set[str]:
    """The long options of a parser and of its subcommands, --help aside."""
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= long_options(sub)
        elif not isinstance(action, argparse._HelpAction):
            options.update(opt for opt in action.option_strings if opt.startswith("--"))
    return options


def test_every_option_is_documented():
    readme = (ROOT / "README.md").read_text()
    undocumented = {opt for opt in long_options(build_parser())
                    if not re.search(re.escape(opt) + r"(?![\w-])", readme)}
    assert undocumented == set()
