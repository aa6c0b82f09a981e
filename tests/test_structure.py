"""Structure checks on the package source: no module-level function or class,
and no method or property of a class, that nothing in src/ calls, no random
generator outside oracle.sample_support, no overwrite= anywhere and no
column source handed to the kernel outside the trial loop, no size check in oracle.py outside its one guard
over runs and no fat point's profile outside the rules that state them, no
conditions matrix on columns other than a _band, no
prime checked against anything but a degree, no
environment variable read, no
import beyond the standard library and numpy, numpy only in oracle.py, no
command-line option that README.md does not name, no name that the
benchmark's tracer wraps missing from its home module, and no private name
that a docstring or comment of src/ cites, or `module.name` that README.md
cites, missing from the package."""

import argparse
import ast
import importlib
import importlib.util
import io
import re
import sys
import tokenize
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


# constructors of a random generator, and the method that draws a support from one
SAMPLERS = {"Random", "SystemRandom", "RandomState", "default_rng", "sample"}


def scoped_calls(src: Path = SRC) -> list[tuple[str, str, ast.Call]]:
    """(module:function, callee, call) for every call in src/*.py: the
    function around it dotted through nested ones ("module:" outside any
    function), and the callee's name, bare or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                found.append((f"{path.stem}:{'.'.join(scope)}", name, child))
            visit(child, scope)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), ())
    return found


def sampler_calls(src: Path = SRC) -> set[tuple[str, str]]:
    """(module:function, callee) for every call in src/*.py of a name in
    SAMPLERS."""
    return {(scope, name) for scope, name, _ in scoped_calls(src) if name in SAMPLERS}


def test_one_sampler():
    # every model draws its support through sample_support; a second
    # generator would put a second draw, and a second genericity
    # assumption, into the oracle
    assert sampler_calls() == {("oracle:sample_support", "Random"),
                               ("oracle:sample_support", "sample")}


# the size check behind a conditions matrix, and the profile of a fat point
GUARDED = {"require_memory", "conditions_bytes", "fat_profile"}


def test_one_guard_over_runs():
    # each model states its rows once, as runs clamped to what is built, and
    # _require_fits counts every matrix's rows from them; a second count, or
    # a profile built outside the rules, could disagree with the builder.
    # The table guard of formulas.py checks cells, not a matrix
    calls = {(scope, name) for scope, name, _ in scoped_calls()
             if scope.startswith("oracle:") and name in GUARDED}
    assert calls == {("oracle:_require_fits", "require_memory"),
                     ("oracle:_require_fits", "conditions_bytes"),
                     ("oracle:_bi_row", "fat_profile"),
                     ("oracle:require_plane_fits", "fat_profile")}


def overwrite_names(src: Path = SRC) -> set[str]:
    """module:line for every call in src/*.py that passes overwrite= by
    keyword and every function that takes an argument named overwrite."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and any(kw.arg == "overwrite" for kw in node.keywords):
                found.add(f"{path.stem}:{node.lineno}")
            elif isinstance(node, ast.arg) and node.arg == "overwrite":
                found.add(f"{path.stem}:{node.lineno}")
    return found


def test_only_the_trial_loop_hands_over_a_column_source():
    # the kernel copies a caller's array a panel at a time and never writes
    # into it, so nothing hands a matrix over with overwrite=. A
    # ColumnSource builds the columns the kernel reaches on a trial's
    # support: only the trial loop makes one and hands it over, and the
    # kernel makes one around a caller's array. rank_mod_p hands on what
    # it is given, and only the line model calls it, with an array
    assert overwrite_names() == set()
    calls = scoped_calls()
    assert {scope for scope, name, _ in calls if name == "ColumnSource"} == {
        "oracle:_max_ranks", "oracle:rank_profile_mod_p"}
    assert {scope for scope, name, _ in calls if name == "rank_profile_mod_p"} == {
        "oracle:_max_ranks", "oracle:rank_mod_p"}
    assert {scope for scope, name, _ in calls if name == "rank_mod_p"} == {"oracle:hf_trace_line"}


def test_one_column_rule():
    # every model's columns are the band of a box that _band states once,
    # j-major, and _below counts; a model with a column generator of its
    # own could order or count its columns otherwise than its guard and bound
    columns = {scope: ast.unparse(call.args[2]) for scope, name, call in scoped_calls()
               if name == "conditions_matrix"}
    assert set(columns) == {"oracle:bi_conditions_matrix", "oracle:plane_conditions_matrix",
                            "oracle:hf_trace_line"}
    assert all(arg.startswith("*_band(") for arg in columns.values()), columns


def test_the_prime_bounds_degrees_only():
    # only exponents up to the degree enter the entries, and every builder
    # clamps a multiplicity to the rows it can have there, so a multiplicity
    # at or above the prime is valid input and no check may refuse it
    degrees = {(scope, ast.unparse(call.args[0])) for scope, name, call in scoped_calls()
               if name == "require_degree"}
    assert degrees == {("oracle:_bi_row", "deg.a + b"),
                       ("oracle:check_reduction", "deg.a + deg.b"),
                       ("oracle:hf_plane", "d"), ("oracle:hf_trace_line", "d")}


def test_no_environment_is_read():
    # a run is a function of its argv: the seed, the prime and every other
    # setting reach the program as flags or arguments, never from os.environ
    found = {(path.name, match) for path in sorted(SRC.glob("*.py"))
             for match in re.findall(r"environ|getenv", path.read_text())}
    assert found == set()


def imported_modules(src: Path = SRC) -> set[tuple[str, str]]:
    """(module, top-level name) for every import in src/*.py, at module level
    or inside a function; a relative import names the package itself."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update((path.stem, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                found.add((path.stem, src.name if node.level else node.module.split(".")[0]))
    return found


def test_numpy_is_the_one_dependency():
    # numpy is the only runtime dependency, and the oracle its only user
    imports = imported_modules()
    foreign = {(module, name) for module, name in imports
               if name not in sys.stdlib_module_names | {"numpy", SRC.name}}
    assert foreign == set()
    assert {module for module, name in imports if name == "numpy"} == {"oracle"}


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


def traced_names_missing(spans_path: Path = ROOT / "bench" / "spans.py") -> set[tuple[str, str]]:
    """(home module, name) for every entry of the tracer's TARGETS that its
    home module does not define; spans.py is loaded from its path as it is."""
    spec = importlib.util.spec_from_file_location("_bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    return {(home, name) for home, name, _ in spans.TARGETS
            if not hasattr(importlib.import_module(home), name)}


def test_every_traced_name_exists():
    # the tracer counts a name missing from its home module as 0, with only
    # a warning, so a rename in src/ would silently empty a layer
    assert traced_names_missing() == set()


def module_level_names(src: Path = SRC) -> set[str]:
    """The functions, classes and assigned names at module level in src/*.py."""
    names = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def cited_private_names(src: Path = SRC) -> set[tuple[str, str]]:
    """(module, name) for every private name _x that a docstring or comment
    of src/*.py cites, bare or after a dot."""
    found = set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        prose = [ast.get_docstring(node, clean=False) or "" for node in ast.walk(ast.parse(text))
                 if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                      ast.AsyncFunctionDef))]
        prose += [token.string for token in tokenize.generate_tokens(io.StringIO(text).readline)
                  if token.type == tokenize.COMMENT]
        found.update((path.stem, name) for chunk in prose
                     for name in re.findall(r"(?<!\w)_[A-Za-z]\w*", chunk))
    return found


def test_every_cited_home_exists():
    # an argument is stated once, where it is implemented, and every other
    # copy names that home; a pointer to a name that is gone points nowhere
    defined = module_level_names()
    assert {(module, name) for module, name in cited_private_names()
            if name not in defined} == set()
    readme = (ROOT / "README.md").read_text()
    modules = {path.stem for path in SRC.glob("*.py")}
    cited = {(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)", readme)
             if module in modules}
    assert cited
    assert {(module, name) for module, name in cited
            if not hasattr(importlib.import_module(f"fatpoints.{module}"), name)} == set()
