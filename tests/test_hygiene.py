"""Source hygiene that no installed linter checks: unused imports,
private helpers nothing references, public functions and classes that
nothing outside the tests references, private names that one module reads
from another, what importing the command-line module loads, one place
that reads and writes JSON files and one that reads and writes CSV
files, exactly one documented line for each configuration key, with the
default that loads, and instance rows and columns read as arrays outside
``core``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mippred
from mippred import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mippred"
BENCH = ROOT / "perfbench"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references, in import order.

    A name listed in ``__all__`` counts as used; ``__future__`` imports
    are not names.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {e.value for e in ast.walk(node.value)
                     if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_flags_unused_and_honours_all_and_future():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from json import dumps as d, loads\n"
              "from math import pi\n"
              "__all__ = ['pi']\n"
              "print(sys.argv, d)\n")
    assert unused_imports(source) == ["os", "loads"]


def private(name: str) -> bool:
    """One leading underscore, not dunder."""
    return name.startswith("_") and not name.endswith("__")


def private_definitions(source: str) -> list[str]:
    """Private functions and classes defined at module level, and
    private methods of module-level classes, in source order."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and private(node.name):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [item.name for item in node.body
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))
                    and private(item.name)]
    return out


def referenced_names(sources) -> set[str]:
    """Every name and attribute the sources load, call or otherwise use
    (definitions themselves do not count)."""
    used = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_no_unreferenced_private_helpers():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    used = referenced_names(sources)
    unused = [name for source in sources
              for name in private_definitions(source) if name not in used]
    assert unused == []


def test_private_scan_flags_unreferenced_helpers():
    source = ("def _used(): pass\n"
              "def _dead(): pass\n"
              "def public(): return _used()\n"
              "class _Dead:\n"
              "    def __init__(self): pass\n"
              "    def _method(self): pass\n"
              "    def _called(self): return self._called\n")
    assert private_definitions(source) == ["_used", "_dead", "_Dead",
                                           "_method", "_called"]
    used = referenced_names([source])
    assert [n for n in private_definitions(source) if n not in used] == [
        "_dead", "_Dead", "_method"]


def public_definitions(source: str) -> list[str]:
    """Public functions and classes defined at module level, in source
    order."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def unreferenced_public(modules: dict[str, str], users,
                        exported=()) -> list[str]:
    """``module.name`` of each public function or class in ``modules``
    (module name -> source) that no module and none of the ``users``
    sources reference and that ``exported`` does not list, in module and
    source order.  A definition is no reference to itself."""
    used = referenced_names([*modules.values(), *users]) | set(exported)
    return [f"{module}.{name}" for module, source in modules.items()
            for name in public_definitions(source) if name not in used]


def test_public_scan_flags_definitions_nothing_references():
    modules = {"a": ("def public(): return helper()\n"
                     "def helper(): pass\n"
                     "class Dead: pass\n"
                     "def _private(): pass\n"
                     "def exported(): pass\n"),
               "b": ("def reached(): pass\n"
                     "def orphan(): return a.reached\n")}
    assert public_definitions(modules["a"]) == ["public", "helper", "Dead",
                                                "exported"]
    assert unreferenced_public(modules, ["public()"], ["exported"]) == [
        "a.Dead", "b.orphan"]


def test_every_public_definition_is_referenced():
    modules = {path.stem: path.read_text()
               for path in sorted(SRC.glob("*.py"))}
    users = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    unused = unreferenced_public(modules, users, mippred.__all__)
    # public functions reached only from the tests
    entry_points = {"simplex.solve_lp", "gcn.loss_and_gradients",
                    "gcn.bce_loss"}
    assert [name for name in unused if name not in entry_points] == []


def foreign_private_reads(source: str) -> list[str]:
    """``module._name`` for each private name the source imports from
    another package module or reads as an attribute of one, in source
    order.  The package's modules are the names that ``from . import``
    and ``from mippred import`` bind."""
    modules, found = set(), []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not (
                node.level or node.module.split(".")[0] == "mippred"):
            continue
        for a in node.names:
            if node.module in (None, "mippred"):
                modules.add(a.asname or a.name)
            elif private(a.name):
                found.append((node.lineno, node.col_offset,
                              f"{node.module.split('.')[-1]}.{a.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules and private(node.attr)):
            found.append((node.lineno, node.col_offset,
                          f"{node.value.id}.{node.attr}"))
    return [what for *_, what in sorted(found)]


def test_foreign_private_scan_flags_package_modules_only():
    source = ("from . import bnb, gcn as g\n"
              "from .core import _hidden, public\n"
              "from mippred.simplex import _price\n"
              "import numpy as np\n"
              "bnb._Node(g._halves(x), np._private, self._own)\n"
              "bnb.solve(bnb.__name__, public)\n")
    assert foreign_private_reads(source) == ["core._hidden",
                                             "simplex._price",
                                             "bnb._Node", "g._halves"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert foreign_private_reads(path.read_text()) == []


def test_cli_import_does_not_load_scipy_sparse():
    # only the GCN's edge patterns need scipy (scipy.sparse), and they
    # import it when first built; gen and label processes never pay for
    # it, and no other scipy* module (a cold scipy.linalg import alone
    # takes a quarter second) comes in with the import
    assert scipy_modules_after("import mippred.cli") == []


def test_labeling_does_not_load_scipy():
    # labeling solves LPs and trees from start to end; the LP path is
    # numpy only, so a label process imports no scipy* module either
    assert scipy_modules_after(
        "from mippred import generators, labeler; "
        "inst = generators.generate(generators.GenSpec('mk', 'tiny', "
        "seed=0)); "
        "assert labeler.generate_labels(inst).labels") == []


def scipy_modules_after(code: str) -> list[str]:
    """The scipy* modules loaded once ``code`` has run in a fresh
    interpreter with the package on its path."""
    code += ("\nimport sys\n"
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (
                   str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])


def json_file_calls(source: str) -> list[tuple[str, str]]:
    """(enclosing function, ``<module>`` at top level; json function) of
    every ``json.load``/``json.dump``/``json.dumps`` call and each name
    of ``from json import load/dump/dumps``, in source order:
    ``json.dumps`` builds a file's whole text in memory."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "json"
                    and func.attr in ("load", "dump", "dumps")):
                out.append((scope, func.attr))
            if isinstance(child, ast.ImportFrom) and child.module == "json":
                out.extend((scope, a.name) for a in child.names
                           if a.name in ("load", "dump", "dumps"))
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return out


def test_json_scan_flags_file_calls_by_enclosing_function():
    source = ("import json\n"
              "from json import dump, loads\n"
              "def save(x, fh):\n"
              "    json.dump(x, fh)\n"
              "def parse(s):\n"
              "    return json.loads(s)\n"
              "def text(x):\n"
              "    return json.dumps(x)\n"
              "data = json.load(open('f'))\n")
    assert json_file_calls(source) == [("<module>", "dump"), ("save", "dump"),
                                       ("text", "dumps"), ("<module>", "load")]


def test_json_files_go_through_the_core_helpers():
    """Every JSON file is read by ``json.load`` in ``read_json`` and
    streamed by ``json.dump`` in ``write_json``; ``json.dumps`` is used
    nowhere."""
    calls = {(path.name, *call) for path in sorted(SRC.glob("*.py"))
             for call in json_file_calls(path.read_text())}
    assert calls == {("core.py", "read_json", "load"),
                     ("core.py", "write_json", "dump")}


def imported_modules(source: str) -> set[str]:
    """The top-level name of every module that ``source`` imports, at any
    depth; relative imports are left out."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_import_scan_finds_plain_from_and_nested_imports():
    source = ("import csv\n"
              "import os.path as p\n"
              "from json import load\n"
              "from . import core\n"
              "from .csv import rows\n"
              "def f():\n"
              "    import re\n")
    assert imported_modules(source) == {"csv", "os", "json", "re"}


def test_csv_files_go_through_the_core_helpers():
    """Only ``core`` imports the csv module: every CSV file is written by
    ``write_csv`` and read by ``read_csv``."""
    users = {path.name for path in sorted(SRC.glob("*.py"))
             if "csv" in imported_modules(path.read_text())}
    assert users == {"core.py"}


def test_array_bytes_go_through_the_core_codec():
    """Only ``core`` imports base64 or binascii: every array in a JSON
    file is written by ``encode_array`` and read by ``decode_array``."""
    users = {path.name for path in sorted(SRC.glob("*.py"))
             if {"base64", "binascii"} & imported_modules(path.read_text())}
    assert users == {"core.py"}


def documented_config_lines(doc: str) -> dict[tuple[str, str], list[str]]:
    """(section, first word) -> the columns, split at runs of two or more
    spaces, of each line below an indented ``[section]`` line and
    indented as far as it, up to the next unindented or blank line.  A
    line indented further continues the line above it."""
    lines, section, column = {}, None, 0
    for line in doc.splitlines():
        words = line.split()
        indent = len(line) - len(line.lstrip())
        if not words or indent == 0:
            section = None
        elif words[0].startswith("[") and words[0].endswith("]"):
            section, column = words[0][1:-1], indent
        elif section is not None and indent == column:
            lines[section, words[0]] = re.split(r"\s{2,}", line.strip())
    return lines


def test_config_key_scan_skips_continuation_lines():
    doc = ("Intro.\n"
           "\n"
           "    [a]\n"
           "    one      1      first\n"
           "                    wrapped words\n"
           "    two      2 3    a list\n"
           "    [b]             a note\n"
           "    three    3\n"
           "\n"
           "    four     4\n")
    assert documented_config_lines(doc) == {
        ("a", "one"): ["one", "1", "first"],
        ("a", "two"): ["two", "2 3", "a list"],
        ("b", "three"): ["three", "3"]}


def test_every_config_key_is_documented():
    """Every key of ``cli._KEYS`` has a line in the ``cli`` docstring, and
    every key documented there is in ``cli._KEYS``."""
    table = {(section, key) for section, key, *_ in cli._KEYS}
    documented = set(documented_config_lines(cli.__doc__))
    assert table - documented == set()
    assert documented - table == set()


def test_documented_config_defaults_are_the_loaded_ones(tmp_path):
    """Each key's default column in the ``cli`` docstring, parsed by the
    key's own parser (``(empty)`` as the empty text), is the value that a
    configuration without the key loads."""
    cfg = cli.load_config(None, tmp_path)
    lines = documented_config_lines(cli.__doc__)
    for section, key, path, parse, _ in cli._KEYS:
        text = lines[section, key][1]
        documented = parse("" if text == "(empty)" else text)
        assert documented == getattr(*cli._resolve(cfg, path)), (section,
                                                                 key)


def row_record_uses(source: str) -> list[str]:
    """Each read of a ``.constraints`` or ``.coeffs`` attribute and each
    import of ``Constraint``, in source order: the rows an instance
    stores are arrays, and these are its dict-row records."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("constraints",
                                                            "coeffs"):
            found.append((node.lineno, node.col_offset, "." + node.attr))
        elif isinstance(node, ast.ImportFrom) and any(
                a.name == "Constraint" for a in node.names):
            found.append((node.lineno, node.col_offset, "import Constraint"))
    return [what for *_, what in sorted(found)]


def test_row_record_scan_flags_reads_and_imports():
    source = ("from .core import Constraint, MipInstance\n"
              "rows = inst.constraints\n"
              "c = rows[0].coeffs\n"
              "solve(constraints=1, coeffs=2)\n"
              "inst.rows.cols\n")
    assert row_record_uses(source) == ["import Constraint", ".constraints",
                                       ".coeffs"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_rows_are_read_as_arrays_outside_core(path):
    allowed = {"core.py": {".constraints", ".coeffs", "import Constraint"},
               "generators.py": {"import Constraint"}}.get(path.name, set())
    assert set(row_record_uses(path.read_text())) <= allowed


def column_record_uses(source: str) -> list[str]:
    """Each read of a ``.variables`` attribute, each ``objective_vector()``
    call and each import of ``Variable``, in source order: the columns an
    instance stores are arrays, and these are its record views."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == "variables":
            found.append((node.lineno, node.col_offset, ".variables"))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "objective_vector"):
            found.append((node.lineno, node.col_offset, "objective_vector()"))
        elif isinstance(node, ast.ImportFrom) and any(
                a.name == "Variable" for a in node.names):
            found.append((node.lineno, node.col_offset, "import Variable"))
    return [what for *_, what in sorted(found)]


def test_column_record_scan_flags_reads_calls_and_imports():
    source = ("from .core import MipInstance, Variable\n"
              "cols = inst.variables\n"
              "c = inst.objective_vector()\n"
              "solve(variables=1, objective_vector=2)\n"
              "inst.c, inst.lb, inst.vtype, inst.var_names\n")
    assert column_record_uses(source) == ["import Variable", ".variables",
                                          "objective_vector()"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_columns_are_read_as_arrays_outside_core(path):
    allowed = {"core.py": {".variables", "objective_vector()",
                           "import Variable"},
               "generators.py": {"import Variable"}}.get(path.name, set())
    assert set(column_record_uses(path.read_text())) <= allowed
