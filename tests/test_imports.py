"""Every name a package module imports is used in that module, every
module-level private name is read somewhere in the package, only ``io``
writes JSON, and importing the CLI does not load ``verify``.

No linter is installed, so this parses each module with ``ast``.  An import
kept unused on purpose carries ``# noqa: F401`` on its line, and must be
one that the benchmark tracer wraps by name: an entry of
``perfbench/tracer.py``'s ``WRAPS`` with the same module and attribute.
Names in quoted annotations count as used.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_tracer_wraps import load_tracer

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fampersist"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        note = getattr(node, "annotation", None) or getattr(node, "returns",
                                                            None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used |= {n.id for n in ast.walk(ast.parse(note.value))
                     if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def kept_imports(source):
    """(line, name) of each name imported on a line marked ``# noqa: F401``."""
    lines = source.splitlines()
    return sorted((node.lineno, alias.asname or alias.name.split(".")[0])
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and "# noqa: F401" in lines[node.lineno - 1]
                  for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_kept_imports_are_traced(path):
    traced = {(module, attr) for module, attr, _ in load_tracer().WRAPS}
    owner = f"fampersist.{path.stem}"
    assert [(line, name) for line, name in kept_imports(path.read_text())
            if (owner, name) not in traced] == []


def test_detects_unused_and_honours_noqa():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import sys  # noqa: F401\n"
              "from a.b import c, d\n"
              "def f(x: \"d\", y: \"List[int]\") -> \"e\":\n"
              "    return c\n")
    assert unused_imports(source) == [(2, "os")]
    assert kept_imports(source) == [(3, "sys")]


def private_definitions(source):
    """Module-level private functions, classes and assigned names: one
    leading underscore, not a dunder."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return {name for name in names
            if name.startswith("_") and not name.endswith("__")}


def read_names(source):
    """Names read by a Load, as an attribute or by an import."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def test_private_names_are_used():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    read = set().union(*map(read_names, sources.values()))
    assert sorted((name, private) for name, source in sources.items()
                  for private in private_definitions(source)
                  if private not in read) == []


def test_detects_unread_private_names():
    source = ("import m\n"
              "_A = 1\n"
              "_B, (_C, d) = 2, (3, 4)\n"
              "_E: int = 5\n"
              "__all__ = []\n"
              "def _f():\n"
              "    _G = _A\n"
              "    return _G\n"
              "class _K:\n"
              "    pass\n"
              "def g():\n"
              "    return m._K, _E\n")
    assert private_definitions(source) == {"_A", "_B", "_C", "_E", "_f",
                                           "_K"}
    assert private_definitions(source) - read_names(source) == {"_B", "_C",
                                                                "_f"}


def json_writers(source):
    """Lines that call or import ``json.dump`` or ``json.dumps``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            names = {alias.name for alias in node.names}
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "json"):
            names = {node.attr}
        else:
            continue
        if names & {"dump", "dumps"}:
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_io_writes_json(path):
    """Every payload goes through ``io.dump_json``, so the benchmark
    tracer's io.serialize layer sees all JSON writing; in ``io`` itself
    ``json.dumps`` is only the fallback for values it does not write."""
    writers = json_writers(path.read_text())
    assert len(writers) == (path.name == "io.py")


def test_detects_json_writers():
    source = ("import json\n"
              "from json import dumps as d\n"
              "json.loads('1')\n"
              "f = json.dump\n"
              "json.dumps({})\n")
    assert json_writers(source) == [2, 4, 5]


def test_cli_import_leaves_verify_unloaded():
    """Only ``fampersist verify`` runs the suite, so importing the CLI, as
    every benchmark job does, neither loads nor compiles ``verify``."""
    proc = subprocess.run(
        [sys.executable, "-c", "import fampersist.cli, sys; "
         "print('fampersist.verify' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
