"""Every import in the library and the scripts is used (a stdlib stand-in
for pyflakes), and every top-level definition of the library is named by
the program."""

import ast
import glob
import os

import pytest

import colavoid

SRC = os.path.dirname(colavoid.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
#: test id -> path; library modules by file name, scripts as scripts/<name>
FILES = {f: os.path.join(SRC, f) for f in sorted(os.listdir(SRC)) if f.endswith(".py")}
FILES.update({f"scripts/{f}": os.path.join(SCRIPTS, f)
              for f in sorted(os.listdir(SCRIPTS)) if f.endswith(".py")})


def unused_imports(source):
    """Names bound by import statements that no other node of the module
    reads; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_detector_finds_unused_and_ignores_used():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "import os.path\n"
              "from math import pi as PI, tau\n"
              "print(sys.argv, tau)\n")
    assert unused_imports(source) == [(3, "os"), (4, "PI")]


@pytest.mark.parametrize("module", FILES)
def test_no_unused_imports(module):
    with open(FILES[module]) as fh:
        assert unused_imports(fh.read()) == []


#: test oracles: only the tests call them
ORACLES = {"simulate_chain", "loss_and_gradients", "serialize_model"}


def _mentions(node):
    """Names a statement reads, as a name, an attribute, an imported name or
    a string (the benchmark's tracer names its targets by string)."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def dead_definitions(library, others):
    """(path, name) of each top-level function or class of the `library`
    sources (path -> text) that no other top-level statement of the library
    or of the `others` sources names."""
    statements = [(path, node, _mentions(node))
                  for sources in (library, others) for path, text in sources.items()
                  for node in ast.parse(text).body]
    return [(path, node.name) for path, node, _ in statements
            if path in library and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not any(node.name in names for _, other, names in statements
                        if other is not node)]


def test_dead_definition_scan_finds_unnamed():
    library = {"a.py": ("def used(): pass\n"
                        "def dead(): pass\n"
                        "def recursive(): return recursive()\n"
                        "class ByAttribute: pass\n"
                        "def by_string(): pass\n"),
               "b.py": "from a import used\n"}
    others = {"c.py": "import a\nx = a.ByAttribute\ntargets = [(a, 'by_string')]\n"}
    assert dead_definitions(library, others) == [("a.py", "dead"), ("a.py", "recursive")]


def test_every_library_definition_is_named():
    def read(paths):
        out = {}
        for path in paths:
            with open(path) as fh:
                out[os.path.relpath(path, ROOT)] = fh.read()
        return out

    library = read(FILES[f] for f in FILES if not f.startswith("scripts/"))
    others = read(glob.glob(os.path.join(ROOT, "scripts", "*.py"))
                  + glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    dead = [(path, name) for path, name in dead_definitions(library, others)
            if name not in ORACLES]
    assert dead == []
