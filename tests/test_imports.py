"""Every import in the library and the scripts is used (a stdlib stand-in
for pyflakes)."""

import ast
import os

import pytest

import colavoid

SRC = os.path.dirname(colavoid.__file__)
SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")
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
