"""Every import in the library is used (a stdlib stand-in for pyflakes),
and every top-level definition of the library is named by the program."""

import ast
import glob
import os

import numpy as np
import pytest

import colavoid

SRC = os.path.dirname(colavoid.__file__)
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: test id -> path of each library module
FILES = {f: os.path.join(SRC, f) for f in sorted(os.listdir(SRC)) if f.endswith(".py")}


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

    library = read(FILES.values())
    others = read(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))
    assert dead_definitions(library, others) == []


def tracer_namespace():
    """The benchmark's tracer module, executed from its source so that
    nothing is written next to it."""
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    namespace = {"__name__": "perfbench_tracer"}
    with open(path) as fh:
        exec(compile(fh.read(), path, "exec"), namespace)
    return namespace


def test_tracer_targets_exist():
    # the benchmark's tracer wraps these attributes by name; one that a
    # refactor drops would only fail `perfbench/run.py --trace 1`.
    targets = tracer_namespace()["targets"]()
    assert targets
    missing = [(owner.__name__, attr) for owner, attr, _, _ in targets
               if attr not in owner.__dict__]
    assert missing == []


class ZeroPredictor:
    def predict_batch(self, X):
        return np.zeros(len(X), dtype=int)


class WaitingRuntime:
    """Serves a predictor of 0 and moves on it with probability one half."""

    predictor = ZeroPredictor()

    def move_probability(self, prediction):
        return 0.5


def test_tracer_cursor_hook_reads_a_world(tmp_path):
    # `--trace 1` wraps World.step and records (cursor, len(trace)) after
    # each step; simenv.trace_used_ratio is computed from them.
    from colavoid import simenv
    tracer_module = tracer_namespace()
    path = tmp_path / "trace.csv"
    simenv.write_trace(path, simenv.generate_trace(300, 0.8, simenv.EnvGenerator(seed=1), 2))
    traces = {"lazy": simenv.lazy_trace(5000, 0.8, simenv.EnvGenerator(seed=1), 2),
              "file": simenv.read_trace(path)}
    for kind, trace in traces.items():
        tracer = tracer_module["Tracer"]()
        tracer.install([(simenv.World, "step", "simenv.World.step",
                         tracer_module["_record_cursor"])])
        try:
            world = simenv.World(trace)
            rng = np.random.default_rng(3)
            for _ in range(5):
                world.step(WaitingRuntime(), rng)
        finally:
            tracer.uninstall()
        recorded = [span[4] for span in tracer.spans]
        assert len(recorded) == 5, kind
        for cursor, cap in recorded:
            assert 0 < cursor <= cap == len(world.trace), kind
        assert recorded[-1][0] == world.cursor, kind
