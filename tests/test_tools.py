"""Static checks of the repository's tools, cheap enough for every run."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutation_catalogue_matches_the_tree():
    # Every entry of tools/mutants.py's catalogue must still apply: its
    # snippet occurs exactly once in its file, and each test it names is a
    # test function of an existing test file.  A refactor that moves a
    # mutated snippet or renames a listed test fails here, without running
    # a mutant.
    mutants = _load("mutants")
    names = [m.name for m in mutants.CATALOGUE]
    assert len(names) == len(set(names)), "entry names repeat"
    functions: dict[str, set] = {}
    for m in mutants.CATALOGUE:
        path = ROOT / m.file
        assert path.is_file(), (m.name, m.file)
        assert path.read_text().count(m.snippet) == 1, f"{m.name}: stale snippet in {m.file}"
        assert m.replacement != m.snippet and m.tests, m.name
        for test in m.tests:
            file, _, name = test.partition("::")
            if file not in functions:
                tree = ast.parse((ROOT / file).read_text(), file)
                functions[file] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
            assert name.startswith("test_") and name in functions[file], (m.name, test)
