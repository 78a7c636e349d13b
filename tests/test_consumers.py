"""The demos and the benchmark use altia as outside callers do, so a
public name they need must not be deleted while tier-1 tests pass."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import altia

ROOT = Path(__file__).resolve().parent.parent


def test_demos_run_and_benchmark_imports_resolve(tmp_path):
    # Each demo runs in its own empty directory (demo 02 writes a .dot file
    # there), with the same altia as this process.
    src = str(Path(altia.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for demo in demos:
        proc = subprocess.run(
            [sys.executable, str(demo)],
            capture_output=True,
            text=True,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, f"{demo.name}: {proc.stderr}"

    # Every name the benchmark imports from altia, at any depth of its code.
    missing = []
    for script in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(script.read_text(), str(script))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "altia" or node.module.startswith("altia.")
            ):
                module = importlib.import_module(node.module)
                missing += [f"{script.name}: {node.module}.{a.name}"
                            for a in node.names if not hasattr(module, a.name)]
    assert not missing


# What ``from altia import *`` binds: the public names and the submodules
# that define them.
STAR_NAMES = {
    "AIA", "AlphabetError", "AltiaError", "Clause", "Config", "ExplorationLimitError",
    "FTrace", "IA", "Kind", "Label", "ModelError", "ParseError", "RefinementResult",
    "SplitMix64", "Tester", "TraceStatus", "Verdict", "after", "after_set", "after_trace",
    "aia", "aia_bot", "aia_ftrace_member", "aia_top", "bot", "build_tester",
    "check_deterministic", "classify", "conj", "det", "deterministic", "determinize",
    "disj", "dnf", "embed", "equiv", "errors", "fcl_member", "format_verdict",
    "ftrace_member", "gen_singular", "ia", "in_set", "induce_aia", "induce_ia", "inp",
    "io", "is_singular_for", "is_test_case", "join", "join_all", "lattice", "leq_aia",
    "leq_ia", "leq_ia_aia", "load_model", "meet", "meet_all", "out", "parse_expr",
    "parse_model", "parse_trace", "print_model", "refine", "rename_states", "rng",
    "run_random", "save_model", "search", "singular_from_trace", "substitute",
    "tester_problems", "testing", "to_dot", "top", "trace_verdict", "verdict_exhaustive",
}
SUBMODULES = {"aia", "determinize", "errors", "ia", "io", "lattice", "refine", "rng",
              "search", "testing"}


def test_public_names_resolve():
    # A fresh ``import altia`` loads no submodule and its dir() lists every
    # public name; the star import then binds the same 77 names the eager
    # package bound.
    src = str(Path(altia.__file__).resolve().parent.parent)
    code = ("import sys\nimport altia\n"
            "print(*sorted(m for m in sys.modules if m.startswith('altia.')))\n"
            "print(*dir(altia))\n"
            "namespace = {}\nexec('from altia import *', namespace)\n"
            "print(*sorted(set(namespace) - {'__builtins__'}))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    loaded, listed, star = proc.stdout.split("\n")[:3]
    assert loaded == "" and STAR_NAMES <= set(listed.split())
    assert set(star.split()) == STAR_NAMES

    # Each name resolves, submodules to themselves; a name the package
    # lacks is an AttributeError, so hasattr and getattr with a default
    # keep working.
    assert len(STAR_NAMES) == 77 and set(altia.__all__) == STAR_NAMES
    for name in STAR_NAMES:
        value = getattr(altia, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"altia.{name}")
        else:
            assert value is not None and not isinstance(value, type(altia))
    assert altia.aia_ftrace_member is altia.aia.ftrace_member
    assert altia.ftrace_member is altia.ia.ftrace_member
    assert altia.det is altia.determinize.det
    assert altia.SplitMix64 is altia.rng.SplitMix64
    assert not hasattr(altia, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        altia.no_such_name


def test_only_the_kernel_reads_masks():
    # One module owns the mask representation of configurations.  Only the
    # kernel, the lattice that defines the mask functions and the parser
    # that folds them use the mask names, and no other module reaches into
    # the kernel's memos or numbering: every search hands the kernel's ids
    # back to it, reads rows only through its methods and tests top and
    # bottom by id.
    mask_names = {"_TOP_MASKS", "_Masks", "_mask_meet", "_mask_antichain", "_Numbering"}
    kernel_attrs = {"steps", "successors", "numbering", "images", "configs", "masks",
                    "ids", "objs", "rows"}
    users: dict[str, set] = {}
    readers: dict[str, set] = {}
    for path in sorted((ROOT / "src" / "altia").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                used = mask_names.intersection(a.name for a in node.names)
            elif isinstance(node, ast.Attribute):
                used = mask_names & {node.attr}
                if node.attr in kernel_attrs and path.stem != "_kernel":
                    readers.setdefault(path.stem, set()).add(node.attr)
            else:
                continue
            if used:
                users.setdefault(path.stem, set()).update(used)
    # the lattice defines the names; the kernel and the parser import them
    assert {"_kernel", "io"} <= set(users) <= {"_kernel", "lattice", "io"}, users
    assert not readers, readers
