"""The demos and the benchmark use altia as outside callers do, so a
public name they need must not be deleted while tier-1 tests pass."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

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


def test_only_the_kernel_reads_masks():
    # One module owns the mask representation of configurations.  Only the
    # kernel, the lattice that defines the mask functions and the parser
    # that folds them use the mask names, and no other module reaches into
    # the kernel's memos or numbering: every search hands the kernel's
    # objects back to it and tests top and bottom by identity.
    mask_names = {"_TOP_MASKS", "_Masks", "_mask_meet", "_mask_antichain", "_Numbering"}
    kernel_attrs = {"steps", "successors", "numbering", "images", "configs", "masks"}
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
