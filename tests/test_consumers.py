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
