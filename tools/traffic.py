"""List the lines of ``src/altia`` that no given benchmark workload runs.

Usage: python tools/traffic.py [-h] [--seconds S] [--seed N] WORKLOAD [WORKLOAD ...]

Each ``WORKLOAD`` is a name of ``perfbench/run.py`` (``explore``,
``conjoin``, ``campaign`` or ``cli``).  The workloads run one after the
other in this process, each for ``--seconds`` (default 8) plus its
prefix rounds, with ``--seed`` (default 1), through the benchmark's own
harness, which this tool imports and does not change.  A ``sys.settrace``
line tracer, set before ``altia`` is imported, records every line of
``src/altia`` that runs, the modules' import included.  Tracing makes
the code several times slower, so a run covers fewer rounds than an
untraced one of the same length.

The output has one line per module of ``src/altia``: the number of its
executable lines (those the compiler gives a line number, less each
function's ``def`` line), how many of them no workload ran, and those
lines as ranges.  A line counts as run if any workload ran it.

The ``cli`` workload runs its ``altia`` commands as child processes,
which are not traced: for ``cli``, only what its harness does in this
process is seen.  The benchmark writes its scratch files under
``.bench_work/`` of this checkout, as it does when run on its own.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path
from types import CodeType

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "altia"
SRC_PREFIX = str(SRC) + "/"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code, less each function's ``def``
    line, which a call does not report as run."""
    lines: set[int] = set()
    codes = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        first = code.co_firstlineno if code.co_name != "<module>" else None
        lines.update(line for _, _, line in code.co_lines() if line and line != first)
        codes += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``a-b`` ranges of consecutive numbers."""
    out: list[str] = []
    start = prev = None
    for n in lines + [None]:
        if prev is not None and n == prev + 1:
            prev = n
            continue
        if start is not None:
            out.append(str(start) if start == prev else f"{start}-{prev}")
        start = prev = n
    return ", ".join(out)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("workloads", nargs="+", metavar="WORKLOAD",
                   choices=("explore", "conjoin", "campaign", "cli"))
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)

    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(SRC_PREFIX):
            return None
        ran.setdefault(filename, set())
        return local(frame, event, arg)

    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests"), str(REPO / "perfbench")]
    sys.settrace(call)
    try:
        import harness
        import run

        for name in args.workloads:
            mod = importlib.import_module(run.WORKLOADS[name])
            ctx = harness.Context(REPO, args.seed)
            try:
                res = harness.run_workload(mod, ctx, args.seconds, False)
            finally:
                ctx.close()
            print(f"{name}: {res.rounds} rounds, {res.bench.attempted} operations, "
                  f"{res.bench.failed} failed, correct {res.bench.correct}")
    finally:
        sys.settrace(None)

    for path in sorted(SRC.glob("*.py")):
        lines = executable_lines(path)
        never = sorted(lines - ran.get(str(path), set()))
        print(f"{path.relative_to(REPO)}: {len(lines)} executable lines, {len(never)} never run"
              + (f": {ranges(never)}" if never else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
