"""Compare the altia command line of this tree against another revision.

Usage: python tools/cli_diff.py [-h] BASE_REV

Extracts ``BASE_REV`` with ``git archive`` into a temporary directory
and runs one fixed command set over the models in ``models/`` in both
trees, one ``python -m altia`` process per command, then every script of
``demos/``, one ``python demos/<script>`` process each, and last
``tools/lattice_draws.py``.  Both trees read the same copy of this
tree's ``models/``, ``demos/`` and draw script, so only the program
differs.  The base tree runs under ``PYTHONHASHSEED=0`` and this tree
under ``1``, so output that depends on hash order differs too.  The set
has 670 commands: 651 for the nine models,
``NESTED_MODEL`` and ``AWKWARD_MODEL``, 14 for help and usage, one per
demo script (four) and the draw script:

- help and usage: ``--help``, ``-h`` for each of the eleven commands of
  ``SUBCOMMANDS``, a bare ``altia`` and an unknown command (both usage
  errors), so the text argparse writes is compared too;

- per model: ``check``, ``det`` to stdout and to a file, ``tester`` to a
  file, ``to-ia``, ``to-aia``, ``dot`` and ``testgen`` twice, with the
  defaults and with ``WIDE_TESTGEN``, whose four deeper cases show that
  test-case generation keeps its random draws;
- per model and trace of ``MEMBER_TRACES``: ``member``, plain and with
  ``--json`` (a trace outside a model's alphabet is an input error, and
  its message is compared too);
- per ordered pair of models: ``refine --json`` and ``compose --and``;
- per tester and ``.ia`` model: ``run --exhaustive --json``, ``run --json``,
  ``run --runs 3 --json`` and, with ``LONG_RUNS``, twenty runs that end
  at the step budget (``# max-steps``) or at a verdict; and ``run`` of
  the first test case that ``testgen`` wrote for the tester's model.
  Where the alphabets of tester and model differ, the command is an
  input error, and its message is compared too;
- ``run`` of ``models/good_machine.ia`` as its own tester, which breaks
  the tester contract in several ways, so its list of problems is
  compared;
- on ``NESTED_MODEL``, which the tool writes into each work directory:
  ``check``, ``det``, ``dot``, ``to-ia`` and ``member`` per trace of
  ``NESTED_TRACES``;
- on ``AWKWARD_MODEL``, also written by the tool: ``det``, ``tester``,
  ``to-ia`` and ``dot``;
- each ``demos/*.py``, which drives the library directly (the lattice
  operations among it) and may write files into the work directory;
- ``lattice_draws.py``, a copy of ``tools/lattice_draws.py``, which
  prints ``Config(...)``, ``join_all``, ``meet_all`` and ``substitute``
  on 2,000 seeded draws, so a change to ``altia.lattice`` gets the same
  check against its parent as the command line.

Any difference in stdout, stderr, exit code or written files is
reported, and the exit code is then 1; it is 0 when the trees agree.
``-h`` or ``--help`` prints this text and exits 0.  A wrong number of
arguments, or a revision that ``git archive`` cannot read, prints an
``error:`` line (``error: cannot archive REV: ...`` for the revision)
and exits 2, so that no failure of the tool reads as differences found.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LATTICE_DRAWS = "lattice_draws.py"  # copied from tools/ into each work directory

# Every altia command, each asked for its help text.
SUBCOMMANDS = ("check", "member", "det", "refine", "compose", "to-ia", "to-aia", "tester",
               "testgen", "run", "dot")

# Traces for ``member``: allowed ones print the reached configuration.
MEMBER_TRACES = ("", "?a", "?on", "?on ?b", "?on ?b !t+m", "?on ~b", "?a !x")

# A second ``testgen`` per model: more cases, cut off less often.
WIDE_TESTGEN = ("--seed", "3", "--depth", "5", "--p-stop", "0.1", "--count", "4")

# Random runs of a tester that mostly end at the step budget.
LONG_RUNS = ("--runs", "20", "--seed", "5", "--max-steps", "6")

# Expressions with nested parentheses, F absorbed inside a conjunction, T
# inside a disjunction, and quoted names, one of them "T".
NESTED_MODEL = """aia nested
inputs a b
outputs x y
init ("s 0" | F) & (s1 | ("T" & ((s1 | T))))
"s 0" ?a -> ((s1 & F) | ("~q" & (s1 | T)))
"s 0" !x -> (("s 0" | (s1 & "T")) & ((s1 | "s 0")))
s1 ?b -> (T | s1) & ((("T" | F)) & ("s 0" | s1))
s1 !y -> ((("~q")))
"T" !x -> ("s 0" & (T | "T")) | F
"~q" ?a -> ((F | "~q") & (T & ("T" | ("s 0" & s1))))
"~q" !y -> T
"""
NESTED_TRACES = ("?a", "!x !x", "!y")

# State names whose quoted forms, clause texts and sorted order disagree:
# "a" is a prefix of "a b" and "a_1", "q10" sorts before "q2", and '"T"'
# and "~q" are quoted; the determinized states are wide configurations.
AWKWARD_MODEL = r"""aia awkward
inputs i j
outputs x y
init a | "a b" & q2 | a_1 & q10
a ?i -> a_1 | "a b" & q10 | A & q2
"a b" ?i -> "\"T\"" | a & q2 | q10
"a b" !x -> a | a_1 & q10
a_1 !x -> a | "~q" & q10 | "a b"
A ?j -> q10 | q2 & a | "a b" & a_1
"\"T\"" !y -> a & A | "a b" | q2 & "~q"
"~q" ?i -> q2 | a_1 & "a b" | a & q10
q10 !x -> "\"T\"" & "~q" | a | A & a_1
q2 !y -> a_1 | A | "a b" & "~q"
q2 ?j -> a & q10 | q2
"""


def commands(models: list[str], demos: list[str]) -> list[list[str]]:
    """The command set, each command as altia's arguments or, for a
    script, as its path, with paths relative to a work directory holding
    ``models/``, ``demos/``, ``nested.aia``, ``awkward.aia`` and
    ``lattice_draws.py``."""
    stems = [Path(m).stem for m in models]
    cmds = [["--help"], *([command, "-h"] for command in SUBCOMMANDS), [], ["frobnicate"]]
    for m, stem in zip(models, stems):
        cmds += [
            ["check", m],
            ["det", m, "-o", f"out/det_{stem}.txt"],
            ["det", m],
            ["tester", m, "-o", f"testers/{stem}.ia"],
            ["to-ia", m],
            ["to-aia", m],
            ["dot", m],
            ["testgen", m, "-o", f"gen/{stem}"],
            ["testgen", m, *WIDE_TESTGEN, "-o", f"gen/{stem}_wide"],
        ]
        for trace in MEMBER_TRACES:
            cmds += [["member", m, "--trace", trace], ["member", m, "--trace", trace, "--json"]]
    for left in models:
        for right in models:
            cmds += [["refine", "--json", left, right], ["compose", "--and", left, right]]
    impls = [m for m in models if m.endswith(".ia")]
    for stem in stems:
        for impl in impls:
            tester = f"testers/{stem}.ia"
            cmds += [
                ["run", "--exhaustive", "--json", tester, impl],
                ["run", "--json", tester, impl],
                ["run", "--runs", "3", "--json", tester, impl],
                ["run", f"gen/{stem}/case_000_tester.ia", impl],
                ["run", *LONG_RUNS, "--json", tester, impl],
            ]
    cmds += [["run", "models/good_machine.ia", "models/good_machine.ia"]]
    cmds += [[command, "nested.aia"] for command in ("check", "det", "dot", "to-ia")]
    cmds += [["member", "nested.aia", "--trace", trace] for trace in NESTED_TRACES]
    cmds += [[command, "awkward.aia"] for command in ("det", "tester", "to-ia", "dot")]
    cmds += [[demo] for demo in demos]
    cmds += [[LATTICE_DRAWS]]
    return cmds


def interpreter_args(cmd: list[str]) -> list[str]:
    """What ``python`` runs for a command: a script, or altia."""
    return cmd if cmd and cmd[0].endswith(".py") else ["-m", "altia", *cmd]


def run_all(tree: Path, work: Path, cmds: list[list[str]],
            hash_seed: str) -> list[tuple[int, str, str]]:
    """Run every command with ``tree``'s altia in ``work``, under the
    ``PYTHONHASHSEED`` ``hash_seed``; the tree's own path is masked in the
    output so that tracebacks compare alike."""
    for d in ("models", "demos"):
        (work / d).mkdir(parents=True)
        for f in sorted((REPO / d).iterdir()):
            if f.is_file():
                (work / d / f.name).write_bytes(f.read_bytes())
    (work / "nested.aia").write_text(NESTED_MODEL, encoding="utf-8")
    (work / "awkward.aia").write_text(AWKWARD_MODEL, encoding="utf-8")
    (work / LATTICE_DRAWS).write_bytes((REPO / "tools" / LATTICE_DRAWS).read_bytes())
    for d in ("out", "testers", "gen"):
        (work / d).mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED=hash_seed)
    results = []
    for cmd in cmds:
        p = subprocess.run(
            [sys.executable, *interpreter_args(cmd)],
            cwd=work, env=env, capture_output=True, text=True,
        )
        stdout, stderr = (text.replace(str(tree), "<tree>") for text in (p.stdout, p.stderr))
        results.append((p.returncode, stdout, stderr))
    return results


def files(work: Path) -> dict[str, bytes]:
    """Every file under ``work`` by its relative path."""
    return {str(p.relative_to(work)): p.read_bytes() for p in work.rglob("*") if p.is_file()}


def first_difference(a: str, b: str) -> str:
    for k, (x, y) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if x != y:
            return f"line {k}: {x!r} != {y!r}"
    return f"{len(a.splitlines())} lines != {len(b.splitlines())} lines"


def main(argv: list[str]) -> int:
    if argv in (["-h"], ["--help"]):
        print(__doc__.strip())
        return 0
    if len(argv) != 1:
        print("usage: python tools/cli_diff.py BASE_REV", file=sys.stderr)
        print("error: expected one revision", file=sys.stderr)
        return 2
    base_rev = argv[0]
    archive = subprocess.run(["git", "-C", str(REPO), "archive", base_rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        reason = archive.stderr.decode(errors="replace").strip() or f"exit {archive.returncode}"
        print(f"error: cannot archive {base_rev}: {reason}", file=sys.stderr)
        return 2
    models = [f"models/{f.name}" for f in sorted((REPO / "models").iterdir())]
    demos = [f"demos/{f.name}" for f in sorted((REPO / "demos").glob("*.py"))]
    cmds = commands(models, demos)
    with tempfile.TemporaryDirectory(prefix="cli_diff_") as tmp:
        base = Path(tmp) / "base"
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        results = {}
        for side, tree, hash_seed in (("base", base, "0"), ("this", REPO, "1")):
            results[side] = run_all(tree, Path(tmp) / f"work_{side}", cmds, hash_seed)
        written = {side: files(Path(tmp) / f"work_{side}") for side in results}
    differences = 0
    for cmd, old, new in zip(cmds, results["base"], results["this"]):
        for what, k in (("exit code", 0), ("stdout", 1), ("stderr", 2)):
            if old[k] != new[k]:
                differences += 1
                detail = f"{old[k]} != {new[k]}" if k == 0 else first_difference(old[k], new[k])
                print(f"python {' '.join(interpreter_args(cmd))}: {what} differs, {detail}")
    for name in sorted(written["base"].keys() | written["this"].keys()):
        old, new = written["base"].get(name), written["this"].get(name)
        if old != new:
            differences += 1
            if old is None or new is None:
                print(f"file {name}: only in {'this tree' if old is None else 'base'}")
            else:
                print(f"file {name}: differs")
    print(f"{len(cmds)} commands against {base_rev}: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
