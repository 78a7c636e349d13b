"""Run the mutation catalogue: each entry breaks one behaviour on purpose,
and the tests named with it must then fail.

Usage: python3 tools/mutants.py [-h] [NAME ...]

Each entry of ``CATALOGUE`` names a file of the checkout, an exact source
snippet in it, the snippet's replacement and the pytest node ids that must
fail once it is replaced.  For each entry (or each ``NAME`` given) the
tool copies the checkout (without ``.git`` and caches) into a temporary
directory, replaces the snippet there and runs the entry's tests in a
``python -m pytest`` subprocess with ``PYTHONPATH=src`` and a timeout of
``TIMEOUT`` seconds.
The checkout itself is never written.

An entry is *killed* when pytest reports a failed test (exit code 1),
and killed by *timeout* when the run exceeds ``TIMEOUT``; it *survives*
when the tests pass.  Any other pytest exit
code (a collection error, no test found) is reported as *broken*.  A
snippet that occurs in its file other than exactly once is *stale*: the
code moved, and the entry must move with it.  Before the entries, every
named test is run once on an unchanged copy, which must pass.

The tool prints one line per entry and a summary, and exits 0 when every
entry is killed; it exits 1 when an entry survives, is stale or broken, or
the unchanged tests fail, and 2 on a usage error.

The tests run in one process per entry, one entry at a time; each takes
the time of its tests plus a pytest start.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300.0  # seconds per pytest run; the slowest entry takes about 5 s
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".bench_work", ".bench_build", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    what: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


KERNEL = "src/altia/_kernel.py"
LATTICE = "src/altia/lattice.py"

CATALOGUE = [
    # -- the kernel's ids and rows
    Mutant(
        "kernel-top-bottom-swapped", "top is numbered 1 and bottom 0, against k.top and k.bottom",
        KERNEL,
        "self.ids: dict[_Masks, int] = {self.top_masks: 0, self.bottom_masks: 1}\n"
        "        self.objs: list[_Masks] = [self.top_masks, self.bottom_masks]",
        "self.ids: dict[_Masks, int] = {self.top_masks: 1, self.bottom_masks: 0}\n"
        "        self.objs: list[_Masks] = [self.bottom_masks, self.top_masks]",
        ("tests/test_aia.py::test_kernel_top_and_bottom_are_one_object_each",),
    ),
    Mutant(
        "kernel-value-gets-new-ids", "intern forgets the ids it gave, so a value gets many",
        KERNEL,
        "                    self.ids[m] = i\n",
        "",
        ("tests/test_aia.py::test_reachable_rows_hold_the_table_keys",),
    ),
    Mutant(
        "kernel-intern-unlocked", "threads number new values without the kernel's lock",
        KERNEL,
        "            with self.lock:\n                i = self.ids.get(m)",
        "            if True:\n                i = self.ids.get(m)",
        ("tests/test_aia.py::test_threads_number_each_value_once",),
    ),
    Mutant(
        "kernel-row-not-kept", "a step computes its successor and never fills the row slot",
        KERNEL,
        "        self.rows[e][j] = t\n        return t",
        "        return t",
        ("tests/test_determinize.py::test_det_kernel_is_seeded_exactly",),
    ),
    Mutant(
        "kernel-row-replaced", "a step writes its slot into a new copy of the row",
        KERNEL,
        "        self.rows[e][j] = t\n        return t",
        "        row = self.rows[e] = list(self.rows[e])\n        row[j] = t\n        return t",
        ("tests/test_aia.py::test_threads_fill_the_rows_of_fresh_ids",),
    ),
    Mutant(
        "kernel-step-ignores-row", "a step computes its successor again though the slot is filled",
        KERNEL,
        "        if t is not None:\n            return t\n        m = self.objs[e]",
        "        m = self.objs[e]",
        ("tests/test_determinize.py::test_det_kernel_is_seeded_exactly",),
    ),
    Mutant(
        "kernel-seed-skipped", "det's automaton arrives with no seeded rows",
        KERNEL,
        "                rows[to[m]] = [to[t] for t in row]",
        "                pass",
        ("tests/test_determinize.py::test_det_kernel_is_seeded_exactly",),
    ),
    Mutant(
        "kernel-seed-unmapped", "seeded rows keep the ids of the determinized spec's kernel",
        KERNEL,
        "                rows[to[m]] = [to[t] for t in row]",
        "                rows[to[m]] = list(row)",
        ("tests/test_determinize.py::test_det_kernel_is_seeded_exactly",),
    ),
    Mutant(
        "kernel-up-set-gate", "a kernel of exactly _UP_MAX_STATES states keeps absorption",
        KERNEL,
        "self.small = len(states) <= _UP_MAX_STATES",
        "self.small = len(states) < _UP_MAX_STATES",
        ("tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption"),
    ),
    Mutant(
        "kernel-packed-chunk-offset", "a packed row is cut into chunks one bit too far apart",
        KERNEL,
        "            u >>= width\n",
        "            u >>= width + 1\n",
        ("tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption"),
    ),
    Mutant(
        "kernel-packed-top-as-bottom", "a state's top target is packed as bottom",
        KERNEL,
        "self.states = [sum(self._up_set(t[i]) << j",
        "self.states = [sum((0 if t[i] == frozenset((0,)) else self._up_set(t[i])) << j",
        ("tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption"),
    ),
    Mutant(
        "kernel-packed-id-wrong-chunk", "an up-set's successor id is memoised under the next "
        "label's up-set",
        KERNEL,
        "                t = ids[chunk] = k.intern(self._antichain(chunk))",
        "                t = ids[u >> width & full] = k.intern(self._antichain(chunk))",
        ("tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption",
         "tests/test_aia.py::test_reachable_rows_hold_the_table_keys"),
    ),
    Mutant(
        "kernel-dead-image-top", "a clause with a member whose target is bottom steps to top",
        KERNEL,
        "                if c & dead:\n                    img = self.bottom_masks",
        "                if c & dead:\n                    img = self.top_masks",
        ("tests/test_aia.py::test_trivial_targets_step_like_substitution",),
    ),
    Mutant(
        "kernel-free-mask-kept", "a clause meets the targets of its members that go to top",
        KERNEL,
        "self.numbering.indices(c & ~free)",
        "self.numbering.indices(c & free)",
        ("tests/test_aia.py::test_trivial_targets_step_like_substitution",),
    ),
    Mutant(
        "kernel-product-drops-first", "a clause's image leaves out its first member's target",
        KERNEL,
        "                    img = targets[first]\n",
        "                    img = self.top_masks\n",
        ("tests/test_aia.py::test_trivial_targets_step_like_substitution",
         "tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption"),
    ),
    Mutant(
        "kernel-record-wrong-label", "the record of a label index holds the previous label's "
        "targets",
        KERNEL,
        "label, dead, free = self.labels[j], 0, 0",
        "label, dead, free = self.labels[j - 1], 0, 0",
        ("tests/test_aia.py::test_kernel_builds_a_label_record_on_its_first_step",
         "tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption"),
    ),
    Mutant(
        "kernel-top-target-bottom", "a label's record holds bottom for a target that is top",
        KERNEL,
        "                free |= 1 << i\n                targets.append(self.top_masks)",
        "                free |= 1 << i\n                targets.append(self.bottom_masks)",
        ("tests/test_aia.py::test_up_set_joins_agree_with_absorption",
         "tests/test_aia.py::test_packed_rows_agree_with_absorption",
         "tests/test_aia.py::test_trivial_targets_step_like_substitution",
         "tests/test_aia.py::test_kernel_builds_a_label_record_on_its_first_step"),
    ),
    Mutant(
        "leq-refusal-past-inputs", "leq_aia checks a refusal on the first output as an input",
        "src/altia/refine.py",
        "                if j < n_inputs:",
        "                if j <= n_inputs:",
        ("tests/test_refine.py::test_counterexamples_validated_both_sides",),
    ),
    Mutant(
        "leq-pair-swapped", "leq_aia pushes each successor pair with its sides swapped",
        "src/altia/refine.py",
        "            push((t1, t2), i, j)",
        "            push((t2, t1), i, j)",
        ("tests/test_refine.py::test_leq_on_packed_pairs_agrees_with_oracles",),
    ),
    Mutant(
        "leq-label-direction", "a counterexample names its first output as an input",
        "src/altia/refine.py",
        "Label(names[j], j < n_inputs)",
        "Label(names[j], j <= n_inputs)",
        ("tests/test_refine.py::test_counterexamples_validated_both_sides",),
    ),
    # -- test execution's successor index and the alternating view of an IA
    Mutant(
        "ia-index-unsorted", "the successor index keeps each row's labels unsorted",
        "src/altia/ia.py",
        "{l: tuple(sorted(row[l])) for l in sorted(row)}",
        "{l: tuple(sorted(row[l])) for l in row}",
        ("tests/test_testing.py::test_product_moves_match_the_oracle",),
    ),
    Mutant(
        "induce-aia-drops-rows", "induce_aia leaves out the rows of states without transitions",
        "src/altia/aia.py",
        "        row.update((x, _states_join(given.get(x, ()))) for x in i.outputs)\n"
        "        trans[q] = row\n",
        "        row.update((x, _states_join(given.get(x, ()))) for x in i.outputs)\n"
        "        if given:\n"
        "            trans[q] = row\n",
        ("tests/test_aia.py::test_induce_aia_is_valid_by_construction",),
    ),
    Mutant(
        "induce-ia-top-past-inputs", "induce_ia drops the first output's top successor as if it "
        "were an input's",
        "src/altia/aia.py",
        "if t == k.bottom or t == k.top and j < n_inputs:",
        "if t == k.bottom or t == k.top and j <= n_inputs:",
        ("tests/test_aia.py::test_induce_ia_matches_public_steps_transition_by_transition",),
    ),
    Mutant(
        "induce-ia-uncapped", "induce_ia searches with no cap",
        "src/altia/aia.py",
        "    search = Search(initial, DEFAULT_CAP)\n",
        "    search = Search(initial)\n",
        ("tests/test_cli.py::test_to_ia_searches_under_the_default_cap",),
    ),
    Mutant(
        "ia-refusal-all", "a refusal needs every reached state to refuse, not some",
        "src/altia/ia.py",
        "    return any(not s.succ(q, ft.failure) for q in reached)",
        "    return all(not s.succ(q, ft.failure) for q in reached)",
        ("tests/test_ia.py::test_ftrace_member_failures",
         "tests/test_ia.py::test_ftrace_membership_against_reference"),
    ),
    # -- absorption in the lattice
    Mutant(
        "meet-never-absorbs", "meet_all skips absorption where operands overlap",
        LATTICE,
        "        if not seen.isdisjoint(s):\n            out = _absorb(out, numbering)\n",
        "",
        ("tests/test_lattice.py::test_join_absorption",),
    ),
    Mutant(
        "meet-previous-only", "meet_all compares an operand with the previous operand only",
        LATTICE,
        "            out = _absorb(out, numbering)\n        seen |= s",
        "            out = _absorb(out, numbering)\n        seen = s",
        ("tests/test_lattice.py::test_minimize_matches_brute_force_antichain",),
    ),
    Mutant(
        "absorb-identity", "_absorb returns its clauses unabsorbed",
        LATTICE,
        "    return frozenset(map(numbering.clause, _mask_antichain(numbering.encode(clauses))))",
        "    return frozenset(clauses)",
        ("tests/test_lattice.py::test_join_absorption",),
    ),
    Mutant(
        "join-common-states-only", "join_all absorbs only at states every operand shares",
        LATTICE,
        "        shared |= seen.intersection(s)\n        seen |= s",
        "        shared = set(s) if e is operands[0] else shared.intersection(s)",
        ("tests/test_lattice.py::test_minimize_matches_brute_force_antichain",),
    ),
    Mutant(
        "substitute-renaming-not-distinct", "substitute renames clause by clause where two "
        "states go to one name",
        LATTICE,
        "if None not in names.values() and len(set(names.values())) == len(names):",
        "if None not in names.values():",
        ("tests/test_lattice.py::test_substitute_renamings_match_the_join_of_meets",),
    ),
    Mutant(
        "meet-absorbs-last-only", "meet_all absorbs only at its last operand",
        LATTICE,
        "        if not seen.isdisjoint(s):\n",
        "        if e is operands[-1] and not seen.isdisjoint(s):\n",
        ("tests/test_lattice.py::test_minimize_matches_brute_force_antichain",),
    ),
    Mutant(
        "meet-bottom-unit", "meet_all folds from bottom instead of top",
        LATTICE,
        "    out, seen = _TOP_CLAUSES, frozenset()",
        "    out, seen = frozenset(), frozenset()",
        ("tests/test_lattice.py::test_join_absorption",),
    ),
    Mutant(
        "meet-skips-bottom", "meet_all skips a bottom operand after the first",
        LATTICE,
        "        elif e.clauses != _TOP_CLAUSES:",
        "        elif e.clauses and e.clauses != _TOP_CLAUSES:",
        ("tests/test_lattice.py::test_minimize_matches_brute_force_antichain",),
    ),
    # -- the expression parser's levels
    Mutant(
        "parse-bar-drops-conjuncts", "'|' drops the conjuncts before it instead of closing them",
        "src/altia/io.py",
        "            disjuncts.append(meet_all(conjuncts))\n            conjuncts = []\n",
        "            conjuncts = []\n",
        ("tests/test_io.py::test_parse_expr_agrees_on_wide_products_and_overlapping_chains",),
    ),
    Mutant(
        "parse-paren-drops-disjuncts", "')' closes a level with its last disjunct only",
        "src/altia/io.py",
        "            disjuncts.append(meet_all(conjuncts))\n            operand = join_all(disjuncts)\n",
        "            operand = meet_all(conjuncts)\n",
        ("tests/test_io.py::test_parse_expr_agrees_on_wide_products_and_overlapping_chains",),
    ),
    Mutant(
        "parse-end-drops-disjuncts", "the end of an expression keeps its last disjunct only",
        "src/altia/io.py",
        "            disjuncts.append(meet_all(conjuncts))\n            return join_all(disjuncts)\n",
        "            return meet_all(conjuncts)\n",
        ("tests/test_io.py::test_parse_expr_agrees_with_truth_tables",),
    ),
    Mutant(
        "parse-paren-keeps-inner-level", "')' leaves the parenthesis' own lists open",
        "src/altia/io.py",
        "            disjuncts, conjuncts = levels.pop()\n",
        "            levels.pop()\n",
        ("tests/test_io.py::test_parse_expr_agrees_with_truth_tables",),
    ),
    # -- the tokenizer and lazy imports
    Mutant(
        "quoted-no-dotall", "a quoted name may not hold a newline",
        "src/altia/io.py",
        """_QUOTED = re.compile(r'"([^"\\\\]*(?:\\\\.[^"\\\\]*)*)"', re.DOTALL)""",
        """_QUOTED = re.compile(r'"([^"\\\\]*(?:\\\\.[^"\\\\]*)*)"')""",
        ("tests/test_io.py::test_tokenizer_matches_character_reference",),
    ),
    Mutant(
        "quoted-no-unescape", "escapes in a quoted name are kept as written",
        "src/altia/io.py",
        '            if "\\\\" in name:\n                name = _ESCAPED.sub(r"\\1", name)\n',
        "",
        ("tests/test_io.py::test_tokenizer_matches_character_reference",),
    ),
    Mutant(
        "quoted-no-escapes", "the quoted-name pattern knows no escapes",
        "src/altia/io.py",
        """_QUOTED = re.compile(r'"([^"\\\\]*(?:\\\\.[^"\\\\]*)*)"', re.DOTALL)""",
        """_QUOTED = re.compile(r'"([^"]*)"', re.DOTALL)""",
        ("tests/test_io.py::test_tokenizer_matches_character_reference",),
    ),
    Mutant(
        "cli-eager-refine", "the command line imports refine at start",
        "src/altia/cli.py",
        "from .search import DEFAULT_CAP\n",
        "from .search import DEFAULT_CAP\nfrom . import refine as _refine  # noqa: F401\n",
        ("tests/test_cli.py::test_commands_import_only_what_they_run",),
    ),
    Mutant(
        "cli-eager-determinize", "the command line imports determinize at start",
        "src/altia/cli.py",
        "from .search import DEFAULT_CAP\n",
        "from .search import DEFAULT_CAP\nfrom . import determinize as _det  # noqa: F401\n",
        ("tests/test_cli.py::test_commands_import_only_what_they_run",),
    ),
    Mutant(
        "cli-eager-json", "the command line imports json at start",
        "src/altia/cli.py",
        "import argparse\n",
        "import argparse\nimport json as _json  # noqa: F401\n",
        ("tests/test_cli.py::test_commands_import_only_what_they_run",),
    ),
    Mutant(
        "init-alias-dropped", "altia.aia_ftrace_member is not resolved",
        "src/altia/__init__.py",
        '_ORIGIN["aia_ftrace_member"] = ("aia", "ftrace_member")\n',
        "",
        ("tests/test_consumers.py::test_public_names_resolve",),
    ),
    Mutant(
        "init-unknown-is-none", "an unknown name of altia resolves to None",
        "src/altia/__init__.py",
        '        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None',
        "        return None",
        ("tests/test_consumers.py::test_public_names_resolve",),
    ),
    Mutant(
        "init-no-dir", "dir(altia) lists only the names loaded so far",
        "src/altia/__init__.py",
        "def __dir__():\n    return sorted(globals().keys() | _ORIGIN.keys())\n",
        "",
        ("tests/test_consumers.py::test_public_names_resolve",),
    ),
    Mutant(
        "init-eager-testing", "import altia loads altia.testing",
        "src/altia/__init__.py",
        '__version__ = "0.1.0"\n',
        '__version__ = "0.1.0"\n\nfrom . import testing  # noqa: E402,F401\n',
        ("tests/test_consumers.py::test_public_names_resolve",),
    ),
]


def _copy(dest: Path) -> Path:
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=IGNORED)
    return tree


def _pytest(tree: Path, args) -> tuple[str, int, str]:
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *args]
    try:
        cp = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                            timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout", -1, ""
    return ("pass" if cp.returncode == 0 else "fail"), cp.returncode, cp.stdout


def _apply(tree: Path, m: Mutant) -> bool:
    path = tree / m.file
    text = path.read_text()
    if text.count(m.snippet) != 1:
        return False
    path.write_text(text.replace(m.snippet, m.replacement))
    return True


def _stale(m: Mutant) -> bool:
    path = ROOT / m.file
    return not path.is_file() or path.read_text().count(m.snippet) != 1


def _run(m: Mutant) -> tuple[str, int, str]:
    with tempfile.TemporaryDirectory(prefix="altia-mutant-") as tmp:
        tree = _copy(Path(tmp))
        if not _apply(tree, m):
            return "stale", 0, ""
        return _pytest(tree, m.tests)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("names", nargs="*", metavar="NAME", help="entries to run (default: all)")
    args = p.parse_args(argv)
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        p.error(f"unknown entries: {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] if args.names else CATALOGUE
    start = time.perf_counter()
    stale = [m for m in chosen if _stale(m)]
    for m in stale:
        print(f"STALE     {m.name}: the snippet does not occur exactly once in {m.file}")
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="altia-mutant-") as tmp:
        status, code, out = _pytest(_copy(Path(tmp)), tests)
    if status != "pass":
        print(f"the {len(tests)} named tests do not pass unchanged ({status}, exit {code}):")
        print(out[-3000:])
        return 1
    counts = {"killed": 0, "timeout": 0, "survived": 0, "broken": 0, "stale": len(stale)}
    for m in chosen:
        if m in stale:
            continue
        t0 = time.perf_counter()
        status, code, out = _run(m)
        took = time.perf_counter() - t0
        if status == "timeout":
            verdict = "timeout"
        elif status == "pass":
            verdict = "survived"
        elif code == 1:
            verdict = "killed"
        else:
            verdict = "broken"
        counts[verdict] += 1
        print(f"{verdict.upper():9s} {m.name} ({took:.1f} s): {m.what}", flush=True)
        if verdict == "broken":
            print(out[-2000:])
    total = time.perf_counter() - start
    print(f"{len(chosen)} entries: " + ", ".join(f"{n} {k}" for k, n in counts.items())
          + f"; {total:.0f} s")
    bad = counts["survived"] + counts["broken"] + counts["stale"]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
