"""Command-line interface.

Exit codes: 0 success (holds / pass / query answered), 1 a checked
property fails (refinement fails, test fails), 2 usage or input error,
3 exploration cap exceeded.

Only the core modules load with this one; a command imports
``determinize``, ``refine`` or ``testing`` when it runs, and ``json``
only under ``--json``, so a process pays for the command it runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .aia import AIA, conj, disj, induce_aia, induce_ia, trace_verdict
from .errors import AltiaError, ExplorationLimitError
from .ia import IA
from .io import load_model, parse_trace, print_model, save_model, to_dot
from .lattice import expr_str
from .search import DEFAULT_CAP


def _as_aia(m):
    return m if isinstance(m, AIA) else induce_aia(m)


def _emit(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_check(args) -> int:
    m = load_model(args.file)
    kind = "aia" if isinstance(m, AIA) else "ia"
    print(f"{kind} {m.name}: {len(m.states)} states, "
          f"{len(m.inputs)} inputs, {len(m.outputs)} outputs")
    return 0


def _cmd_member(args) -> int:
    m = load_model(args.file)
    ft = parse_trace(args.trace)
    if isinstance(m, AIA):
        if ft.plain:
            status, cfg = trace_verdict(m, ft.body)
            verdict = status.value
            detail = expr_str(cfg) if status.value == "Allowed" else None
        else:
            from .aia import ftrace_member

            verdict = "member" if ftrace_member(m, ft) else "non-member"
            detail = None
    else:
        from .ia import ftrace_member

        verdict = "member" if ftrace_member(m, ft) else "non-member"
        detail = None
    if args.json:
        import json

        print(json.dumps({"verdict": verdict, "configuration": detail}))
    elif detail is not None:
        print(f"{verdict} {detail}")
    else:
        print(verdict)
    return 0


def _cmd_det(args) -> int:
    from . import determinize

    m = load_model(args.file)
    result = determinize.det(_as_aia(m), cap=args.cap)
    _emit(print_model(result), args.output)
    return 0


def _cmd_refine(args) -> int:
    from . import refine

    left = load_model(args.left)
    right = load_model(args.right)
    if isinstance(left, IA) and isinstance(right, IA):
        res = refine.leq_ia(left, right, cap=args.cap)
    elif isinstance(left, IA):
        res = refine.leq_ia_aia(left, right, cap=args.cap)
    else:
        res = refine.leq_aia(_as_aia(left), _as_aia(right), cap=args.cap)
    if args.json:
        import json

        print(json.dumps({
            "verdict": "holds" if res.holds else "fails",
            "counterexample": None if res.holds else str(res.counterexample),
            "stats": {"pairs_explored": res.pairs_explored},
        }))
    elif res.holds:
        print("HOLDS")
    else:
        print(f"FAIL {res.counterexample}".rstrip())
    return 0 if res.holds else 1


def _cmd_compose(args) -> int:
    m1 = _as_aia(load_model(args.left))
    m2 = _as_aia(load_model(args.right))
    op = conj if args.conj else disj
    _emit(print_model(op(m1, m2)), args.output)
    return 0


def _cmd_to_ia(args) -> int:
    m = load_model(args.file)
    if isinstance(m, IA):
        raise AltiaError(f"{args.file} already holds an ia")
    _emit(print_model(induce_ia(m)), args.output)
    return 0


def _cmd_to_aia(args) -> int:
    m = load_model(args.file)
    if isinstance(m, AIA):
        raise AltiaError(f"{args.file} already holds an aia")
    _emit(print_model(induce_aia(m)), args.output)
    return 0


def _cmd_tester(args) -> int:
    from . import testing

    m = _as_aia(load_model(args.spec))
    t = testing.build_tester(m, cap=args.cap)
    _emit(print_model(t.ia), args.output)
    return 0


def _cmd_testgen(args) -> int:
    from . import testing

    spec = _as_aia(load_model(args.spec))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        seed = args.seed + k
        case = testing.gen_singular(spec, seed, args.depth, args.p_stop)
        case = AIA(case.states, case.inputs, case.outputs, case.transitions,
                   case.initial, name=f"case_{k:03d}")
        tester = testing.build_tester(case, cap=args.cap)
        save_model(outdir / f"case_{k:03d}.aia", case)
        save_model(outdir / f"case_{k:03d}_tester.ia", tester.ia)
        print(f"case_{k:03d}: seed {seed}, {len(case.states)} nodes")
    return 0


def _cmd_run(args) -> int:
    from . import testing

    m = load_model(args.tester)
    if not isinstance(m, IA):
        raise AltiaError(f"{args.tester} does not hold a tester (an ia)")
    t = testing.Tester(m)
    impl = load_model(args.impl)
    if not isinstance(impl, IA):
        raise AltiaError(f"{args.impl} does not hold an implementation ia")
    if args.exhaustive:
        v = testing.verdict_exhaustive(t, impl)
        print(testing.format_verdict(v))
        failures = 0 if v.passed else 1
        verdicts = [v]
        runs = 1
    else:
        if args.runs < 1:
            raise AltiaError("--runs must be at least 1")
        verdicts = []
        failures = 0
        runs = args.runs
        for k in range(runs):
            v = testing.run_random(t, impl, args.seed + k, args.max_steps)
            verdicts.append(v)
            if not v.passed:
                failures += 1
            if runs > 1:
                print(f"# run {k} seed {args.seed + k}")
            print(testing.format_verdict(v, with_log=True))
    if args.json:
        import json

        worst = next((v for v in verdicts if not v.passed), verdicts[0])
        print(json.dumps({
            "verdict": "PASS" if failures == 0 else "FAIL",
            "witness": str(worst.witness) if worst.witness else None,
            "stats": {"runs": runs, "failures": failures},
        }))
    return 0 if failures == 0 else 1


def _cmd_dot(args) -> int:
    _emit(to_dot(load_model(args.file)), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="altia",
        description="Alternating interface automata: refinement checking "
        "and model-based testing.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("check", _cmd_check, "validate a model file")
    sp.add_argument("file")

    sp = add("member", _cmd_member, "query one trace against a model")
    sp.add_argument("file")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--json", action="store_true")

    sp = add("det", _cmd_det, "determinize a specification")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")

    sp = add("refine", _cmd_refine, "check refinement between two models")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--json", action="store_true")

    sp = add("compose", _cmd_compose, "conjoin or disjoin two specifications")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--and", dest="conj", action="store_true")
    group.add_argument("--or", dest="conj", action="store_false")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("-o", "--output")

    sp = add("to-ia", _cmd_to_ia, "translate an alternating model to an ia")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")

    sp = add("to-aia", _cmd_to_aia, "translate an ia to its alternating view")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")

    sp = add("tester", _cmd_tester, "synthesize the tester of a specification")
    sp.add_argument("spec")
    sp.add_argument("-o", "--output")

    sp = add("testgen", _cmd_testgen, "generate singular test cases and their testers")
    sp.add_argument("spec")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--depth", type=int, default=8)
    sp.add_argument("--p-stop", type=float, default=0.2)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("-o", "--output", required=True, help="directory for generated files")

    sp = add("run", _cmd_run, "execute a tester against an implementation")
    sp.add_argument("tester")
    sp.add_argument("impl")
    sp.add_argument("--exhaustive", action="store_true")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--runs", type=int, default=1)
    sp.add_argument("--max-steps", type=int, default=100)
    sp.add_argument("--json", action="store_true")

    sp = add("dot", _cmd_dot, "export a model to Graphviz dot")
    sp.add_argument("file")
    sp.add_argument("-o", "--output")

    # These commands search configurations under a cap they take as an
    # option; to-ia searches under DEFAULT_CAP, which no option changes.
    # Every other search is bounded by the sizes of its input files.
    for name in ("det", "refine", "tester", "testgen"):
        sub.choices[name].add_argument("--cap", type=int, default=DEFAULT_CAP,
                                       help="exploration limit (default %(default)s)")
    return p


# Numeric options that bound or count something; a negative value is a
# usage error, not a cap of -5 that fails at once or a run of -1 steps.
_NON_NEGATIVE = ("cap", "max_steps", "depth", "count")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in _NON_NEGATIVE:
            if getattr(args, name, 0) < 0:
                raise AltiaError(f"--{name.replace('_', '-')} must not be negative")
        return args.fn(args)
    except ExplorationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (AltiaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
