"""cli: a scripted session of ``altia`` commands, one process each.

Every round runs the same 23 commands, one at a time: ``check``,
``member``, ``refine``, ``compose``, ``tester``, ``run``, ``testgen`` and
``det`` on ``models/`` (17 commands), and ``det``, ``refine`` both ways,
``tester`` and ``member`` on a generated spec (7 states, inputs a b c,
outputs x y z, 450-600 reachable configurations, the same for every
seed but with seeded state names) whose ``det`` output of about 200 KB
is read back by ``refine``.  This is what a command-line user waits for:
interpreter start, import, parsing and printing.  Each command is started
through ``launch.py``, which reports the command's own wall time (the
operation's latency) and its own peak memory.

The last command checks a model whose ``init`` is a 5000-deep
parenthesised expression.  Today it dies with an uncaught RecursionError
(exit 1 and a traceback) where the contract is exit 2 and an ``error:``
line, so it counts as one failed operation per round.  A clean exit 2,
or exit 0 with the right summary, counts as success.
"""

from __future__ import annotations

import oracles
from altia import (
    AIA,
    TraceStatus,
    build_tester,
    conj,
    disj,
    format_verdict,
    gen_singular,
    induce_aia,
    parse_model,
    parse_trace,
    print_model,
    run_random,
    tester_problems,
    trace_verdict,
    verdict_exhaustive,
)

import gen

NAME = "cli"
PASS = 1
PREFIX_ROUNDS = 2
CHILD_PROCESSES = True
N_STATES = 7
INPUTS = ("a", "b", "c")
OUTPUTS = ("x", "y", "z")
BAND = (450, 600)
TRIES = 20
DEEP = 5000
UNIVERSE_K = 3
RUNS = 20
CASES = 4


def setup(ctx):
    # One base spec for every seed, renamed by the seed: the det output a
    # seed reads back then has the same size, so the slow commands cost the
    # same whatever the seed.
    base, reach = gen.spec_in_band(gen.rng_for(0, NAME, "spec"), N_STATES, INPUTS,
                                   OUTPUTS, BAND, TRIES, "spec", draw_all=True)
    rng = gen.rng_for(ctx.seed, NAME)
    d = gen.renamed(base, rng)
    work = ctx.work / "cli"
    (work / "gen").mkdir(parents=True, exist_ok=True)
    (work / "spec.aia").write_text(gen.spec_text(d), encoding="utf-8")
    (work / "deep.aia").write_text(
        "aia deep\nstates q0\ninputs a\noutputs x\n"
        f"init {'(' * DEEP}q0{')' * DEEP}\nq0 !x -> q0\n", encoding="utf-8")
    ex = gen.MaskExplorer(d)
    labels = [("?", a) for a in INPUTS] + [("!", x) for x in OUTPUTS]
    while True:  # a member query whose answer is Allowed
        trace = [rng.choice(labels) for _ in range(4)]
        e = ex.conf(d.init)
        for _, l in trace:
            e = ex.step(e, l)
        if e and 0 not in e:
            break
    models = {f: (ctx.models / f).read_text(encoding="utf-8") for f in (
        "machine.aia", "coffee.ia", "tea.ia", "scenario.aia", "good_machine.ia",
        "faulty_tea.ia")}
    # Load the modules a command imports once, as an installed tool would have.
    ctx.altia("--help")
    return {
        "work": work, "spec": d, "reach": reach, "models": models,
        "trace": " ".join(p + l for p, l in trace),
        "run_seed": rng.randrange(1000), "gen_seed": rng.randrange(1000),
        "universe": {
            "spec": oracles.universe(INPUTS, OUTPUTS, UNIVERSE_K),
            "drinks": oracles.universe(("a", "b"), ("c", "c+m", "t", "t+m"), UNIVERSE_K),
            "machine": oracles.universe(("a", "b", "on", "take"),
                                        ("c", "c+m", "t", "t+m"), UNIVERSE_K),
        },
    }


def run_round(ctx, state, r, bench):
    work = state["work"]
    w = str(work.relative_to(ctx.root))
    tag = f"{NAME} seed {ctx.seed} round {r}"
    univ = state["universe"]

    def cmd(kind, *args):
        cp = bench.op(kind, ctx.altia, *args)
        bench.retime_last(cp.seconds)  # without the launcher's own start-up
        return cp

    def expect(cp, code, out, what):
        bench.check(cp.returncode == code and cp.stdout == out,
                    f"{tag}: {what}: exit {cp.returncode}, output {cp.stdout!r} {cp.stderr[-300:]!r}")

    def parsed(text):
        m = bench.call("io.parse", parse_model, text)
        printed = bench.call("io.print", print_model, m)
        bench.add("io.bytes", len(text.encode("utf-8")))
        return m, printed

    def read(path):
        text = (work / path).read_text(encoding="utf-8")
        m, printed = parsed(text)
        bench.check(printed == text, f"{tag}: {path} is not in canonical form")
        return m

    def same_observations(a: AIA, b: AIA, words, what):
        bench.check(all(oracles.aia_member(a, x) == oracles.aia_member(b, x) for x in words),
                    f"{tag}: {what} differs from the in-process result")

    m = {f: parsed(text)[0] for f, text in state["models"].items()}
    spec, _ = parsed((work / "spec.aia").read_text(encoding="utf-8"))

    for f in ("machine.aia", "scenario.aia", "good_machine.ia"):
        cp = cmd("check", "check", f"models/{f}")
        x = m[f]
        expect(cp, 0, f"{'aia' if isinstance(x, AIA) else 'ia'} {x.name}: {len(x.states)} "
               f"states, {len(x.inputs)} inputs, {len(x.outputs)} outputs\n", f"check {f}")
    cp = cmd("member", "member", "models/machine.aia", "--trace", "?on ?b !t")
    expect(cp, 0, "Forbidden\n", "member ?on ?b !t")
    cp = cmd("member", "member", "models/machine.aia", "--trace", "?on ?b !t+m")
    expect(cp, 0, "Allowed m10\n", "member ?on ?b !t+m")
    cp = cmd("member", "member", "models/machine.aia", "--trace", "?on ~a")
    refused = oracles.aia_member(m["machine.aia"], parse_trace("?on ~a"))
    expect(cp, 0, "member\n" if refused else "non-member\n", "member ?on ~a")
    cp = cmd("refine", "refine", "models/faulty_tea.ia", "models/machine.aia")
    expect(cp, 1, "FAIL ?on ?b !t\n", "refine faulty_tea machine")
    cp = cmd("refine", "refine", "models/good_machine.ia", "models/machine.aia")
    expect(cp, 0, "HOLDS\n", "refine good_machine machine")

    cp = cmd("compose", "compose", "--and", "models/coffee.ia", "models/tea.ia",
             "-o", f"{w}/both.aia")
    expect(cp, 0, "", "compose")
    same_observations(read("both.aia"),
                      conj(induce_aia(m["coffee.ia"]), induce_aia(m["tea.ia"])),
                      univ["drinks"], "both.aia")
    cp = cmd("compose", "compose", "--or", "models/coffee.ia", "models/tea.ia",
             "-o", f"{w}/either.aia")
    expect(cp, 0, "", "compose --or")
    same_observations(read("either.aia"),
                      disj(induce_aia(m["coffee.ia"]), induce_aia(m["tea.ia"])),
                      univ["drinks"], "either.aia")

    cp = cmd("tester", "tester", "models/scenario.aia", "-o", f"{w}/tc.ia")
    expect(cp, 0, "", "tester scenario")
    tc = build_tester(m["scenario.aia"])
    bench.check(read("tc.ia") == tc.ia and not tester_problems(tc),
                f"{tag}: tc.ia differs from the in-process tester")
    cp = cmd("run", "run", f"{w}/tc.ia", "models/good_machine.ia", "--exhaustive")
    expect(cp, 0, "PASS\n", "run tc good_machine")
    cp = cmd("run", "run", f"{w}/tc.ia", "models/faulty_tea.ia", "--exhaustive")
    expect(cp, 1, format_verdict(verdict_exhaustive(tc, m["faulty_tea.ia"])) + "\n",
           "run tc faulty_tea --exhaustive")
    seed = state["run_seed"]
    cp = cmd("run", "run", f"{w}/tc.ia", "models/faulty_tea.ia", "--seed", str(seed),
             "--runs", str(RUNS), "--max-steps", "30")
    verdicts = [run_random(tc, m["faulty_tea.ia"], seed + k, 30) for k in range(RUNS)]
    want = "".join(f"# run {k} seed {seed + k}\n{format_verdict(v, with_log=True)}\n"
                   for k, v in enumerate(verdicts))
    expect(cp, 0 if all(v.passed for v in verdicts) else 1, want, "run tc faulty_tea")

    seed = state["gen_seed"]
    cp = cmd("testgen", "testgen", "models/machine.aia", "--seed", str(seed), "--depth", "6",
             "--p-stop", "0.15", "--count", str(CASES), "-o", f"{w}/gen")
    bench.check(cp.returncode == 0, f"{tag}: testgen exit {cp.returncode}")
    for k in range(CASES):
        case = gen_singular(m["machine.aia"], seed + k, 6, 0.15)
        got = read(f"gen/case_{k:03d}.aia")
        bench.check(got == case and read(f"gen/case_{k:03d}_tester.ia") == build_tester(got).ia,
                    f"{tag}: generated case {k} differs from the in-process one")
    cp = cmd("run", "run", f"{w}/gen/case_000_tester.ia", "models/good_machine.ia",
             "--exhaustive")
    expect(cp, 0, "PASS\n", "run case_000 good_machine")

    cp = cmd("det", "det", "models/machine.aia")
    bench.check(cp.returncode == 0, f"{tag}: det machine exit {cp.returncode}")
    same_observations(parsed(cp.stdout)[0], m["machine.aia"], univ["machine"], "det machine")

    cp = cmd("det", "det", f"{w}/spec.aia", "-o", f"{w}/det.aia")
    expect(cp, 0, "", "det spec")
    D = read("det.aia")
    bench.check(len(D.states) == len(state["reach"]),
                f"{tag}: det.aia has {len(D.states)} states, expected {len(state['reach'])}")
    same_observations(D, spec, univ["spec"], "det.aia")
    cp = cmd("refine", "refine", f"{w}/spec.aia", f"{w}/det.aia")
    expect(cp, 0, "HOLDS\n", "refine spec det")
    cp = cmd("refine", "refine", f"{w}/det.aia", f"{w}/spec.aia")
    expect(cp, 0, "HOLDS\n", "refine det spec")
    cp = cmd("tester", "tester", f"{w}/spec.aia", "-o", f"{w}/spec_tc.ia")
    expect(cp, 0, "", "tester spec")
    t = read("spec_tc.ia")
    bench.check(len(t.states) == len(state["reach"]) + 2, f"{tag}: spec_tc.ia has "
                f"{len(t.states)} states")
    cp = cmd("member", "member", f"{w}/spec.aia", "--trace", state["trace"])
    status, cfg = trace_verdict(spec, parse_trace(state["trace"]).body)
    bench.check(status is TraceStatus.ALLOWED, f"{tag}: {state['trace']} is {status}")
    expect(cp, 0, f"Allowed {cfg}\n", f"member {state['trace']}")

    cp = cmd("check_deep", "check", f"{w}/deep.aia")
    clean_error = (cp.returncode == 2 and cp.stderr.startswith("error:")
                   and "Traceback" not in cp.stderr)
    accepted = cp.returncode == 0 and cp.stdout == "aia deep: 1 states, 1 inputs, 1 outputs\n"
    if not (clean_error or accepted):
        bench.fail_last()
        bench.check("RecursionError" in cp.stderr,
                    f"{tag}: deep nesting gave exit {cp.returncode}: {cp.stderr[-300:]!r}")
