"""campaign: testers synthesized once and run many times against a pool.

Each round tests two specs: ``models/machine.aia`` and one random spec
(6 states, inputs a b, outputs x y, 45-75 reachable configurations).  A
pass is eight rounds on eight random specs that are the same for every
seed, as are the mutants and test case seeds; each repetition of a pass
renames the random specs' states afresh, and the seed draws the names,
the random-run seeds and the queries.
For each it builds the tester and three singular test cases
(``gen_singular`` then ``build_tester``), then takes every implementation
of a seeded pool through ``leq_ia_aia``, ``verdict_exhaustive`` with the
tester and with each test case, eight seeded ``run_random`` runs and a
batch of membership queries.  The pool holds ``good_machine.ia``,
``faulty_tea.ia`` and two seeded mutants of the good machine, or, for a
random spec, the largest deterministic implementation of it (derived by
the benchmark's own explorer, so it refines the spec) and three seeded
mutants of that.  Most of the time goes to the product of tester and
implementation over string-named states; lattice work is light.
Synthesis (write-like) sits beside many runs of one tester (read-like).
"""

from __future__ import annotations

import oracles
from altia import (
    IA,
    FTrace,
    Label,
    build_tester,
    fcl_member,
    ftrace_member,
    gen_singular,
    leq_ia_aia,
    parse_model,
    run_random,
    verdict_exhaustive,
)

import gen

NAME = "campaign"
PASS = 8
PREFIX_ROUNDS = PASS
N_STATES = 6
INPUTS = ("a", "b")
OUTPUTS = ("x", "y")
BAND = (45, 75)
TRIES = 8
POOL = 4
CASES = 3
DEPTH = 6
P_STOP = 0.15
RANDOM_RUNS = 8
MAX_STEPS = 30
QUERIES = 40


def ia_data(i: IA):
    return (sorted(i.states), sorted(i.inputs), sorted(i.outputs),
            {q: {l: set(t) for l, t in row.items()} for q, row in i.transitions.items()},
            sorted(i.initial), i.name)


def largest_impl(d: gen.SpecData, reach: dict):
    """The deterministic implementation that takes every step the spec allows."""
    name = {e: f"c{n}" for n, e in enumerate(reach)}
    trans: dict = {"top": {}}
    for e, row in reach.items():
        trans[name[e]] = {
            l: {"top" if 0 in t else name[t]} for l, t in row.items() if t
        }
    init = [name[next(iter(reach))]]  # the spec's initial configuration comes first
    return (sorted(trans), list(d.inputs), list(d.outputs), trans, init, f"impl_{d.name}")


def mutant(rng, data, n: int):
    """Drop, add or redirect one transition."""
    states, inputs, outputs, trans, init, name = data
    trans = {q: {l: set(t) for l, t in row.items()} for q, row in trans.items()}
    edges = [(q, l) for q, row in sorted(trans.items()) for l in sorted(row)]
    kind = rng.choice(("drop", "add", "redirect"))
    if kind == "add" or not edges:
        q, l = rng.choice(states), rng.choice(inputs + outputs)
        trans.setdefault(q, {}).setdefault(l, set()).add(rng.choice(states))
    else:
        q, l = rng.choice(edges)
        del trans[q][l]
        if kind == "redirect":
            trans[q][l] = {rng.choice(states)}
    return (states, inputs, outputs, trans, init, f"{name}_m{n}")


def _random_queries(rng, inputs, outputs):
    labels = [Label(a, True) for a in inputs] + [Label(x, False) for x in outputs]
    out = []
    for k in range(QUERIES):
        body = tuple(rng.choice(labels) for _ in range(rng.randrange(7)))
        out.append(FTrace(body, rng.choice(inputs) if k % 2 else None))
    return out


def pass_input(seed: int, k: int, machine_text: str, machine_pool, draw_all=False):
    """Round k of the pass.  As in explore, the random spec is the same for
    every seed, and so are the mutants and test case seeds: the slowest
    operations follow them.  Its largest implementation refines the spec
    under any renaming of the spec's states."""
    d, reach = gen.spec_in_band(gen.rng_for(0, NAME, k, "spec"), N_STATES, INPUTS,
                                OUTPUTS, BAND, TRIES, f"rand{k}", draw_all)
    fixed, rng = gen.rng_for(0, NAME, k, "plan"), gen.rng_for(seed, NAME, k)
    impl = largest_impl(d, reach)
    sources = []
    for spec, pool in ((machine_text, machine_pool), (d, [impl])):
        base = pool[0]
        pool = pool + [mutant(fixed, base, n) for n in range(POOL - len(pool))]
        plan = {
            "case_seeds": [fixed.getrandbits(32) for _ in range(CASES)],
            "run_seeds": [[rng.getrandbits(32) for _ in range(RANDOM_RUNS)] for _ in pool],
            "queries": [_random_queries(rng, base[1], base[2]) for _ in pool],
        }
        sources.append((spec, pool, plan))
    return sources


def setup(ctx):
    machine_text = (ctx.models / "machine.aia").read_text(encoding="utf-8")
    pool = [ia_data(parse_model((ctx.models / f).read_text(encoding="utf-8")))
            for f in ("good_machine.ia", "faulty_tea.ia")]
    return {
        "machine_text": machine_text,
        "machine_pool": pool,
        "pass": {0: pass_input(ctx.seed, 0, machine_text, pool, draw_all=True)},
    }


def _testgen(bench, spec, seed):
    case = bench.call("testing.gen", gen_singular, spec, seed, DEPTH, P_STOP)
    return bench.call("testing.tester", build_tester, case)


def _members(bench, impl, queries):
    return [(bench.call("ia.member", ftrace_member, impl, ft),
             bench.call("ia.member", fcl_member, impl, ft)) for ft in queries]


def _campaign(bench, tag, spec, pool, plan):
    tester = bench.op("build_tester", bench.call, "testing.tester", build_tester, spec)
    cases = [bench.op("testgen", _testgen, bench, spec, s) for s in plan["case_seeds"]]
    bench.add("testing.tester_states",
              len(tester.ia.states) + sum(len(c.ia.states) for c in cases))

    for n, data in enumerate(pool):
        impl = IA(*data[:5], name=data[5])
        res = bench.op("leq", bench.call, "refine.leq", leq_ia_aia, impl, spec)
        v = bench.op("run_exhaustive", bench.call, "testing.exhaustive",
                     verdict_exhaustive, tester, impl)
        runs = [bench.op("run_random", bench.call, "testing.random", run_random,
                         tester, impl, s, MAX_STEPS) for s in plan["run_seeds"][n]]
        queries = plan["queries"][n]
        answers = bench.op("members", _members, bench, impl, queries)
        case_runs = [bench.op("run_case", bench.call, "testing.exhaustive",
                              verdict_exhaustive, c, impl) for c in cases]
        bench.add("refine.pairs", res.pairs_explored)
        bench.add("testing.random_steps", sum(len(x.log) for x in runs))

        who = f"{tag}: {impl.name} against {spec.name}"
        bench.check(v.passed == res.holds,
                    f"{who}: exhaustive testing says {v.passed}, refinement {res.holds}")
        witnesses = [x.witness for x in [v] + runs + case_runs if not x.passed]
        if not res.holds:
            witnesses.append(res.counterexample)
        for w in witnesses:
            bench.check(w is not None and oracles.ia_member(impl, w)
                        and not oracles.aia_member(spec, w), f"{who}: bad witness {w}")
        if res.holds:
            bench.check(all(x.passed for x in runs + case_runs),
                        f"{who}: a test fails an implementation that refines the spec")
        for ft, (member, closed) in zip(queries, answers):
            bench.check(member == oracles.ia_member(impl, ft)
                        and closed == oracles.ia_fcl_member(impl, ft),
                        f"{who}: membership of {ft} answered {member}, {closed}")


def run_round(ctx, state, r, bench):
    k = r % PASS
    if k not in state["pass"]:
        state["pass"][k] = pass_input(ctx.seed, k, state["machine_text"],
                                      state["machine_pool"])
    tag = f"{NAME} seed {ctx.seed} round {r}"
    for spec, pool, plan in state["pass"][k]:
        if isinstance(spec, str):
            spec = parse_model(spec)
        else:  # every repetition renames the random spec's states afresh
            spec = gen.to_aia(gen.renamed(spec, gen.rng_for(ctx.seed, NAME, r, "names")))
        _campaign(bench, tag, spec, pool, plan)
