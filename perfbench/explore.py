"""explore: the five searches over reachable configurations, per spec.

Each round takes one random spec (7 states, inputs a b c, outputs x y z,
a single-state initial configuration, 300-450 reachable configurations)
and asks for ``det``, ``check_deterministic``, ``build_tester``,
``leq_aia`` both ways between the spec and its determinization, and one
batch of membership queries.  A pass is six rounds on six specs that
are the same for every seed; each repetition of a pass renames every
spec's states afresh, and the seed draws the names and the queries.  Hundreds of
small-clause configurations are stepped again by each search, so a step
memo or a shared exploration core shows here and the cheap absorption
test for wide clause sets does not.
"""

from __future__ import annotations

import oracles
from altia import (
    FTrace,
    Label,
    TraceStatus,
    aia_ftrace_member,
    build_tester,
    check_deterministic,
    det,
    leq_aia,
    tester_problems,
    trace_verdict,
)

import gen

NAME = "explore"
PASS = 6
PREFIX_ROUNDS = PASS
N_STATES = 7
INPUTS = ("a", "b", "c")
OUTPUTS = ("x", "y", "z")
BAND = (300, 450)
TRIES = 20
QUERIES = 200
MAX_TRACE = 8
UNIVERSE_K = 3


def pass_input(seed: int, k: int, draw_all: bool = False):
    """Round k of the pass: its spec (the same for every seed: op_p50_ms
    follows the specs' sizes, and with specs drawn per seed it spread
    0.24-0.28 over ten seeds), reachable table and membership queries."""
    base, reach = gen.spec_in_band(gen.rng_for(0, NAME, k, "spec"), N_STATES, INPUTS,
                                   OUTPUTS, BAND, TRIES, f"spec{k}", draw_all)
    rng = gen.rng_for(seed, NAME, k)
    labels = [Label(a, True) for a in INPUTS] + [Label(x, False) for x in OUTPUTS]
    queries = []
    for n in range(QUERIES):
        body = tuple(rng.choice(labels) for _ in range(rng.randrange(MAX_TRACE + 1)))
        queries.append(FTrace(body, rng.choice(INPUTS) if n % 3 == 2 else None))
    return base, reach, queries


def setup(ctx):
    return {
        "pass": {0: pass_input(ctx.seed, 0, draw_all=True)},
        "universe": oracles.universe(INPUTS, OUTPUTS, UNIVERSE_K),
    }


def _members(bench, s, queries):
    answers = []
    for ft in queries:
        if ft.failure is None:
            status, _ = bench.call("aia.member", trace_verdict, s, ft.body)
            answers.append(status)
        else:
            answers.append(bench.call("aia.member", aia_ftrace_member, s, ft))
    return answers


def _mask_status(ex: gen.MaskExplorer, d: gen.SpecData, body) -> TraceStatus:
    e = ex.conf(d.init)
    for lab in body:
        if not e or 0 in e:
            break
        e = ex.step(e, lab.name)
    if not e:
        return TraceStatus.FORBIDDEN
    return TraceStatus.UNDERSPECIFIED if 0 in e else TraceStatus.ALLOWED


def run_round(ctx, state, r, bench):
    k = r % PASS
    if k not in state["pass"]:
        state["pass"][k] = pass_input(ctx.seed, k)
    base, reach, queries = state["pass"][k]
    # Every repetition renames the spec's states afresh.
    d = gen.renamed(base, gen.rng_for(ctx.seed, NAME, r, "names"))
    s = gen.to_aia(d)

    D = bench.op("det", bench.call, "determinize.det", det, s)
    is_det = bench.op("check_deterministic", bench.call, "determinize.check",
                      check_deterministic, s)
    t = bench.op("build_tester", bench.call, "testing.tester", build_tester, s)
    fwd = bench.op("leq", bench.call, "refine.leq", leq_aia, s, D)
    back = bench.op("leq", bench.call, "refine.leq", leq_aia, D, s)
    answers = bench.op("members", _members, bench, s, queries)

    bench.add("determinize.configs", len(D.states))
    bench.add("testing.tester_states", len(t.ia.states))
    bench.add("refine.pairs", fwd.pairs_explored + back.pairs_explored)

    tag = f"{NAME} seed {ctx.seed} round {r}"
    bench.check(len(D.states) == len(reach),
                f"{tag}: det has {len(D.states)} states, the mask explorer {len(reach)}")
    singles = all(len(e) == 1 and bin(next(iter(e))).count("1") == 1 for e in reach)
    bench.check(is_det == singles, f"{tag}: check_deterministic said {is_det}")
    bench.check(
        all(c.is_top or c.is_bot or c.single_state is not None
            for row in D.transitions.values() for c in row.values()),
        f"{tag}: a det transition targets a compound configuration",
    )
    bench.check(
        all(oracles.aia_member(s, w) == oracles.aia_member(D, w) for w in state["universe"]),
        f"{tag}: det changes an observation of at most {UNIVERSE_K} symbols",
    )
    bench.check(fwd.holds and back.holds, f"{tag}: spec and det do not refine each other")
    bench.check(len(t.ia.states) == len(D.states) + 2 and not tester_problems(t),
                f"{tag}: malformed tester")
    ex = gen.MaskExplorer(d)
    for ft, got in zip(queries, answers):
        if ft.failure is None:
            ok = got == _mask_status(ex, d, ft.body) and (
                (got is not TraceStatus.FORBIDDEN) == oracles.aia_member(s, ft))
        else:
            ok = got == oracles.aia_member(s, ft)
        bench.check(ok, f"{tag}: membership of {ft} answered {got}")
