"""conjoin: wide clause sets from conjunction, and the lattice kernel alone.

Each round conjoins k renamed milkdrinks-style views for k = 8 and 9.  Every view branches on ``?b`` into two states, so after ``?b`` the
conjunction meets k two-way disjunctions into 2**k clauses.  Each
conjunction is stepped, determinized and checked for refinement against
every view (and one view against it).  The round also builds wide
``&``-of-``|`` expressions directly with ``meet_all``, ``substitute`` and
``join_all``.  Only a handful of configurations are reachable, but each
canonicalization handles hundreds to thousands of clauses, so a change to
the lattice kernel shows here and memo or exploration changes should not.
k stops at 9 so that a run holds many rounds: at k = 10 one refinement
check takes 0.3 s today and at k = 12 about 3 s.  The direct expressions
reach 2048 clauses.  There are no small k: operations of a few
milliseconds would put the median among the operations whose time
varies most from run to run.
"""

from __future__ import annotations

import math

import oracles
from altia import conj, det, dnf, embed, join_all, leq_aia, meet_all, substitute

import gen

NAME = "conjoin"
PASS = 1
PREFIX_ROUNDS = 2
INPUTS = ("a", "b")
OUTPUTS = ("c", "c+m", "t", "t+m")
KS = (8, 9)
# Operand widths of the directly built expressions; the seed shuffles them.
PROFILES = ((2,) * 10, (3, 3, 3, 2, 2, 2, 2), (4,) * 5, (5, 5, 3, 3, 3))
VALUATIONS = 16
UNIVERSE_K = 3


# The drinks (o1, o2) a view allows after each branch.  A conjunction of k
# views takes the first k pairs in seeded order, so seeds rename and
# reorder the same conjunction and every seed does the same work.
DRINKS = [(o1, o2) for o1 in OUTPUTS for o2 in OUTPUTS if o1 != o2]


def view_data(j: int, o1: str, o2: str) -> gen.SpecData:
    """View j: ``?b`` goes to one of two states, each allowing one drink."""
    s = [f"v{j}s{i}" for i in range(5)]
    t, f = gen.TOP, gen.BOT
    rows = {q: {"a": t, "b": t, **{x: f for x in OUTPUTS}} for q in s}
    rows[s[0]]["b"] = (frozenset((s[1],)), frozenset((s[2],)))
    rows[s[1]][o1] = (frozenset((s[3],)),)
    rows[s[2]][o2] = (frozenset((s[4],)),)
    return gen.SpecData(tuple(s), INPUTS, OUTPUTS, rows, (frozenset((s[0],)),), f"view{j}")


def round_input(seed: int, r: int):
    rng = gen.rng_for(seed, NAME, r)
    views = {}
    for k in KS:
        drinks = DRINKS[:k]
        rng.shuffle(drinks)
        views[k] = [view_data(j, *drinks[j]) for j in range(k)]
    exprs = []
    for n, profile in enumerate(PROFILES):
        widths = list(profile)
        rng.shuffle(widths)
        groups = [[f"e{n}g{i}w{w}" for w in range(width)] for i, width in enumerate(widths)]
        exprs.append(groups)
    valuations = [rng.getrandbits(64) for _ in range(VALUATIONS)]
    return views, exprs, valuations


def setup(ctx):
    return {
        "first": round_input(ctx.seed, 0),
        "universe": oracles.universe(INPUTS, OUTPUTS, UNIVERSE_K),
    }


def _holds(cfg, true) -> bool:
    return any(all(q in true for q in clause) for clause in dnf(cfg))


def _true_set(bits: int, names) -> set:
    return {q for i, q in enumerate(names) if bits >> (i % 64) & 1}


def _step_all(bench, c):
    after_b = bench.call("aia.step", c.step, c.initial, "b")
    for x in OUTPUTS:
        bench.call("aia.step", c.step, after_b, x)
    return after_b


def _conjoin(bench, state, tag, vdata, valuations):
    views = [gen.to_aia(v) for v in vdata]
    c = views[0]
    for v in views[1:]:
        c = conj(c, v)
    k = len(views)
    after_b = bench.op("step", _step_all, bench, c)
    D = bench.op("det", bench.call, "determinize.det", det, c)
    results = [bench.op("leq", bench.call, "refine.leq", leq_aia, c, v) for v in views]
    back = bench.op("leq", bench.call, "refine.leq", leq_aia, views[0], c)
    bench.add("determinize.configs", len(D.states))
    bench.add("refine.pairs", sum(r.pairs_explored for r in results) + back.pairs_explored)

    branches = [(v.table[v.states[0]]["b"]) for v in vdata]
    width = math.prod(len(b) for b in branches)
    bench.check(len(dnf(after_b)) == width,
                f"{tag} k={k}: {len(dnf(after_b))} clauses after ?b, expected {width}")
    names = [q for b in branches for clause in b for q in clause]
    for bits in valuations:
        true = _true_set(bits, names)
        tree = all(any(all(q in true for q in clause) for clause in b) for b in branches)
        bench.check(_holds(after_b, true) == tree, f"{tag} k={k}: ?b step evaluates wrongly")
    bench.check(all(r.holds for r in results), f"{tag} k={k}: conjunction fails a view")
    univ = state["universe"]
    bench.check(all(oracles.aia_member(c, w) == oracles.aia_member(D, w) for w in univ),
                f"{tag} k={k}: det changes an observation")
    if back.holds:
        missing = oracles.included(lambda w: oracles.aia_member(views[0], w),
                                   lambda w: oracles.aia_member(c, w), univ)
        bench.check(missing is None, f"{tag} k={k}: view 0 <= conjunction, but {missing}")
    else:
        cex = back.counterexample
        bench.check(oracles.aia_member(views[0], cex) and not oracles.aia_member(c, cex),
                    f"{tag} k={k}: bad counterexample {cex}")


def _meet(bench, groups):
    return bench.call("lattice.canon", meet_all,
                      [bench.call("lattice.canon", join_all, [embed(g) for g in grp])
                       for grp in groups])


def _expression(bench, tag, groups, valuations):
    e = bench.op("meet_all", _meet, bench, groups)
    rename = {g: embed(g + "'") for grp in groups for g in grp}
    f = bench.op("substitute", bench.call, "lattice.canon", substitute, e, rename)
    j = bench.op("join_all", bench.call, "lattice.canon", join_all, [e, f])

    width = math.prod(len(grp) for grp in groups)
    for cfg, want, what in ((e, width, "meet_all"), (f, width, "substitute"),
                            (j, 2 * width, "join_all")):
        bench.check(len(dnf(cfg)) == want, f"{tag}: {what} gave {len(dnf(cfg))} clauses, "
                    f"expected {want}")
    names = [g for grp in groups for g in grp]
    for bits in valuations:
        true = _true_set(bits, names)
        true_f = {g + "'" for g in _true_set(bits * 3 + 1, names)}
        te = all(any(g in true for g in grp) for grp in groups)
        tf = all(any(g + "'" in true_f for g in grp) for grp in groups)
        bench.check(_holds(e, true) == te and _holds(f, true_f) == tf
                    and _holds(j, true | true_f) == (te or tf),
                    f"{tag}: canonical form evaluates unlike its expression")


def run_round(ctx, state, r, bench):
    views, exprs, valuations = state["first"] if r == 0 else round_input(ctx.seed, r)
    tag = f"{NAME} seed {ctx.seed} round {r}"
    for k in KS:
        _conjoin(bench, state, tag, views[k], valuations)
    for groups in exprs:
        _expression(bench, tag, groups, valuations)
