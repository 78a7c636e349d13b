from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from altia.lattice import (
    Config,
    _Numbering,
    Kind,
    bot,
    classify,
    dnf,
    embed,
    join,
    join_all,
    meet,
    meet_all,
    substitute,
    top,
)
from altia.rng import SplitMix64

from oracles import rand_expr, rand_wide_config

q1, q2, q3 = embed("q1"), embed("q2"), embed("q3")


def test_embedding_and_identities():
    assert dnf(q1) == frozenset({frozenset({"q1"})})
    assert meet(q1, top()) == q1
    assert join(q1, bot()) == q1
    assert join(q1, top()) == top()
    assert meet(q1, bot()) == bot()


def test_dnf_constants():
    assert dnf(bot()) == frozenset()
    assert dnf(top()) == frozenset({frozenset()})
    assert classify(top()) is Kind.TOP
    assert classify(bot()) is Kind.BOT


def test_join_absorption():
    assert join(q1, meet(q2, q3)) == Config([{"q1"}, {"q2", "q3"}])
    assert join(q1, meet(q1, q2)) == q1
    assert meet(q1, join(q1, q2)) == q1


def test_nested_expression_normalizes():
    # q1 or (q2 and (q1 or q3)) has exactly the clauses {q1}, {q2,q3}
    e = join(q1, meet(q2, join(q1, q3)))
    assert dnf(e) == frozenset({frozenset({"q1"}), frozenset({"q2", "q3"})})
    assert str(e) == "q1 | q2&q3"


def test_meet_examples():
    assert meet(q1, q2) == Config([{"q1", "q2"}])
    assert meet(join(q1, q2), bot()) == bot()
    assert meet(q1, q1) == q1


def test_classify():
    assert classify(q1) is Kind.STATE
    assert q1.single_state == "q1"
    assert classify(Config([{"q1"}, {"q2", "q3"}])) is Kind.COMPOUND
    assert classify(Config([frozenset()])) is Kind.TOP


def test_empty_folds():
    assert join_all([]) == bot()
    assert meet_all([]) == top()


def test_substitution_constants_fixed():
    f = {"q1": q2, "q2": bot(), "q3": top()}
    assert substitute(top(), f) == top()
    assert substitute(bot(), f) == bot()


def test_substitution_vending_example():
    # one state opening a conjunction with a nested choice
    f = {"w0": meet(embed("w0"), join(embed("w1"), embed("w2")))}
    e = substitute(embed("w0"), f)
    assert dnf(e) == frozenset({frozenset({"w0", "w1"}), frozenset({"w0", "w2"})})
    # then an output that w1 forbids and w2 keeps
    g = {"w0": embed("w0"), "w1": bot(), "w2": embed("w2")}
    assert substitute(e, g) == meet(embed("w0"), embed("w2"))


def test_equality_and_hash():
    # equal values built apart are equal and hash alike; there is no global
    # table making them one object
    a = Config([{"q1"}, {"q2", "q3"}])
    b = join(q1, meet(q2, q3))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_str_parse_roundtrip():
    from altia.io import parse_expr

    rng = SplitMix64(4)
    gens = ["q1", "q2", "q3", "q4", "q5", "q6"]
    random_exprs = [rand_expr(rng, gens, depth=5) for _ in range(300)]
    for e in [top(), bot(), q1, join(q1, meet(q2, q3)), meet(q1, join(q2, q3))] + random_exprs:
        back = parse_expr(str(e))
        assert back == e
        # the text depends on the value only, not on how it was built
        assert str(back) == str(e)


def _antichain(raw):
    # brute force: keep the clauses that contain no other clause
    raw = set(map(frozenset, raw))
    return frozenset(c for c in raw if not any(d < c for d in raw))


def _rand_over(rng, pool):
    # a random configuration whose states are all of pool; top or bottom
    # one draw in ten each
    roll = rng.below(10)
    if roll < 2:
        return (top(), bot())[roll]
    while True:
        e = rand_wide_config(rng, pool, max_clauses=4)
        if e.states() == frozenset(pool):
            return e


def test_minimize_matches_brute_force_antichain():
    rng = SplitMix64(11)
    gens = ["q1", "q2", "q3", "q4", "q5", "q6"]
    wide = 0
    for _ in range(300):
        a, b = rand_wide_config(rng, gens), rand_wide_config(rng, gens)
        assert join(a, b).clauses == _antichain(a.clauses | b.clauses)
        raw_meet = [c1 | c2 for c1 in a.clauses for c2 in b.clauses]
        assert meet(a, b).clauses == _antichain(raw_meet)
        wide += (len(a.clauses) >= 3) + (len(b.clauses) >= 3)
    assert wide >= 200  # of the 600 operands; 235 on this seed
    # wide meets (a0|b0) & ... & (a9|b9): disjoint factors give 1024
    # clauses of one size, overlapping ones (x0|x1) & (x1|x2) & ... absorb
    for factors in (
        [[{f"a{i}"}, {f"b{i}"}] for i in range(10)],
        [[{f"x{i}"}, {f"x{i + 1}"}] for i in range(10)],
        [[{f"x{i}"}, {f"x{i + 1}", f"x{i + 2}"}] for i in range(10)],
    ):
        e = meet_all(Config(f) for f in factors)
        expected = _antichain(frozenset().union(*choice) for choice in product(*factors))
        assert e.clauses == expected
    assert len(meet_all(Config([{f"a{i}"}, {f"b{i}"}]) for i in range(10)).clauses) == 1024
    # joins and meets of 3-5 operands, each over all names of its pool or
    # top or bottom: pools of their own (disjoint state sets), overlapping
    # pools (partly shared) and one pool (identical), where clauses repeat
    # across operands
    pools = (
        [[f"d{i}{j}" for j in range(3)] for i in range(5)],
        [gens[i:i + 3] for i in range(5)],
        [gens[:3]] * 5,
    )
    seen = dict.fromkeys(
        ("disjoint", "shared", "identical", "top", "bot", "repeated", "absorbed"), 0)
    for n in range(300):
        pool = pools[n % 3]
        ops = [_rand_over(rng, pool[i]) for i in range(3 + rng.below(3))]
        raw = [e.clauses for e in ops]
        joined = join_all(ops).clauses
        assert joined == _antichain(frozenset().union(*raw))
        assert meet_all(ops).clauses == _antichain(frozenset().union(*cs) for cs in product(*raw))
        states = [e.states() for e in ops if e.states()]
        union = frozenset().union(*states)
        if len(states) >= 2:
            if all(s == states[0] for s in states):
                seen["identical"] += 1
            elif sum(map(len, states)) == len(union):
                seen["disjoint"] += 1
            else:
                seen["shared"] += 1
        with_top = any(e.is_top for e in ops)
        seen["top"] += with_top
        seen["bot"] += any(e.is_bot for e in ops)
        seen["repeated"] += sum(map(len, raw)) > len(frozenset().union(*raw))
        # clauses of one operand absorbed by another's, top aside
        seen["absorbed"] += not with_top and len(joined) < len(frozenset().union(*raw))
    # of the 300 draws; 96, 90, 95, 102, 109, 142 and 116 on this seed
    assert seen["disjoint"] >= 75 and seen["shared"] >= 75 and seen["identical"] >= 75
    assert seen["top"] >= 80 and seen["bot"] >= 80 and seen["repeated"] >= 110
    assert seen["absorbed"] >= 90


def _substitute(e, f):
    # brute force: each clause becomes the pairwise unions of its members'
    # images' clauses, then absorption; no lattice operation is used
    out = set()
    for clause in e.clauses:
        unions = {frozenset()}
        for q in clause:
            unions = {u | d for u in unions for d in f[q].clauses}
        out |= unions
    return _antichain(out)


def test_substitute_matches_brute_force():
    # the reference for the automata's steps, which share substitute's meet
    rng = SplitMix64(12)
    gens = ["q1", "q2", "q3", "q4", "q5", "q6"]
    images = gens + ["r1", "r2"]
    wide = wide_images = 0
    for _ in range(300):
        e = rand_wide_config(rng, gens)
        f = {q: rand_wide_config(rng, images) for q in gens}
        got = substitute(e, f)
        assert got.clauses == _substitute(e, f)
        wide += len(e.clauses) >= 3
        wide_images += sum(len(img.clauses) >= 3 for img in f.values())
    assert wide >= 100  # of the 300 substituted operands; 125 on this seed
    assert wide_images >= 700  # of the 1800 images; 847 on this seed


def _rand_target(rng, kind, images):
    # a target of the given shape: one clause, several clauses, top, bottom
    if kind == "top":
        return top()
    if kind == "bot":
        return bot()
    while True:
        t = rand_wide_config(rng, images)
        if not t.is_top and not t.is_bot and (len(t.clauses) == 1) == (kind == "one"):
            return t


def test_substitute_mixes_target_shapes():
    # substitute ORs one-clause targets into one mask, meets only the
    # others, ends a clause at a bottom target and absorbs once over the
    # union of the clauses' images: every path is reached and checked
    # against the brute force
    rng = SplitMix64(21)
    gens = ["q1", "q2", "q3", "q4", "q5", "q6"]
    images = gens + ["r1", "r2"]
    kinds = ("one", "one", "wide", "wide", "top", "bot")
    ored = one_and_wide = three_shapes = with_bottom = absorbed = 0
    for _ in range(400):
        e = meet(rand_wide_config(rng, gens), rand_wide_config(rng, gens))  # clauses of 1-6
        f = {q: _rand_target(rng, kinds[rng.below(len(kinds))], images) for q in gens}
        got = substitute(e, f)
        assert got.clauses == _substitute(e, f)
        shapes = [
            [("top" if f[q].is_top else "bot" if f[q].is_bot
              else "one" if len(f[q].clauses) == 1 else "wide") for q in clause]
            for clause in e.clauses
        ]
        ored += any(k.count("one") >= 2 for k in shapes)
        one_and_wide += any({"one", "wide"} <= set(k) for k in shapes)
        three_shapes += any(len(set(k)) >= 3 for k in shapes)
        with_bottom += any("bot" in k and len(k) >= 2 for k in shapes)
        # the clauses' own images, put together, hold absorbed masks
        absorbed += sum(len(_substitute(Config([c]), f)) for c in e.clauses) > len(got.clauses)
    # of the 400 draws; 122, 198, 115, 171 and 178 on this seed
    assert ored >= 100 and one_and_wide >= 150 and three_shapes >= 90
    assert with_bottom >= 140 and absorbed >= 140
    # every target one clause: injective renamings onto one or two names,
    # whose clauses are non-empty and pairwise disjoint (an order
    # embedding), and two states sent onto one, overlapping targets and a
    # top target, which are not
    fresh = [f"r{i}" for i in range(12)]
    disjoint = overlapping = merged = with_top = 0
    for n in range(400):
        e = meet(rand_wide_config(rng, gens), rand_wide_config(rng, gens))
        k = rng.below(len(fresh))
        order = fresh[k:] + fresh[:k]
        f = {q: Config([order[2 * i:2 * i + 1 + rng.below(2)]]) for i, q in enumerate(gens)}
        kind = n % 4
        if kind == 1:  # two states sent onto one
            f[gens[rng.below(3)]] = f[gens[3 + rng.below(3)]]
        elif kind == 2:  # one-clause targets over a pool of three names
            f = {q: Config([{fresh[rng.below(3)], fresh[rng.below(3)]}]) for q in gens}
        elif kind == 3:
            f[gens[rng.below(len(gens))]] = top()
        got = substitute(e, f)
        assert got.clauses == _substitute(e, f)
        clauses = [next(iter(f[q].clauses)) for q in e.states()]
        if all(clauses) and sum(map(len, clauses)) == len(frozenset().union(*clauses)):
            disjoint += 1
        else:
            overlapping += 1
        merged += len(got.clauses) < len(e.clauses)
        with_top += not all(clauses)
    # of the 400 draws; 207, 193, 139 and 67 on this seed
    assert disjoint >= 170 and overlapping >= 160 and merged >= 110 and with_top >= 50


def test_substitute_renamings_match_the_join_of_meets():
    # substitute maps each clause through one {state: name} dict when every
    # target is a single state and no two states share a name.  States sent
    # onto one name, top and bottom targets, and targets of several states
    # go the other ways.  On 300 wide configurations, each under one
    # renaming of each kind, the result is the join of meets written out
    # here, and the brute force.
    def join_of_meets(e, f):
        return join_all([meet_all([f[q] for q in c]) for c in e.clauses])

    f = {"a": embed("x"), "b": embed("x"), "c": embed("y")}
    assert substitute(Config([{"a"}, {"b", "c"}]), f) == embed("x")
    rng = SplitMix64(23)
    gens = [f"q{i}" for i in range(8)]
    fresh = [f"r{i}" for i in range(16)]
    seen = dict.fromkeys(("merged", "absorbed", "top", "bot", "disjoint", "overlapping"), 0)
    for _ in range(300):
        e = top()
        while len(e.clauses) < 3:
            e = meet(rand_wide_config(rng, gens), rand_wide_config(rng, gens))
        states = sorted(e.states())
        k = rng.below(len(fresh))
        order = fresh[k:] + fresh[:k]
        names = {q: order[i] for i, q in enumerate(states)}
        renaming = {q: embed(n) for q, n in names.items()}
        a, b = rng.below(len(states)), rng.below(len(states) - 1)
        b += b >= a  # two distinct states
        merged = {**renaming, states[b]: renaming[states[a]]}
        trivial = {**renaming, states[a]: (top(), bot())[rng.below(2)]}
        # a's target gets a second member: b's name (overlapping) or a fresh one
        overlapping = rng.below(2) == 1
        second = names[states[b]] if overlapping else order[-1]
        multi = {**renaming, states[a]: meet(embed(names[states[a]]), embed(second))}
        for g in (renaming, merged, trivial, multi):
            got = substitute(e, g)
            assert got == join_of_meets(e, g)
            assert got.clauses == _substitute(e, g)
        assert len(substitute(e, renaming).clauses) == len(e.clauses)
        renamed = {frozenset(merged[q].single_state for q in c) for c in e.clauses}
        seen["merged"] += len(renamed) < len(e.clauses)
        seen["absorbed"] += len(substitute(e, merged).clauses) < len(renamed)
        seen["top" if trivial[states[a]].is_top else "bot"] += 1
        seen["overlapping" if overlapping else "disjoint"] += 1
    # of the 300 draws; 52 merged, 184 absorbed, 147 top, 153 bottom, 147
    # disjoint and 153 overlapping on this seed
    assert seen["merged"] >= 40 and seen["absorbed"] >= 150, seen
    assert min(seen["top"], seen["bot"], seen["disjoint"], seen["overlapping"]) >= 100, seen


def test_substitute_wide_operands():
    # a renaming of 2**10 clauses, and a 4**5-clause operand whose states go
    # to one-clause, multi-clause, top and bottom targets
    pairs = meet_all(Config([{f"a{i}"}, {f"b{i}"}]) for i in range(10))
    rename = {q: embed(q + "'") for q in pairs.states()}
    got = substitute(pairs, rename)
    assert len(got.clauses) == 1024
    assert got.clauses == _substitute(pairs, rename)
    assert got.clauses == frozenset(frozenset(q + "'" for q in c) for c in pairs.clauses)
    groups = [[f"g{i}w{w}" for w in range(4)] for i in range(5)]
    wide = meet_all(join_all(embed(q) for q in grp) for grp in groups)
    assert len(wide.clauses) == 4**5
    f = {}
    for i, grp in enumerate(groups):
        f[grp[0]] = meet(embed(f"x{i}"), embed(f"x{i + 1}"))
        f[grp[1]] = join(embed(f"x{i}"), meet(embed(f"y{i}"), embed(f"y{i + 1}")))
        f[grp[2]] = top() if i % 2 else join(embed(f"x{i + 2}"), embed(f"y{i}"))
        f[grp[3]] = bot() if i == 3 else embed(f"y{i + 2}")
    got = substitute(wide, f)
    assert got.clauses == _substitute(wide, f)
    assert 1 < len(got.clauses) < 4**5


def test_substitute_reads_only_the_states_of_e():
    # keys of f beyond e's states are ignored, targets may name states e
    # lacks, and a missing state raises the mapping's KeyError
    e = Config([{"q1", "q2"}, {"q3"}])
    f = {"q1": join(embed("q3"), embed("z")), "q2": embed("q1"), "q3": meet(embed("w"), embed("q2"))}
    extra = {**f, "q4": bot(), "q5": embed("v"), "q6": top()}
    assert substitute(e, extra) == substitute(e, f)
    assert substitute(e, f).clauses == _substitute(e, f)
    assert substitute(e, f) == Config([{"q1", "q3"}, {"q1", "z"}, {"q2", "w"}])
    for missing in ("q1", "q3"):
        partial = {q: t for q, t in extra.items() if q != missing}
        with pytest.raises(KeyError) as raised:
            substitute(e, partial)
        assert raised.value.args == (missing,)


def test_numbering_round_trips():
    # clause(encode(c)) is c over numberings of up to 200 names, across the
    # byte boundaries of the mask and past one machine word, against a
    # name-by-name scan; a fresh numbering decodes masks it did not encode
    rng = SplitMix64(31)
    for n in (1, 7, 8, 9, 63, 64, 65, 200):
        names = [f"n{i}" for i in range(n)]
        clauses = [frozenset(), frozenset(names), frozenset(names[-1:])]
        for _ in range(60):
            p = rng.below(4)  # a draw from sparse to dense
            clauses.append(frozenset(q for q in names if rng.below(4) <= p - 1 or rng.below(n) == 0))
        encoder, decoder = _Numbering(names), _Numbering(names)
        for c in clauses:
            (m,) = encoder.encode([c])
            assert m == sum(1 << i for i, q in enumerate(names) if q in c)
            scanned = frozenset(q for i, q in enumerate(names) if m >> i & 1)
            assert decoder.clause(m) == scanned == c
            assert encoder.clause(m) == c
            assert decoder.clause(m) is decoder.clause(m)  # one object per clause


names = st.sampled_from(["q1", "q2", "q3", "q4", "q5", "q6"])
configs = st.deferred(
    lambda: st.one_of(
        st.just(top()),
        st.just(bot()),
        names.map(embed),
        st.tuples(configs, configs).map(lambda t: join(*t)),
        st.tuples(configs, configs).map(lambda t: meet(*t)),
    )
)


@settings(max_examples=300)
@given(configs, configs, configs)
def test_lattice_axioms(a, b, c):
    assert join(a, b) == join(b, a)
    assert meet(a, b) == meet(b, a)
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert meet(a, meet(b, c)) == meet(meet(a, b), c)
    assert join(a, meet(a, b)) == a
    assert meet(a, join(a, b)) == a
    assert join(a, a) == a
    assert meet(a, a) == a
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert join(a, top()) == top()
    assert meet(a, bot()) == bot()


@settings(max_examples=200)
@given(configs)
def test_antichain_invariant(e):
    clauses = list(dnf(e))
    for i, c1 in enumerate(clauses):
        for j, c2 in enumerate(clauses):
            if i != j:
                assert not c1 <= c2


@settings(max_examples=200)
@given(configs)
def test_dnf_reconstructs(e):
    rebuilt = join_all(meet_all(embed(x) for x in clause) for clause in dnf(e))
    assert rebuilt == e


@settings(max_examples=200)
@given(configs, configs)
def test_substitute_distributes(a, b):
    f = {q: meet(embed(q), embed("z")) for q in (a.states() | b.states())}
    f.setdefault("z", embed("z"))
    assert substitute(join(a, b), f) == join(substitute(a, f), substitute(b, f))
    assert substitute(meet(a, b), f) == meet(substitute(a, f), substitute(b, f))
