import pytest

from altia import (
    AIA,
    IA,
    AlphabetError,
    FTrace,
    ModelError,
    TraceStatus,
    after,
    after_trace,
    aia_bot,
    aia_top,
    conj,
    disj,
    induce_aia,
    induce_ia,
    inp,
    trace_verdict,
)
from altia.aia import ftrace_member, rename_states
from altia.lattice import Config, bot, embed, join, join_all, meet, meet_all, substitute, top
from altia.io import parse_trace
from altia.rng import SplitMix64
from altia.search import _rows

from oracles import (
    aia_member,
    aia_member_set,
    ia_fcl_set,
    rand_aia,
    rand_aia_stepping,
    rand_config,
    rand_expr,
    rand_ia,
    rand_trace,
    rand_wide_config,
    universe,
)


def test_after_forbidden_and_allowed_drink(machine):
    assert after_trace(machine, parse_trace("?on ?b !t").body) == bot()
    assert after_trace(machine, parse_trace("?on ?b !t+m").body) == embed("m10")


def test_after_intermediate_configuration(machine):
    e = after_trace(machine, parse_trace("?on ?b").body)
    assert e == meet(embed("m4"), meet(join(embed("m6"), embed("m7")), embed("m9")))


def test_after_opens_widget_conjunction(widget):
    assert after_trace(widget, parse_trace("?a").body) == meet(
        embed("w0"), join(embed("w1"), embed("w2"))
    )
    assert after_trace(widget, parse_trace("?a !y").body) == meet(embed("w0"), embed("w2"))


def test_induce_ia_of_unconstrained_spec_starts_chaotic():
    s = aia_top(("a",), ("x",))
    i = induce_ia(s)
    assert i.initial == {"T"}
    assert i.succ("T", "x") == {"T"}
    assert i.succ("T", "a") == frozenset()


def test_after_top_absorbs(machine):
    for word in ("?a", "?a ?b !c", "?take !t+m"):
        assert after(machine, top(), parse_trace(word).body) == top()


def test_after_alphabet_error(machine):
    with pytest.raises(AlphabetError):
        after_trace(machine, parse_trace("?zap").body)
    # top and bottom have no clause whose image would look the label up
    for e in (bot(), top()):
        with pytest.raises(AlphabetError):
            machine.step(e, "nope")


def test_membership_and_verdicts(machine, widget):
    assert not ftrace_member(machine, parse_trace("?on ?b !t"))
    assert ftrace_member(machine, parse_trace("?on ?b !t+m"))
    assert not ftrace_member(machine, parse_trace("?on ~b"))
    assert ftrace_member(machine, parse_trace("~a"))
    status, cfg = trace_verdict(widget, parse_trace("?b").body)
    assert status is TraceStatus.UNDERSPECIFIED and cfg == top()
    status, _ = trace_verdict(machine, parse_trace("?on ?b !t").body)
    assert status is TraceStatus.FORBIDDEN
    status, cfg = trace_verdict(machine, parse_trace("?on").body)
    assert status is TraceStatus.ALLOWED and cfg.states() == {"m1", "m3", "m5", "m8"}


def test_inputs_may_not_target_bottom():
    with pytest.raises(ModelError):
        AIA(("q0",), ("a",), ("x",), {"q0": {"a": bot()}}, embed("q0"))


def test_composition_with_top_is_neutral(widget):
    t = aia_top(widget.inputs, widget.outputs)
    both = conj(widget, t)
    words = universe(widget.inputs, widget.outputs, 4)
    assert aia_member_set(both, words) == aia_member_set(widget, words)


def test_conj_disj_are_intersection_union():
    rng = SplitMix64(31)
    words = universe(("a", "b"), ("x", "y"), 4)
    for _ in range(25):
        s1 = rand_aia(rng, name="s1")
        s2 = rand_aia(rng, name="s2")
        m1 = aia_member_set(s1, words)
        m2 = aia_member_set(s2, words)
        assert aia_member_set(conj(s1, s2), words) == m1 & m2
        assert aia_member_set(disj(s1, s2), words) == m1 | m2


def test_top_bot_trace_sets():
    words = universe(("a",), ("x",), 4)
    assert aia_member_set(aia_top(("a",), ("x",)), words) == {str(w) for w in words}
    assert aia_member_set(aia_bot(("a",), ("x",)), words) == set()


def test_composition_alphabet_mismatch(machine, widget):
    with pytest.raises(AlphabetError):
        conj(machine, widget)


def test_composition_renames_on_collision(widget):
    other = AIA(
        ("w0",),
        widget.inputs,
        widget.outputs,
        {"w0": {"x": embed("w0")}},
        embed("w0"),
        name="clash",
    )
    both = conj(widget, other)
    assert "w0#1" in both.states and "w0#2" in both.states


def test_induce_aia_shapes(milkdrinks, coffee):
    alt = induce_aia(milkdrinks)
    assert alt.transitions["s0"]["b"] == join(embed("s1"), embed("s2"))
    assert alt.transitions["s0"]["a"] == top()        # unspecified input
    assert alt.transitions["s0"]["c+m"] == bot()      # no such output here
    assert induce_aia(IA((), ("a",), ("x",), {}, ())).initial == bot()
    assert induce_aia(coffee).initial == embed("s0")


def test_induce_aia_is_the_closure():
    rng = SplitMix64(32)
    words = universe(("a", "b"), ("x", "y"), 4)
    for _ in range(30):
        i = rand_ia(rng)
        assert aia_member_set(induce_aia(i), words) == ia_fcl_set(i, words)


def test_induce_aia_is_valid_by_construction():
    # induce_aia skips the constructor's checks: the checked constructor
    # must accept its parts, and build the same automaton from a sparse
    # table of joins made apart from induce_aia
    def checked(i):
        trans = {q: {l: join_all(map(embed, ss)) for l, ss in row.items()}
                 for q, row in i.transitions.items()}
        return AIA(i.states, i.inputs, i.outputs, trans,
                   join_all(map(embed, i.initial)), name=f"aia({i.name})")

    rng = SplitMix64(18)
    draws = [rand_ia(rng) for _ in range(200)]
    # no initial state, states without rows, inputs without transitions anywhere
    draws.append(IA(("p", "q"), ("a", "b"), ("x",), {"p": {"x": {"q"}}}, (), name="sparse"))
    seen = dict.fromkeys(("empty initial", "state without row", "input never taken"), 0)
    for i in draws:
        alt = induce_aia(i)
        assert alt == checked(i)
        assert alt == AIA(alt.states, alt.inputs, alt.outputs, alt.transitions, alt.initial)
        assert alt.name == f"aia({i.name})"
        seen["empty initial"] += not i.initial
        seen["state without row"] += any(q not in i.transitions for q in i.states)
        seen["input never taken"] += any(
            all(a not in row for row in i.transitions.values()) for a in i.inputs
        )
    assert all(seen.values()), seen


def test_conj_and_disj_are_valid_by_construction():
    # conj and disj skip the constructor's checks: on spec pairs with
    # shared and with disjoint state names, and with top, bottom and
    # compound initial configurations, each result equals the checked
    # constructor's automaton of the operands' states and rows, renamed
    # apart where names are shared, and the operands stay as they were
    def checked(x):
        return AIA(x.states, x.inputs, x.outputs, x.transitions, x.initial, name=x.name)

    rng = SplitMix64(179)
    seen = dict.fromkeys(("shared", "disjoint", "top initial", "bottom initial"), 0)
    for n in range(120):
        a = rand_aia(rng, n_states=5, name="l")
        b = rand_aia(rng, n_states=5, name="r")
        if n % 2:  # disjoint names
            b = rename_states(b, {q: "r" + q for q in b.states})
        if n % 5 == 0:
            initial = top() if n % 10 == 0 else bot()
            b = AIA(b.states, b.inputs, b.outputs, b.transitions, initial, name=b.name)
        before = (checked(a), checked(b))
        ra, rb = a, b
        if a.states & b.states:
            ra = rename_states(a, {q: q + "#1" for q in a.states})
            rb = rename_states(b, {q: q + "#2" for q in b.states})
            seen["shared"] += 1
        else:
            seen["disjoint"] += 1
        for op, word, combine in ((conj, "and", meet), (disj, "or", join)):
            got = op(a, b)
            assert got == checked(got) == AIA(
                ra.states | rb.states, a.inputs, a.outputs, {**ra.transitions, **rb.transitions},
                combine(ra.initial, rb.initial))
            assert got.name == f"(l {word} r)"
            assert type(got.inputs) is type(got.outputs) is frozenset
            seen["top initial"] += got.initial.is_top
            seen["bottom initial"] += got.initial.is_bot
        assert (a, b) == before
    # 60 and 60 pairs; 48 top and 42 bottom initial configurations
    assert min(seen.values()) >= 10, seen


def test_induce_ia_bottom_is_empty():
    s = aia_bot(("a",), ("x",))
    i = induce_ia(s)
    assert not i.initial and not i.states


def test_induce_ia_chaotic_state():
    # one state whose input leads to unconstrained behaviour; states of
    # the induced automaton are named by their clause as a conjunction,
    # the empty (chaotic) clause printing as the unconstrained constant
    s = AIA(("q0",), ("a",), ("x",), {"q0": {"x": embed("q0")}}, embed("q0"))
    i = induce_ia(s)
    assert i.initial == {"q0"}
    assert i.succ("q0", "a") == frozenset()  # fully underspecified: no edge
    chaos = "T"
    assert chaos not in i.states  # chaos appears only when reachable
    s2 = AIA(("q0",), ("a",), ("x",), {"q0": {"a": top(), "x": top()}}, embed("q0"))
    i2 = induce_ia(s2)
    assert i2.succ("q0", "x") == {chaos}
    assert i2.succ(chaos, "x") == {chaos}      # outputs loop at chaos
    assert i2.succ(chaos, "a") == frozenset()  # inputs stay underspecified
    # so every refusal and, up to closure, every continuation is allowed
    from altia.ia import fcl_member

    assert fcl_member(i2, parse_trace("!x ~a"))
    assert fcl_member(i2, parse_trace("!x ?a !x !x"))


# State names that each need quoting, mixed with plain ones; their
# sorted order differs from that of their quoted forms.
AWKWARD = ("T", "F", "a&b", "x y", "~q", '"', "p", "q0")
# Names whose quoted forms, clause texts and sorted name lists order
# differently: "a" is a prefix of "a b" and "a_1", whose quoted form
# sorts first, "q10" sorts before "q2", and '"T"' and "~q" are quoted.
PREFIXED = ("a", "a b", "a_1", "A", '"T"', "~q", "q10", "q2")


def test_mask_names_render_wide_configurations():
    # The kernel's names of mask antichains against expr_str of the
    # configurations, on joins and meets of several draws, so that most
    # have many clauses, and back through the parser.  The kernel sorts
    # clauses by their bit indices and writes each from quoted names it
    # keeps; clause orders that a sort by text would get wrong must
    # appear: two clauses where one's text is a proper prefix of the
    # other's, or whose texts sort unlike their name lists.  Each name is
    # rendered once per kernel: asking again, also with an equal mask
    # antichain built apart, returns the same object.
    from altia import build_tester, det
    from altia.io import parse_expr
    from altia.lattice import expr_str, join_all, quote_name

    def text(clause):
        return "&".join(map(quote_name, clause))

    for names, seed in ((AWKWARD, 909), (PREFIXED, 912)):
        s = AIA(names, (), (), {}, top())
        k = s._masks()
        rng = SplitMix64(seed)
        wide = prefix = unlike = 0
        for _ in range(300):
            parts = [rand_config(rng, names) for _ in range(2 + rng.below(4))]
            e = (join_all if rng.below(2) else meet_all)(parts)
            wide += len(e.clauses) >= 3
            lists = sorted(sorted(c) for c in e.clauses)
            pairs = [(a, b) for i, a in enumerate(lists) for b in lists[i + 1:]]
            prefix += any(text(b).startswith(text(a)) or text(a).startswith(text(b))
                          for a, b in pairs)
            unlike += any(text(a) > text(b) for a, b in pairs)
            m = k.encode(e)
            name = k.name(m)
            assert name == expr_str(e) == expr_str(k.decode(m))
            assert k.name(m) is name and k.name(k.intern(frozenset(set(k.objs[m])))) is name
            assert parse_expr(expr_str(e)) == e
        assert wide >= 120  # 135 and 136 of the 300 on these seeds
        if names == PREFIXED:
            assert prefix >= 15 and unlike >= 60  # 19 and 92 on this seed
    # det and build_tester name the same table once: the same strings
    for names in (AWKWARD, PREFIXED):
        for s in rand_aia_stepping(SplitMix64(911), 20, n_states=len(names)):
            s = rename_states(s, {q: names[int(q[1:])] for q in s.states})
            d, t = det(s), build_tester(s)
            named = {q: q for q in d.states}
            assert t.ia.states == d.states | {"pass", "fail"}
            assert all(named[q] is q for q in t.ia.states - {"pass", "fail"})


def test_induce_ia_names_states_by_their_clause():
    # Every state of the induced ia is expr_str of one reachable clause,
    # "T" for the empty one; the clauses are searched here by name.
    from altia.lattice import Config, expr_str

    for s in rand_aia_stepping(SplitMix64(910), 40, n_states=len(AWKWARD)):
        s = rename_states(s, {q: AWKWARD[int(q[1:])] for q in s.states})
        seen, todo = set(), list(s.initial.clauses)
        while todo:
            c = todo.pop()
            if c not in seen:
                seen.add(c)
                for l in s.labels:
                    img = meet_all(s.transitions[q][l] for q in c)
                    todo += [d for d in img.clauses if d or l in s.outputs]
        assert induce_ia(s).states == {expr_str(Config([c])) for c in seen}


def test_induce_ia_preserves_traces_up_to_closure():
    rng = SplitMix64(33)
    words = universe(("a", "b"), ("x", "y"), 4)
    for _ in range(30):
        s = rand_aia(rng, n_states=3)
        back = induce_ia(s)
        assert ia_fcl_set(back, words) == aia_member_set(s, words)


def _induce_ia_by_steps(s):
    # induce_ia's search written over the public Config values of
    # AIA.step: each reachable clause as a one-clause Config, stepped
    # label by label, its image's clauses its successors; bottom gives no
    # edge, and neither does top under an input
    from altia.lattice import Config, expr_str

    start = [Config([c]) for c in s.initial.clauses]
    order, seen, trans = list(start), set(start), {}
    for c in order:
        row = {}
        for l in sorted(s.labels):
            t = s.step(c, l)
            if t.is_bot or t.is_top and l in s.inputs:
                continue
            succs = [Config([d]) for d in t.clauses]
            row[l] = {expr_str(d) for d in succs}
            for d in succs:
                if d not in seen:
                    seen.add(d)
                    order.append(d)
        trans[expr_str(c)] = row
    return IA(set(trans), s.inputs, s.outputs, trans, {expr_str(c) for c in start},
              name=f"ia({s.name})")


def test_induce_ia_matches_public_steps_transition_by_transition():
    # Every state, initial state and transition of induce_ia against the
    # reference over public steps, on specs with top, bottom and compound
    # initial configurations, awkward state names, kernels above
    # _UP_MAX_STATES and conj-built specs.  Top targets of the first
    # output and of inputs, bottom targets and the chaotic clause all
    # occur.
    from altia._kernel import _UP_MAX_STATES

    rng = SplitMix64(180)
    specs = [rand_aia(rng, n_states=6) for _ in range(60)]
    specs += [rename_states(s, {q: AWKWARD[int(q[1:])] for q in s.states})
              for s in rand_aia_stepping(rng, 10, n_states=len(AWKWARD))]
    large: list = []  # 1,000 to 2,500 clauses each
    while len(large) < 4:
        s = rand_aia(rng, n_states=_UP_MAX_STATES + 2)
        if len(s.states) > _UP_MAX_STATES and not s.initial.is_top and not s.initial.is_bot:
            large.append(s)
    specs += large
    specs += [conj(rand_aia(rng, n_states=4), rand_aia(rng, n_states=4)) for _ in range(10)]
    specs += [_rand_trivial_aia(rng, n) for n in (3, 6, 9)]
    seen = dict.fromkeys(("top initial", "bottom initial", "compound", "large", "chaos",
                          "first output to top", "input to top", "to bottom"), 0)
    for s in specs:
        i = induce_ia(s)
        ref = _induce_ia_by_steps(s)
        assert i == ref and i.name == ref.name
        first_output = min(s.outputs)
        for row in ref.transitions.values():
            seen["first output to top"] += "T" in row.get(first_output, ())
        seen["chaos"] += "T" in ref.states
        seen["top initial"] += s.initial.is_top
        seen["bottom initial"] += s.initial.is_bot
        seen["compound"] += len(s.initial.clauses) > 1
        seen["large"] += len(s.states) > _UP_MAX_STATES
        for q in s.states:
            for l in s.labels:
                t = s.transitions[q][l]
                seen["input to top"] += l in s.inputs and t.is_top
                seen["to bottom"] += t.is_bot
    # 7 top, 18 bottom and 30 compound initial configurations; 38 specs
    # reach the chaotic clause, 76 rows step the first output to it
    assert seen.pop("large") == 4 and min(seen.values()) >= 5, seen


def test_after_distributes_over_configs():
    rng = SplitMix64(34)
    for _ in range(150):
        s = rand_aia(rng)
        e1 = rand_config(rng, s.states)
        e2 = rand_config(rng, s.states)
        tr = rand_trace(rng, s.inputs, s.outputs, 5)
        assert after(s, join(e1, e2), tr) == join(after(s, e1, tr), after(s, e2, tr))
        assert after(s, meet(e1, e2), tr) == meet(after(s, e1, tr), after(s, e2, tr))


def test_after_concatenates():
    rng = SplitMix64(35)
    for _ in range(150):
        s = rand_aia(rng)
        e = rand_config(rng, s.states)
        t1 = rand_trace(rng, s.inputs, s.outputs, 3)
        t2 = rand_trace(rng, s.inputs, s.outputs, 3)
        assert after(s, e, t1 + t2) == after(s, after(s, e, t1), t2)


def test_membership_is_input_failure_closed():
    rng = SplitMix64(36)
    for _ in range(40):
        s = rand_aia(rng)
        for body in (rand_trace(rng, s.inputs, s.outputs, 3) for _ in range(10)):
            for a in sorted(s.inputs):
                if ftrace_member(s, FTrace(body, a)):
                    cont = rand_trace(rng, s.inputs, s.outputs, 3)
                    assert ftrace_member(s, FTrace(body + (inp(a),) + cont))


def test_inputs_never_reach_bottom():
    rng = SplitMix64(37)
    for _ in range(100):
        s = rand_aia(rng)
        e = rand_config(rng, s.states)
        if e.is_bot:
            continue
        for a in sorted(s.inputs):
            assert not after(s, e, (inp(a),)).is_bot


def test_recursive_trace_decomposition():
    # membership of a nonbottom configuration: empty word, refusals that
    # hit top in one step, and one-step unfoldings of every label
    rng = SplitMix64(38)
    words4 = universe(("a", "b"), ("x", "y"), 3)
    for _ in range(15):
        s = rand_aia(rng)
        reachable = [after_trace(s, rand_trace(rng, s.inputs, s.outputs, 3)) for _ in range(8)]
        for e in reachable:
            if e.is_bot:
                continue
            sub = AIA(s.states, s.inputs, s.outputs, s.transitions, e, name="sub")
            for w in words4:
                got = aia_member(sub, w)
                if w.failure is not None and not w.body:
                    assert got == s.step(e, w.failure).is_top
                elif not w.body and w.failure is None:
                    assert got
                else:
                    lab = w.body[0]
                    rest = AIA(
                        s.states, s.inputs, s.outputs, s.transitions,
                        s.step(e, lab.name), name="rest",
                    )
                    assert got == aia_member(rest, FTrace(w.body[1:], w.failure))


def test_membership_against_reference(machine, widget):
    words = universe(machine.inputs, machine.outputs, 4)
    for w in words[:600]:
        assert ftrace_member(machine, w) == aia_member(machine, w)
    words_w = universe(widget.inputs, widget.outputs, 5)
    for w in words_w:
        assert ftrace_member(widget, w) == aia_member(widget, w)


def test_step_is_substitution_semantically():
    # A configuration holds under a valuation of the states iff one of its
    # clauses has all members true.  Stepping replaces each state by its
    # target, so step(e, l) holds under V iff e holds under the valuation
    # q -> [T(q, l) holds under V].  The oracle reads only clause sets; it
    # uses none of the lattice operations the step and its memos are built on.
    def holds(e, v):
        return any(all(v[q] for q in c) for c in e.clauses)

    rng = SplitMix64(97)
    specs = rand_aia_stepping(rng, 30, n_states=6)
    # p0 & ... & p4 steps to a 32-clause image, too wide for the clause memo
    wide = {f"p{k}": {"x": embed(f"a{k}") | embed(f"b{k}")} for k in range(5)}
    states = [*wide, *(f"{c}{k}" for c in "ab" for k in range(5))]
    specs.append(AIA(states, (), ("x",), wide, meet_all(embed(q) for q in wide)))
    stepping = wide = 0
    for s in specs:
        states = sorted(s.states)
        table = dict(_rows(s._masks()))
        stepping += bool(table)
        reached = [*map(s._masks().decode, table), top(), bot()]
        unreached = [rand_expr(rng, states) for _ in range(100)] if states else []
        # wide draws: joins of three or more clause images go on up-sets
        unreached += [rand_wide_config(rng, states) for _ in range(40)] if states else []
        unreached = [e for e in unreached if e not in reached]
        wide += sum(len(e.clauses) >= 3 for e in unreached)
        for e in reached + unreached:  # the unreached ones meet a filled clause memo
            for l in sorted(s.labels):
                succ = s.step(e, l)
                assert succ == substitute(e, {q: s.transitions[q][l] for q in s.states})
                for _ in range(32):
                    v = {q: rng.below(2) == 1 for q in states}
                    w = {q: holds(s.transitions[q][l], v) for q in states}
                    assert holds(succ, v) == holds(e, w)
    assert stepping == len(specs) == 31 and wide >= 250  # 299 on this seed


def test_step_returns_one_object_per_successor():
    # Equal successors reached apart are one object per automaton, and each
    # encodes back to the id the searches step, through the kernel's
    # boundary memo (see the _kernel docstring for what that saves).
    p_row = {"x": join(embed("q"), embed("r")), "y": join(embed("r"), embed("q"))}
    s = AIA({"p", "q", "r"}, set(), {"x", "y"}, {"p": p_row, "q": {"x": embed("p")}}, embed("p"))
    e = s.step(s.initial, "x")
    assert e is s.step(s.initial, "y")
    assert s.step(e, "x") is s.initial  # q|r --x--> p|F, built afresh
    stepping = 0
    for s in rand_aia_stepping(SplitMix64(71), 20, n_states=5):
        table = dict(_rows(s._masks()))
        stepping += bool(table)
        one: dict = {}
        for e in map(s._masks().decode, table):
            for l in sorted(s.labels):
                t = s.step(e, l)
                assert one.setdefault(t, t) is t
    assert stepping == 20


def test_reachable_rows_hold_the_table_keys():
    # The kernel numbers each configuration value once, so every nontrivial
    # successor id in the rows of search._rows is a key of the table, the
    # searches and relabellings find it by its id, and no two ids of a
    # kernel hold equal values, top (0) and bottom (1) among them.  det's
    # automaton, whose rows are seeded, keeps both.  The specs' kernels are small
    # enough to join three or more clause images on up-sets, and those
    # joins' successors are numbered the same way.
    from altia import det
    from altia._kernel import _UP_MAX_STATES

    entries = wide = 0
    specs = rand_aia_stepping(SplitMix64(72), 30, n_states=6)
    specs += rand_aia_stepping(SplitMix64(73), 10, n_states=_UP_MAX_STATES - 3)
    for s in specs:
        assert s._masks().small
        for a in (s, det(s)):
            k = a._masks()
            table = dict(_rows(k))
            for m, row in table.items():
                for t in row:
                    if t > k.bottom:
                        assert t in table
                        entries += 1
                        wide += len(k.objs[m]) >= 3
                    else:
                        assert k.objs[t] == (k.top_masks if t == k.top else k.bottom_masks)
            assert len(k.ids) == len(k.objs) == len(k.rows)
            assert all(k.ids[m] == i for i, m in enumerate(k.objs))
            assert len(set(k.objs)) == len(k.objs)
    assert entries >= 6000 and wide >= 2000  # 8,258 and 2,522 on these seeds
    # a public step of a compound configuration built apart gives the same
    # Config object every time, also for an equal one built apart again
    s = specs[0]
    apart = [Config(e.clauses) for e in map(s._masks().decode, dict(_rows(s._masks())))]
    compound = [e for e in apart if len(e.clauses) >= 3]
    assert compound
    for e in compound:
        for l in sorted(s.labels):
            assert s.step(e, l) is s.step(e, l) is s.step(Config(e.clauses), l)


def test_kernel_top_and_bottom_are_one_object_each():
    # The searches test top and bottom by id: every step result equal to
    # the top or bottom mask antichain is id 0 or 1, whose objects are the
    # top and bottom objects every kernel shares, and so is a top or bottom
    # initial configuration, also one built apart.  Clause images, which a
    # step tests by identity, are those two objects too.
    # Specs start at top, bottom and compound configurations, have kernels
    # on both sides of _UP_MAX_STATES, and include det's seeded kernels and
    # conj-built automata.
    from altia import det
    from altia._kernel import _UP_MAX_STATES, _MaskKernel
    from altia.lattice import Config
    from altia.search import Search

    rng = SplitMix64(171)
    small = [rand_aia(rng, n_states=6) for _ in range(40)]
    large: list = []
    while len(large) < 6:
        s = rand_aia(rng, n_states=2 * _UP_MAX_STATES)
        if len(s.states) > _UP_MAX_STATES:
            large.append(s)
    specs = small + large
    for s in small[:8] + large[:2]:
        q = sorted(s.states)
        for initial in (top(), bot(), Config([()]), Config([]), embed(q[0]) & embed(q[-1]),
                        rand_wide_config(rng, q)):
            specs.append(AIA(s.states, s.inputs, s.outputs, s.transitions, initial))
    specs += [det(s) for s in small[:20]]
    specs += [conj(a, b) for a, b in zip(small[:10], small[10:20])]
    seen = {"top": 0, "bottom": 0, "top initial": 0, "bottom initial": 0, "compound": 0,
            "large": 0, "seeded": 0}
    for a in specs:
        k = a._masks()
        assert (k.top, k.bottom) == (0, 1)
        assert k.objs[0] is k.top_masks == frozenset((0,))
        assert k.objs[1] is k.bottom_masks == frozenset()
        assert k.top_masks is _MaskKernel.top_masks
        assert (k.initial == 0) == a.initial.is_top
        assert (k.initial == 1) == a.initial.is_bot
        assert k.encode(Config([()])) == 0 and k.encode(Config([])) == 1
        seen["top initial"] += a.initial.is_top
        seen["bottom initial"] += a.initial.is_bot
        seen["compound"] += len(a.initial.clauses) > 1
        seeded = any(t is not None for row in k.rows[2:] for t in row)
        search = Search([k.initial, 0, 1])
        for i, m in search:
            if i == 150:
                break
            for j, l in enumerate(k.labels):
                t = k.step(m, j)
                assert (t == 0) == (k.objs[t] == _MaskKernel.top_masks)
                assert (t == 1) == (k.objs[t] == frozenset())
                seen["top"] += t == 0
                seen["bottom"] += t == 1
                seen["large"] += not k.small
                seen["seeded"] += seeded
                search.push(t)
                for c in k.objs[m]:
                    img = k.image(c, l)
                    assert (img is k.top_masks) == (img == _MaskKernel.top_masks)
                    assert (img is k.bottom_masks) == (img == frozenset())
    # 1,982 tops, 727 bottoms, 31 and 31 trivial and 18 compound initial
    # configurations, 7,252 steps of large kernels, 2,640 of seeded ones
    assert seen["top"] >= 1500 and seen["bottom"] >= 500, seen
    assert min(seen["top initial"], seen["bottom initial"], seen["compound"]) >= 15, seen
    assert seen["large"] >= 5000 and seen["seeded"] >= 2000, seen


def test_threads_number_each_value_once():
    # Threads that share a kernel number the values they meet under its
    # lock.  With a switch interval of a microsecond, six threads that
    # intern the same 1,000 new values in the same order leave one id per
    # value in each of 40 kernels (without the lock about half the kernels
    # got a value twice), and six threads of det, build_tester, leq_aia and
    # search._rows over one automaton give the sequential det.
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    from altia import build_tester, det, leq_aia

    def one_id_per_value(k):
        return len(k.ids) == len(k.objs) == len(set(k.objs)) == len(k.rows) and all(
            k.ids[m] == i for i, m in enumerate(k.objs))

    def table(a):
        return dict(_rows(a._masks()))

    values = [frozenset((c,)) for c in range(1 << 5, (1 << 5) + 1000)]
    specs = rand_aia_stepping(SplitMix64(174), 8, n_states=7)
    expected = [det(s) for s in specs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            k = AIA(["p"], (), ("x",), {}, embed("p"))._masks()
            gate = threading.Barrier(6)

            def intern_all(k=k, gate=gate):
                gate.wait(timeout=60)
                for m in values:
                    k.intern(m)

            threads = [threading.Thread(target=intern_all) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert one_id_per_value(k) and len(k.objs) == 3 + len(values)
        with ThreadPoolExecutor(max_workers=6) as pool:
            for s, want in zip(specs, expected):
                shared = AIA(s.states, s.inputs, s.outputs, s.transitions, s.initial, s.name)
                k = shared._masks()  # built once, before the threads start
                jobs = [det, build_tester, lambda a: leq_aia(a, a), table] * 3
                results = [f.result(timeout=60) for f in [pool.submit(j, shared) for j in jobs]]
                assert one_id_per_value(k)
                assert all(d == want and d.name == want.name for d in results[::4])
    finally:
        sys.setswitchinterval(old)


def test_threads_fill_the_rows_of_fresh_ids():
    # Each id's row is one list, made when the id is numbered and never
    # replaced, so a slot one thread fills is never lost to another thread
    # that read the row earlier, and every row full_row returns has each
    # slot filled.  The row read of a fresh id is the list its steps fill.
    # With a switch interval of a microsecond, three threads walk the table
    # through full_row (search._rows) and three step each reached id label
    # by label, last label first, on cold kernels; every row they read and
    # the kernel's rows at the end hold the sequential table's values.
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    def fresh(s):
        return AIA(s.states, s.inputs, s.outputs, s.transitions, s.initial)._masks()

    def values(k, rows):
        return {k.objs[e]: tuple(k.objs[t] for t in r) for e, r in rows}

    def walk_rows(k, gate):
        gate.wait(timeout=60)
        rows = [(e, tuple(r)) for e, r in _rows(k)]
        assert all(None not in r for _, r in rows)
        return values(k, rows)

    def walk_steps(k, gate):
        gate.wait(timeout=60)
        reached, order = {k.initial}, [k.initial]
        for e in order:
            for j in reversed(range(len(k.labels))):
                t = k.step(e, j)
                if t > k.bottom and t not in reached:
                    reached.add(t)
                    order.append(t)
        return values(k, [(e, k.full_row(e)) for e in order])

    specs = rand_aia_stepping(SplitMix64(175), 4, n_states=7)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            for s in specs:
                ref = fresh(s)
                want = values(ref, _rows(ref))
                k = fresh(s)
                read = {e: k.row(e) for e in map(k.intern, want)}
                assert all(k.full_row(e) is r and k.row(e) is r for e, r in read.items())
                assert values(k, read.items()) == want
                for _ in range(5):
                    k, gate = fresh(s), threading.Barrier(6)
                    jobs = [pool.submit(w, k, gate) for w in (walk_rows, walk_steps) * 3]
                    assert all(f.result(timeout=60) == want for f in jobs)
                    assert values(k, ((k.ids[m], k.rows[k.ids[m]]) for m in want)) == want
    finally:
        sys.setswitchinterval(old)


def test_step_is_substitution_on_larger_specs():
    # The mask kernel against the name-based lattice, on specs of up to ten
    # states: every reachable configuration and label, and configurations
    # no search reached, which meet a filled clause-image memo.  Every
    # successor must come back canonical: re-canonicalizing changes nothing.
    from altia.lattice import Config

    rng = SplitMix64(606)
    stepping = 0
    for s in rand_aia_stepping(rng, 16, n_states=10):
        states = sorted(s.states)
        table = dict(_rows(s._masks()))
        stepping += bool(table)
        reached = [*map(s._masks().decode, table), top(), bot()]
        unreached = [e for e in (rand_expr(rng, states) for _ in range(40)) if e not in reached]
        for e in reached + unreached:
            for l in sorted(s.labels):
                succ = s.step(e, l)
                assert succ == substitute(e, {q: s.transitions[q][l] for q in s.states})
                assert Config(succ.clauses) == succ
    assert stepping == 16


def _rand_trivial_aia(rng, n_states, name="triv"):
    # Mostly trivial targets, as in conjunctions of views: an input goes to
    # top and an output to bottom three draws in five; the other targets
    # are rand_config draws, so some of them are trivial too.
    states = [f"{name}{k}" for k in range(n_states)]
    trans = {}
    for q in states:
        row = {a: top() if rng.below(5) < 3 else rand_config(rng, states, allow_bot=False)
               for a in ("a", "b")}
        row.update((x, bot() if rng.below(5) < 3 else rand_config(rng, states))
                   for x in ("x", "y"))
        trans[q] = row
    initial = bot()
    while initial.is_top or initial.is_bot:
        initial = rand_wide_config(rng, states)
    return AIA(states, ("a", "b"), ("x", "y"), trans, initial, name=name)


def test_trivial_targets_step_like_substitution():
    # A clause with a member whose target is bottom steps to bottom, a
    # clause whose members all go to top steps to top, and any other clause
    # meets the targets of its members not going to top; a join stops at
    # the first top image.  On specs whose targets are mostly trivial, with
    # kernels on both sides of _UP_MAX_STATES and conj-built ones, every
    # step of the first reachable configurations equals the substitution,
    # and image returns the kernel's own top and bottom objects for such
    # clauses.
    from altia._kernel import _UP_MAX_STATES
    from altia.search import Search

    rng = SplitMix64(177)
    specs = [_rand_trivial_aia(rng, n) for n in (3, 5, 8, _UP_MAX_STATES) * 3]
    specs += [_rand_trivial_aia(rng, n) for n in (_UP_MAX_STATES + 1, 16, 20) * 3]
    for _ in range(3):
        specs += [conj(_rand_trivial_aia(rng, 4, "l"), _rand_trivial_aia(rng, 5, "r")),
                  conj(_rand_trivial_aia(rng, 7, "l"), _rand_trivial_aia(rng, 8, "r")),
                  conj(conj(_rand_trivial_aia(rng, 5, "l"), _rand_trivial_aia(rng, 5, "m")),
                       _rand_trivial_aia(rng, 6, "r"))]
    seen = dict.fromkeys(("free inputs", "dead outputs", "inputs", "outputs", "small", "large",
                          "steps", "large steps", "top", "bottom", "all free", "dead member"), 0)
    for s in specs:
        for q in s.states:
            seen["free inputs"] += sum(s.transitions[q][a].is_top for a in s.inputs)
            seen["dead outputs"] += sum(s.transitions[q][x].is_bot for x in s.outputs)
            seen["inputs"] += len(s.inputs)
            seen["outputs"] += len(s.outputs)
        k = s._masks()
        seen["small" if k.small else "large"] += 1
        # the reachable configurations, then wide draws no search reached
        states = sorted(s.states)
        search = Search([k.initial, *(k.encode(rand_wide_config(rng, states)) for _ in range(20))])
        for i, e in search:
            if i == 400:
                break
            c = k.decode(e)
            for j, l in enumerate(k.labels):
                t = k.step(e, j)
                assert s.step(c, l) == substitute(c, {q: s.transitions[q][l] for q in s.states})
                seen["steps"] += 1
                seen["large steps"] += not k.small
                seen["top"] += t == k.top
                seen["bottom"] += t == k.bottom
                if t > k.bottom:
                    search.push(t)
        bits = [(1 << i, q) for i, q in enumerate(k.numbering.names)]
        for l in sorted(s.labels):
            free = [b for b, q in bits if s.transitions[q][l].is_top]
            dead = [b for b, q in bits if s.transitions[q][l].is_bot]
            live = [b for b, q in bits if not s.transitions[q][l].is_bot]
            for n in range(1, len(free) + 1):  # every free state, then all of them
                c = sum(free[:n])
                assert k.image(c, l) is k.top_masks
                seen["all free"] += 1
            for d in dead:  # a dead state with live ones around it
                for c in (d, d | sum(live[:2]), d | sum(live)):
                    assert k.image(c, l) is k.bottom_masks
                    seen["dead member"] += 1
    assert 2 * seen["free inputs"] >= seen["inputs"], seen
    assert 2 * seen["dead outputs"] >= seen["outputs"], seen
    assert seen["small"] >= 4 and seen["large"] >= 5, seen
    # 5,780 steps, 3,668 of them in large kernels, 2,328 to top and 1,568
    # to bottom; 479 all-free and 1,365 dead-member clauses
    assert seen["steps"] >= 4000 and seen["large steps"] >= 2000, seen
    assert seen["top"] >= 1500 and seen["bottom"] >= 1000, seen
    assert seen["all free"] >= 300 and seen["dead member"] >= 900, seen


def test_kernel_builds_a_label_record_on_its_first_step():
    # A cold kernel holds no per-label record.  On absorption (one or two
    # clauses, or a kernel above _UP_MAX_STATES states) the first step
    # under a label builds that label's record alone.  A row of three or
    # more clauses in a small kernel is filled whole by its first step,
    # which builds the record of every label, since it packs each
    # member's targets under all of them.  A record holds the states whose
    # target is bottom (dead) and top (free), and every state's target by
    # bit, bottom and top as the kernel's own objects.
    from altia._kernel import _UP_MAX_STATES

    rng = SplitMix64(178)
    seen = {"whole rows": 0, "absorbed": 0}
    for n in (3, 6, _UP_MAX_STATES, _UP_MAX_STATES + 4) * 3:
        s = _rand_trivial_aia(rng, n)
        states = sorted(s.states)
        narrow = embed(states[rng.below(n)]) | embed(states[rng.below(n)])
        for e in (rand_wide_config(rng, states), narrow):
            k = AIA(s.states, s.inputs, s.outputs, s.transitions, s.initial)._masks()
            assert not k.records and k.up is None
            e = k.encode(e)
            if e <= k.bottom:
                continue
            whole = k.small and len(k.objs[e]) > 2
            seen["whole rows" if whole else "absorbed"] += 1
            built = set()
            for j in reversed(range(len(k.labels))):
                l = k.labels[j]
                k.step(e, j)
                built.add(l)
                if whole:
                    assert set(k.records) == set(k.labels) and None not in k.row(e)
                    assert k.up is not None
                else:
                    assert set(k.records) == built and k.up is None
                for label, (dead, free, targets, _) in k.records.items():
                    for i, q in enumerate(k.numbering.names):
                        t = s.transitions[q][label]
                        assert (dead >> i & 1, free >> i & 1) == (t.is_bot, t.is_top)
                        if t.is_bot or t.is_top:
                            assert targets[i] is (k.bottom_masks if t.is_bot else k.top_masks)
                        assert k.numbering.decode(targets[i]) == t
    assert min(seen.values()) >= 3, seen


def test_up_set_joins_agree_with_absorption():
    # Kernels of at most _UP_MAX_STATES states join three or more clause
    # images on up-sets; larger kernels and narrower joins absorb the
    # union of the images, as every kernel did before.  On specs of each
    # size from one state to one past the bound, every step of the first
    # reachable configurations and of wide draws equals that absorption.
    from altia._kernel import _UP_MAX_STATES, _MaskKernel
    from altia.lattice import _mask_antichain
    from altia.search import Search

    rng = SplitMix64(151)
    up = {"steps": 0, "top targets": 0, "bottom targets": 0, "bottom images": 0, "top": 0}
    for n in range(1, _UP_MAX_STATES + 2):
        drawn = 0
        while drawn < 3:
            s = rand_aia(rng, n_states=n)
            if len(s.states) != n:
                continue
            drawn += 1
            k = s._masks()
            assert k.small == (n <= _UP_MAX_STATES)
            search, configs = Search([k.initial]), []
            for i, e in search:
                if i == 150:
                    break
                configs.append(e)
                for j in range(len(k.labels)):
                    t = k.step(e, j)
                    if t > 1:
                        search.push(t)
            states = sorted(s.states)
            configs += [k.encode(rand_wide_config(rng, states)) for _ in range(40)]
            for e in configs:
                m = k.objs[e]
                for j, l in enumerate(k.labels):
                    images = [k.image(c, l) for c in m]
                    expected = _mask_antichain(set().union(*images))
                    assert k.objs[k.step(e, j)] == expected
                    if len(m) >= 3 and k.small:
                        targets = [s.transitions[q][l] for c in m for q in k.numbering.clause(c)]
                        up["steps"] += 1
                        up["top targets"] += any(t.is_top for t in targets)
                        up["bottom targets"] += any(t.is_bot for t in targets)
                        up["bottom images"] += frozenset() in images
                        up["top"] += expected == _MaskKernel.top_masks
    assert min(up.values()) >= 20, up  # 7,836 up-set steps, 1,081 to top


def test_packed_rows_agree_with_absorption():
    # A row of three or more clauses in a kernel of at most _UP_MAX_STATES
    # states is filled whole from packed up-sets, one chunk of 2**n bits
    # per label.  Each row must equal per-label absorption of its clauses'
    # images, on alphabets of one label, of inputs only, of outputs only
    # and of six to eight labels, in kernels of every size from one state
    # to the bound.  Every row is first touched by a step under its last
    # label, then read whole with full_row.  A kernel of one or two states
    # has no configuration of three clauses: its rows absorb.
    from altia._kernel import _UP_MAX_STATES
    from altia.lattice import _mask_antichain
    from altia.search import Search

    alphabets = [((), ("x",)), (("a",), ()), (("a", "b", "c"), ()), ((), ("x", "y", "z")),
                 (("a", "b", "c"), ("x", "y", "z")),
                 (("a", "b", "c", "d"), ("w", "x", "y", "z")),
                 (("a", "b"), ("v", "w", "x", "y", "z"))]
    rng = SplitMix64(260)
    packed = dict.fromkeys(range(3, _UP_MAX_STATES + 1), 0)
    by_alphabet = [0] * len(alphabets)
    for n in range(1, _UP_MAX_STATES + 1):
        states = [f"q{i}" for i in range(n)]
        for a, (inputs, outputs) in enumerate(alphabets):
            trans = {q: {**{l: rand_config(rng, states, allow_bot=False) for l in inputs},
                         **{l: rand_config(rng, states) for l in outputs}} for q in states}
            starts = [rand_wide_config(rng, states) for _ in range(6)]
            k = AIA(states, inputs, outputs, trans, starts[0])._masks()
            assert k.small
            last = len(k.labels) - 1
            search = Search([k.encode(c) for c in starts])
            for i, e in search:
                if i == 60:
                    break
                if e <= k.bottom:
                    continue
                k.step(e, last)
                row = k.full_row(e)
                m = k.objs[e]
                for j, l in enumerate(k.labels):
                    images = [k.image(c, l) for c in m]
                    assert k.objs[row[j]] == _mask_antichain(set().union(*images))
                    search.push(row[j])
                if len(m) > 2:
                    packed[n] += 1
                    by_alphabet[a] += 1
    # 9 packed rows at 3 states, 66-289 above; 97-373 per alphabet, 1,950 in all
    assert min(packed.values()) >= 5 and min(by_alphabet) >= 50, (packed, by_alphabet)
    assert sum(packed.values()) >= 1500, packed


def _brute_antichain(masks):
    return frozenset(m for m in masks if not any(k != m and k & m == k for k in masks))


def test_mask_antichain_matches_brute_force():
    # fails when bit-count classes are visited largest first: a superset
    # met before its subset is then kept
    from itertools import product

    from altia.lattice import _mask_antichain

    rng = SplitMix64(13)
    for _ in range(500):
        masks = {rng.below(1 << 8) for _ in range(rng.below(14))}
        assert _mask_antichain(masks) == _brute_antichain(masks)
    # (a0|b0) & ... & (a9|b9) as a conjunction of ten views steps its one
    # clause to 1024 clauses of ten states each: one class, all kept
    views = [
        AIA({f"p{i}", f"a{i}", f"b{i}"}, (), ("x",),
            {f"p{i}": {"x": embed(f"a{i}") | embed(f"b{i}")}}, embed(f"p{i}"))
        for i in range(10)
    ]
    s = views[0]
    for v in views[1:]:
        s = conj(s, v)
    k = s._masks()
    succ = k.objs[k.step(k.encode(s.initial), k.index["x"])]
    picks = product(*((f"a{i}", f"b{i}") for i in range(10)))
    bit = k.numbering.bit
    raw = {sum(bit[q] for q in pick) for pick in picks}
    assert len(succ) == 1024 and succ == _brute_antichain(raw)
    # supersets of some of those clauses are absorbed
    wider = {m | bit["p0"] for m in sorted(raw)[::7]} | {m | bit["a0"] | bit["b0"] for m in raw}
    assert _mask_antichain(raw | wider) == succ


def test_step_encodes_configurations_built_apart():
    # The boundary memo keys on the value, not the object: a configuration
    # built apart from s steps to the very successor of its equal in s.
    s = AIA({"p", "q", "r"}, (), ("x",), {"p": {"x": embed("q") | embed("r")}},
            embed("p") & embed("q"))
    apart = meet(embed("q"), embed("p"))
    assert apart == s.initial and apart is not s.initial
    assert s.step(apart, "x") is s.step(s.initial, "x")
    # an undeclared state is refused, and the numbering of the states does
    # not grow by it
    bits = dict(s._masks().numbering.bit)
    with pytest.raises(ModelError):
        s.step(embed("zz") | embed("p"), "x")
    with pytest.raises(ModelError):
        after(s, embed("zz") | embed("p"), parse_trace("!x").body)
    with pytest.raises(ModelError):
        after(s, embed("zz"), ())
    assert s._masks().numbering.bit == bits


def test_constructor_checks():
    # Each check of the AIA and IA constructors, with its exact message.
    p = embed("p")
    for build, error, message in (
        (lambda: AIA({"p"}, {"a"}, {"a"}, {}, p), AlphabetError,
         "inputs and outputs overlap: ['a']"),
        (lambda: AIA({"p"}, {"a"}, {"x"}, {}, "p"), ModelError,
         "initial configuration must be a Config"),
        (lambda: AIA({"p"}, {"a"}, {"x"}, {}, embed("zz")), ModelError,
         "initial configuration uses undeclared states ['zz']"),
        (lambda: AIA({"p"}, {"a"}, {"x"}, {"zz": {}}, p), ModelError,
         "transition from undeclared state 'zz'"),
        (lambda: AIA({"p"}, {"a"}, {"x"}, {"p": {"b": p}}, p), AlphabetError,
         "transition on undeclared label 'b'"),
        (lambda: AIA({"p"}, {"a"}, {"x"}, {"p": {"x": embed("zz")}}, p), ModelError,
         "transition 'p' --x--> uses undeclared states ['zz']"),
        (lambda: IA({"p"}, {"a"}, {"a"}, {}, {"p"}), AlphabetError,
         "inputs and outputs overlap: ['a']"),
        (lambda: IA({"p"}, {"a"}, {"x"}, {}, {"zz"}), ModelError,
         "initial states ['zz'] not declared"),
        (lambda: IA({"p"}, {"a"}, {"x"}, {"zz": {}}, {"p"}), ModelError,
         "transition from undeclared state 'zz'"),
        (lambda: IA({"p"}, {"a"}, {"x"}, {"p": {"b": {"p"}}}, {"p"}), AlphabetError,
         "transition on undeclared label 'b'"),
        (lambda: IA({"p"}, {"a"}, {"x"}, {"p": {"x": {"zz"}}}, {"p"}), ModelError,
         "transition 'p' --x--> targets undeclared states ['zz']"),
    ):
        with pytest.raises(error) as err:
            build()
        assert str(err.value) == message


def test_rename_states_must_be_injective():
    s = AIA({"p", "q"}, {"a"}, {"x"}, {}, embed("p"))
    with pytest.raises(ModelError) as err:
        rename_states(s, {"p": "r", "q": "r"})
    assert str(err.value) == "state renaming must be injective"
