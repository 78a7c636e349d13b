import pytest

from altia import (
    AIA,
    aia_top,
    after_trace,
    build_tester,
    check_deterministic,
    det,
    induce_ia,
    leq_aia,
)
from altia.aia import ftrace_member
from altia.determinize import DEFAULT_CAP
from altia.errors import ExplorationLimitError
from altia.io import parse_trace
from altia.lattice import Kind, bot, classify, embed, expr_str, top
from altia.rng import SplitMix64
from altia.search import _rows

from oracles import (
    aia_member_set,
    rand_aia,
    rand_aia_stepping,
    rand_trace,
    rand_wide_config,
    universe,
)


def cfg_after(s, text):
    return after_trace(s, parse_trace(text).body)


def test_det_widget_structure(widget):
    d = det(widget)
    e_ab = cfg_after(widget, "?a")        # w0 and (w1 or w2)
    e_2 = cfg_after(widget, "?a !y")      # w0 and w2
    assert set(d.states) == {"w0", str(e_ab), str(e_2)}
    t = d.transitions
    assert t["w0"]["a"] == embed(str(e_ab))
    assert t["w0"]["x"] == embed("w0")
    assert t["w0"]["y"] == embed("w0")
    assert t["w0"]["b"] == top()
    assert t[str(e_ab)]["a"] == embed(str(e_ab))
    assert t[str(e_ab)]["x"] == embed("w0")
    assert t[str(e_ab)]["y"] == embed(str(e_2))
    assert t[str(e_ab)]["b"] == top()
    assert t[str(e_2)]["a"] == embed(str(e_ab))
    assert t[str(e_2)]["b"] == embed("w0")
    assert t[str(e_2)]["y"] == embed(str(e_2))
    assert t[str(e_2)]["x"] == bot()      # no x once w2 is required
    assert d.initial == embed("w0")


def test_det_machine_structure(machine):
    d = det(machine)
    e_on = cfg_after(machine, "?on")
    e_a = cfg_after(machine, "?on ?a")
    e_b = cfg_after(machine, "?on ?b")
    assert set(d.states) == {"m0", str(e_on), str(e_a), str(e_b), "m10"}
    t = d.transitions
    assert t["m0"]["on"] == embed(str(e_on))
    assert t[str(e_on)]["a"] == embed(str(e_a))
    assert t[str(e_on)]["b"] == embed(str(e_b))
    assert t[str(e_a)]["c"] == embed("m10")
    assert t[str(e_b)]["t+m"] == embed("m10")
    assert t["m10"]["take"] == embed(str(e_on))
    # every output not drawn is forbidden, every input not drawn top
    assert t[str(e_b)]["t"] == bot()
    assert t[str(e_b)]["c"] == bot()
    assert t[str(e_a)]["t+m"] == bot()
    assert t["m10"]["a"] == top()


def test_det_is_deterministic(widget, machine):
    assert not check_deterministic(widget)
    assert not check_deterministic(machine)
    assert check_deterministic(det(widget))
    assert check_deterministic(det(machine))
    assert check_deterministic(aia_top(("a",), ("x",)))
    # a conjunction of states is one clause, but not one state
    both = embed("q") & embed("r")
    assert not check_deterministic(AIA("pqr", (), ("x",), {"p": {"x": both}}, embed("p")))
    # a compound initial configuration fails before any search, under any cap
    assert not check_deterministic(AIA("qr", (), ("x",), {}, both), cap=0)


def test_det_of_deterministic_is_reachable_part(scenario):
    assert check_deterministic(scenario)
    d = det(scenario)
    # states are single-state configurations named after the originals
    assert set(d.states) == set(scenario.states)
    for q in scenario.states:
        for label in scenario.labels:
            assert d.transitions[q][label] == scenario.transitions[q][label]


def test_det_random_properties():
    rng = SplitMix64(41)
    words = universe(("a", "b"), ("x", "y"), 4)
    for _ in range(40):
        s = rand_aia(rng)
        d = det(s)
        assert check_deterministic(d)
        assert aia_member_set(d, words) == aia_member_set(s, words)
    # check_deterministic reads search._rows's rows as the search reaches
    # them.  Without a cap it agrees with "the initial configuration and
    # every configuration of the whole table are top, bottom or one state";
    # under a cap it raises exactly when the rows up to the first compound
    # one number more than the cap, and otherwise gives that verdict.  The
    # specs and their determinizations, whose whole tables are searched.
    rng = SplitMix64(42)
    seen = {"true": 0, "false": 0, "capped": 0}
    for n in range(1, 10):
        for _ in range(30):
            spec = rand_aia(rng, n_states=n)
            for s in (spec, det(spec)):
                table = dict(_rows(s._masks()))
                reached = [s.initial, *map(s._masks().decode, table)]
                reached += [s._masks().decode(t) for row in table.values() for t in row]
                simple = all(classify(e) is not Kind.COMPOUND for e in reached)
                visits = 0 if classify(s.initial) is Kind.COMPOUND else _check_visits(s)
                for cap in (None, 3, 20):
                    if cap is not None and visits > cap:
                        with pytest.raises(ExplorationLimitError):
                            check_deterministic(s, cap)
                        seen["capped"] += 1
                    else:
                        got = check_deterministic(s) if cap is None else check_deterministic(s, cap)
                        assert got == simple
                        seen["true" if got else "false"] += 1
    # 1,120 and 360 verdicts and 140 cap exits on this seed
    assert seen["true"] >= 900 and seen["false"] >= 300 and seen["capped"] >= 100, seen


def test_det_commutes_with_after():
    rng = SplitMix64(42)
    for _ in range(300):
        s = rand_aia(rng)
        d = det(s)
        tr = rand_trace(rng, s.inputs, s.outputs, 5)
        e = after_trace(s, tr)
        lifted = after_trace(d, tr)
        k = classify(e)
        if k is Kind.TOP:
            assert lifted == top()
        elif k is Kind.BOT:
            assert lifted == bot()
        else:
            assert lifted == embed(str(e))


def _cold_copy(d):
    # the same automaton through the validating constructor, with a kernel
    # that computes every step itself
    return AIA(d.states, d.inputs, d.outputs, d.transitions, d.initial, name=d.name)


def _filled(k):
    # the row slots of kernel k that hold a successor id, past the rows of
    # top and bottom, which every kernel fills when it is built
    assert k.rows[0] == [0] * len(k.labels) and k.rows[1] == [1] * len(k.labels)
    return sum(t is not None for row in k.rows[2:] for t in row)


def test_det_kernel_is_seeded_exactly(models_dir):
    # det's automaton arrives with one filled row slot per state and label,
    # from the det table, and a validated copy's kernel with none until it
    # is stepped; each seeded slot, the public step and both refinement
    # searches agree with that cold copy.
    from altia.io import load_model

    rng = SplitMix64(47)
    specs = rand_aia_stepping(rng, 100, n_states=6)
    specs += [rand_aia(rng, n_states=6) for _ in range(30)]  # 12 start at top or bottom
    specs += [load_model(p) for p in sorted(models_dir.glob("*.aia"))]
    seeded = refuted = 0
    warm = SplitMix64(48)
    for n, s in enumerate(specs):
        if n % 2 and s.states:  # s's kernel numbers other values before det
            for _ in range(10):
                e = rand_wide_config(warm, sorted(s.states))
                for label in sorted(s.labels):
                    s.step(e, label)
        d = det(s)
        c = _cold_copy(d)
        assert d == c and d.name == c.name
        k, kc = d._masks(), c._masks()
        assert _filled(kc) == 0 and _filled(k) == len(d.states) * len(d.labels)
        seeded += _filled(k)
        # the searches and membership queries over d read its seeded rows and
        # compute no step
        assert check_deterministic(d) and build_tester(d) and leq_aia(d, d)
        members = [ftrace_member(d, w) for w in universe(d.inputs, d.outputs, 2)]
        assert members == [ftrace_member(c, w) for w in universe(c.inputs, c.outputs, 2)]
        assert not any(k.records) and k.up is None  # no per-label record was built
        for e, row in enumerate(list(k.rows)):
            for j, t in enumerate(row):
                if t is not None:
                    assert kc.objs[kc.step(kc.intern(k.objs[e]), j)] == k.objs[t]
        for q in d.states:
            for label in d.labels:
                assert d.step(embed(q), label) == c.step(embed(q), label)
        if len(d.states) > 1:  # a compound configuration is stepped as usual
            both = embed(min(d.states)) & embed(max(d.states))
            for label in d.labels:
                assert d.step(both, label) == c.step(both, label)
        other = rand_aia(rng, n_states=4, inputs=sorted(s.inputs), outputs=sorted(s.outputs))
        for right in (s, other):
            for a, b in ((d, right), (right, d)):
                got = leq_aia(a, b)
                assert got == leq_aia(c if a is d else a, c if b is d else b)
                refuted += not got.holds
        if d.states:  # a trivial initial configuration is not searched from
            with pytest.raises(ExplorationLimitError):
                det(s, cap=len(d.states) - 1)
        assert det(s, cap=len(d.states)) == d
    assert seeded > 15000 and refuted > 150  # 19,528 and 183 on this seed
    # a top or bottom initial configuration has no configuration to seed
    for initial in (top(), bot()):
        s = AIA(("q",), ("a",), ("x",), {"q": {"x": embed("q")}}, initial)
        d = det(s)
        assert d == _cold_copy(d) and not d.states and d.initial == initial
        assert not _filled(d._masks()) and leq_aia(s, d) and leq_aia(d, s)


def test_state_names_resembling_expressions_stay_distinct():
    # a state whose *name* looks like a conjunction must not alias the
    # actual conjunction of the states it mentions
    from altia import AIA
    from altia.lattice import embed, meet, top as top_

    tricky = AIA(
        ("a", "b", "a&b"),
        ("i",),
        ("x", "y"),
        {
            "a": {"i": meet(embed("a"), embed("b")), "x": embed("a&b")},
            "a&b": {"y": embed("a&b")},
        },
        embed("a"),
        name="tricky",
    )
    d = det(tricky)
    assert len(d.states) == 3  # a, a&b (the conjunction), "a&b" (the state)
    assert set(d.states) == {"a", "a&b", '"a&b"'}
    # the quoted one is the literal state: it loops on y, the real
    # conjunction does not
    assert d.transitions['"a&b"']["y"] == embed('"a&b"')
    assert d.transitions["a&b"]["y"] == bot()
    assert check_deterministic(d)
    words = universe(tricky.inputs, tricky.outputs, 5)
    assert aia_member_set(d, words) == aia_member_set(tricky, words)


def _check_visits(s):
    # check_deterministic steps the configurations of search._rows's table in
    # its order up to the first whose row holds a compound configuration
    decode = s._masks().decode
    table = dict(_rows(s._masks()))
    for i, row in enumerate(table.values()):
        if any(classify(decode(t)) is Kind.COMPOUND for t in row):
            return i + 1
    return len(table)


# Each capped search with the number of nodes it visits on a spec.
CAPPED = {
    "det": (det, lambda s: len(dict(_rows(s._masks())))),
    "check_deterministic": (check_deterministic, _check_visits),
    "build_tester": (build_tester, lambda s: len(dict(_rows(s._masks())))),
    "leq_aia": (lambda s, cap: leq_aia(s, s, cap), lambda s: leq_aia(s, s).pairs_explored),
}


@pytest.mark.parametrize("search", sorted(CAPPED))
def test_exploration_cap(search, machine):
    # One rule for every capped search: visiting more than cap nodes raises.
    # check_deterministic stops at machine's first compound configuration
    # and visits all of the table of det(machine), which is deterministic.
    run, visited = CAPPED[search]
    counts = []
    for s in (rand_aia(SplitMix64(43), n_states=5), machine, det(machine)):
        n = visited(s)
        counts.append((n, len(dict(_rows(s._masks())))))
        for cap in {0, n - 1}:
            with pytest.raises(ExplorationLimitError):
                run(s, cap)
        run(s, n)
    if search == "check_deterministic":
        _, (m, all_m), (d, all_d) = counts
        assert m < all_m and d == all_d
    assert DEFAULT_CAP >= 100_000


def test_tester_relabels_det_table():
    stepping = 0
    for s in rand_aia_stepping(SplitMix64(44), 20, n_states=4):
        table = dict(_rows(s._masks()))
        stepping += bool(table)
        names = {expr_str(e) for e in map(s._masks().decode, table)}
        assert build_tester(s).ia.states == names | {"pass", "fail"}
    assert stepping == 20


def test_exploration_frees_its_configurations():
    # No global table keeps configurations alive: once the spec and the
    # results are dropped, every configuration they made is freed, the
    # step and clause-image memos' entries too.  det's automaton, whose
    # kernel arrives seeded, keeps neither the spec nor its kernel alive.
    import gc
    import weakref

    from altia._kernel import _MaskKernel
    from altia.lattice import Config

    def live(kind):
        gc.collect()
        return sum(isinstance(o, kind) for o in gc.get_objects())

    baseline, kernels = live(Config), live(_MaskKernel)
    s = rand_aia(SplitMix64(5), n_states=30)  # 9 states, 1150 configurations
    d, t, v = det(s), build_tester(s), induce_ia(s)
    assert len(d.states) > 1000 and leq_aia(s, d)
    assert live(Config) > baseline + 1000 and live(_MaskKernel) == kernels + 2
    spec = weakref.ref(s)
    del s, t, v
    assert spec() is None and live(_MaskKernel) == kernels + 1
    assert leq_aia(d, d).pairs_explored == len(d.states)
    del d
    assert live(Config) == baseline and live(_MaskKernel) == kernels
