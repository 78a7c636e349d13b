import pytest

from altia import (
    IA,
    AlphabetError,
    FTrace,
    ModelError,
    after_set,
    aia_ftrace_member,
    check_deterministic,
    deterministic,
    fcl_member,
    ftrace_member,
    in_set,
    induce_aia,
    inp,
    out,
)
from altia.io import parse_trace
from altia.rng import SplitMix64

from oracles import ia_fcl_member, ia_member, rand_ia, rand_trace, universe


def test_after_set_linear_chain(coffee):
    reached = after_set(coffee, coffee.initial, parse_trace("?a !c").body)
    assert reached == {"s2"}
    assert after_set(coffee, coffee.initial, ()) == coffee.initial
    assert after_set(coffee, coffee.initial, parse_trace("?b").body) == frozenset()


def test_after_set_nondeterminism(milkdrinks):
    assert after_set(milkdrinks, milkdrinks.initial, (inp("b"),)) == {"s1", "s2"}


def test_after_set_refuses_undeclared_states(coffee):
    with pytest.raises(ModelError) as err:
        after_set(coffee, {"zz", "s0"}, ())
    assert str(err.value) == "states ['zz'] not declared in 'coffee'"


def test_out_in_sets(tea, milkdrinks):
    assert {x for x in tea.outputs if ftrace_member(tea, FTrace((inp("b"), out(x))))} == {"t", "t+m"}
    assert in_set(milkdrinks, after_set(milkdrinks, milkdrinks.initial, (inp("b"),))) == set()
    assert in_set(tea, frozenset()) == tea.inputs


def test_classify(coffee, milkdrinks):
    assert deterministic(coffee)
    assert not deterministic(milkdrinks)
    assert deterministic(IA((), ("a",), ("x",), {}, (), name="void"))


def test_ftrace_member_plain(coffee):
    assert ftrace_member(coffee, parse_trace("?a !c"))
    assert ftrace_member(coffee, FTrace())
    assert not ftrace_member(coffee, parse_trace("?a !t"))


def test_ftrace_member_failures(coffee):
    # no ?b transition at the start, so refusing b is observable
    assert ftrace_member(coffee, parse_trace("~b"))
    assert not ftrace_member(coffee, parse_trace("~a"))
    # after an impossible trace nothing is observable, refusals included
    assert not ftrace_member(coffee, parse_trace("?b ~a"))


def test_ftrace_alphabet_errors(coffee):
    with pytest.raises(AlphabetError):
        ftrace_member(coffee, parse_trace("?zap"))
    with pytest.raises(AlphabetError):
        ftrace_member(coffee, FTrace((), "c"))  # c is an output
    with pytest.raises(AlphabetError):
        after_set(coffee, coffee.initial, (out("a"),))  # wrong direction


def test_fcl_member(coffee):
    # coffee may refuse b initially, so anything past an accepted b is closed in
    assert fcl_member(coffee, parse_trace("?b !t"))
    assert fcl_member(coffee, parse_trace("?b ~a"))
    assert not fcl_member(coffee, parse_trace("?a !t"))
    assert fcl_member(coffee, parse_trace("?a !c"))


def test_ftrace_membership_against_reference():
    rng = SplitMix64(2024)
    words = universe(("a", "b"), ("x", "y"), 4)
    for _ in range(40):
        m = rand_ia(rng)
        for w in words:
            assert ftrace_member(m, w) == ia_member(m, w)
            assert fcl_member(m, w) == ia_fcl_member(m, w)


def test_deterministic_agrees_with_alternating_view():
    rng = SplitMix64(31)
    for _ in range(500):
        m = rand_ia(rng)
        assert deterministic(m) == check_deterministic(induce_aia(m))


def test_fcl_is_membership_in_alternating_view():
    # refinement against an ia localizes its counterexamples through this
    rng = SplitMix64(32)
    words = universe(("a", "b"), ("x", "y"), 4)
    for _ in range(40):
        m = rand_ia(rng)
        view = induce_aia(m)
        for w in words:
            assert fcl_member(m, w) == aia_ftrace_member(view, w)


def test_after_concatenates():
    rng = SplitMix64(7)
    for _ in range(200):
        m = rand_ia(rng)
        t1 = rand_trace(rng, m.inputs, m.outputs, 3)
        t2 = rand_trace(rng, m.inputs, m.outputs, 3)
        via = after_set(m, after_set(m, m.initial, t1), t2)
        assert after_set(m, m.initial, t1 + t2) == via


def test_membership_prefix_closed():
    rng = SplitMix64(8)
    for _ in range(200):
        m = rand_ia(rng)
        body = rand_trace(rng, m.inputs, m.outputs, 5)
        if ftrace_member(m, FTrace(body)):
            for j in range(len(body)):
                assert ftrace_member(m, FTrace(body[:j]))


def test_fcl_is_input_failure_closed():
    rng = SplitMix64(9)
    words = universe(("a", "b"), ("x", "y"), 3)
    for _ in range(20):
        m = rand_ia(rng)
        for w in words:
            if w.failure is None:
                continue
            if fcl_member(m, w):
                seed_body = w.body + (inp(w.failure),)
                for cont in words[:40]:
                    ext = FTrace(seed_body + cont.body, cont.failure)
                    assert fcl_member(m, ext)


def test_det_input_enabled_agree_on_plain():
    # on deterministic, input-enabled models the closure adds nothing to
    # plain-trace membership
    rng = SplitMix64(10)
    tries = 0
    while tries < 15:
        m = rand_ia(rng, n_states=3)
        enabled = all(m.succ(q, a) for q in m.states for a in m.inputs)
        if not (deterministic(m) and enabled and m.initial):
            continue
        tries += 1
        for w in universe(m.inputs, m.outputs, 3):
            if w.failure is None:
                assert ftrace_member(m, w) == fcl_member(m, w)
