import pytest

from altia import (
    AlphabetError,
    IA,
    FTrace,
    aia_bot,
    aia_top,
    conj,
    det,
    equiv,
    induce_aia,
    leq_aia,
    leq_ia,
    leq_ia_aia,
)
from altia.aia import ftrace_member as aia_member_impl
from altia.ia import ftrace_member as ia_member_impl
from altia.ia import fcl_member
from altia.rng import SplitMix64

from oracles import aia_member, ia_fcl_member, ia_member, rand_aia, rand_ia, universe


def test_det_equivalence(widget, machine):
    for s in (widget, machine):
        assert leq_aia(s, det(s)).holds
        assert leq_aia(det(s), s).holds
        assert equiv(s, det(s))


def test_everything_refines_top(widget, machine):
    for s in (widget, machine):
        assert leq_aia(s, aia_top(s.inputs, s.outputs)).holds


def test_bottom_refines_everything(widget):
    b = aia_bot(widget.inputs, widget.outputs)
    assert leq_aia(b, widget).holds
    r = leq_aia(widget, b)
    assert not r.holds and r.counterexample == FTrace()


def test_conj_characterizes_shared_refinement():
    rng = SplitMix64(51)
    seen_both = 0
    for _ in range(60):
        s1 = rand_aia(rng, name="s1")
        s2 = rand_aia(rng, name="s2")
        lhs = leq_aia(s1, conj(s1, s2)).holds
        rhs = leq_aia(s1, s2).holds
        assert lhs == rhs
        seen_both += lhs
    assert seen_both  # sanity: the law was exercised on both outcomes


def test_good_machine_refines_machine(machine, good_machine):
    assert leq_ia_aia(good_machine, machine).holds


def test_faulty_machine_counterexample(machine, faulty_tea):
    r = leq_ia_aia(faulty_tea, machine)
    assert not r.holds
    assert str(r.counterexample) == "?on ?b !t"
    assert ia_member_impl(faulty_tea, r.counterexample)
    assert not aia_member_impl(machine, r.counterexample)


def test_empty_ia_refines_every_spec(machine):
    from altia import IA

    empty = IA((), machine.inputs, machine.outputs, {}, (), name="void")
    assert leq_ia_aia(empty, machine).holds


def test_combo_refines_tea(combo, tea):
    assert leq_ia(combo, tea).holds
    # ground truth by bounded enumeration
    words = universe(tea.inputs, tea.outputs, 4)
    assert all(not ia_member(combo, w) or ia_fcl_member(tea, w) for w in words)


def test_reflexivity(tea, coffee, milkdrinks, combo):
    for m in (tea, coffee, milkdrinks, combo):
        assert leq_ia(m, m).holds


def test_milkdrinks_vs_tea_matches_oracle(milkdrinks, tea):
    # the nondeterministic milk view shows ?b !c+m, which the tea view
    # does not allow even up to closure; the oracle confirms the verdict
    words = universe(tea.inputs, tea.outputs, 4)
    missing = [w for w in words if ia_member(milkdrinks, w) and not ia_fcl_member(tea, w)]
    r = leq_ia(milkdrinks, tea)
    assert bool(missing) == (not r.holds)
    assert not r.holds
    assert str(r.counterexample) == "?b !c+m"
    assert str(min(missing, key=lambda w: (len(w.body), str(w)))) == "?b !c+m"


def test_alphabet_mismatch_is_an_error(machine, widget, tea):
    with pytest.raises(AlphabetError):
        leq_aia(machine, widget)
    with pytest.raises(AlphabetError):
        leq_ia_aia(tea, machine)
    with pytest.raises(AlphabetError) as err:
        leq_ia(tea, IA(("q",), ("a",), ("x",), {}, ("q",), name="other"))
    assert str(err.value) == "'tea' and 'other' have different alphabets"


def test_counterexamples_validated_both_sides():
    rng = SplitMix64(52)
    fails = 0
    for _ in range(150):
        s1 = rand_aia(rng, name="L")
        s2 = rand_aia(rng, name="R")
        r = leq_aia(s1, s2)
        if not r.holds:
            fails += 1
            assert aia_member_impl(s1, r.counterexample)
            assert not aia_member_impl(s2, r.counterexample)
    assert fails


def test_ia_counterexamples_are_own_observations():
    # leq_ia_aia reports leq_aia's counterexample on the alternating view
    # of the implementation as it is: it must be an observation of the
    # implementation itself, not only of the view's input-failure closure.
    # Specs are random alternating ones or views of implementations.
    rng = SplitMix64(53)
    fails = 0
    for k in range(600):
        n = 2 + k % 6
        i = rand_ia(rng, n_states=n, name="impl")
        if k % 2:
            s = rand_aia(rng, n_states=n, name="spec")
        else:
            s = induce_aia(rand_ia(rng, n_states=n, name="spec"))
        r = leq_ia_aia(i, s)
        if not r.holds:
            fails += 1
            assert ia_member_impl(i, r.counterexample)
            assert not aia_member_impl(s, r.counterexample)
    assert fails >= 200


def test_agreement_with_bounded_oracle():
    rng = SplitMix64(54)
    words = universe(("a", "b"), ("x", "y"), 6)
    for _ in range(60):
        s1 = rand_aia(rng, name="L")
        s2 = rand_aia(rng, name="R")
        r = leq_aia(s1, s2)
        missing = next(
            (w for w in words if aia_member(s1, w) and not aia_member(s2, w)), None
        )
        if missing is not None:
            assert not r.holds
        if not r.holds and len(r.counterexample.body) + (r.counterexample.failure is not None) <= 6:
            assert aia_member(s1, r.counterexample)
            assert not aia_member(s2, r.counterexample)


def test_preorder_transitivity_when_premises_hold():
    rng = SplitMix64(55)
    checked = 0
    for _ in range(400):
        a = rand_aia(rng, n_states=3, name="A")
        b = rand_aia(rng, n_states=3, name="B")
        c = rand_aia(rng, n_states=3, name="C")
        if leq_aia(a, b).holds and leq_aia(b, c).holds:
            checked += 1
            assert leq_aia(a, c).holds
    assert checked


def test_equiv_conj_commutes():
    rng = SplitMix64(56)
    for _ in range(40):
        s1 = rand_aia(rng, name="s1")
        s2 = rand_aia(rng, name="s2")
        assert equiv(conj(s1, s2), conj(s2, s1))


def test_leq_ia_works_through_the_alternating_view(milkdrinks, tea):
    r1 = leq_ia(milkdrinks, tea)
    r2 = leq_aia(induce_aia(milkdrinks), induce_aia(tea))
    assert r1.holds == r2.holds


def test_concurrent_checks_on_shared_models():
    # values are immutable and operations pure: parallel checks on the
    # same automata give the sequential answers (each automaton's kernel
    # is a cache, races only ever rebuild an equal value, and a value is
    # numbered once)
    from concurrent.futures import ThreadPoolExecutor

    rng = SplitMix64(58)
    pairs = [(rand_aia(rng, name="L"), rand_aia(rng, name="R")) for _ in range(40)]
    sequential = [leq_aia(a, b).holds for a, b in pairs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda p: leq_aia(*p).holds, pairs))
    assert parallel == sequential


def test_ia_right_side_counterexample_respects_closure():
    rng = SplitMix64(57)
    fails = 0
    for _ in range(120):
        i1 = rand_ia(rng, name="L")
        i2 = rand_ia(rng, name="R")
        r = leq_ia(i1, i2)
        if not r.holds:
            fails += 1
            assert ia_member_impl(i1, r.counterexample)
            assert not fcl_member(i2, r.counterexample)
    assert fails


def _leq_by_configs(s1, s2):
    # leq_aia's breadth-first search written over the public Config values
    # of AIA.step, with pairs of Configs as nodes: no kernel ids, no packing
    from altia import Label, RefinementResult

    labels = [Label(a, True) for a in sorted(s1.inputs)] + [
        Label(x, False) for x in sorted(s1.outputs)
    ]
    if s1.initial.is_bot:
        return RefinementResult(True)
    if s2.initial.is_bot:
        return RefinementResult(False, FTrace())
    order = [(s1.initial, s2.initial)]
    links = {order[0]: None}  # pair -> (parent index, label)

    def path(i):
        out = []
        while links[order[i]] is not None:
            i, lab = links[order[i]]
            out.append(lab)
        return tuple(reversed(out))

    i = 0
    while i < len(order):
        e1, e2 = order[i]
        for lab in labels:
            t1 = s1.step(e1, lab.name)
            if t1.is_bot:
                continue
            t2 = s2.step(e2, lab.name)
            if t2.is_bot:
                return RefinementResult(False, FTrace(path(i) + (lab,)), i + 1)
            if t1.is_top:
                if t2.is_top:
                    continue
                if lab.is_input:
                    return RefinementResult(False, FTrace(path(i), lab.name), i + 1)
            if (t1, t2) not in links:
                links[(t1, t2)] = (i, lab)
                order.append((t1, t2))
        i += 1
    return RefinementResult(True, None, len(order))


def test_leq_on_packed_pairs_agrees_with_oracles():
    # leq_aia searches pairs of kernel ids packed into one int.  On conj-built
    # specs, det-seeded kernels, kernels above _UP_MAX_STATES and kernels
    # warmed beforehand by other steps and searches, so that the ids it packs
    # are far from 0, its result equals a breadth-first search over public
    # Configs (verdict, counterexample and pairs_explored), and its verdict
    # and counterexample length agree with bounded inclusion on the oracle:
    # the shortest observation of the left side missing on the right has the
    # counterexample's length, or none exists up to K symbols.
    from altia._kernel import _UP_MAX_STATES
    from altia.errors import ExplorationLimitError
    from oracles import rand_wide_config

    K = 4
    words = universe(("a", "b"), ("x", "y"), K)

    def length(ft):
        return len(ft.body) + (ft.failure is not None)

    def warm(s, rng, n):
        # number n random configurations and their successors in s's kernel
        states = sorted(s.states)
        for _ in range(n if states else 0):
            e = rand_wide_config(rng, states)
            for l in sorted(s.labels):
                s.step(e, l)

    rng = SplitMix64(59)
    large = []  # conjunctions of three specs, of 13-16 states and 97-139 det states
    while len(large) < 4:
        s = conj(conj(rand_aia(rng, n_states=6), rand_aia(rng, n_states=6)),
                 rand_aia(rng, n_states=6))
        if len(s.states) > _UP_MAX_STATES and not s.initial.is_top and not s.initial.is_bot:
            try:
                large.append((s, det(s, cap=400)))
            except ExplorationLimitError:
                pass
    cases = []
    for n in range(30):
        a, b = rand_aia(rng, n_states=6, name="a"), rand_aia(rng, n_states=6, name="b")
        cases += [(a, b), (conj(a, b), a), (b, conj(a, b))]
        if n % 3 == 0:
            d = det(a)
            cases += [(a, d), (d, a), (d, b)]
    for big, d in large:
        assert not big._masks().small
        other = rand_aia(rng, n_states=6, name="o")
        cases += [(big, d), (d, big), (big, other), (other, big)]
    seen = {"fails": 0, "holds": 0, "far left": 0, "far right": 0}
    for n, (s1, s2) in enumerate(cases):
        if n % 2:  # warm both kernels: earlier steps and searches number other values
            warm(s1, rng, 60)
            warm(s2, rng, 60)
            leq_aia(s1, s1)
            seen["far left"] += len(s1._masks().objs) > 64
            seen["far right"] += len(s2._masks().objs) > 64
        got = leq_aia(s1, s2)
        assert got == _leq_by_configs(s1, s2)
        missing = [length(w) for w in words if aia_member(s1, w) and not aia_member(s2, w)]
        if got.holds:
            assert not missing
            seen["holds"] += 1
            continue
        seen["fails"] += 1
        cex = got.counterexample
        assert aia_member(s1, cex) and not aia_member(s2, cex)
        if length(cex) <= K:
            assert min(missing) == length(cex)
        else:
            assert not missing
    # 42 and 94 verdicts; 37 and 30 searches from kernels of over 64 ids
    assert seen["fails"] >= 40 and seen["holds"] >= 80, seen
    assert seen["far left"] >= 30 and seen["far right"] >= 25, seen
