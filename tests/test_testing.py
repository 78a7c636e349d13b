import re

import pytest

from altia import (
    IA,
    AlphabetError,
    FTrace,
    ModelError,
    after_trace,
    aia_top,
    build_tester,
    format_verdict,
    gen_singular,
    induce_ia,
    is_singular_for,
    is_test_case,
    leq_aia,
    leq_ia_aia,
    rename_states,
    run_random,
    singular_from_trace,
    verdict_exhaustive,
)
from altia import testing as mbt
from altia.aia import ftrace_member as aia_member_impl
from altia.cli import main as cli_main
from altia.io import parse_model, parse_trace, print_model, save_model
from altia.rng import SplitMix64

from oracles import product_moves, rand_aia, rand_ia

GOOD_SEED_FOR_SCENARIO = 70  # found by scanning seeds; frozen for reproducibility


def cfg_name(s, text):
    return str(after_trace(s, parse_trace(text).body))


# ------------------------------------------------------------- synthesis

def test_tester_machine_fail_edges(machine):
    t = build_tester(machine).ia
    b_state = cfg_name(machine, "?on ?b")
    for bad in ("t", "c", "c+m"):
        assert t.succ(b_state, bad) == {"fail"}
    assert t.succ(b_state, "t+m") == {"m10"}
    assert t.succ("m10", "~take") == {"fail"}
    assert t.succ("m10", "take") == {cfg_name(machine, "?on")}
    # every output at the start is premature, every refusal of ?on fatal
    for x in machine.outputs:
        assert t.succ("m0", x) == {"fail"}
    assert t.succ("m0", "~on") == {"fail"}
    # underspecified inputs are not offered at all
    assert t.succ("m0", "a") == frozenset()
    assert t.succ("m0", "~a") == frozenset()


def test_tester_well_formed(machine, widget, scenario):
    for s in (machine, widget, scenario):
        t = build_tester(s)
        assert mbt.tester_problems(t) == []
        assert t.stimuli == s.inputs
        assert t.observations == s.outputs


def test_built_testers_satisfy_the_contract(machine, widget):
    # build_tester returns its tester without the constructor's check: the
    # contract holds by construction, and the checked constructor takes
    # the same automaton to an equal tester.  Its interface automaton is
    # built unchecked too, and equals the checked IA of its parts, which
    # keeps no empty row: specs without outputs, without inputs, and with
    # every input underspecified give states without a row, and without
    # outputs the verdict states have none.
    from altia import AIA

    rng = SplitMix64(71)
    specs = [rand_aia(rng, n_states=5) for _ in range(120)] + [machine, widget]
    trivial = sum(s.initial.is_top or s.initial.is_bot for s in specs)
    singular = [gen_singular(s, seed=rng.next64(), max_depth=5, p_stop=0.2) for s in specs]
    no_outputs = [rand_aia(rng, n_states=5, outputs=()) for _ in range(20)]
    no_inputs = [rand_aia(rng, n_states=5, inputs=()) for _ in range(20)]
    top_inputs = [
        AIA(s.states, s.inputs, s.outputs,
            {q: {x: row[x] for x in s.outputs} for q, row in s.transitions.items()}, s.initial)
        for s in [rand_aia(rng, n_states=5) for _ in range(20)] + no_outputs[:5]
    ]
    rowless = 0
    for s in specs + singular + no_outputs + no_inputs + top_inputs:
        t = build_tester(s)
        assert mbt.tester_problems(t) == []
        assert mbt.Tester(t.ia) == t
        i = t.ia
        assert i == IA(i.states, i.inputs, i.outputs, i.transitions, i.initial)
        rowless += len(i.states) - len(i.transitions)
    assert trivial >= 20  # 45 on this seed: testers without a configuration state
    assert rowless >= 30  # 52 on this seed


def test_tester_of_unconstrained_spec_starts_passing():
    t = build_tester(aia_top(("a",), ("x",)))
    assert t.initial == "pass"


def test_tester_rejects_reserved_state_names():
    from altia import AIA
    from altia.lattice import embed

    s = AIA(("pass",), ("a",), ("x",), {}, embed("pass"))
    with pytest.raises(ModelError):
        build_tester(s)


def test_tester_rejects_an_input_with_the_refusal_prefix():
    from altia import AIA
    from altia.lattice import embed

    s = AIA(("q0",), ("~a",), ("x",), {}, embed("q0"))
    with pytest.raises(ModelError) as err:
        build_tester(s)
    assert str(err.value) == "input '~a' clashes with the refusal-label prefix"


def test_tester_rejects_an_output_named_like_a_refusal(tmp_path, capsys):
    # The refusal of input a is a tester output; an output '~a' of the spec
    # is a tester input of that name, so the tester's alphabets would overlap.
    from altia import AIA
    from altia.lattice import embed

    s = AIA(("q0",), ("a",), ("~a",), {}, embed("q0"))
    with pytest.raises(AlphabetError) as err:
        build_tester(s)
    assert str(err.value) == "inputs and outputs overlap: ['~a']"
    path = tmp_path / "clash.aia"
    path.write_text("aia clash\nstates q0\ninputs a\noutputs ~a\ninit q0\nq0 ?a -> q0\n")
    assert cli_main(["tester", str(path)]) == 2
    assert capsys.readouterr().err == "error: inputs and outputs overlap: ['~a']\n"


# ------------------------------------------------------------- execution

def test_product_refusal_edge(machine):
    # an implementation that never accepts ?take gets caught by ~take
    stubborn = IA(
        ("d0", "d1", "d2"),
        machine.inputs,
        machine.outputs,
        {
            "d0": {"on": {"d1"}},
            "d1": {"a": {"d2"}},
            "d2": {"c": {"d1"}},
        },
        ("d0",),
        name="stubborn",
    )
    t = build_tester(machine)
    v = verdict_exhaustive(t, stubborn)
    assert not v.passed
    assert v.witness.failure is not None


# A hand-written tester with two stimuli, a state offering both and a
# refusal that passes.
_TWO_STIMULI = """ia hand
states s0 s1 pass fail
inputs x y
outputs a b ~a ~b
init s0
s0 !a -> s1
s0 ~a -> fail
s0 !b -> pass
s0 ~b -> pass
s0 ?x -> s0
s0 ?y -> fail
s1 ?x -> pass
s1 ?y -> s0
pass ?x -> pass
pass ?y -> pass
fail ?x -> fail
fail ?y -> fail
"""


def test_product_moves_match_the_oracle(machine, widget, scenario, models_dir):
    # On every product pair reachable from the initial pairs (a superset of
    # what verdict_exhaustive's search reaches), the moves are the oracle's
    # list, order included: seeded runs and witnesses depend on it.
    rng = SplitMix64(1818)
    testers = {"built": [], "case": [], "parsed": [], "models": [], "crossed": []}
    for n in range(12):
        spec = rand_aia(rng, n_states=3 + n % 4)
        testers["built"].append(build_tester(spec))
        testers["case"].append(build_tester(gen_singular(spec, n, 5, 0.2)))
        # printed, parsed through IA(...) and checked as a user's tester
        testers["parsed"].append(mbt.Tester(parse_model(print_model(build_tester(spec).ia))))
    testers["parsed"].append(mbt.Tester(parse_model(_TWO_STIMULI)))
    testers["models"] += [build_tester(s) for s in (machine, widget, scenario)]
    # testers whose observations p and ~p are the outputs of other testers
    testers["crossed"] += [
        build_tester(rand_aia(rng, n_states=4 + n % 3, inputs=("a", "b"), outputs=("p", "~p")))
        for n in range(6)
    ]
    impls_of = {}
    for n in range(8):  # IA._valid-built automata, run as implementations
        t2 = build_tester(rand_aia(rng, n_states=2 + n % 3, inputs=("p",), outputs=("a", "b")))
        impls_of.setdefault((t2.ia.inputs, t2.ia.outputs), []).append(t2.ia)
    for path in sorted(models_dir.glob("*.ia")):
        i = parse_model(path.read_text(encoding="utf-8"))
        impls_of.setdefault((i.inputs, i.outputs), []).append(i)
    reached = dict.fromkeys(testers, 0)
    for kind, group in testers.items():
        for t in group:
            key = (t.stimuli, t.observations)
            impls = impls_of.get(key, []) + [
                rand_ia(rng, n_states=5, inputs=sorted(key[0]), outputs=sorted(key[1]))
                for _ in range(5)
            ]
            for i in impls:
                seen = {(t.initial, qi) for qi in i.initial}
                stack = list(seen)
                while stack:
                    qt, qi = stack.pop()
                    expected = product_moves(t, i, qt, qi)
                    assert mbt._product_moves(t, i, qt, qi) == expected, (t.ia.name, i.name, qt, qi)
                    reached[kind] += 1
                    if qt in (mbt.PASS, mbt.FAIL):
                        continue
                    for _, succs in expected:
                        for nxt in succs:
                            if nxt not in seen:
                                seen.add(nxt)
                                stack.append(nxt)
    assert min(reached.values()) >= 50, reached


def test_exhaustive_verdicts(machine, good_machine, faulty_tea):
    t = build_tester(machine)
    assert verdict_exhaustive(t, good_machine).passed
    v = verdict_exhaustive(t, faulty_tea)
    assert not v.passed
    assert str(v.witness) == "?on ?b !t"


def test_incompatible_alphabets_rejected(machine, tea, models_dir, tmp_path, capsys):
    t = build_tester(machine)
    message = "tester 'tester(machine)' and implementation 'tea' have incompatible alphabets"
    for run in (lambda: verdict_exhaustive(t, tea), lambda: run_random(t, tea, seed=1)):
        with pytest.raises(AlphabetError) as err:
            run()
        assert str(err.value) == message
    tester = tmp_path / "tester.ia"
    save_model(tester, t.ia)
    for extra in ([], ["--exhaustive"]):
        code = cli_main(["run", str(tester), str(models_dir / "tea.ia"), *extra])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def test_empty_implementation_rejected(machine):
    t = build_tester(machine)
    empty = IA((), machine.inputs, machine.outputs, {}, (), name="void")
    with pytest.raises(ModelError):
        verdict_exhaustive(t, empty)


def test_exhaustive_matches_refinement(machine, good_machine, faulty_tea):
    t = build_tester(machine)
    for impl in (good_machine, faulty_tea):
        assert verdict_exhaustive(t, impl).passed == leq_ia_aia(impl, machine).holds


def test_tester_soundness_iff_reverse_refinement():
    # tester(s1) is sound for s2 exactly when s2 refines s1.  The induced
    # automaton of s2 always refines s2 and carries its full behaviour,
    # so it witnesses every soundness violation.
    rng = SplitMix64(64)
    flips = set()
    for _ in range(40):
        s1 = rand_aia(rng, name="s1")
        s2 = rand_aia(rng, name="s2")
        t = build_tester(s1)
        istar = induce_ia(s2)
        if not istar.initial:
            continue
        assert leq_ia_aia(istar, s2).holds
        witness_fails = not verdict_exhaustive(t, istar).passed
        holds = leq_aia(s2, s1).holds
        assert witness_fails == (not holds)
        flips.add(holds)
        # sampled conforming implementations never fail a sound tester
        if holds:
            for _ in range(5):
                i = rand_ia(rng, inputs=("a", "b"), outputs=("x", "y"))
                if i.initial and leq_ia_aia(i, s2).holds:
                    assert verdict_exhaustive(t, i).passed
    assert flips == {True, False}


def test_tester_exhaustiveness_iff_forward_refinement():
    # tester(s1) is exhaustive for s2 exactly when s1 refines s2; the
    # induced automaton of s1 passes tester(s1) and witnesses violations.
    rng = SplitMix64(65)
    flips = set()
    for _ in range(40):
        s1 = rand_aia(rng, name="s1")
        s2 = rand_aia(rng, name="s2")
        t = build_tester(s1)
        istar = induce_ia(s1)
        if not istar.initial:
            continue
        assert verdict_exhaustive(t, istar).passed
        holds = leq_aia(s1, s2).holds
        assert leq_ia_aia(istar, s2).holds == holds
        flips.add(holds)
        # sampled passing implementations conform whenever exhaustive
        if holds:
            for _ in range(5):
                i = rand_ia(rng, inputs=("a", "b"), outputs=("x", "y"))
                if i.initial and verdict_exhaustive(t, i).passed:
                    assert leq_ia_aia(i, s2).holds
    assert flips == {True, False}


def test_exhaustive_matches_refinement_randomized():
    rng = SplitMix64(61)
    fails = 0
    for _ in range(80):
        s = rand_aia(rng, name="spec")
        i = rand_ia(rng, inputs=("a", "b"), outputs=("x", "y"), name="impl")
        if not i.initial:
            continue
        t = build_tester(s)
        v = verdict_exhaustive(t, i)
        r = leq_ia_aia(i, s)
        assert v.passed == r.holds
        if not v.passed:
            fails += 1
            from altia.ia import ftrace_member as ia_member_impl

            assert ia_member_impl(i, v.witness)
            assert not aia_member_impl(s, v.witness)
    assert fails


# ------------------------------------------------------------ random runs

def test_run_random_reproducible(machine, faulty_tea):
    t = build_tester(machine)
    a = run_random(t, faulty_tea, seed=12, max_steps=40)
    b = run_random(t, faulty_tea, seed=12, max_steps=40)
    assert a == b
    assert format_verdict(a, with_log=True) == format_verdict(b, with_log=True)


def test_run_random_fail_implies_exhaustive_fail(machine, faulty_tea, good_machine):
    t = build_tester(machine)
    assert not verdict_exhaustive(t, faulty_tea).passed
    for seed in range(60):
        v = run_random(t, faulty_tea, seed=seed, max_steps=40)
        if not v.passed:
            assert str(v.witness)
    # a correct implementation passes every run
    for seed in range(60):
        assert run_random(t, good_machine, seed=seed, max_steps=40).passed


def test_run_random_finds_planted_fault(machine, faulty_tea):
    t = build_tester(machine)
    failures = sum(
        1 for seed in range(1000) if not run_random(t, faulty_tea, seed=seed, max_steps=40).passed
    )
    print(f"planted-fault detection rate: {failures}/1000 runs")
    assert failures > 0
    # the fault sits three steps deep yet a directed tester hits it often
    assert failures > 100


def test_run_random_log_format(machine, faulty_tea):
    t = build_tester(machine)
    v = run_random(t, faulty_tea, seed=3, max_steps=40)
    text = format_verdict(v, with_log=True).splitlines()
    assert text[0].startswith(("PASS", "FAIL"))
    for lineno, line in enumerate(text[1:], start=1):
        if line.startswith("#"):
            continue
        step, label, qt, qi = line.split(" ", 3)
        assert int(step) == lineno


def test_run_random_endings(scenario, good_machine):
    # a run of a test case ends at pass; a tester offering no stimulus to
    # an implementation that offers no output ends inconclusive
    from altia import AIA
    from altia.lattice import embed

    v = run_random(build_tester(scenario), good_machine, seed=0, max_steps=40)
    assert v.passed and v.note is None and v.log[-1][2] == "pass"
    spec = AIA({"p"}, {"a"}, {"x"}, {"p": {"x": embed("p")}}, embed("p"))
    quiet = IA({"d"}, {"a"}, {"x"}, {}, {"d"})
    v = run_random(build_tester(spec), quiet, seed=0)
    assert v.passed and v.note == "inconclusive" and not v.log


# ------------------------------------------------------- singular specs

def test_gen_singular_reproduces_scenario(machine, scenario):
    g = gen_singular(machine, seed=GOOD_SEED_FOR_SCENARIO, max_depth=6, p_stop=0.1)
    chain = parse_trace("?on ?a !c ?take ?b").body
    names = ["eps"] + [" ".join(str(l) for l in chain[:k]) for k in range(1, 6)]
    assert set(g.states) == set(names)
    renamed = rename_states(g, {n: f"n{k}" for k, n in enumerate(names)})
    assert renamed == scenario


def test_gen_singular_properties(machine, widget):
    rng = SplitMix64(62)
    for s in (machine, widget):
        for k in range(30):
            g = gen_singular(s, seed=rng.next64(), max_depth=6, p_stop=0.25)
            assert is_singular_for(g, s)
            assert leq_aia(s, g).holds
            assert is_test_case(build_tester(g))


def test_gen_singular_on_random_specs():
    rng = SplitMix64(63)
    for _ in range(30):
        s = rand_aia(rng, name="spec")
        g = gen_singular(s, seed=rng.next64(), max_depth=5, p_stop=0.2)
        assert is_singular_for(g, s)
        assert leq_aia(s, g).holds
        assert is_test_case(build_tester(g))


def test_gen_singular_degenerate_specs():
    t = aia_top(("a",), ("x",))
    g = gen_singular(t, seed=1, max_depth=4, p_stop=0.5)
    assert g.initial.is_top and not g.states
    assert is_singular_for(g, t)
    from altia import aia_bot

    b = aia_bot(("a",), ("x",))
    g = gen_singular(b, seed=1, max_depth=4, p_stop=0.5)
    assert g.initial.is_bot and not g.states
    assert is_singular_for(g, b)


def test_singular_from_empty_trace():
    from altia import aia_bot

    b = aia_bot(("a",), ("x",))
    s2 = singular_from_trace(b, FTrace())
    assert s2.initial.is_bot and not s2.states
    assert is_singular_for(s2, b)


def test_singular_from_output_trace(machine, faulty_tea):
    ft = parse_trace("?on ?b !t")
    s2 = singular_from_trace(machine, ft)
    assert is_singular_for(s2, machine)
    assert not aia_member_impl(s2, ft)
    assert leq_aia(machine, s2).holds
    t = build_tester(s2)
    assert is_test_case(t)
    v = verdict_exhaustive(t, faulty_tea)
    assert not v.passed


def test_singular_from_failure_trace(machine):
    ft = parse_trace("?on ~b")
    assert not aia_member_impl(machine, ft)
    s2 = singular_from_trace(machine, ft)
    assert is_singular_for(s2, machine)
    assert not aia_member_impl(s2, ft)
    # an implementation that refuses ?b right after ?on fails this test case
    refuser = IA(
        ("d0", "d1"),
        machine.inputs,
        machine.outputs,
        {"d0": {"on": {"d1"}}},
        ("d0",),
        name="refuser",
    )
    v = verdict_exhaustive(build_tester(s2), refuser)
    assert not v.passed
    assert str(v.witness) == "?on ~b"


def test_singular_from_trace_strips_trailing_inputs(machine):
    # a plain trace ending in inputs is already rejected one step earlier
    ft = parse_trace("?on ?b !t ?take ?a")
    assert not aia_member_impl(machine, ft)
    s2 = singular_from_trace(machine, ft)
    assert is_singular_for(s2, machine)
    assert not aia_member_impl(s2, ft)


def test_singular_from_trace_requires_counterexample(machine):
    with pytest.raises(ModelError):
        singular_from_trace(machine, parse_trace("?on ?b !t+m"))


# --------------------------------------------------------- test cases

def test_is_test_case_examples(machine, scenario):
    assert is_test_case(build_tester(scenario))
    assert not is_test_case(build_tester(machine))  # ?take cycle, two stimuli
    loop = IA({"q", "pass", "fail"}, {"x"}, (),
              {"q": {"x": {"q"}}, "pass": {"x": {"pass"}}, "fail": {"x": {"fail"}}}, {"q"})
    assert not is_test_case(mbt.Tester(loop))  # a non-verdict self-loop never ends


def test_is_singular_for_examples(machine, scenario, widget):
    from altia import AIA, aia_top
    from altia.lattice import embed, top

    assert is_singular_for(scenario, machine)
    assert not is_singular_for(machine, machine)   # cycles: not a trace tree
    assert not is_singular_for(scenario, widget)   # different alphabets
    # against a spec constraining both inputs and the output at p
    spec = AIA({"p"}, {"a", "b"}, {"x"}, {"p": {"a": embed("p"), "b": embed("p"), "x": embed("p")}},
               embed("p"))

    def tree(rows, init=embed("n0")):
        rows = {q: {"x": top(), **row} for q, row in rows.items()}
        return AIA(set(rows), spec.inputs, spec.outputs, rows, init)

    assert is_singular_for(tree({"n0": {}}), spec)
    assert not is_singular_for(tree({"n0": {}}), aia_top(spec.inputs, spec.outputs))
    assert not is_singular_for(tree({"n0": {}, "n1": {}}, embed("n0") | embed("n1")), spec)
    shared = tree({"n0": {"a": embed("n1"), "x": embed("n1")}, "n1": {}})
    assert not is_singular_for(shared, spec)
    two_inputs = tree({"n0": {"a": embed("n1"), "b": embed("n2")}, "n1": {}, "n2": {}})
    assert not is_singular_for(two_inputs, spec)
    assert is_singular_for(tree({"n0": {"a": embed("n1")}, "n1": {}}), spec)


def test_is_singular_rejects_overconstrained(machine):
    from altia import AIA
    from altia.lattice import bot, embed

    # forbids !c after ?on ?a, which the machine allows
    bad = AIA(
        ("n0", "n1", "n2"),
        machine.inputs,
        machine.outputs,
        {"n0": {"on": embed("n1")}, "n1": {"a": embed("n2")}, "n2": {"c": bot()}},
        embed("n0"),
        name="bad",
    )
    assert not is_singular_for(bad, machine)


def test_is_singular_requires_top_where_spec_is_top(machine):
    from altia import AIA
    from altia.lattice import embed

    # keeps constraining input ?a although the machine leaves it open
    bad = AIA(
        ("n0", "n1"),
        machine.inputs,
        machine.outputs,
        {"n0": {"a": embed("n1")}},
        embed("n0"),
        name="bad",
    )
    assert not is_singular_for(bad, machine)


def test_tester_validation_catches_broken_testers(machine, models_dir, tmp_path, capsys):
    t = build_tester(machine)
    # drop one observation somewhere: no longer input-enabled
    broken = {q: dict(row) for q, row in t.ia.transitions.items()}
    victim = next(q for q in broken if broken[q].get("t"))
    del broken[victim]["t"]
    b = IA(t.ia.states, t.ia.inputs, t.ia.outputs, broken, t.ia.initial, name="broken")
    with pytest.raises(ModelError, match="observation"):
        mbt.Tester(b)
    # a verdict state that moves on, one that offers a stimulus, a refusal
    # label without its stimulus, an observation with two successors and a
    # stimulus without its refusal
    def copy():
        return {q: dict(row) for q, row in t.ia.transitions.items()}

    moves_on, stimulates, forked, lone = copy(), copy(), copy(), copy()
    moves_on["pass"]["t"] = {t.initial}
    stimulates["fail"].update({"on": {"fail"}, "~on": {"fail"}})
    forked[t.initial]["t"] = {"pass", "fail"}
    del lone[t.initial]["~on"]
    for trans, outputs, message in (
        (moves_on, t.ia.outputs, "verdict state 'pass' is not a sink"),
        (stimulates, t.ia.outputs, "verdict state 'fail' offers stimuli"),
        (t.ia.transitions, t.ia.outputs | {"~zz"}, "refusal label '~zz' has no matching stimulus"),
        (forked, t.ia.outputs, "tester is not deterministic"),
        (lone, t.ia.outputs, "state 'm0' offers 'on' without its refusal (or vice versa)"),
    ):
        b2 = IA(t.ia.states, t.ia.inputs, outputs, trans, t.ia.initial, name="broken")
        with pytest.raises(ModelError, match=re.escape(message)):
            mbt.Tester(b2)
    path = tmp_path / "broken.ia"
    save_model(path, b)
    code = cli_main(["run", str(path), str(models_dir / "good_machine.ia")])
    assert code == 2 and capsys.readouterr().err.startswith("error: not a valid tester")


# A tester whose refusal ~a leads on to s1, where ?x fails and !a or ~a pass.
_REFUSAL_GOES_ON = """ia t
states s0 s1 pass fail
inputs x
outputs a ~a
init s0
s0 !a -> s1
s0 ~a -> s1
s0 ?x -> s1
s1 ?x -> fail
s1 !a -> pass
s1 ~a -> pass
pass ?x -> pass
fail ?x -> fail
"""


def test_tester_refusals_must_end_in_a_verdict(tmp_path, capsys):
    # A refusal is the last label of an input-failure trace, so a tester
    # that goes on after one is invalid; it used to be accepted, and then
    # run aborted and run --exhaustive reported FAIL !x !x.
    t_path, i_path = tmp_path / "t.ia", tmp_path / "i.ia"
    t_path.write_text(_REFUSAL_GOES_ON)
    i_path.write_text("ia i\ninputs a\noutputs x\ninit q0\nq0 !x -> q0\n")
    expected = "error: not a valid tester: state 's0' continues after refusal '~a'\n"
    for extra in (["--seed", "1", "--runs", "3"], ["--exhaustive"]):
        code = cli_main(["run", str(t_path), str(i_path), *extra])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", expected)
