"""Acceptance suite: worked examples plus randomized property suites
checked against brute-force reference semantics on bounded trace
universes.  One pass/fail line per criterion (run with -s to watch)."""

import time

from altia import (
    aia_bot,
    aia_top,
    after_trace,
    build_tester,
    check_deterministic,
    conj,
    det,
    disj,
    gen_singular,
    induce_aia,
    induce_ia,
    is_singular_for,
    is_test_case,
    leq_aia,
    leq_ia_aia,
    singular_from_trace,
    verdict_exhaustive,
)
from altia.aia import after, ftrace_member as aia_member_impl
from altia.cli import main as cli_main
from altia.ia import ftrace_member as ia_member_impl
from altia.io import parse_trace
from altia.lattice import Kind, bot, classify, dnf, embed, top
from altia.rng import SplitMix64

from oracles import (
    aia_member_set,
    aia_member_set_def,
    ia_fcl_set,
    rand_aia,
    rand_config,
    rand_ia,
    rand_trace,
    rand_wide_config,
    universe,
)


def report(num, name, ok, elapsed, budget=None):
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_01_worked_examples(machine, widget, scenario):
    t0 = time.perf_counter()

    # exact reached configurations for the two drink orders
    assert after_trace(machine, parse_trace("?on ?b !t").body) == bot()
    assert after_trace(machine, parse_trace("?on ?b !t+m").body) == embed("m10")

    # normal forms
    q1, q2, q3 = embed("q1"), embed("q2"), embed("q3")
    assert dnf(q1 | (q2 & (q1 | q3))) == frozenset(
        {frozenset({"q1"}), frozenset({"q2", "q3"})}
    )
    assert dnf(bot()) == frozenset()
    assert dnf(top()) == frozenset({frozenset()})

    # determinization of the widget: full table, exact
    d = det(widget)
    e_ab = str(after_trace(widget, parse_trace("?a").body))
    e_y = str(after_trace(widget, parse_trace("?a !y").body))
    s0, sab, sy = embed("w0"), embed(e_ab), embed(e_y)
    assert set(d.states) == {"w0", e_ab, e_y}
    assert d.initial == s0
    assert d.transitions == {
        "w0": {"a": sab, "b": top(), "x": s0, "y": s0},
        e_ab: {"a": sab, "b": top(), "x": s0, "y": sy},
        e_y: {"a": sab, "b": s0, "x": bot(), "y": sy},
    }

    # determinization of the machine: full table, exact
    dm = det(machine)
    e_on = str(after_trace(machine, parse_trace("?on").body))
    e_a = str(after_trace(machine, parse_trace("?on ?a").body))
    e_b = str(after_trace(machine, parse_trace("?on ?b").body))
    no_out = {x: bot() for x in machine.outputs}
    all_in = {a: top() for a in machine.inputs}
    assert set(dm.states) == {"m0", e_on, e_a, e_b, "m10"}
    assert dm.initial == embed("m0")
    assert dm.transitions == {
        "m0": {**all_in, **no_out, "on": embed(e_on)},
        e_on: {**all_in, **no_out, "a": embed(e_a), "b": embed(e_b)},
        e_a: {**all_in, **no_out, "c": embed("m10")},
        e_b: {**all_in, **no_out, "t+m": embed("m10")},
        "m10": {**all_in, **no_out, "take": embed(e_on)},
    }

    # tester fail edges
    t = build_tester(machine).ia
    for bad in ("t", "c", "c+m"):
        assert t.succ(str(e_b), bad) == {"fail"}
    assert t.succ("m10", "~take") == {"fail"}

    # the bundled scenario is a singular weakening with a proper test case
    assert is_test_case(build_tester(scenario))
    assert is_singular_for(scenario, machine)

    report(1, "worked examples", True, time.perf_counter() - t0, budget=1.0)


def test_criterion_02_lattice_laws():
    t0 = time.perf_counter()
    rng = SplitMix64(2001)
    gens = ["g1", "g2", "g3", "g4", "g5", "g6"]
    failures = wide = 0
    for _ in range(10_000):
        a = rand_wide_config(rng, gens)
        b = rand_wide_config(rng, gens)
        c = rand_wide_config(rng, gens)
        wide += (len(a.clauses) >= 3) + (len(b.clauses) >= 3) + (len(c.clauses) >= 3)
        ok = (
            (a | b) == (b | a)
            and (a & b) == (b & a)
            and (a | (b | c)) == ((a | b) | c)
            and (a & (b & c)) == ((a & b) & c)
            and (a | (a & b)) == a
            and (a & (a | b)) == a
            and (a | a) == a
            and (a & a) == a
            and (a | (b & c)) == ((a | b) & (a | c))
            and (a & (b | c)) == ((a & b) | (a & c))
            and (a | top()) == top()
            and (a & bot()) == bot()
        )
        failures += not ok
    assert wide >= 10_000  # of the 30000 operands; 11924 on this seed
    report(2, "lattice laws (10000 triples)", failures == 0, time.perf_counter() - t0, budget=10.0)


def test_criterion_03_after_semantics():
    t0 = time.perf_counter()
    rng = SplitMix64(2002)
    failures = 0
    for _ in range(1000):
        s = rand_aia(rng, n_states=5)
        e1 = rand_config(rng, s.states)
        e2 = rand_config(rng, s.states)
        tr = rand_trace(rng, s.inputs, s.outputs, 6)
        half = len(tr) // 2
        ok = (
            after(s, e1 | e2, tr) == after(s, e1, tr) | after(s, e2, tr)
            and after(s, e1 & e2, tr) == after(s, e1, tr) & after(s, e2, tr)
            and after(s, e1, tr) == after(s, after(s, e1, tr[:half]), tr[half:])
        )
        failures += not ok
    report(3, "after distributes and composes (1000)", failures == 0, time.perf_counter() - t0)


def test_criterion_04_trace_set_homomorphism():
    t0 = time.perf_counter()
    rng = SplitMix64(2003)
    words = universe(("a", "b"), ("x", "y"), 5)
    every = frozenset(str(w) for w in words)
    failures = 0
    assert aia_member_set(aia_bot(("a", "b"), ("x", "y")), words) == frozenset()
    assert aia_member_set(aia_top(("a", "b"), ("x", "y")), words) == every
    for _ in range(200):
        s1 = rand_aia(rng, name="L")
        s2 = rand_aia(rng, name="R")
        m1 = aia_member_set(s1, words)
        m2 = aia_member_set(s2, words)
        ok = (
            aia_member_set(conj(s1, s2), words) == m1 & m2
            and aia_member_set(disj(s1, s2), words) == m1 | m2
        )
        failures += not ok
    report(
        4, "conjunction/disjunction are intersection/union (200 pairs)",
        failures == 0, time.perf_counter() - t0, budget=30.0,
    )


def test_criterion_05_determinization():
    t0 = time.perf_counter()
    rng = SplitMix64(2004)
    failures = 0
    for _ in range(200):
        s = rand_aia(rng)
        d = det(s)
        ok = check_deterministic(d)
        ok = ok and aia_member_set_def(s, 5) == aia_member_set_def(d, 5)
        failures += not ok
    for _ in range(1000):
        s = rand_aia(rng)
        d = det(s)
        tr = rand_trace(rng, s.inputs, s.outputs, 5)
        e = after_trace(s, tr)
        lifted = after_trace(d, tr)
        k = classify(e)
        if k is Kind.TOP:
            ok = lifted == top()
        elif k is Kind.BOT:
            ok = lifted == bot()
        else:
            ok = lifted == embed(str(e)) and classify(lifted) is not Kind.COMPOUND
        failures += not ok
    report(5, "determinization preserves traces (200+1000)", failures == 0, time.perf_counter() - t0)


def test_criterion_06_translations():
    t0 = time.perf_counter()
    rng = SplitMix64(2005)
    words = universe(("a", "b"), ("x", "y"), 4)
    failures = 0
    for _ in range(200):
        i = rand_ia(rng)
        ok = aia_member_set(induce_aia(i), words) == ia_fcl_set(i, words)
        failures += not ok
    for _ in range(200):
        s = rand_aia(rng, n_states=3)
        ok = ia_fcl_set(induce_ia(s), words) == aia_member_set(s, words)
        failures += not ok
    report(6, "round translations preserve closure (200+200)", failures == 0, time.perf_counter() - t0)


def test_criterion_07_refinement_oracle_agreement():
    t0 = time.perf_counter()
    rng = SplitMix64(2006)
    k = 6
    failures = 0
    fail_count = 0
    for n in range(500):
        s1 = rand_aia(rng, n_states=5, name="L")
        s2 = rand_aia(rng, n_states=5, name="R")
        r = leq_aia(s1, s2)
        left = aia_member_set_def(s1, k)
        right = aia_member_set_def(s2, k)
        oracle_missing = left - right
        if oracle_missing:
            # the bounded oracle found a separating word: the full
            # procedure must fail as well
            failures += r.holds
        if not r.holds:
            fail_count += 1
            cex = r.counterexample
            failures += not aia_member_impl(s1, cex)
            failures += aia_member_impl(s2, cex)
            width = len(cex.body) + (cex.failure is not None)
            if width <= k:
                failures += str(cex) not in left
                failures += str(cex) in right
        if n < 40:
            # keep the fully independent evaluator in the loop
            words = universe(("a", "b"), ("x", "y"), 4)
            failures += aia_member_set(s1, words) != frozenset(
                w for w in aia_member_set_def(s1, 4)
            )
    ok = failures == 0 and fail_count > 100
    report(
        7, f"refinement agrees with bounded oracle (500 pairs, {fail_count} fails)",
        ok, time.perf_counter() - t0, budget=60.0,
    )


def test_criterion_08_tester_correspondence():
    t0 = time.perf_counter()
    rng = SplitMix64(2007)
    failures = 0
    checked = 0
    fail_count = 0
    while checked < 300:
        s = rand_aia(rng, name="spec")
        i = rand_ia(rng, inputs=("a", "b"), outputs=("x", "y"), name="impl")
        if not i.initial:
            continue
        checked += 1
        t = build_tester(s)
        v = verdict_exhaustive(t, i)
        r = leq_ia_aia(i, s)
        failures += v.passed != r.holds
        if not v.passed:
            fail_count += 1
            failures += not ia_member_impl(i, v.witness)
            failures += aia_member_impl(s, v.witness)
    ok = failures == 0 and fail_count > 50
    report(
        8, f"failing a tester is exactly non-refinement (300 pairs, {fail_count} fails)",
        ok, time.perf_counter() - t0, budget=60.0,
    )


def test_criterion_09_test_generation(machine):
    t0 = time.perf_counter()
    rng = SplitMix64(2008)
    failures = 0

    produced = 0
    while produced < 100:
        s = rand_aia(rng, name="spec") if produced % 2 else machine
        g = gen_singular(s, seed=rng.next64(), max_depth=6, p_stop=0.2)
        produced += 1
        failures += not is_singular_for(g, s)
        failures += not leq_aia(s, g).holds
        failures += not is_test_case(build_tester(g))

    planted = 0
    while planted < 100:
        s = rand_aia(rng, name="spec")
        i = rand_ia(rng, inputs=("a", "b"), outputs=("x", "y"), name="impl")
        if not i.initial:
            continue
        r = leq_ia_aia(i, s)
        if r.holds:
            continue
        planted += 1
        reject = singular_from_trace(s, r.counterexample)
        failures += not is_singular_for(reject, s)
        failures += not leq_aia(s, reject).holds
        t = build_tester(reject)
        failures += not is_test_case(t)
        failures += verdict_exhaustive(t, i).passed  # the fault must be caught
    report(
        9, "generated test cases are singular, sound and catch their fault (100+100)",
        failures == 0, time.perf_counter() - t0,
    )


def test_criterion_10_reproducibility(models_dir, tmp_path, capsys):
    t0 = time.perf_counter()

    outs = []
    for k in (1, 2):
        d = tmp_path / f"gen{k}"
        code = cli_main([
            "testgen", str(models_dir / "machine.aia"),
            "--seed", "17", "--depth", "6", "--p-stop", "0.15", "--count", "5",
            "-o", str(d),
        ])
        assert code == 0
        outs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    capsys.readouterr()
    same_files = outs[0] == outs[1] and len(outs[0]) == 10

    tc = tmp_path / "tester.ia"
    assert cli_main(["tester", str(models_dir / "machine.aia"), "-o", str(tc)]) == 0
    capsys.readouterr()
    logs = []
    for _ in (1, 2):
        code = cli_main([
            "run", str(tc), str(models_dir / "faulty_tea.ia"),
            "--seed", "23", "--runs", "6", "--max-steps", "25",
        ])
        logs.append(capsys.readouterr().out)
    same_logs = logs[0] == logs[1] and "FAIL" in logs[0]

    report(10, "seeded generation and runs are byte-identical", same_files and same_logs,
           time.perf_counter() - t0)
