import sys
import time

import pytest

from altia import IA, FTrace, ParseError, det, build_tester
from altia.io import parse_expr, parse_model, parse_trace, print_model, to_dot
from altia.lattice import bot, embed, join, meet, top
from altia.rng import SplitMix64

from oracles import rand_aia, rand_ia


def test_parse_expr_precedence():
    e = parse_expr("q1 | q2 & q3")
    assert e == join(embed("q1"), meet(embed("q2"), embed("q3")))
    assert parse_expr("(q1 | q2) & q3") == meet(join(embed("q1"), embed("q2")), embed("q3"))
    assert parse_expr("T") == top()
    assert parse_expr("F") == bot()


def test_parse_expr_errors():
    for bad in ("", "q1 |", "q1 & & q2", "(q1", "q1 q2", "->"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_parse_trace():
    ft = parse_trace("?on ?b !t")
    assert [str(l) for l in ft.body] == ["?on", "?b", "!t"]
    assert ft.failure is None
    ft = parse_trace("?on ~b")
    assert len(ft.body) == 1 and ft.failure == "b"
    assert parse_trace("") == FTrace()


def test_parse_trace_errors():
    with pytest.raises(ParseError):
        parse_trace("?on ~b !t")  # failure must be terminal
    with pytest.raises(ParseError):
        parse_trace("?on b")  # undecorated label
    with pytest.raises(ParseError):
        parse_trace("? on")


def test_model_roundtrip(machine, widget, scenario, coffee, tea, milkdrinks, combo):
    for m in (machine, widget, scenario, coffee, tea, milkdrinks, combo):
        text = print_model(m)
        again = parse_model(text)
        assert again == m
        assert again.name == m.name
        assert print_model(again) == text  # printing is idempotent


def test_roundtrip_quoted_names():
    d = det(parse_model(print_model_demo()))
    text = print_model(d)
    assert parse_model(text) == d


def print_model_demo():
    return (
        "aia demo\n"
        "inputs a\n"
        "outputs x\n"
        "init q0\n"
        "q0 ?a -> q0 & (q1 | q2)\n"
        "q1 !x -> T\n"
        "q2 !x -> q0\n"
    )


def test_defaults_are_invisible():
    explicit = (
        "aia demo\n"
        "states q0 q1\n"
        "inputs a\n"
        "outputs x\n"
        "init q0\n"
        "q0 ?a -> q1\n"
        "q0 !x -> F\n"
        "q1 ?a -> T\n"
        "q1 !x -> F\n"
    )
    defaulted = (
        "aia demo\n"
        "states q0 q1\n"
        "inputs a\n"
        "outputs x\n"
        "init q0\n"
        "q0 ?a -> q1\n"
    )
    assert parse_model(explicit) == parse_model(defaulted)


def test_parse_errors_carry_lines():
    bad = "aia demo\ninputs a\noutputs x\ninit q0\nq0 ?a -> q1 &\n"
    with pytest.raises(ParseError) as err:
        parse_model(bad)
    assert "line 5" in str(err.value)


_AIA_HEAD = "aia m\ninputs a\noutputs x\n"
_IA_HEAD = "ia m\ninputs a\noutputs x\ninit q0\n"

# Each model-level error of the parser: the text, then the full message,
# which ends in the line (and column, where one token is at fault).
PARSE_MODEL_ERRORS = [
    (_AIA_HEAD + 'init "q0\n', "unterminated quoted name (line 4, column 6)"),
    (_AIA_HEAD + "init q0 $\n", "unexpected character '$' (line 4, column 9)"),
    (_AIA_HEAD + "init (q0 q1\n", "expected ')' (line 4, column 10)"),
    (_AIA_HEAD + "init q0\nq0 q1 -> q0\n", "expected a label, got 'q1' (line 5, column 4)"),
    ("aia ?x\n", "expected a state name, got '?x' (line 1, column 5)"),
    ("# nothing but a comment\n\n", "empty model: missing header (line 1)"),
    ("model m\n", "header must be 'ia NAME' or 'aia NAME' (line 1)"),
    ("aia m extra\n", "header must be 'ia NAME' or 'aia NAME' (line 1)"),
    (_AIA_HEAD + "inputs b\ninit q0\n", "duplicate 'inputs' line (line 4)"),
    ("aia m\ninputs ?a\noutputs x\ninit q0\n",
     "inputs entries must be plain names (line 2, column 8)"),
    ("aia m\ninputs ~a\noutputs x\ninit q0\n",
     "input '~a' may not carry the refusal prefix (line 1)"),
    ("aia m\ninputs a\ninit q0\n", "model needs 'inputs' and 'outputs' lines (line 1)"),
    (_AIA_HEAD + "q0 ?a -> q0\n", "model needs an 'init' line (line 1)"),
    (_AIA_HEAD + "init q0\nq0 ?a q0\n", "transition must be 'STATE LABEL -> TARGETS' (line 5)"),
    (_IA_HEAD + "q0 ?a -> q0 q0\n", "ia successors are separated by '|' (line 5, column 13)"),
    (_IA_HEAD + "q0 ?a -> q0 |\n", "dangling '|' in successor list (line 5)"),
    # a constructor's error, reported at the header
    ("aia m\ninputs a\noutputs a\ninit q0\n", "inputs and outputs overlap: ['a'] (line 1)"),
]


@pytest.mark.parametrize("text, message", PARSE_MODEL_ERRORS)
def test_parse_model_error_messages(text, message):
    with pytest.raises(ParseError) as err:
        parse_model(text)
    assert str(err.value) == message
    assert f"(line {err.value.line}" in message


def test_parse_errors_exit_2_without_traceback(capsys, tmp_path):
    from altia.cli import main

    for k in (0, 5, 10, 16):  # a tokenizer, header, section and constructor error
        text, message = PARSE_MODEL_ERRORS[k]
        path = tmp_path / f"bad{k}.aia"
        path.write_text(text)
        code = main(["check", str(path)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == (2, "", f"error: {message}\n")


def test_deep_nesting_parses():
    # the parser keeps one entry per open parenthesis, not a stack frame
    for depth in (5000, 100_000):
        deep = "(" * depth + "q" + ")" * depth
        start = time.perf_counter()
        assert parse_expr(deep) == embed("q")
        m = parse_model(f"aia deep\ninputs a\noutputs x\ninit {deep}\nq !x -> {deep}\n")
        assert m.initial == embed("q") and m.transitions["q"]["x"] == embed("q")
        assert time.perf_counter() - start < 10
    with pytest.raises(ParseError) as err:
        parse_expr("(" * 5000 + "q" + ")" * 4999)
    assert str(err.value) == "unexpected end of expression (line 1)"


def test_input_to_bottom_rejected():
    bad = "aia demo\ninputs a\noutputs x\ninit q0\nq0 ?a -> F\n"
    with pytest.raises(ParseError):
        parse_model(bad)
    # also when it merely reduces to bottom
    bad2 = "aia demo\ninputs a\noutputs x\ninit q0\nq0 ?a -> q0 & F\n"
    with pytest.raises(ParseError):
        parse_model(bad2)


def test_duplicate_transition_rejected():
    bad = "ia demo\ninputs a\noutputs x\ninit q0\nq0 ?a -> q0\nq0 ?a -> q0\n"
    with pytest.raises(ParseError):
        parse_model(bad)


def test_undeclared_rejected():
    with pytest.raises(ParseError):
        parse_model("ia demo\nstates q0\ninputs a\noutputs x\ninit q0\nq0 ?a -> q9\n")
    with pytest.raises(ParseError):
        parse_model("ia demo\ninputs a\noutputs x\ninit q0\nq0 ?zz -> q0\n")
    with pytest.raises(ParseError):
        parse_model("ia demo\ninputs a\noutputs x\ninit q0\nq0 !a -> q0\n")


def test_refusal_labels_only_where_declared(machine, good_machine):
    t = build_tester(machine)
    text = print_model(t.ia)
    again = parse_model(text)
    assert again == t.ia
    # and a refusal label in a model that does not declare it is an error
    with pytest.raises(ParseError):
        parse_model("ia demo\ninputs a\noutputs x\ninit q0\nq0 ~a -> q0\n")


def test_explicit_bottom_line_equals_omitted():
    a = parse_model("aia d\ninputs a\noutputs x\ninit q0\nq0 !x -> F\n")
    b = parse_model("aia d\ninputs a\noutputs x\ninit q0\n")
    assert a == b


def test_random_roundtrips():
    rng = SplitMix64(71)
    for _ in range(40):
        m = rand_aia(rng)
        assert parse_model(print_model(m)) == m
        i = rand_ia(rng)
        assert parse_model(print_model(i)) == i


def test_degenerate_models_roundtrip():
    from altia import aia_bot, aia_top

    empty = IA((), ("a",), ("x",), {}, (), name="void")
    assert parse_model(print_model(empty)) == empty
    for m in (aia_top(("a",), ("x",)), aia_bot(("a",), ("x",))):
        assert parse_model(print_model(m)) == m
    # states carrying no transitions survive the round trip
    loner = IA(("q0", "q1"), ("a",), ("x",), {"q0": {"a": {"q0"}}}, ("q0",), name="loner")
    assert parse_model(print_model(loner)) == loner


def test_hostile_state_names_roundtrip_everywhere():
    from altia import AIA, induce_aia, induce_ia
    from altia.lattice import embed, join, meet

    weird = [
        "a", "a&b", "a|b", "a b", "T", "F", "init", "states", "~x",
        "{q,r}", 'q"uote', "back\\slash", "p#1", "w0&w1 | w0&w2",
    ]
    s = AIA(
        weird,
        ("go",),
        ("out",),
        {
            "a": {"go": meet(embed("a&b"), join(embed("a|b"), embed("a b"))),
                  "out": embed("T")},
            "T": {"out": embed("{q,r}")},
            "{q,r}": {"out": meet(embed('q"uote'), embed("back\\slash"))},
            'q"uote': {"out": embed("p#1")},
            "p#1": {"go": embed("w0&w1 | w0&w2")},
        },
        embed("a"),
        name='we "ird',
    )
    assert parse_model(print_model(s)) == s
    for derived in (det(s), induce_ia(s), induce_aia(induce_ia(s)), build_tester(s).ia):
        assert parse_model(print_model(derived)) == derived


def test_syntactically_different_expressions_normalize_equal():
    pairs = [
        ("q1 | (q2 & (q1 | q3))", "(q3 & q2) | q1"),
        ("q1 & (q1 | q2)", "q1"),
        ("(q1 | q2) & (q1 | q3)", "q1 | (q2 & q3)"),
        ("T & (q1 | F)", "q1"),
        ("q2 & q1 & q1", "q1 & q2"),
    ]
    for left, right in pairs:
        assert parse_expr(left) == parse_expr(right)


# Names as written and as read: a quoted "T" is a state, the bare T is top.
_EXPR_NAMES = {"a": "a", "b2": "b2", '"T"': "T", '"a b"': "a b", '"~x"': "~x"}
_EXPR_EXTRA = ["(", ")", "&", "|", "a", "T", "F", '"T"', "->", "?a", "!x"]


def _rand_tree(rng, depth):
    """An expression tree: a name's text, "T", "F", or (op, children)."""
    if depth == 0 or rng.below(4) == 0:
        roll = rng.below(7)
        return "T" if roll == 0 else "F" if roll == 1 else list(_EXPR_NAMES)[rng.below(5)]
    return ("&|"[rng.below(2)], [_rand_tree(rng, depth - 1) for _ in range(2 + rng.below(2))])


def _render_tree(rng, tree) -> list[str]:
    """Tokens of ``tree``, with a '|' under a '&' parenthesized and
    redundant parentheses around any sub-expression."""
    if isinstance(tree, str):
        toks = [tree]
    else:
        op, children = tree
        toks = []
        for child in children:
            sub = _render_tree(rng, child)
            if op == "&" and isinstance(child, tuple) and child[0] == "|":
                sub = ["(", *sub, ")"]
            toks += [op, *sub] if toks else sub
    while rng.below(3) == 0:
        toks = ["(", *toks, ")"]
    return toks


def _truth(tree, value) -> bool:
    if isinstance(tree, str):
        return tree == "T" or tree != "F" and value[_EXPR_NAMES[tree]]
    op, children = tree
    return (all if op == "&" else any)(_truth(c, value) for c in children)


def _nesting(toks) -> tuple[int, bool]:
    """The deepest parenthesis level of ``toks``, and whether a bare ``T``
    or ``F`` stands inside a parenthesis."""
    level = depth = 0
    constant_inside = False
    for t in toks:
        level += (t == "(") - (t == ")")
        depth = max(depth, level)
        constant_inside |= level > 0 and t in ("T", "F")
    return depth, constant_inside


def test_parse_expr_agrees_with_truth_tables():
    # Two configurations are equal exactly when they agree on every
    # valuation of the state names, so a brute-force evaluation of the
    # tree checks the parse without the lattice operations.
    rng = SplitMix64(2024)
    names = list(_EXPR_NAMES.values())
    valuations = [{q: bool(bits >> k & 1) for k, q in enumerate(names)}
                  for bits in range(1 << len(names))]
    deep = constant_inside = 0
    for _ in range(400):
        tree = _rand_tree(rng, 5)
        toks = _render_tree(rng, tree)
        depth, inside = _nesting(toks)
        deep += depth >= 4
        constant_inside += inside
        clauses = parse_expr((" " if rng.below(2) else "").join(toks)).clauses
        assert not any(c < d for c in clauses for d in clauses)  # an antichain
        for value in valuations:
            assert _truth(tree, value) == any(all(value[q] for q in c) for c in clauses), toks
    assert (deep, constant_inside) == (277, 294)  # of the 400 draws


def test_parse_expr_agrees_on_wide_products_and_overlapping_chains():
    # The parser meets the disjunctions of an and-of-ors with meet_all,
    # which does not absorb a product of factors over disjoint states and
    # absorbs at every factor that shares a state with those before it.
    # Both shapes are checked on seeded valuations, each state true with
    # probability 3/4 so that every width sees both answers; the product
    # has 2**k clauses, and a chain's clauses are exactly its minimal
    # hitting sets, found by brute force.
    from itertools import combinations

    rng = SplitMix64(2026)
    answers = set()

    def check(factors, text):
        clauses = parse_expr(text).clauses
        assert not any(c < d for c in clauses for d in clauses), text  # an antichain
        names = sorted({q for f in factors for q in f})
        for _ in range(60):
            value = {q: rng.below(4) != 0 for q in names}
            truth = all(any(value[q] for q in f) for f in factors)
            assert truth == any(all(value[q] for q in c) for c in clauses), (text, value)
            answers.add((len(factors), truth))
        return clauses

    for k in range(1, 13):
        factors = [(f"a{i}", f"b{i}") for i in range(k)]
        ops = [" & ", "&"][rng.below(2)], [" | ", "|"][rng.below(2)]
        clauses = check(factors, ops[0].join(f"({ops[1].join(f)})" for f in factors))
        assert len(clauses) == 2 ** k
    for length in range(2, 13):
        factors = [(f"x{i}", f"x{i + 1}") for i in range(length)]
        clauses = check(factors, " & ".join(f"({f[0]} | {f[1]})" for f in factors))
        names = [f"x{i}" for i in range(length + 1)]
        hitting = [frozenset(c) for r in range(len(names) + 1) for c in combinations(names, r)
                   if all(set(f) & set(c) for f in factors)]
        assert clauses == {h for h in hitting if not any(g < h for g in hitting)}
    assert all((n, truth) in answers for n in (2, 12) for truth in (False, True)), answers


def test_malformed_expressions_are_parse_errors():
    # Deleting or inserting one token breaks either the alternation of
    # operands and binary operators or the balance of parentheses.
    rng = SplitMix64(2025)
    for k in range(400):
        toks = _render_tree(rng, _rand_tree(rng, 4))
        at = rng.below(len(toks) + 1)
        if k % 2:
            toks = toks[:at] + [_EXPR_EXTRA[rng.below(len(_EXPR_EXTRA))]] + toks[at:]
        else:
            del toks[min(at, len(toks) - 1)]
        text = " ".join(toks)
        with pytest.raises(ParseError) as err:
            parse_expr(text)
        assert err.value.line == 1, text
        with pytest.raises(ParseError) as err:
            parse_model(f"aia m\ninputs a\noutputs x\ninit {text}\n")
        assert err.value.line == 4, text


def test_comments_and_blank_lines():
    text = "# heading\n\nia demo\n# alphabet\ninputs a\noutputs x\ninit q0 # start\nq0 ?a -> q0\n"
    m = parse_model(text)
    assert m.initial == {"q0"}


def test_dot_output(widget, machine, scenario):
    d = to_dot(det(widget))
    assert d.count("ellipse") == 3  # exactly the three composite states
    t = build_tester(scenario)
    dot = to_dot(t.ia)
    assert dot.count("doublecircle") == 2  # pass and fail
    raw = to_dot(machine)
    assert "shape=point" in raw  # conjunction junctions
    assert '"T"' in raw  # the shared unconstrained target


def test_dot_top_node_only_for_top_edges():
    m = IA({"s__top"}, {"a"}, {"x"}, {"s__top": {"x": {"s__top"}}}, {"s__top"})
    assert "shape=none" not in to_dot(m)
    # an initial configuration T points at the top node
    from altia import aia_top

    dot = to_dot(aia_top(("a",), ("x",)))
    assert '__top [shape=none,label="T"]' in dot and "__init0 -> __top;" in dot


def test_dot_deterministic(machine):
    assert to_dot(machine) == to_dot(machine)


def test_dot_helper_nodes_never_collide_with_states():
    # DOT reads "__init0" and __init0 as one node, so helper nodes need a
    # prefix that no state name starts with
    import re

    def helper_nodes(dot):
        return set(re.findall(r"^  (\w+) \[shape=(?:point|none)", dot, re.M))

    i = IA({"__top", "__init0"}, {"a"}, {"x"}, {"__top": {"x": {"__init0"}}}, {"__top"})
    s = parse_model(
        'aia m\nstates "__top" "__init0" "__j1" "___x"\ninputs a\noutputs x\n'
        'init "__init0"\n"__init0" !x -> "__top"&"__j1" | "___x"\n"__j1" !x -> T\n'
    )
    for m in (i, s):
        dot = to_dot(m)
        helpers = helper_nodes(dot)
        assert helpers and not helpers & m.states
        for q in m.states:
            assert dot.count(f'"{q}" [shape=ellipse]') == 1
            assert f'"{q}" [shape=point' not in dot
    assert {"____init0", "____top", "____j1"} <= helper_nodes(to_dot(s))
    assert to_dot(i).count("[shape=point,style=invis]") == 1


def _reference_tokens(line, lineno):
    """The tokenizer as it read quoted names one character at a time,
    as (kind, text, line, column) or the ParseError's (message, line,
    column)."""
    from altia.lattice import PLAIN_NAME

    toks = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            break
        col = i + 1
        if c == '"':
            j = i + 1
            buf = []
            while j < n and line[j] != '"':
                if line[j] == "\\" and j + 1 < n:
                    j += 1
                buf.append(line[j])
                j += 1
            if j >= n:
                return ("unterminated quoted name", lineno, col)
            toks.append(("quoted", "".join(buf), lineno, col))
            i = j + 1
            continue
        if c in "&|()":
            toks.append(("punct", c, lineno, col))
            i += 1
            continue
        if line.startswith("->", i):
            toks.append(("punct", "->", lineno, col))
            i += 2
            continue
        if c in "?!~":
            m = PLAIN_NAME.match(line, i + 1)
            if not m:
                return (f"{c!r} must be followed by a label name", lineno, col)
            toks.append(("label", c + m.group(0), lineno, col))
            i = m.end()
            continue
        m = PLAIN_NAME.match(line, i)
        if not m:
            return (f"unexpected character {c!r}", lineno, col)
        toks.append(("word", m.group(0), lineno, col))
        i = m.end()
    return toks


def _tokens(line, lineno):
    from altia.io import _tokenize_line

    try:
        return [(t.kind, t.text, t.line, t.col) for t in _tokenize_line(line, lineno)]
    except ParseError as exc:
        return (str(exc).rsplit(" (line ", 1)[0], exc.line, exc.column)


def test_tokenizer_matches_character_reference(models_dir, monkeypatch):
    # The models, the determinized benchmark spec (a file of wide quoted
    # names like "q0 | q1&q2") and random lines of quotes, backslashes,
    # newlines and operators tokenize as the character-by-character
    # reader did, errors and their columns included.
    import importlib.util

    texts = [p.read_text(encoding="utf-8") for p in sorted(models_dir.iterdir())]
    root = models_dir.parent
    spec = importlib.util.spec_from_file_location("perfbench_gen", root / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up there
    spec.loader.exec_module(gen)
    base, _ = gen.spec_in_band(gen.rng_for(0, "cli", "spec"), 7, ("a", "b", "c"),
                               ("x", "y", "z"), (450, 600), 20, "spec", draw_all=True)
    texts.append(print_model(det(gen.to_aia(gen.renamed(base, gen.rng_for(1, "cli"))))))
    assert len(texts[-1]) > 100_000
    lines = [line for text in texts for line in text.splitlines()]
    lines += [
        '"a\\"b"', '"a\\\\"', '"a\\\\\\"b" c', '"ab\\', '"ab\\"', '"', '""', '"\\"',
        '"x\\\ny"', '"x\ny" z', 'q "T" & "s\\ 0"', '"a" "b', '"#" # "', '"é\\é"',
    ]
    rng = SplitMix64(20)
    alphabet = '"\\ ab&|()#?!~-\n'
    for _ in range(3000):
        lines.append("".join(alphabet[rng.below(len(alphabet))]
                             for _ in range(rng.below(14))))
    for k, line in enumerate(lines, 1):
        assert _tokens(line, k) == _reference_tokens(line, k), line
