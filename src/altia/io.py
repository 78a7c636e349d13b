"""Text formats for automata, traces and configuration expressions, plus
Graphviz export.

Model files
-----------
UTF-8 text, ``#`` starts a comment, blank lines ignored.  The first line
is a header, ``ia NAME`` or ``aia NAME``.  Then, in any order::

    states  q0 q1 ...          # optional; exhaustive when present
    inputs  a b ...
    outputs x y ...
    init    q0 q1              # ia: state list (may be empty)
    init    q0 & (q1 | q2)     # aia: configuration expression
    q0 ?a -> q1 | q2           # ia transition: successor states
    q0 ?a -> q0 & (q1 | q2)    # aia transition: configuration expression
    q0 ~a -> fail              # refusal label (testers only; an output)

Configuration expressions follow ``expr := 'T' | 'F' | state | expr '|'
expr | expr '&' expr | '(' expr ')'`` where ``&`` binds tighter than
``|``; ``T`` is top and ``F`` bottom, and a quoted ``"T"`` or ``"F"`` is
a state.  Parentheses nest to any depth: the parser reads an expression
in one pass, without recursion, and builds its value with the lattice's
``embed``, ``meet_all`` and ``join_all``; it reads no masks, which only
the lattice and the kernel do.  In an ``aia`` file an omitted
input line means top and an omitted output line bottom, so explicitly
writing those is equivalent to leaving them out; an input may not map to
``F``.  In an ``ia`` file an omitted line means no transition.

State names are free-form: names that are not plain identifiers (or that
collide with keywords) are written in double quotes.  Label names must
be plain identifiers; refusal labels carry a ``~`` prefix.

Traces are whitespace-separated decorated labels: ``?a`` input, ``!x``
output, and at most one final ``~a`` for an input failure.

Printing is canonical (sorted states, labels and clauses; defaults
omitted), so ``parse(print(m)) == m`` and printing is idempotent.
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .aia import AIA
from .errors import AltiaError, ParseError
from .ia import IA, FTrace, Label
from .lattice import (
    PLAIN_NAME as _PLAIN,
    Config,
    bot,
    embed,
    expr_str,
    join_all,
    meet_all,
    quote_name as _quote,
    sorted_clauses,
    top,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # word | quoted | label | punct
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"_Tok({self.kind}, {self.text!r})"


# A quoted name up to its closing quote, where a backslash takes the
# character after it literally; a backslash with nothing after it leaves
# the name unterminated.
_QUOTED = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"', re.DOTALL)
_ESCAPED = re.compile(r"\\(.)", re.DOTALL)


def _tokenize_line(line: str, lineno: int) -> list[_Tok]:
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
            m = _QUOTED.match(line, i)
            if not m:
                raise ParseError("unterminated quoted name", lineno, col)
            name = m.group(1)
            if "\\" in name:
                name = _ESCAPED.sub(r"\1", name)
            toks.append(_Tok("quoted", name, lineno, col))
            i = m.end()
            continue
        if c in "&|()":
            toks.append(_Tok("punct", c, lineno, col))
            i += 1
            continue
        if line.startswith("->", i):
            toks.append(_Tok("punct", "->", lineno, col))
            i += 2
            continue
        if c in "?!~":
            m = _PLAIN.match(line, i + 1)
            if not m:
                raise ParseError(f"{c!r} must be followed by a label name", lineno, col)
            toks.append(_Tok("label", c + m.group(0), lineno, col))
            i = m.end()
            continue
        m = _PLAIN.match(line, i)
        if not m:
            raise ParseError(f"unexpected character {c!r}", lineno, col)
        toks.append(_Tok("word", m.group(0), lineno, col))
        i = m.end()
    return toks


def _parse_config(toks: list[_Tok], lineno: int) -> Config:
    """The configuration of an expression's tokens, read in one pass.

    Each open parenthesis keeps the disjuncts closed so far and the
    conjuncts since the last ``|``: an operand (a state, or the bare word
    ``T`` or ``F``; a quoted ``"T"`` is a state) goes onto the conjuncts,
    ``|`` closes them into a disjunct with :func:`meet_all`, and ``)``
    closes the level with :func:`join_all` into an operand of the level
    around it, as does the end of the expression.  Both return a lone
    operand as it is, so a one-state target costs one :func:`embed`.
    """
    levels: list[tuple[list[Config], list[Config]]] = []  # the enclosing (disjuncts, conjuncts)
    disjuncts: list[Config] = []
    conjuncts: list[Config] = []
    k, n = 0, len(toks)
    while True:
        if k == n:
            raise ParseError("unexpected end of expression", lineno)
        t = toks[k]
        k += 1
        if t.kind == "punct" and t.text == "(":
            levels.append((disjuncts, conjuncts))
            disjuncts, conjuncts = [], []
            continue
        if t.kind == "quoted" or t.kind == "word" and t.text not in ("T", "F"):
            conjuncts.append(embed(t.text))
        elif t.kind != "word":
            raise ParseError(f"unexpected {t.text!r} in expression", t.line, t.col)
        else:
            conjuncts.append(top() if t.text == "T" else bot())
        while k < n and levels and toks[k].kind == "punct" and toks[k].text == ")":
            k += 1
            disjuncts.append(meet_all(conjuncts))
            operand = join_all(disjuncts)
            disjuncts, conjuncts = levels.pop()
            conjuncts.append(operand)
        if k == n:
            if levels:
                raise ParseError("unexpected end of expression", lineno)
            disjuncts.append(meet_all(conjuncts))
            return join_all(disjuncts)
        t = toks[k]
        k += 1
        if t.kind == "punct" and t.text == "|":
            disjuncts.append(meet_all(conjuncts))
            conjuncts = []
        elif t.kind != "punct" or t.text != "&":
            if levels:
                raise ParseError("expected ')'", t.line, t.col)
            raise ParseError(f"unexpected {t.text!r} after expression", t.line, t.col)


def parse_expr(text: str) -> Config:
    """Parse a configuration expression from a single line of text."""
    toks = _tokenize_line(text, 1)
    if not toks:
        raise ParseError("empty expression", 1)
    return _parse_config(toks, 1)


def parse_trace(text: str) -> FTrace:
    """Parse a trace of decorated labels, e.g. ``"?on ?b !t"`` or ``"?on ~b"``."""
    toks = _tokenize_line(text, 1)
    body: list[Label] = []
    failure = None
    for k, t in enumerate(toks):
        if t.kind != "label":
            raise ParseError(
                f"expected a decorated label (?x, !x or final ~x), got {t.text!r}",
                t.line,
                t.col,
            )
        deco, name = t.text[0], t.text[1:]
        if deco == "~":
            if k != len(toks) - 1:
                raise ParseError("an input failure may only end a trace", t.line, t.col)
            failure = name
        else:
            body.append(Label(name, deco == "?"))
    return FTrace(tuple(body), failure)


def _parse_label_token(t: _Tok, inputs, outputs) -> str:
    if t.kind == "label":
        deco, name = t.text[0], t.text[1:]
        if deco == "?":
            if name not in inputs:
                raise ParseError(f"{name!r} is not a declared input", t.line, t.col)
            return name
        if deco == "!":
            if name not in outputs:
                raise ParseError(f"{name!r} is not a declared output", t.line, t.col)
            return name
        # refusal labels are plain output names starting with ~
        if "~" + name not in outputs:
            raise ParseError(f"~{name} is not a declared output label", t.line, t.col)
        return "~" + name
    raise ParseError(f"expected a label, got {t.text!r}", t.line, t.col)


def _state_token(t: _Tok) -> str:
    if t.kind in ("word", "quoted"):
        return t.text
    raise ParseError(f"expected a state name, got {t.text!r}", t.line, t.col)


def parse_model(text: str) -> Union[IA, AIA]:
    """Parse one model file into an interface automaton or alternating one."""
    lines = [(n + 1, _tokenize_line(raw, n + 1)) for n, raw in enumerate(text.splitlines())]
    lines = [(n, toks) for n, toks in lines if toks]
    if not lines:
        raise ParseError("empty model: missing header", 1)

    lineno, header = lines[0]
    if header[0].kind != "word" or header[0].text not in ("ia", "aia"):
        raise ParseError("header must be 'ia NAME' or 'aia NAME'", lineno)
    if len(header) != 2:
        raise ParseError("header must be 'ia NAME' or 'aia NAME'", lineno)
    kind = header[0].text
    name = _state_token(header[1])

    sections: dict[str, tuple[int, list[_Tok]]] = {}
    transitions: list[tuple[int, list[_Tok]]] = []
    for n, toks in lines[1:]:
        first = toks[0]
        if first.kind == "word" and first.text in ("states", "inputs", "outputs", "init"):
            if first.text in sections:
                raise ParseError(f"duplicate {first.text!r} line", n)
            sections[first.text] = (n, toks[1:])
        else:
            transitions.append((n, toks))

    def word_list(section: str) -> list[str]:
        if section not in sections:
            return []
        n, toks = sections[section]
        names = []
        for t in toks:
            if t.kind == "word":
                names.append(t.text)
            elif t.kind == "label" and t.text.startswith("~"):
                names.append(t.text)  # refusal label name
            else:
                raise ParseError(f"{section} entries must be plain names", t.line, t.col)
        return names

    inputs = set(word_list("inputs"))
    outputs = set(word_list("outputs"))
    for a in inputs:
        if a.startswith("~"):
            raise ParseError(f"input {a!r} may not carry the refusal prefix", lineno)
    if "inputs" not in sections or "outputs" not in sections:
        raise ParseError("model needs 'inputs' and 'outputs' lines", lineno)
    if "init" not in sections:
        raise ParseError("model needs an 'init' line", lineno)

    declared: Optional[set[str]] = None
    if "states" in sections:
        n, toks = sections["states"]
        declared = {_state_token(t) for t in toks}

    init_line, init_toks = sections["init"]

    collected: set[str] = set()
    seen_pairs: set[tuple[str, str]] = set()
    raw_trans: dict[str, dict[str, object]] = {}

    def note_state(state: str, n: int):
        if declared is not None and state not in declared:
            raise ParseError(f"undeclared state {state!r}", n)
        collected.add(state)

    if kind == "ia":
        initial = []
        for t in init_toks:
            st = _state_token(t)
            note_state(st, init_line)
            initial.append(st)
    else:
        initial_cfg = _parse_config(init_toks, init_line)
        for q in initial_cfg.states():
            note_state(q, init_line)

    for n, toks in transitions:
        if len(toks) < 4 or toks[2].kind != "punct" or toks[2].text != "->":
            raise ParseError("transition must be 'STATE LABEL -> TARGETS'", n)
        src = _state_token(toks[0])
        note_state(src, n)
        label = _parse_label_token(toks[1], inputs, outputs)
        if (src, label) in seen_pairs:
            raise ParseError(f"duplicate transition for {src!r} on {toks[1].text!r}", n)
        seen_pairs.add((src, label))
        rhs = toks[3:]
        if kind == "ia":
            succs = []
            expect_state = True
            for t in rhs:
                if expect_state:
                    st = _state_token(t)
                    note_state(st, n)
                    succs.append(st)
                elif t.kind != "punct" or t.text != "|":
                    raise ParseError("ia successors are separated by '|'", t.line, t.col)
                expect_state = not expect_state
            if expect_state:
                raise ParseError("dangling '|' in successor list", n)
            raw_trans.setdefault(src, {})[label] = set(succs)
        else:
            cfg = _parse_config(rhs, n)
            if label in inputs and cfg.is_bot:
                raise ParseError(
                    f"input transition {src!r} --{label}--> may not be F", n
                )
            for q in cfg.states():
                note_state(q, n)
            raw_trans.setdefault(src, {})[label] = cfg

    states = declared if declared is not None else collected
    try:
        if kind == "ia":
            return IA(states, inputs, outputs, raw_trans, initial, name=name)
        return AIA(states, inputs, outputs, raw_trans, initial_cfg, name=name)
    except AltiaError as exc:  # surface semantic problems with the file context
        raise ParseError(str(exc), lineno) from exc


def _decorate(label: str, inputs) -> str:
    if label.startswith("~"):
        return label
    return ("?" if label in inputs else "!") + label


def print_model(m: Union[IA, AIA]) -> str:
    """Canonical text form of a model; stable under parse/print round trips."""
    is_ia = isinstance(m, IA)
    lines = [f"{'ia' if is_ia else 'aia'} {_quote(m.name)}"]
    lines.append(("states " + " ".join(_quote(q) for q in sorted(m.states))).rstrip())
    lines.append(("inputs " + " ".join(sorted(m.inputs))).rstrip())
    lines.append(("outputs " + " ".join(sorted(m.outputs))).rstrip())
    if is_ia:
        lines.append(("init " + " ".join(_quote(q) for q in sorted(m.initial))).rstrip())
    else:
        lines.append(f"init {expr_str(m.initial)}")
    for q in sorted(m.states):
        row = m.transitions.get(q, {})
        for label in sorted(row, key=lambda l: (_decorate(l, m.inputs)[0] != "?", l)):
            target = row[label]
            if is_ia:
                rhs = " | ".join(_quote(r) for r in sorted(target))
            else:
                if label in m.inputs and target.is_top:
                    continue  # default
                if label in m.outputs and target.is_bot:
                    continue  # default
                rhs = expr_str(target)
            lines.append(f"{_quote(q)} {_decorate(label, m.inputs)} -> {rhs}")
    return "\n".join(lines) + "\n"


def load_model(path) -> Union[IA, AIA]:
    with open(path, encoding="utf-8") as fh:
        try:
            return parse_model(fh.read())
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def save_model(path, m: Union[IA, AIA]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(print_model(m))


def _dot_id(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(m: Union[IA, AIA]) -> str:
    """Graphviz rendering.

    Interface automata are drawn state-to-state; ``pass``/``fail`` get
    double circles.  For alternating automata a disjunction is drawn as
    parallel same-labelled arrows and a conjunctive clause as an arrow to
    a junction point fanning out to the clause members; top targets
    share one node drawn as ``T``.  Helper nodes (start points, junctions,
    ``T``) are named with a prefix that no state name starts with.
    """
    helper = "__"
    while any(q.startswith(helper) for q in m.states):
        helper += "_"
    out = ["digraph " + _dot_id(m.name) + " {", "  rankdir=TB;"]
    is_ia = isinstance(m, IA)
    for q in sorted(m.states):
        shape = "doublecircle" if q in ("pass", "fail") else "ellipse"
        out.append(f"  {_dot_id(q)} [shape={shape}];")
    junctions = 0

    def clause_targets(prefix: str, label_text: str, cfg: Config) -> list[str]:
        nonlocal junctions
        lines = []
        if cfg.is_top:
            lines.append(f"  {prefix} -> {helper}top [label={_dot_id(label_text)}];")
            return lines
        for clause in sorted_clauses(cfg.clauses):
            if len(clause) == 1:
                lines.append(
                    f"  {prefix} -> {_dot_id(clause[0])} [label={_dot_id(label_text)}];"
                )
            else:
                junctions += 1
                j = f"{helper}j{junctions}"
                lines.append(f"  {j} [shape=point,width=0.06];")
                lines.append(f"  {prefix} -> {j} [label={_dot_id(label_text)},arrowhead=none];")
                for q2 in clause:
                    lines.append(f"  {j} -> {_dot_id(q2)};")
        return lines

    body: list[str] = []
    uses_top = False
    if is_ia:
        for k, q in enumerate(sorted(m.initial)):
            body.append(f"  {helper}init{k} [shape=point,style=invis];")
            body.append(f"  {helper}init{k} -> {_dot_id(q)};")
        for q in sorted(m.states):
            for label in sorted(m.transitions.get(q, {})):
                for r in sorted(m.succ(q, label)):
                    body.append(
                        f"  {_dot_id(q)} -> {_dot_id(r)} "
                        f"[label={_dot_id(_decorate(label, m.inputs))}];"
                    )
    else:
        body.append(f"  {helper}init0 [shape=point,style=invis];")
        if m.initial.is_top:
            uses_top = True
            body.append(f"  {helper}init0 -> {helper}top;")
        elif not m.initial.is_bot:
            body.extend(clause_targets(f"{helper}init0", "", m.initial))
        for q in sorted(m.states):
            for label in sorted(m.transitions[q]):
                cfg = m.transitions[q][label]
                if label in m.inputs and cfg.is_top:
                    continue
                if label in m.outputs and cfg.is_bot:
                    continue
                if cfg.is_top:
                    uses_top = True
                body.extend(clause_targets(_dot_id(q), _decorate(label, m.inputs), cfg))
    if uses_top:
        out.append(f'  {helper}top [shape=none,label="T"];')
    out.extend(body)
    out.append("}")
    return "\n".join(out) + "\n"
