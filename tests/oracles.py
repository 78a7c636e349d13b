"""Independent reference semantics and random model generators.

The reference implementations here stay away from the library's
algorithmic paths on purpose: membership for alternating automata is
decided by structural boolean evaluation of the transition table (never
by substitution or antichain normalization), and membership for plain
automata by folding successor sets inline.  Library results are compared
against these on bounded trace universes.
"""

from altia import AIA, IA, FTrace, Label, inp
from altia.lattice import Config, bot, embed, top
from altia.rng import SplitMix64


# ---------------------------------------------------------------- universes

def all_labels(inputs, outputs):
    return [Label(a, True) for a in sorted(inputs)] + [
        Label(x, False) for x in sorted(outputs)
    ]


def universe(inputs, outputs, k):
    """Every observation word with at most k symbols (refusal counted)."""
    labels = all_labels(inputs, outputs)
    bodies = [()]
    level = [()]
    for _ in range(k):
        level = [b + (l,) for b in level for l in labels]
        bodies.extend(level)
    words = [FTrace(b) for b in bodies]
    words.extend(
        FTrace(b, a) for b in bodies if len(b) <= k - 1 for a in sorted(inputs)
    )
    return words


# -------------------------------------------------- alternating reference

def _eval(s: AIA, cfg: Config, trace, i: int, ones: bool, memo) -> bool:
    """Boolean evaluation of the configuration reached along trace[i:].

    With ``ones`` every state at the end of the word counts as true, so
    the result is "not bottom"; with all-false it is "is top".  Both
    valuations respect joins and meets, so the word can be consumed by
    structural recursion without ever normalizing a configuration.
    """
    key = (cfg, i, ones)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if i == len(trace):
        if ones:
            res = bool(cfg.clauses)
        else:
            res = frozenset() in cfg.clauses
    else:
        name = trace[i].name
        res = False
        for clause in cfg.clauses:
            if all(_eval(s, s.transitions[q][name], trace, i + 1, ones, memo) for q in clause):
                res = True
                break
    memo[key] = res
    return res


def aia_member(s: AIA, ft: FTrace) -> bool:
    """Reference input-failure membership for alternating automata."""
    if ft.failure is None:
        return _eval(s, s.initial, ft.body, 0, True, {})
    word = ft.body + (inp(ft.failure),)
    return _eval(s, s.initial, word, 0, False, {})


def aia_member_set(s: AIA, words) -> frozenset:
    return frozenset(str(w) for w in words if aia_member(s, w))


def aia_member_set_def(s: AIA, k: int) -> frozenset:
    """Membership set up to k symbols by folding the one-step successor.

    This is the definitional route (a walk of the label tree recording
    where the reached configuration is bottom or top); the boolean
    evaluator above stays fully independent of it and the two are
    cross-checked in the suites.
    """
    labels = [Label(l, l in s.inputs) for l in sorted(s.inputs) + sorted(s.outputs)]
    memo = {}

    def step(e, name):
        key = (e, name)
        r = memo.get(key)
        if r is None:
            r = s.step(e, name)
            memo[key] = r
        return r

    members = set()
    stack = [((), s.initial)]
    while stack:
        body, e = stack.pop()
        if e.is_bot:
            continue
        members.add(str(FTrace(body)))
        if len(body) >= k:
            continue
        for lab in labels:
            nxt = step(e, lab.name)
            if lab.is_input and nxt.is_top:
                members.add(str(FTrace(body, lab.name)))
            stack.append((body + (lab,), nxt))
    return frozenset(members)


# ------------------------------------------------------- plain reference

def ia_after(i: IA, body) -> frozenset:
    cur = frozenset(i.initial)
    for lab in body:
        cur = frozenset(r for q in cur for r in i.succ(q, lab.name))
    return cur


def ia_member(i: IA, ft: FTrace) -> bool:
    reached = ia_after(i, ft.body)
    if ft.failure is None:
        return bool(reached)
    if not reached:
        return False
    return any(not i.succ(q, ft.failure) for q in reached)


def ia_fcl_member(i: IA, ft: FTrace) -> bool:
    if ia_member(i, ft):
        return True
    for j, lab in enumerate(ft.body):
        if lab.is_input and ia_member(i, FTrace(ft.body[:j], lab.name)):
            return True
    return False


def product_moves(t, i: IA, qt: str, qi: str) -> list:
    """The moves of the product of tester ``t`` and ``i`` at ``(qt, qi)``,
    read from the two transition tables by name: per label of ``i`` in
    sorted order that both take, every pair of successors in sorted order;
    then per input ``a`` of ``i`` in sorted order that ``i`` cannot take,
    the tester's successors under ``~a``, paired with ``qi``."""
    trow, irow = t.ia.transitions.get(qt, {}), i.transitions.get(qi, {})
    moves = []
    for l in sorted(i.inputs | i.outputs):
        if l in trow and l in irow:
            moves.append((l, [(x, y) for x in sorted(trow[l]) for y in sorted(irow[l])]))
    for a in sorted(i.inputs):
        if "~" + a in trow and a not in irow:
            moves.append(("~" + a, [(x, qi) for x in sorted(trow["~" + a])]))
    return moves


def ia_member_set(i: IA, words) -> frozenset:
    return frozenset(str(w) for w in words if ia_member(i, w))


def ia_fcl_set(i: IA, words) -> frozenset:
    return frozenset(str(w) for w in words if ia_fcl_member(i, w))


def included(left_member, right_member, words):
    """First word in the left set missing from the right one, if any."""
    for w in words:
        if left_member(w) and not right_member(w):
            return w
    return None


# ------------------------------------------------------------- generators

def rand_config(rng: SplitMix64, states, allow_bot=True) -> Config:
    states = sorted(states)
    roll = rng.below(10)
    if roll == 0:
        return top()
    if roll == 1 and allow_bot:
        return bot()
    if not states:
        return top()
    n_clauses = 1 + rng.below(3)
    clauses = []
    for _ in range(n_clauses):
        size = 1 + rng.below(min(2, len(states)))
        clauses.append(frozenset(states[rng.below(len(states))] for _ in range(size)))
    return Config(clauses)


def rand_aia(rng: SplitMix64, n_states=4, inputs=("a", "b"), outputs=("x", "y"), name="rand") -> AIA:
    states = [f"q{k}" for k in range(1 + rng.below(n_states))]
    trans = {}
    for q in states:
        row = {}
        for a in inputs:
            row[a] = rand_config(rng, states, allow_bot=False)
        for x in outputs:
            row[x] = rand_config(rng, states)
        trans[q] = row
    roll = rng.below(10)
    if roll == 0:
        initial = top()
    elif roll == 1:
        initial = bot()
    else:
        initial = rand_config(rng, states)
    return AIA(states, inputs, outputs, trans, initial, name=name)


def rand_aia_stepping(rng: SplitMix64, count: int, **kwargs) -> list[AIA]:
    """The first ``count`` specs drawn by ``rand_aia`` whose initial
    configuration is neither top nor bottom, so that a search from it
    reaches at least one configuration; the others are drawn and dropped.
    ``rand_aia`` itself is left as it is, since other seeded tests read
    its stream."""
    specs: list[AIA] = []
    while len(specs) < count:
        s = rand_aia(rng, **kwargs)
        if not (s.initial.is_top or s.initial.is_bot):
            specs.append(s)
    return specs


def rand_ia(rng: SplitMix64, n_states=4, inputs=("a", "b"), outputs=("x", "y"), name="rand") -> IA:
    states = [f"p{k}" for k in range(1 + rng.below(n_states))]
    trans = {}
    for q in states:
        row = {}
        for l in list(inputs) + list(outputs):
            # sparse: most labels have no transition, some fan out
            roll = rng.below(10)
            if roll < 5:
                continue
            count = 1 if roll < 9 else 2
            row[l] = {states[rng.below(len(states))] for _ in range(count)}
        if row:
            trans[q] = row
    n_init = rng.below(len(states) + 1)
    initial = {states[rng.below(len(states))] for _ in range(n_init)} if n_init else set()
    return IA(states, inputs, outputs, trans, initial, name=name)


def rand_trace(rng: SplitMix64, inputs, outputs, max_len=6):
    labels = all_labels(inputs, outputs)
    return tuple(labels[rng.below(len(labels))] for _ in range(rng.below(max_len + 1)))


def rand_expr(rng: SplitMix64, generators, depth=4) -> Config:
    """A random lattice expression, evaluated to its canonical form."""
    roll = rng.below(8)
    if depth == 0 or roll < 3:
        if roll == 0:
            return top()
        if roll == 1:
            return bot()
        return embed(generators[rng.below(len(generators))])
    a = rand_expr(rng, generators, depth - 1)
    b = rand_expr(rng, generators, depth - 1)
    return (a | b) if rng.below(2) else (a & b)


def rand_wide_config(rng: SplitMix64, generators, max_clauses=6) -> Config:
    """A random configuration drawn as a join of up to ``max_clauses``
    meets of one to three generators; unlike ``rand_expr``, whose draws
    are mostly bottom or one clause, about two in five have three clauses
    or more after absorption.  Top and bottom come one draw in twenty each."""
    roll = rng.below(20)
    if roll == 0:
        return top()
    if roll == 1:
        return bot()
    return Config(
        frozenset(generators[rng.below(len(generators))] for _ in range(1 + rng.below(3)))
        for _ in range(1 + rng.below(max_clauses))
    )
