"""Testers, test execution and test-case generation.

A tester is an interface automaton run against a black-box
implementation: the implementation's inputs are the tester's outputs
(stimuli) and vice versa (observations).  For every stimulus ``a`` the
tester also offers the refusal observation ``~a``, so a blocked input is
itself observable.  Two sink states, ``pass`` and ``fail``, carry the
verdict; testing is reachability of ``fail`` in the synchronous product
of tester and implementation, which reads both automata's successor
indexes (see :class:`~altia.ia.IA`).

A *test case* is a tester that offers at most one stimulus per state and
whose runs all reach a verdict in finitely many steps.  Test cases are
obtained by weakening a specification to a *singular* one: a finite tree
of traces, each node constraining at most one input, everything else
left unconstrained.  Testers of singular specifications are sound: they
never fail a correct implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import Optional, Sequence

from . import aia as _aia
from . import ia as _ia
from .aia import AIA, aia_bot, aia_top
from .determinize import _relabelled
from .errors import AlphabetError, ModelError
from .ia import IA, FTrace, Label, inp
from .lattice import Config, Kind, bot, classify, embed, top
from .rng import SplitMix64
from .search import DEFAULT_CAP, Search, _rows

PASS = "pass"
FAIL = "fail"
_PASS, _FAIL = frozenset((PASS,)), frozenset((FAIL,))  # shared by every built tester


def refusal(name: str) -> str:
    return "~" + name


def is_refusal(name: str) -> bool:
    return name.startswith("~")


def refusal_base(name: str) -> str:
    return name[1:]


@dataclass(frozen=True)
class Tester:
    """An interface automaton with swapped alphabets and verdict sinks.

    Every instance satisfies the tester contract (see
    :func:`tester_problems`), so test execution never checks it: the
    constructor checks every instance it makes, once, and raises
    :class:`~altia.errors.ModelError` ("not a valid tester: ...") listing
    every violation.  Only :func:`build_tester`, whose testers hold the
    contract by construction, makes one without the check.  ``ia`` must
    not be mutated after construction.
    """

    ia: IA

    def __post_init__(self):
        problems = tester_problems(self)
        if problems:
            raise ModelError("not a valid tester: " + "; ".join(problems))

    @classmethod
    def _valid(cls, ia: IA) -> Tester:
        """A tester that satisfies the contract by construction, taken
        without the check."""
        t = object.__new__(cls)
        object.__setattr__(t, "ia", ia)
        return t

    @property
    def stimuli(self) -> frozenset[str]:
        """Implementation inputs the tester may supply."""
        return frozenset(x for x in self.ia.outputs if not is_refusal(x))

    @property
    def observations(self) -> frozenset[str]:
        """Implementation outputs the tester must accept."""
        return self.ia.inputs

    @property
    def initial(self) -> str:
        (q0,) = self.ia.initial
        return q0


def tester_problems(t: Tester) -> list[str]:
    """Violations of the tester contract; empty when well formed.

    Checks: single initial state, verdict states present and sinks
    without stimuli, determinism, every observation enabled everywhere,
    and each stimulus offered together with its refusal observation,
    which leads to a verdict: a refusal ends a run, since it is the last
    label of an input-failure trace.
    It is empty for every instance: the :class:`Tester` constructor runs
    it, and :func:`build_tester` makes testers that satisfy it by
    construction.
    """
    s = t.ia
    problems = []
    if len(s.initial) != 1:
        problems.append("tester must have exactly one initial state")
    for v in (PASS, FAIL):
        if v not in s.states:
            problems.append(f"verdict state {v!r} missing")
            continue
        if not all(s.succ(v, l) <= {v} for l in s.labels):
            problems.append(f"verdict state {v!r} is not a sink")
        if any(s.succ(v, x) for x in s.outputs):
            problems.append(f"verdict state {v!r} offers stimuli")
    stim = t.stimuli
    for r in s.outputs:
        if is_refusal(r) and refusal_base(r) not in stim:
            problems.append(f"refusal label {r!r} has no matching stimulus")
    for a in stim:
        if refusal(a) not in s.outputs:
            problems.append(f"stimulus {a!r} has no refusal label declared")
    if not _ia.deterministic(s):
        problems.append("tester is not deterministic")
    for q in sorted(s.states):
        if not all(s.succ(q, x) for x in s.inputs):
            problems.append(f"state {q!r} does not accept every observation")
        for a in sorted(stim):
            if bool(s.succ(q, a)) != bool(s.succ(q, refusal(a))):
                problems.append(f"state {q!r} offers {a!r} without its refusal (or vice versa)")
            if not s.succ(q, refusal(a)) <= {PASS, FAIL}:
                problems.append(f"state {q!r} continues after refusal {refusal(a)!r}")
    return problems


def build_tester(s: AIA, cap: int = DEFAULT_CAP) -> Tester:
    """Synthesize the canonical tester for a specification.

    States are the reachable nontrivial configurations plus the verdict
    sinks.  Observing an output moves to the successor configuration
    (``fail`` when forbidden, ``pass`` when it leads to unconstrained
    behaviour).  A stimulus is offered only where the specification
    constrains it; its refusal observation then leads to ``fail``.
    Underspecified inputs are not tested at all: both accepting and
    refusing them would pass.  The result satisfies the tester contract
    by construction and is returned without the constructor's check.
    """
    if PASS in s.states or FAIL in s.states:
        raise ModelError("specification states may not be named 'pass' or 'fail'")
    for a in s.inputs:
        if is_refusal(a):
            raise ModelError(f"input {a!r} clashes with the refusal-label prefix")
    # The one check of IA() that outside input can fail: an output of s
    # named like the refusal of one of its inputs.
    t_outputs = s.inputs | {refusal(a) for a in s.inputs}
    overlap = s.outputs & t_outputs
    if overlap:
        raise AlphabetError(f"inputs and outputs overlap: {sorted(overlap)}")
    # The tester relabels the determinization table: observations follow
    # the successor, a constrained stimulus also gets its refusal to fail.
    # No configuration is named 'pass' (checked above), so PASS marks top.
    # Rows are built as IA() would store them: frozensets, no empty row.
    k = s._masks()
    table = dict(_rows(k, cap))
    names, target = _relabelled(k, table, lambda q: frozenset((q,)), _PASS, _FAIL)
    trans: dict[str, dict[str, frozenset[str]]] = {}
    if s.outputs:
        trans[PASS] = dict.fromkeys(s.outputs, _PASS)
        trans[FAIL] = dict.fromkeys(s.outputs, _FAIL)
    index = k.index
    for m, succ in table.items():
        row = {x: target[succ[index[x]]] for x in s.outputs}
        for a in s.inputs:
            t = target[succ[index[a]]]
            if t is not _PASS:  # an underspecified (top) input is not tested
                row[a] = t
                row[refusal(a)] = _FAIL
        if row:
            trans[names[m]] = row
    states = frozenset((PASS, FAIL, *names.values()))
    initial = target[k.initial]
    return Tester._valid(
        IA._valid(states, s.outputs, t_outputs, trans, initial, f"tester({s.name})")
    )


def _check_compatible(t: Tester, i: IA) -> None:
    if not i.initial:
        raise ModelError(f"implementation {i.name!r} is empty: nothing to test")
    if i.inputs != t.stimuli or i.outputs != t.observations:
        raise AlphabetError(
            f"tester {t.ia.name!r} and implementation {i.name!r} have "
            "incompatible alphabets"
        )


def _product_moves(t: Tester, i: IA, qt: str, qi: str):
    """Enabled (label, [(qt', qi'), ...]) moves of the synchronous product,
    in sorted label order; a refusal ``~a`` fires exactly when the tester
    offers it and the implementation cannot take ``a``.  Both automata's
    successor indexes supply the sorted labels and successors."""
    trow = t.ia._successors()[0].get(qt, {})
    rows, refusals = i._successors()
    irow = rows.get(qi, {})
    moves = []
    for l, is_ in irow.items():
        ts = trow.get(l)
        if ts:
            moves.append((l, [(qt2, qi2) for qt2 in ts for qi2 in is_]))
    for a, r in refusals:
        ts = trow.get(r)
        if ts and a not in irow:
            moves.append((r, [(qt2, qi) for qt2 in ts]))
    return moves


@dataclass
class Verdict:
    """Outcome of a test run or of exhaustive test execution.

    ``witness`` is the observation that reached ``fail``.  ``log`` holds
    (step, label, tester state, implementation state) entries for
    simulated runs; ``note`` marks runs that ended without a verdict
    ("inconclusive": no move enabled, "max-steps": budget exhausted).
    """

    passed: bool
    witness: Optional[FTrace] = None
    log: list[tuple[int, str, str, str]] = field(default_factory=list)
    note: Optional[str] = None


def _labels_to_ftrace(labels: Sequence[str], impl_inputs: frozenset[str]) -> FTrace:
    # A refusal leads to a verdict, so only the last label can be one.
    failure = None
    if labels and is_refusal(labels[-1]):
        labels, failure = labels[:-1], refusal_base(labels[-1])
    return FTrace(tuple(Label(l, l in impl_inputs) for l in labels), failure)


def verdict_exhaustive(t: Tester, i: IA) -> Verdict:
    """Decide whether any resolution of the product can reach ``fail``.

    Breadth-first, so a failing implementation gets a shortest witness.
    """
    _check_compatible(t, i)
    search = Search((t.initial, qi) for qi in sorted(i.initial))
    for idx, (qt, qi) in search:
        if qt == FAIL:
            return Verdict(False, _labels_to_ftrace(search.path(idx), i.inputs))
        if qt == PASS:
            continue
        for label, succs in _product_moves(t, i, qt, qi):
            for nxt in succs:
                search.push(nxt, idx, label)
    return Verdict(True)


def run_random(t: Tester, i: IA, seed: int, max_steps: int = 100) -> Verdict:
    """Simulate one test run, resolving every race uniformly at random.

    All choices (which enabled move fires, which implementation successor
    a nondeterministic step takes, which initial state starts) are drawn
    from a splitmix64 stream, so a seed fully determines the run.
    """
    _check_compatible(t, i)
    rng = SplitMix64(seed)
    qt = t.initial
    initials = sorted(i.initial)
    qi = initials[rng.below(len(initials))]
    labels: list[str] = []
    log: list[tuple[int, str, str, str]] = []
    steps = 0
    while True:
        if qt == FAIL:
            return Verdict(False, _labels_to_ftrace(labels, i.inputs), log)
        if qt == PASS:
            return Verdict(True, None, log)
        if steps >= max_steps:
            return Verdict(True, None, log, note="max-steps")
        moves = _product_moves(t, i, qt, qi)
        if not moves:
            return Verdict(True, None, log, note="inconclusive")
        label, succs = moves[rng.below(len(moves))]
        qt, qi = succs[rng.below(len(succs))] if len(succs) > 1 else succs[0]
        steps += 1
        labels.append(label)
        log.append((steps, label, qt, qi))


def format_verdict(v: Verdict, with_log: bool = False) -> str:
    """Render a verdict: one PASS/FAIL line, then optional log lines."""
    if v.passed:
        lines = [PASS.upper()]
    else:
        witness = str(v.witness) if v.witness is not None else ""
        lines = [f"{FAIL.upper()} {witness}".rstrip()]
    if with_log:
        for step, label, qt, qi in v.log:
            lines.append(f"{step} {label} {qt} {qi}")
        if v.note:
            lines.append(f"# {v.note}")
    return "\n".join(lines)


def _node_name(trace: tuple[Label, ...]) -> str:
    return " ".join(str(l) for l in trace) if trace else "eps"


def gen_singular(s: AIA, seed: int, max_depth: int, p_stop: float) -> AIA:
    """Randomly weaken a specification to a singular one.

    Grows a tree of traces from the initial configuration.  At each node
    one constrained input (or none) is chosen to explore; every output
    the specification constrains is either followed or cut off to
    unconstrained with probability ``p_stop``.  Nothing longer than
    ``max_depth`` is constrained.  The result always refines loosely
    enough that its tester is a sound test case for ``s``.
    """
    if not 0.0 <= p_stop <= 1.0:
        raise ModelError("p_stop must be a probability")
    if s.initial.is_top:
        return aia_top(s.inputs, s.outputs, name=f"singular({s.name})")
    if s.initial.is_bot:
        return aia_bot(s.inputs, s.outputs, name=f"singular({s.name})")
    # The tree walks the kernel's configuration ids.
    k = s._masks()
    step, index, top_id, bottom_id = k.step, k.index, k.top, k.bottom
    rng = SplitMix64(seed)
    inputs = sorted(s.inputs)
    outputs = sorted(s.outputs)
    trans: dict[str, dict[str, Config]] = {}
    stack = [((), k.initial)]
    while stack:
        trace, e = stack.pop()
        name = _node_name(trace)
        depth = len(trace)
        can_extend = depth + 1 < max_depth
        row: dict[str, Config] = {}
        children = []
        candidates = [a for a in inputs if step(e, index[a]) != top_id]
        if candidates and can_extend:
            pick = rng.below(len(candidates) + 1)
            if pick > 0:
                a = candidates[pick - 1]
                child = trace + (inp(a),)
                row[a] = embed(_node_name(child))
                children.append((child, step(e, index[a])))
        for x in outputs:
            nxt = step(e, index[x])
            if nxt == bottom_id:
                continue
            if nxt == top_id or not can_extend or rng.random() < p_stop:
                row[x] = top()
            else:
                child = trace + (Label(x, False),)
                row[x] = embed(_node_name(child))
                children.append((child, nxt))
        trans[name] = row
        stack.extend(reversed(children))
    return AIA(
        set(trans),
        s.inputs,
        s.outputs,
        trans,
        embed("eps"),
        name=f"singular({s.name},{seed})",
    )


def singular_from_trace(s: AIA, ft: FTrace) -> AIA:
    """The singular specification that rejects one given observation.

    ``ft`` must not be an observation of ``s``.  The result is a linear
    trace tree whose last step forbids the offending output, or keeps
    the refused input constrained so its refusal stays disallowed; its
    tester makes any implementation showing ``ft`` fail.
    """
    if _aia.ftrace_member(s, ft):
        raise ModelError(f"{ft} is allowed by {s.name!r}; nothing to reject")
    name = f"reject({ft})" if str(ft) else "reject(empty)"
    body = list(ft.body)
    if ft.failure is None:
        # A plain trace ending in inputs is unreachable one step earlier
        # already (inputs never lead to bottom), so reject the shortest
        # prefix that is still no observation of s.
        while body and body[-1].is_input:
            body.pop()
        if not body:
            return aia_bot(s.inputs, s.outputs, name=name)
        chain, last = body[:-1], body[-1]
    else:
        chain, last = body, inp(ft.failure)

    trans: dict[str, dict[str, Config]] = {}
    all_top = {x: top() for x in s.outputs}
    prefix: tuple[Label, ...] = ()
    for lab in chain:
        row = dict(all_top)
        row[lab.name] = embed(_node_name(prefix + (lab,)))
        trans[_node_name(prefix)] = row
        prefix = prefix + (lab,)
    final = dict(all_top)
    if ft.failure is None:
        final[last.name] = bot()
        trans[_node_name(prefix)] = final
    else:
        leaf = prefix + (last,)
        final[last.name] = embed(_node_name(leaf))
        trans[_node_name(prefix)] = final
        trans[_node_name(leaf)] = dict(all_top)
    return AIA(set(trans), s.inputs, s.outputs, trans, embed("eps"), name=name)


def is_singular_for(s2: AIA, s1: AIA) -> bool:
    """Whether ``s2`` is a singular weakening of ``s1``.

    ``s2`` must be a fully reachable tree over traces: every transition
    targets bottom, top, or a fresh child node; forbidding is only
    allowed where ``s1`` forbids, anything ``s1`` leaves unconstrained
    must stay unconstrained, and each node constrains at most one input.
    """
    if s2.inputs != s1.inputs or s2.outputs != s1.outputs:
        return False
    k0 = classify(s2.initial)
    if k0 is Kind.TOP:
        return not s2.states
    if k0 is Kind.BOT:
        return s1.initial.is_bot and not s2.states
    if k0 is Kind.COMPOUND:
        return False
    if s1.initial.is_top:
        return False
    # s1 is walked on its kernel's configuration ids.
    k1 = s1._masks()
    root = s2.initial.single_state
    seen = {root}
    stack = [(root, k1.initial)]
    while stack:
        node, e1 = stack.pop()
        constrained_inputs = 0
        for label in sorted(s2.labels):
            cfg = s2.transitions[node][label]
            kind = classify(cfg)
            if label in s2.inputs and kind is not Kind.TOP:
                constrained_inputs += 1
            if kind is Kind.TOP:
                continue
            here = k1.step(e1, k1.index[label])
            if kind is Kind.BOT:
                if here != k1.bottom:
                    return False
                continue
            if kind is Kind.COMPOUND:
                return False
            if here == k1.top:
                return False
            child = cfg.single_state
            if child in seen:  # shared or looping target: not a tree
                return False
            seen.add(child)
            stack.append((child, here))
        if constrained_inputs > 1:
            return False
    return seen == set(s2.states)


def is_test_case(t: Tester) -> bool:
    """Whether a tester is directly executable as a test case.

    Requires at most one stimulus per state (a stimulus and its refusal
    observation count as one offer) and an acyclic non-verdict part, so
    every run reaches a verdict.
    """
    s = t.ia
    for q in s.states:
        offered = {a for a in t.stimuli if s.succ(q, a)}
        if len(offered) > 1:
            return False
    verdicts = {PASS, FAIL}
    graph = {
        q: {r for targets in s.transitions.get(q, {}).values() for r in targets} - verdicts
        for q in s.states - verdicts
    }
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True
