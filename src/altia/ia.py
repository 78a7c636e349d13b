"""Interface automata with input-failure trace semantics.

An interface automaton has disjoint input and output alphabets,
set-valued transitions and a finite set of initial states.  Besides the
usual traces, its observable behaviour includes *input failures*: after
a trace, offering an input that no reached state accepts is itself an
observation, written ``~a`` in text form.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import AlphabetError, ModelError
from .search import Search


class Label(NamedTuple):
    """An action name tagged with its direction."""

    name: str
    is_input: bool

    def __str__(self):
        return ("?" if self.is_input else "!") + self.name


def inp(name: str) -> Label:
    return Label(name, True)


def out(name: str) -> Label:
    return Label(name, False)


class FTrace(NamedTuple):
    """An observation word: labels, optionally ended by one input failure.

    ``failure`` holds the name of the input that was refused after
    ``body``; ``None`` for a plain trace.
    """

    body: tuple[Label, ...] = ()
    failure: Optional[str] = None

    @property
    def plain(self) -> bool:
        return self.failure is None

    def __str__(self):
        parts = [str(l) for l in self.body]
        if self.failure is not None:
            parts.append("~" + self.failure)
        return " ".join(parts)


class _Automaton:
    """What interface and alternating automata share.

    An automaton is its states, its disjoint input and output alphabets,
    its transition table and its initial value, all taken as frozensets
    or as tables that must not be mutated.  Equality compares these
    parts between automata of the same kind; the ``name`` is
    presentation metadata that equality ignores, and automata are not
    hashable.  Each automaton keeps one private cache, built from its
    parts on first use by the subclass that reads it and freed with the
    automaton.
    """

    _cache = None  # set on the instance by its first use

    def __init__(self, states, inputs, outputs, name):
        self.name = name
        self.states = frozenset(states)
        self.inputs = frozenset(inputs)
        self.outputs = frozenset(outputs)
        overlap = self.inputs & self.outputs
        if overlap:
            raise AlphabetError(f"inputs and outputs overlap: {sorted(overlap)}")

    @classmethod
    def _valid(cls, states, inputs, outputs, transitions, initial, name):
        """An automaton from parts that are valid by construction, taken
        as they are: frozensets for the states and alphabets, and the
        table and initial value that the constructor would store.  The
        caller makes every check of the constructor that its own input
        can fail."""
        self = object.__new__(cls)
        self.name = name
        self.states = states
        self.inputs = inputs
        self.outputs = outputs
        self.transitions = transitions
        self.initial = initial
        return self

    @property
    def labels(self) -> frozenset[str]:
        return self.inputs | self.outputs

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return (
            self.states == other.states
            and self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.initial == other.initial
            and self.transitions == other.transitions
        )

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, {len(self.states)} states)"


class IA(_Automaton):
    """An interface automaton.

    ``initial`` is a set of states, and ``transitions`` maps state ->
    label name -> successor states; pairs without an entry have no
    transition, and no successor set is empty.  Instances are validated
    on construction and must be treated as immutable afterwards; all
    operations on them are pure.

    The private cache is the successor index, built from
    ``transitions`` on first use: per state, its row in sorted label
    order with sorted successor tuples (a label missing from it has no
    transition), and each input paired with its refusal label ``~a``, in
    sorted order.
    """

    def __init__(self, states, inputs, outputs, transitions, initial, name="ia"):
        super().__init__(states, inputs, outputs, name)
        self.initial = frozenset(initial)
        if not self.initial <= self.states:
            raise ModelError(f"initial states {sorted(self.initial - self.states)} not declared")
        table: dict[str, dict[str, frozenset[str]]] = {}
        for q, row in transitions.items():
            if q not in self.states:
                raise ModelError(f"transition from undeclared state {q!r}")
            for label, succs in row.items():
                if label not in self.inputs and label not in self.outputs:
                    raise AlphabetError(f"transition on undeclared label {label!r}")
                ss = frozenset(succs)
                if not ss <= self.states:
                    raise ModelError(
                        f"transition {q!r} --{label}--> targets undeclared states "
                        f"{sorted(ss - self.states)}"
                    )
                if ss:
                    table.setdefault(q, {})[label] = ss
        self.transitions = table

    def _successors(self):
        """The successor index: (rows, refusals), built on first use."""
        index = self._cache
        if index is None:
            rows = {q: {l: tuple(sorted(row[l])) for l in sorted(row)}
                    for q, row in self.transitions.items()}
            index = self._cache = rows, tuple((a, "~" + a) for a in sorted(self.inputs))
        return index

    def succ(self, q: str, label_name: str) -> frozenset[str]:
        return self.transitions.get(q, {}).get(label_name, frozenset())


def _check_label(s, lab: Label):
    if lab.is_input:
        if lab.name not in s.inputs:
            raise AlphabetError(f"{lab} is not an input of {s.name!r}")
    elif lab.name not in s.outputs:
        raise AlphabetError(f"{lab} is not an output of {s.name!r}")


def _check_ftrace(s, ft: FTrace):
    for lab in ft.body:
        _check_label(s, lab)
    if ft.failure is not None and ft.failure not in s.inputs:
        raise AlphabetError(f"~{ft.failure} does not refuse an input of {s.name!r}")


def after_set(s: IA, from_states: Iterable[str], trace: Sequence[Label]) -> frozenset[str]:
    """States reachable from ``from_states`` along ``trace``.

    Empty exactly when the trace cannot be followed from any of them.
    """
    cur = frozenset(from_states)
    if not cur <= s.states:
        raise ModelError(f"states {sorted(cur - s.states)} not declared in {s.name!r}")
    for lab in trace:
        _check_label(s, lab)
    return _after(s, cur, trace)


def _after(s: IA, cur: frozenset[str], trace: Sequence[Label]) -> frozenset[str]:
    # after_set without its checks, for callers that have made them
    for lab in trace:
        cur = frozenset(r for q in cur for r in s.succ(q, lab.name))
    return cur


def in_set(s: IA, states: Iterable[str]) -> frozenset[str]:
    """Inputs accepted by all of the given states (all inputs for none)."""
    qs = frozenset(states)
    return frozenset(a for a in s.inputs if all(s.succ(q, a) for q in qs))


def deterministic(s: IA) -> bool:
    """Whether every trace leads to at most one state.

    Decided by a search over reachable states that fails on a second
    initial state or on a state with two successors under one label.  As
    long as every set of states a trace reaches is a singleton, the next
    such set is one state's successor set, so a trace reaches two states
    exactly when some reachable state has two successors under one label.
    """
    if len(s.initial) > 1:
        return False
    search = Search(s.initial)
    for _, q in search:
        for succs in s.transitions.get(q, {}).values():
            if len(succs) > 1:
                return False
            for r in succs:
                search.push(r)
    return True


def ftrace_member(s: IA, ft: FTrace) -> bool:
    """Whether the observation belongs to the automaton's behaviour.

    A plain trace belongs iff it can be followed; a failure-terminated
    one iff some reached state refuses the input (so never after a trace
    that cannot be followed at all).
    """
    _check_ftrace(s, ft)
    reached = _after(s, s.initial, ft.body)
    if ft.failure is None:
        return bool(reached)
    return any(not s.succ(q, ft.failure) for q in reached)


def fcl_member(s: IA, ft: FTrace) -> bool:
    """Membership in the input-failure closure of the behaviour.

    The closure also contains every word that proceeds past an input the
    automaton may refuse: once a refusal is possible, any continuation
    after accepting that input is unconstrained.  One walk along the
    trace decides it, stopping at the first such input.
    """
    _check_ftrace(s, ft)
    reached = s.initial

    def may_refuse(a: str) -> bool:  # some reached state has no a-transition
        return any(not s.succ(q, a) for q in reached)

    for lab in ft.body:
        if lab.is_input and may_refuse(lab.name):
            return True  # the refusal is an observation: any continuation is admitted
        reached = frozenset(r for q in reached for r in s.succ(q, lab.name))
    if ft.failure is None:
        return bool(reached)
    return may_refuse(ft.failure)
