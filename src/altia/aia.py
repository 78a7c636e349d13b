"""Alternating interface automata.

Transitions target lattice configurations instead of state sets, so
nondeterminism (disjunction) and view composition (conjunction) live
uniformly in the transition function.  An input mapped to top is
underspecified (accepting it leads to unconstrained behaviour); an
output mapped to bottom is forbidden.  Inputs may never map to bottom:
refusing an input is expressed by the environment's failure observation,
not by the model.

Configurations are name-based :class:`~altia.lattice.Config` values at
the public boundary only.  Inside, each automaton numbers them in its
mask kernel (see :mod:`altia._kernel`), and the searches step and
compare the kernel's int ids.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from ._kernel import _MaskKernel
from .errors import AlphabetError, ModelError
from .ia import IA, FTrace, _Automaton, _check_label
from .lattice import Config, _from_antichain, bot, embed, substitute, top
from .search import DEFAULT_CAP, Search


class AIA(_Automaton):
    """An alternating interface automaton.

    ``initial`` is a Config, and ``transitions`` maps state -> label name
    -> Config; omitted entries default to top for inputs and bottom for
    outputs, matching the convention that an undrawn input is
    underspecified and an undrawn output is forbidden.  The constructor
    checks the given table entry by entry in the caller's order, so a
    table with several defects reports its first, and then fills the
    defaults after each row's given entries: the stored table is total.
    Instances are immutable and all operations on them are pure.

    The private cache is the mask kernel that steps the automaton's
    configurations, built on first use; a configuration with an
    undeclared state is refused with :class:`~altia.errors.ModelError`.
    See :mod:`altia._kernel` for its memos.
    """

    def __init__(self, states, inputs, outputs, transitions, initial, name="aia"):
        super().__init__(states, inputs, outputs, name)
        if not isinstance(initial, Config):
            raise ModelError("initial configuration must be a Config")
        if not initial.states() <= self.states:
            raise ModelError(
                f"initial configuration uses undeclared states "
                f"{sorted(initial.states() - self.states)}"
            )
        self.initial = initial
        table: dict[str, dict[str, Config]] = {}
        for q, given in transitions.items():
            if q not in self.states:
                raise ModelError(f"transition from undeclared state {q!r}")
            for label, cfg in given.items():
                if label in self.inputs:
                    if cfg.is_bot:
                        raise ModelError(f"input transition {q!r} --{label}--> may not be bottom")
                elif label not in self.outputs:
                    raise AlphabetError(f"transition on undeclared label {label!r}")
                if not cfg.states() <= self.states:
                    raise ModelError(
                        f"transition {q!r} --{label}--> uses undeclared states "
                        f"{sorted(cfg.states() - self.states)}"
                    )
            table[q] = dict(given)
        for q in self.states:
            row = table.setdefault(q, {})
            for a in self.inputs:
                row.setdefault(a, top())
            for x in self.outputs:
                row.setdefault(x, bot())
        self.transitions = table

    def _masks(self) -> _MaskKernel:
        kernel = self._cache
        if kernel is None:
            kernel = self._cache = _MaskKernel(self)
        return kernel

    def step(self, e: Config, label_name: str) -> Config:
        """One-step successor configuration of ``e`` under a label name:
        ``e`` with each state replaced by its target, renormalized."""
        if label_name not in self.inputs and label_name not in self.outputs:
            raise AlphabetError(f"{label_name!r} is not a label of {self.name!r}")
        k = self._masks()
        return k.decode(k.step(k.encode(e), k.index[label_name]))


def _walk(s: AIA, k, m: int, trace) -> int:
    """The id of kernel ``k`` reached from id ``m`` along a label sequence."""
    step, index = k.step, k.index
    for lab in trace:
        _check_label(s, lab)
        m = step(m, index[lab.name])
    return m


def after(s: AIA, e: Config, trace) -> Config:
    """The configuration reached from ``e`` along a label sequence."""
    k = s._masks()
    return k.decode(_walk(s, k, k.encode(e), trace))


def after_trace(s: AIA, trace) -> Config:
    """``after`` from the initial configuration."""
    k = s._masks()
    return k.decode(_walk(s, k, k.initial, trace))


def ftrace_member(s: AIA, ft: FTrace) -> bool:
    """Input-failure trace membership.

    A plain trace belongs iff it does not reach bottom; a
    failure-terminated one iff accepting the refused input would reach
    top (the input is underspecified there).
    """
    if ft.failure is not None and ft.failure not in s.inputs:
        raise AlphabetError(f"~{ft.failure} does not refuse an input of {s.name!r}")
    k = s._masks()
    m = _walk(s, k, k.initial, ft.body)
    if ft.failure is None:
        return m != k.bottom
    return k.step(m, k.index[ft.failure]) == k.top


class TraceStatus(Enum):
    ALLOWED = "Allowed"
    FORBIDDEN = "Forbidden"
    UNDERSPECIFIED = "Underspecified"


def trace_verdict(s: AIA, trace) -> tuple[TraceStatus, Config]:
    """Three-way verdict for a plain trace, with the reached configuration."""
    e = after_trace(s, trace)
    if e.is_bot:
        return TraceStatus.FORBIDDEN, e
    if e.is_top:
        return TraceStatus.UNDERSPECIFIED, e
    return TraceStatus.ALLOWED, e


def _require_same_alphabets(a, b):
    if a.inputs != b.inputs or a.outputs != b.outputs:
        raise AlphabetError(
            f"{a.name!r} and {b.name!r} have different alphabets; "
            "composition and refinement need identical inputs and outputs"
        )


def rename_states(s: AIA, mapping) -> AIA:
    """Copy of ``s`` with states renamed by an injective mapping."""
    if len(set(mapping[q] for q in s.states)) != len(s.states):
        raise ModelError("state renaming must be injective")
    # one distinct state per state: the lattice's renaming
    f = {q: embed(mapping[q]) for q in s.states}
    trans = {
        mapping[q]: {l: substitute(cfg, f) for l, cfg in row.items()}
        for q, row in s.transitions.items()
    }
    return AIA(
        [mapping[q] for q in s.states],
        s.inputs,
        s.outputs,
        trans,
        substitute(s.initial, f),
        name=s.name,
    )


def _force_disjoint(s1: AIA, s2: AIA) -> tuple[AIA, AIA]:
    if s1.states & s2.states:
        s1 = rename_states(s1, {q: q + "#1" for q in s1.states})
        s2 = rename_states(s2, {q: q + "#2" for q in s2.states})
    return s1, s2


def _compose(s1: AIA, s2: AIA, combine, name: str) -> AIA:
    _require_same_alphabets(s1, s2)
    # both operands are valid over equal alphabets and, once forced
    # apart, disjoint states: their union is valid as it stands
    a, b = _force_disjoint(s1, s2)
    return AIA._valid(
        a.states | b.states,
        s1.inputs,
        s1.outputs,
        {**a.transitions, **b.transitions},
        combine(a.initial, b.initial),
        name,
    )


def conj(s1: AIA, s2: AIA, name: Optional[str] = None) -> AIA:
    """Conjunction: behaviour allowed by both operands."""
    return _compose(s1, s2, lambda a, b: a & b, name or f"({s1.name} and {s2.name})")


def disj(s1: AIA, s2: AIA, name: Optional[str] = None) -> AIA:
    """Disjunction: behaviour allowed by either operand."""
    return _compose(s1, s2, lambda a, b: a | b, name or f"({s1.name} or {s2.name})")


def aia_top(inputs, outputs, name="top") -> AIA:
    """The specification that allows everything."""
    return AIA((), inputs, outputs, {}, top(), name=name)


def aia_bot(inputs, outputs, name="bottom") -> AIA:
    """The specification that allows nothing."""
    return AIA((), inputs, outputs, {}, bot(), name=name)


def _states_join(names) -> Config:
    # distinct single-state clauses contain no other: an antichain as it stands
    return _from_antichain(frozenset(frozenset((q,)) for q in names))


def induce_aia(i: IA) -> AIA:
    """The alternating view of an interface automaton.

    Successor sets become disjunctions; an input without transitions
    becomes top (underspecified), an output without transitions bottom
    (forbidden, since an empty disjunction is bottom).  The table is total
    over ``i``'s states, which hold every target, and no input maps to
    bottom, so the automaton is valid by construction.
    """
    trans: dict[str, dict[str, Config]] = {}
    for q in i.states:
        given = i.transitions.get(q, {})
        row = {a: _states_join(given[a]) if a in given else top() for a in i.inputs}
        row.update((x, _states_join(given.get(x, ()))) for x in i.outputs)
        trans[q] = row
    return AIA._valid(
        i.states, i.inputs, i.outputs, trans, _states_join(i.initial), f"aia({i.name})"
    )


def induce_ia(s: AIA) -> IA:
    """The interface-automaton view of an alternating one.

    States are the clauses reachable from the initial configuration's
    normal form; each acts as the conjunction of its members.  The empty
    clause is chaotic: all its behaviour is unconstrained.  Moving to a
    fully underspecified input is expressed by removing the transition
    rather than by an edge, so only reachable clauses are materialized.
    The clauses are searched in the mask kernel as one-clause
    configurations, each stepped to its image; visiting more than
    ``DEFAULT_CAP`` clauses raises :class:`~altia.errors.ExplorationLimitError`.
    """
    k = s._masks()
    n_inputs = len(s.inputs)
    initial = k.clauses(k.initial)
    search = Search(initial, DEFAULT_CAP)
    trans: dict[str, dict[str, set[str]]] = {}
    for _, c in search:
        row: dict[str, set[str]] = {}
        for j, t in enumerate(k.full_row(c)):
            if t == k.bottom or t == k.top and j < n_inputs:
                continue
            succs = k.clauses(t)
            row[k.labels[j]] = set(map(k.name, succs))
            for d in succs:
                search.push(d)
        trans[k.name(c)] = row
    initial_names = set(map(k.name, initial))
    return IA(set(trans), s.inputs, s.outputs, trans, initial_names, name=f"ia({s.name})")
