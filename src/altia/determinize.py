"""Determinization of alternating interface automata.

The determinized automaton has one state per nontrivial configuration
reachable from the initial one; following any trace then lands on top,
bottom, or a single such state.  Only the reachable part is built: the
full configuration space is astronomically large, but the observable
behaviour depends only on configurations that some trace actually
reaches.
"""

from __future__ import annotations

from .aia import AIA
from .lattice import _TOP_MASKS, bot, embed, top
from .search import DEFAULT_CAP, reachable


def check_deterministic(s: AIA, cap: int = DEFAULT_CAP) -> bool:
    """Whether every reachable configuration is top, bottom or one state."""

    def simple(m) -> bool:  # no clause, or one of at most one state bit
        return len(m) <= 1 and all(c & (c - 1) == 0 for c in m)

    # a compound initial configuration fails before any search
    return simple(s._masks().encode(s.initial)) and all(map(simple, reachable(s, cap)))


def det(s: AIA, cap: int = DEFAULT_CAP) -> AIA:
    """The determinization of ``s``.

    Each reachable nontrivial configuration becomes a state, named by
    its canonical expression string (quoted where ambiguous, so distinct
    configurations get distinct names); successors are re-wrapped as
    single states (or kept as top/bottom).  The result is always
    deterministic and has the same input-failure traces as ``s``.
    """
    reach = reachable(s, cap)
    k = s._masks()
    # each configuration is named and embedded once, as one shared state
    names = {m: k.name(m) for m in reach}
    states = {m: embed(name) for m, name in names.items()}
    states.update({_TOP_MASKS: top(), frozenset(): bot()})
    trans = {
        names[m]: {label: states[t] for label, t in row.items()}
        for m, row in reach.items()
    }
    return AIA(
        names.values(),
        s.inputs,
        s.outputs,
        trans,
        states[k.encode(s.initial)],
        name=f"det({s.name})",
    )
