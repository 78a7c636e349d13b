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
from .lattice import Config, Kind, bot, classify, embed, expr_str, top
from .search import DEFAULT_CAP, reachable


def check_deterministic(s: AIA, cap: int = DEFAULT_CAP) -> bool:
    """Whether every reachable configuration is top, bottom or one state."""
    if classify(s.initial) is Kind.COMPOUND:
        return False
    return all(classify(e) is not Kind.COMPOUND for e in reachable(s, cap))


def det(s: AIA, cap: int = DEFAULT_CAP) -> AIA:
    """The determinization of ``s``.

    Each reachable nontrivial configuration becomes a state, named by
    its canonical expression string (quoted where ambiguous, so distinct
    configurations get distinct names); successors are re-wrapped as
    single states (or kept as top/bottom).  The result is always
    deterministic and has the same input-failure traces as ``s``.
    """
    reach = reachable(s, cap)
    # each configuration is named and embedded once, and the det table
    # shares that one state object; the successors in the table are the
    # automaton's canonical objects, so these lookups hit by identity
    names = {e: expr_str(e) for e in reach}
    singles = {e: embed(name) for e, name in names.items()}

    def promote(e: Config) -> Config:
        k = classify(e)
        if k is Kind.TOP:
            return top()
        if k is Kind.BOT:
            return bot()
        return singles[e]

    trans = {
        names[e]: {label: promote(t) for label, t in row.items()}
        for e, row in reach.items()
    }
    return AIA(
        names.values(),
        s.inputs,
        s.outputs,
        trans,
        promote(s.initial),
        name=f"det({s.name})",
    )
